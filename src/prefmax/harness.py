"""Experiment dispatch over fixtures, with machine-readable reports and traces."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from itertools import count
from math import isfinite

import numpy as np

from .cones import normal_membership, strict_normal_membership
from .descent import DescentConfig, DescentTrace, StepSchedule, run_descent
from .fixtures import Fixture, get_fixture, self_test_fixture
from .plastria import zero_maximality_check
from .points import GroundSet, Point, float_coords
from .relations import check_property, maximal_elements, maxima
from .vip import mvip_solutions, svip_solutions, uniqueness_check

SCHEMA_VERSION = 1

KNOWN_CHECKS = (
    "maximal", "maxima", "mvip", "mvip-empty", "svip", "svip-all",
    "svip-inclusion", "uniqueness", "zero-maximality", "cones",
    "complete", "transitive", "fip", "strict-gap",
)


class CapabilityError(ValueError):
    """The experiment descriptor asks a fixture for something it cannot do."""


@dataclass(frozen=True)
class ExperimentSpec:
    fixture: str
    suite: tuple[str, ...] | None = None
    ground: GroundSet | None = None
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not (isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class Verdict:
    check: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RunReport:
    command: str
    fixture: str
    verdicts: tuple[Verdict, ...]
    wall_time_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "fixture": self.fixture,
            "verdicts": [
                {"check": v.check, "pass": v.passed, "detail": v.detail}
                for v in self.verdicts
            ],
            "wall_time_s": self.wall_time_s,
        }


def _coords_set(points) -> set[tuple]:
    return {p.coords for p in points}


def _expected_set(exp) -> set[tuple]:
    return {tuple(float(c) for c in p) for p in exp}


def _set_verdict(check: str, actual: set, expected: set) -> Verdict:
    if actual == expected:
        return Verdict(check, True, f"{len(actual)} points as expected")
    extra = sorted(actual - expected)[:3]
    missing = sorted(expected - actual)[:3]
    return Verdict(check, False, f"extra={extra} missing={missing}")


def _run_check(name: str, fixture: Fixture, ground: GroundSet, spec: ExperimentSpec) -> Verdict:
    rel = fixture.relation
    exp = fixture.expectations

    if name == "maximal":
        window = _coords_set(ground)
        actual = {p.coords for p in maximal_elements(rel, fixture.me_ground(ground))
                  if p.coords in window}
        if exp.get("me") == "all":
            expected = window
        elif "me" in exp:
            expected = _expected_set(exp["me"])
        elif "nonmaximal" in exp:
            expected = window - _expected_set(exp["nonmaximal"])
        else:
            return Verdict(name, True, f"{len(actual)} maximal points (no expectation declared)")
        return _set_verdict(name, actual, expected)

    if name == "maxima":
        actual = _coords_set(maxima(rel, ground))
        return _set_verdict(name, actual, _expected_set(exp.get("maxima", ())))

    if name in ("mvip", "mvip-empty"):
        actual = _coords_set(vip_solutions(spec, "mvip")[1])
        expected = set() if name == "mvip-empty" else _expected_set(exp.get("mvip", ()))
        return _set_verdict(name, actual, expected)

    if name in ("svip", "svip-all"):
        actual = _coords_set(vip_solutions(spec, "svip")[1])
        expected = _coords_set(ground) if name == "svip-all" else _expected_set(exp.get("svip", ()))
        return _set_verdict(name, actual, expected)

    if name == "svip-inclusion":
        # the Stampacchia problem is posed on the window, so its solutions
        # meet the window's own maximal set, not the extended ground's
        svip = vip_solutions(spec, "svip")[1]
        me = _coords_set(maximal_elements(rel, ground))
        violators = sum(p.coords not in me for p in svip)
        held = violators == 0
        counts = (f"{len(svip)} solutions, all maximal" if held
                  else f"{violators} of {len(svip)} solutions not maximal")
        expected = exp.get("svip_subset_me", True)
        return Verdict(name, held == expected, f"inclusion {'held' if held else 'failed'} "
                       f"(expected {'hold' if expected else 'failure'}); {counts}")

    if name == "uniqueness":
        if fixture.cone_oracle is None:
            raise CapabilityError(f"fixture {fixture.name!r} has no cone oracle")
        got = uniqueness_check(rel, fixture.cone_oracle, ground, spec.tol,
                               me_ground=fixture.me_ground(ground))
        expected = exp.get("uniqueness", True)
        return Verdict(name, got == expected, f"equivalence={got}, expected {expected}")

    if name == "zero-maximality":
        if fixture.gap is None:
            raise CapabilityError(f"fixture {fixture.name!r} has no gap function")
        rng = np.random.default_rng(spec.seed)
        report = zero_maximality_check(fixture.gap, rel, ground, spec.tol, rng=rng)
        expected = exp.get("zero_maximality", True)
        return Verdict(name, report.holds == expected, report.detail or report.prop)

    if name == "cones":
        if fixture.cone_oracle is None:
            raise CapabilityError(f"fixture {fixture.name!r} has no cone oracle")
        try:
            self_test_fixture(fixture, seed=spec.seed or 12345, tol=spec.tol)
        except AssertionError as exc:
            return Verdict(name, False, str(exc))
        return Verdict(name, True, "closed-form cones match sampled membership")

    if name in ("complete", "transitive", "fip"):
        report = check_property(rel, ground, name)
        expected = exp.get(name, fixture.complete if name == "complete" else True)
        ok = report.holds == expected
        wit = f"; witness {report.witness}" if report.witness else ""
        return Verdict(name, ok, f"holds={report.holds}, expected {expected}{wit}")

    if name == "strict-gap":
        query = exp.get("weak_not_strict_query")
        if query is None:
            raise CapabilityError(f"fixture {fixture.name!r} declares no weak/strict gap query")
        query = tuple(float(c) for c in query)
        tested = 0
        for x in ground:
            sample = fixture.contour_sampler(x)
            if sample.is_empty:
                continue
            tested += 1
            if not normal_membership(sample, query, spec.tol):
                return Verdict(name, False, f"query rejected by the weak cone at {x}")
            if strict_normal_membership(sample, query):
                return Verdict(name, False, f"query accepted by the strict cone at {x}")
        if tested == 0:
            return Verdict(name, False, "no base point with a non-empty contour")
        return Verdict(name, True,
                       f"query {query} weakly accepted, strictly rejected at {tested} base points")

    raise CapabilityError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")


def vip_solutions(spec: ExperimentSpec, kind: str) -> tuple[GroundSet, list[Point]]:
    """The ground of `spec` and the Stampacchia ("svip") or Minty ("mvip")
    solutions on it, with the fixture's cones and contour sampler. The svip,
    mvip and svip-inclusion checks and `prefmax vip` all use these."""
    fixture = get_fixture(spec.fixture)
    ground = spec.ground if spec.ground is not None else fixture.default_ground
    if kind == "mvip":
        if fixture.cone_oracle is None:
            raise CapabilityError(f"fixture {fixture.name!r} has no cone oracle")
        return ground, mvip_solutions(fixture.cone_oracle, ground, spec.tol)
    return ground, svip_solutions(fixture.relation, ground, fixture.cone_oracle, tol=spec.tol,
                                  contour_sampler=fixture.contour_sampler)


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Run a named check suite against a fixture, in deterministic order."""
    started = time.perf_counter()
    fixture = get_fixture(spec.fixture)
    ground = spec.ground if spec.ground is not None else fixture.default_ground
    suite = spec.suite if spec.suite else fixture.default_suite
    if not suite:
        raise CapabilityError(f"fixture {spec.fixture!r} declares no default suite; pass one")
    for name in suite:
        if name not in KNOWN_CHECKS:
            raise CapabilityError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    verdicts = tuple(_run_check(name, fixture, ground, spec) for name in suite)
    command = f"check --fixture {spec.fixture} --suite {','.join(suite)}"
    return RunReport(command, spec.fixture, verdicts,
                     wall_time_s=time.perf_counter() - started)


def descend_fixture(name: str, x0, theta0: float = 1.0, schedule: StepSchedule | None = None,
                    max_iters: int = 10_000, eps: float = 0.0) -> DescentTrace:
    """Run the descent iteration on a fixture that carries a gap function."""
    fixture = get_fixture(name)
    if fixture.gap is None or fixture.descent_direction is None:
        raise CapabilityError(f"fixture {name!r} has no gap function registered")
    x1 = Point(tuple(float(c) for c in x0))
    if x1.dim != fixture.relation.dim:
        raise CapabilityError(
            f"fixture {name!r} is {fixture.relation.dim}-dimensional, got x0 of dim {x1.dim}")
    sched = schedule if schedule is not None else StepSchedule.harmonic(theta0)
    config = DescentConfig(lipschitz=fixture.gap.lipschitz, max_iters=max_iters, eps=eps)
    return run_descent(fixture.descent_oracle(), x1, sched, config,
                       reference=fixture.reference, gap=fixture.gap)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def _fmt_coords(coords: tuple | None) -> str:
    return "" if coords is None else ";".join(map(repr, coords))


def _json_value(value) -> str:
    """The text `json.dumps` writes for one trace value: float.__repr__ for a
    finite float, and json's own text for everything else (null, NaN,
    Infinity, -Infinity, an int)."""
    if value is None:
        return "null"
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_coords(coords: tuple | None) -> str:
    """A coordinate list as `json.dumps(..., indent=1)` lays it out inside a
    trace row."""
    if coords is None:
        return "null"
    if not coords:
        return "[]"
    return "[\n    " + ",\n    ".join(map(_json_value, coords)) + "\n   ]"


def _atomic_write(path: str, payload: str) -> None:
    """Write `payload` to a temporary file beside `path`, then move it over
    `path`. On failure the OSError propagates and no temporary file is left
    behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


TRACE_COLUMNS = ("k", "x", "xstar", "theta", "dist_to_ref", "gap_to_ref", "fejer_residual")


_CSV_ROW = "%d,%s,%s,%s,%s,%s,%s\n"

_JSON_ROW = ('{\n   "k": %d,\n   "x": %s,\n   "xstar": %s,\n   "theta": %s,\n'
             '   "dist_to_ref": %s,\n   "gap_to_ref": %s,\n   "fejer_residual": %s\n  }')


def _formatted(trace: DescentTrace, coords, value):
    """Each row's fields as text: k, then x and xstar through `coords`, then
    theta, dist, gap and residual through `value`."""
    return zip(count(1), map(coords, trace.xs), map(coords, trace.xstars),
               *(map(value, column) for column in (trace.thetas, trace.dists, trace.gaps,
                                                   trace.residuals)))


def emit_trace(trace: DescentTrace, fmt: str, path: str) -> str:
    """Write a trace as CSV (plot-ready columns) or JSON; atomic replace.

    Rows are formatted straight from the columns, one template per row. The
    CSV is what `csv.writer` writes for these rows: no field holds a comma,
    a quote or a line break, so none is quoted. The JSON is what
    `json.dumps(payload, indent=1)` writes; its header and trailer come from
    json itself, around a one-row placeholder."""
    if fmt == "csv":
        rows = map(_CSV_ROW.__mod__, _formatted(trace, _fmt_coords, _fmt))
        _atomic_write(path, ",".join(TRACE_COLUMNS) + "\n" + "".join(rows))
        return path
    if fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "termination": trace.termination,
            "reference": list(trace.reference.coords) if trace.reference else None,
            "lipschitz": trace.lipschitz,
            "rows": [0] if len(trace) else [],
        }
        text = json.dumps(payload, indent=1)
        if len(trace):
            head, _, tail = text.rpartition("0")
            rows = map(_JSON_ROW.__mod__, _formatted(trace, _json_coords, _json_value))
            text = head + ",\n  ".join(rows) + tail
        _atomic_write(path, text)
        return path
    raise ValueError(f"unknown trace format {fmt!r}; expected csv or json")


def load_trace_json(path: str) -> DescentTrace:
    """Read a trace `emit_trace` wrote as JSON. A file that is not one raises
    ValueError naming the file and the fault: bad JSON, another schema, a
    missing key, no rows, or rows not numbered k = 1..n. A non-finite
    coordinate raises the ValueError a Point gives."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON trace: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON trace: the top level is not an object")
    for key in ("schema", "termination", "reference", "lipschitz", "rows"):
        if key not in payload:
            raise ValueError(f"{path}: trace has no {key!r} key")
    if payload["schema"] != SCHEMA_VERSION:
        raise ValueError(f"{path}: trace schema {payload['schema']!r}, expected {SCHEMA_VERSION}")
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: trace has no rows")
    records = []
    for k, r in enumerate(rows, 1):
        if not isinstance(r, dict):
            raise ValueError(f"{path}: row {k} is not an object")
        for key in TRACE_COLUMNS:
            if key not in r:
                raise ValueError(f"{path}: row {k} has no {key!r} key")
        if r["k"] != k:
            raise ValueError(f"{path}: row {k} has k = {r['k']!r}; "
                             f"rows must be numbered 1..{len(rows)}")
        xstar = r["xstar"]
        records.append((float_coords(tuple(r["x"])),
                        None if xstar is None else float_coords(tuple(xstar)),
                        r["theta"], r["dist_to_ref"], r["gap_to_ref"], r["fejer_residual"]))
    ref = Point(tuple(payload["reference"])) if payload["reference"] else None
    return DescentTrace(*zip(*records), payload["termination"], reference=ref,
                        lipschitz=payload["lipschitz"])


def emit_report(report: RunReport, path: str) -> str:
    _atomic_write(path, json.dumps(report.to_dict(), indent=1))
    return path
