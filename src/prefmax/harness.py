"""Experiment dispatch over fixtures, with machine-readable reports and traces."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, count, islice
from math import isfinite
from operator import is_not, itemgetter
from sys import float_info

from .cones import DEFAULT_TOL, STRICT_MARGIN, _displacements, _weak, normal_cone_test
from .descent import TERMINATIONS, DescentConfig, DescentTrace, StepSchedule, run_descent
from .fixtures import get_fixture, self_test_fixture
from .plastria import zero_maximality_check
from .points import GroundSet, Point, float_coords
from .relations import check_property, maximal_elements, maxima
from .vip import mvip_solutions, svip_solutions, uniqueness_equivalence

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
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not (isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tol}")


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


def _coords(points) -> set[tuple]:
    """The coordinate tuples of Points, or of a fixture's declared points."""
    return {tuple(map(float, p)) for p in points}


def _set_verdict(check: str, actual, expected) -> Verdict:
    actual, expected = _coords(actual), _coords(expected)
    if actual == expected:
        return Verdict(check, True, f"{len(actual)} points as expected")
    extra = sorted(actual - expected)[:3]
    missing = sorted(expected - actual)[:3]
    return Verdict(check, False, f"extra={extra} missing={missing}")


class _Run:
    """A spec's fixture, its ground (the spec's, else the fixture's default) and
    the sets its checks read, each computed on first read and then shared by the
    suite. A ground of another dimension than the fixture's raises CapabilityError."""

    def __init__(self, spec: ExperimentSpec):
        self.spec, self.fixture = spec, get_fixture(spec.fixture)
        self.rel = rel = self.fixture.relation
        self.ground = spec.ground if spec.ground is not None else self.fixture.default_ground
        if self.ground.dim != rel.dim:
            raise CapabilityError(f"fixture {self.fixture.name!r} is {rel.dim}-dimensional, "
                                  f"got a grid of dim {self.ground.dim}")

    def cone_oracle(self):
        if self.fixture.cone_oracle is None:
            raise CapabilityError(f"fixture {self.fixture.name!r} has no cone oracle")
        return self.fixture.cone_oracle

    @cached_property
    def window_maximal(self) -> list[Point]:
        """The maximal points of the window alone, where the Stampacchia problem is posed."""
        return maximal_elements(self.rel, self.ground)

    @cached_property
    def maximal(self) -> list[Point]:
        """The window's maximal points, decided on `Fixture.me_ground`."""
        me_ground = self.fixture.me_ground(self.ground)
        if me_ground is self.ground:
            return self.window_maximal
        return [p for p in maximal_elements(self.rel, me_ground) if p in self.ground]

    @cached_property
    def mvip(self) -> list[Point]:
        return mvip_solutions(self.cone_oracle(), self.ground, self.spec.tol)

    @cached_property
    def svip(self) -> list[Point]:
        return svip_solutions(self.rel, self.ground, self.fixture.cone_oracle, tol=self.spec.tol,
                              contour_sampler=self.fixture.box_sampler)


def _run_check(name: str, run: _Run) -> Verdict:
    fixture, ground, spec, rel = run.fixture, run.ground, run.spec, run.rel
    exp = fixture.expectations

    if name == "maximal":
        actual, window = _coords(run.maximal), _coords(ground)
        if exp.get("me") == "all":
            expected = window
        elif "me" in exp:
            expected = exp["me"]
        elif "nonmaximal" in exp:
            expected = window - _coords(exp["nonmaximal"])
        else:
            return Verdict(name, True, f"{len(actual)} maximal points (no expectation declared)")
        return _set_verdict(name, actual, expected)

    if name == "maxima":
        return _set_verdict(name, maxima(rel, ground), exp.get("maxima", ()))

    if name in ("mvip", "mvip-empty"):
        return _set_verdict(name, run.mvip, () if name == "mvip-empty" else exp.get("mvip", ()))

    if name in ("svip", "svip-all"):
        return _set_verdict(name, run.svip, ground if name == "svip-all" else exp.get("svip", ()))

    if name == "svip-inclusion":
        svip, me = run.svip, _coords(run.window_maximal)
        violators = sum(p.coords not in me for p in svip)
        held = violators == 0
        counts = (f"{len(svip)} solutions, all maximal" if held
                  else f"{violators} of {len(svip)} solutions not maximal")
        expected = exp.get("svip_subset_me", True)
        return Verdict(name, held == expected, f"inclusion {'held' if held else 'failed'} "
                       f"(expected {'hold' if expected else 'failure'}); {counts}")

    if name == "uniqueness":
        mv = run.mvip  # first, so a fixture without cones fails before any sweep
        got = uniqueness_equivalence(run.maximal, mv)
        expected = exp.get("uniqueness", True)
        return Verdict(name, got == expected, f"equivalence={got}, expected {expected}")

    if name == "zero-maximality":
        if fixture.gap is None:
            raise CapabilityError(f"fixture {fixture.name!r} has no gap function")
        report = zero_maximality_check(fixture.gap, rel, ground, spec.tol)
        expected = exp.get("zero_maximality", True)
        return Verdict(name, report.holds == expected, report.detail or report.prop)

    if name == "cones":
        run.cone_oracle()  # CapabilityError where the fixture has no cones
        try:
            self_test_fixture(fixture, tol=spec.tol, ground=ground)
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
        live = [(x, sample) for x, sample in zip(ground, fixture.box_sampler.samples(ground))
                if not sample.is_empty]
        if not live:
            return Verdict(name, False, "no base point with a non-empty contour")
        D, counts = _displacements(sample for _, sample in live)
        weak = normal_cone_test(D, counts, [query], _weak(spec.tol))[:, 0]
        strict = normal_cone_test(D, counts, [query], lambda pn, dn: -STRICT_MARGIN * dn)[:, 0]
        for (x, _), w, s in zip(live, weak.tolist(), strict.tolist()):
            if not w:
                return Verdict(name, False, f"query rejected by the weak cone at {x}")
            if s:
                return Verdict(name, False, f"query accepted by the strict cone at {x}")
        return Verdict(name, True, f"query {query} weakly accepted, strictly rejected at "
                                   f"{len(live)} base points")


def vip_solutions(spec: ExperimentSpec, kind: str) -> tuple[GroundSet, list[Point]]:
    """The ground of `spec` and its run's Stampacchia ("svip") or Minty ("mvip") set."""
    run = _Run(spec)
    return run.ground, run.mvip if kind == "mvip" else run.svip


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Run a named check suite against a fixture, in deterministic order."""
    started = time.perf_counter()
    run = _Run(spec)
    suite = spec.suite if spec.suite else run.fixture.default_suite
    if not suite:
        raise CapabilityError(f"fixture {spec.fixture!r} declares no default suite; pass one")
    for name in suite:
        if name not in KNOWN_CHECKS:
            raise CapabilityError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    verdicts = tuple(_run_check(name, run) for name in suite)
    command = f"check --fixture {spec.fixture} --suite {','.join(suite)}"
    return RunReport(command, spec.fixture, verdicts, wall_time_s=time.perf_counter() - started)


def descend_fixture(name: str, x0, schedule: StepSchedule | None = None,
                    max_iters: int = 10_000, eps: float = 0.0) -> DescentTrace:
    """Run the descent iteration on a fixture that carries a gap function,
    with the harmonic schedule theta_k = 1 / k unless `schedule` is given."""
    fixture = get_fixture(name)
    if fixture.gap is None or fixture.descent_direction is None:
        raise CapabilityError(f"fixture {name!r} has no gap function registered")
    x1 = Point(tuple(float(c) for c in x0))
    if x1.dim != fixture.relation.dim:
        raise CapabilityError(
            f"fixture {name!r} is {fixture.relation.dim}-dimensional, got x0 of dim {x1.dim}")
    sched = schedule if schedule is not None else StepSchedule.harmonic(1.0)
    config = DescentConfig(lipschitz=fixture.gap.lipschitz, max_iters=max_iters, eps=eps)
    return run_descent(fixture.descent_oracle(), x1, sched, config,
                       reference=fixture.reference, gap=fixture.gap)


def _csv_values(column) -> list[str]:
    return ["" if v is None else repr(v) for v in column]


def _csv_coords(column) -> list[str]:
    return ["" if c is None else ";".join(map(repr, c)) for c in column]


def _json_values(column) -> list[str]:
    """The text `json.dumps` writes for each value of a column: the repr of
    a finite float, and json's own text for everything else (null, NaN,
    Infinity, -Infinity, an int)."""
    return ["null" if v is None else repr(v) if type(v) is float and isfinite(v)
            else json.dumps(v) for v in column]


def _json_coords(column) -> list[str]:
    """Each coordinate tuple (or None) of a column as `json.dumps(..., indent=1)`
    lays it out in a trace row: all values formatted at once, cut into rows."""
    values = iter(_json_values(chain.from_iterable(filter(None, column))))
    return ["null" if c is None else "[]" if not c
            else "[\n    " + ",\n    ".join(islice(values, len(c))) + "\n   ]" for c in column]


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


def _formatted(trace: DescentTrace, coords, values):
    """Each row's fields as text, formatted column by column: k, x and xstar
    through `coords`, theta, dist, gap and residual through `values`."""
    return zip(count(1), coords(trace.xs), coords(trace.xstars),
               *map(values, (trace.thetas, trace.dists, trace.gaps, trace.residuals)))


def emit_trace(trace: DescentTrace, fmt: str, path: str) -> str:
    """Write a trace as CSV (plot-ready columns) or JSON; atomic replace.

    Each column is formatted in one pass, then one template per row joins
    the fields. The CSV is what `csv.writer` writes for these rows: no field
    holds a comma, a quote or a line break, so none is quoted. The JSON is
    what `json.dumps(payload, indent=1)` writes; its header and trailer come
    from json itself, around a one-row placeholder."""
    if fmt == "csv":
        rows = map(_CSV_ROW.__mod__, _formatted(trace, _csv_coords, _csv_values))
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
            rows = map(_JSON_ROW.__mod__, _formatted(trace, _json_coords, _json_values))
            text = head + ",\n  ".join(rows) + tail
        _atomic_write(path, text)
        return path
    raise ValueError(f"unknown trace format {fmt!r}; expected csv or json")


def load_trace_json(path: str) -> DescentTrace:
    """Read a trace `emit_trace` wrote as JSON. A file that is not one raises
    ValueError naming the file and the fault: bad JSON, another schema, a
    missing key, no rows, rows not numbered k = 1..n, an x, xstar or
    reference that is not a list of floats or is empty, or one of another
    dimension than row 1's x (only a null reference means none, and a
    reference's length is checked before its values), then a termination
    that is not one of TERMINATIONS, a lipschitz that is neither null nor a
    finite positive number, and a theta, dist_to_ref, gap_to_ref or
    fejer_residual value that is neither null nor a number (a float, nan
    and +-inf included, or an int no larger than the largest float),
    checked column by column. A non-finite coordinate raises the ValueError
    a Point gives."""
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
    columns = _trace_columns(rows)
    if columns is None:
        _raise_row_fault(path, rows)
    dim = len(columns[0][0])
    ref = payload["reference"]
    if ref is not None:
        ref = Point(_coords_of(path, "the reference", ref, dim))
    termination, lipschitz = payload["termination"], payload["lipschitz"]
    if termination not in TERMINATIONS:
        raise ValueError(f"{path}: trace termination {termination!r} is not one of "
                         f"{', '.join(TERMINATIONS)}")
    if lipschitz is not None and not (type(lipschitz) in (int, float)
                                      and 0 < lipschitz <= float_info.max):
        raise ValueError(f"{path}: trace lipschitz {lipschitz!r} is neither null nor a "
                         f"finite positive number")
    for name, column in zip(TRACE_COLUMNS[3:], columns[2:]):
        if set(map(type, column)) <= {float, type(None)}:
            continue
        for k, v in enumerate(column, 1):
            if not (v is None or type(v) is float
                    or type(v) is int and -float_info.max <= v <= float_info.max):
                raise ValueError(f"{path}: row {k}'s {name} {v!r} is neither null nor a number")
    return DescentTrace(*columns, termination, reference=ref, lipschitz=lipschitz)


def _trace_columns(rows: list):
    """The trace columns of `rows` (x and xstar as tuples of floats), checked
    column by column; None when some row is not a well-formed row of row 1's
    dimension. A JSON x or xstar that is not a list of numbers fails a check
    here: a string or an object iterates to strings, which are not finite."""
    try:
        ks, xs, xstars, *values = zip(*map(itemgetter(*TRACE_COLUMNS), rows))
        coords = xs + tuple(filter(partial(is_not, None), xstars))
        dim, flat = len(xs[0]), list(chain.from_iterable(coords))
        if (ks != tuple(range(1, len(rows) + 1)) or set(map(len, coords)) != {dim} or not dim
                or not all(map(isfinite, flat))):
            return None
    except (TypeError, KeyError, OverflowError):
        return None
    grouped = zip(*[map(float, flat)] * dim)
    xs = tuple(islice(grouped, len(xs)))
    return (xs, tuple(None if c is None else next(grouped) for c in xstars), *values)


def _raise_row_fault(path: str, rows: list) -> None:
    """Raise what the first malformed row gives, checked in row order: not an
    object, a missing key, a wrong k, a coordinate a Point rejects, a wrong
    dimension."""
    for k, r in enumerate(rows, 1):
        if not isinstance(r, dict):
            raise ValueError(f"{path}: row {k} is not an object")
        for key in TRACE_COLUMNS:
            if key not in r:
                raise ValueError(f"{path}: row {k} has no {key!r} key")
        if r["k"] != k:
            raise ValueError(f"{path}: row {k} has k = {r['k']!r}; "
                             f"rows must be numbered 1..{len(rows)}")
        x, xstar = _coords_of(path, f"row {k}'s x", r["x"]), r["xstar"]
        xstar = None if xstar is None else _coords_of(path, f"row {k}'s xstar", xstar)
        if k == 1:
            dim = len(x)
        if len(x) != dim or (xstar is not None and len(xstar) != dim):
            raise ValueError(f"{path}: row {k} has an x or xstar of another dimension "
                             f"than row 1's x ({dim})")


def _coords_of(path: str, what: str, value, dim: int | None = None) -> tuple[float, ...]:
    """`value` as the coordinates of a Point. A value that is not a list of
    floats (not a list, a string in it, an int too large for a float), an
    empty list, or, given `dim`, one of another length, raises ValueError
    naming the file and `what`."""
    try:
        coords = tuple(value)
        if dim is not None and len(coords) != dim:
            raise ValueError(f"{path}: {what} has {len(coords)} coordinates, the rows {dim}")
        if not coords:
            raise ValueError(f"{path}: {what} has no coordinates")
        return float_coords(coords)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {what} is not a list of floats: {exc}") from exc


def emit_report(report: RunReport, path: str) -> str:
    _atomic_write(path, json.dumps(report.to_dict(), indent=1))
    return path
