"""Running one op against prefmax and checking its output.

Library functions are looked up on the `prefmax` package at call time, so
the traced run's rebinding (see tracing.py) sees every call. References are
computed before any op is timed; `check` compares an op's output with its
reference and returns an empty string when they agree, else what differs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import re

import numpy as np

import prefmax as pm
from prefmax import cli

import references as refs

VIP_TOL = refs.VIP_TOL


def radial_cone(p):
    """Closed-form normal cone of radial-bowl: the ray p - peak, full at the peak."""
    d = (p[0] - 1.0, p[1] - 2.0)
    if d == (0.0, 0.0):
        return pm.Cone.full(2)
    return pm.Cone.ray(d)


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """In-process `prefmax <args>`: (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="prefmax", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue() + err.getvalue()


def trace_digest(trace) -> str:
    """Exact fingerprint of a descent trace (floats by repr)."""
    payload = repr((trace.termination, trace.reference, trace.lipschitz, trace.rows))
    return hashlib.sha256(payload.encode()).hexdigest()


def descent_reference(name: str):
    """The point a descent run is checked against: the fixture's reference,
    or the plateau centre for twin-plateau, which registers none."""
    fx = pm.get_fixture(name)
    return fx.reference if fx.reference is not None else pm.pt(0.0)


class Context:
    """Inputs of one workload plus the hooks the traced run replaces."""

    def __init__(self, spec: dict, built: dict, tmpdir: str):
        self.spec = spec
        self.built = built
        self.tmpdir = tmpdir
        self.extra_oracles = {"radial-bowl": radial_cone}
        self.call_cli = invoke_cli

    def relation(self, key: str):
        inp = self.built[key]
        if inp["relation"] is not None:
            return inp["relation"]
        return pm.get_fixture(self.spec["inputs"][key]["relation"]).relation

    def oracle(self, rel: str):
        fx = pm.get_fixture(rel)
        return fx.cone_oracle if fx.cone_oracle is not None else self.extra_oracles[rel]


def _coords(points) -> list[tuple]:
    return [p.coords for p in points]


def run_op(op: dict, ctx: Context):
    """Execute one op; returns its raw output."""
    name = op["op"]
    if name == "cli-check":
        path = os.path.join(ctx.tmpdir, f"report-{op['id']}.json")
        code, out = ctx.call_cli(["check", "--fixture", op["fixture"], "--suite", op["check"],
                                  "--seed", str(op["seed"]), "--json", path])
        return code, out, path
    if name == "cli-vip":
        return ctx.call_cli(["vip", "--fixture", op["fixture"], "--kind", op["kind"]])
    if name == "descend":
        fx = pm.get_fixture(op["fixture"])
        ref = descent_reference(op["fixture"])
        trace = pm.descend_fixture(op["fixture"], op["x0"], max_iters=op["max_iters"])
        qf = pm.quasi_fejer_check(trace, ref, fx.gap.lipschitz)
        gap = pm.gap_convergence_stat(trace, fx.gap, ref)
        return trace, qf, gap
    if name == "cli-descend":
        path = os.path.join(ctx.tmpdir, f"trace-{op['id']}.{op['format']}")
        code, out = ctx.call_cli(["descend", "--fixture", op["fixture"],
                                  "--x0", ",".join(repr(c) for c in op["x0"]),
                                  "--max-iters", str(op["max_iters"]), "--trace", path])
        loaded = pm.load_trace_json(path) if op["format"] == "json" and code == 0 else None
        return code, out, path, loaded

    key = op["input"]
    ground = ctx.built[key]["ground"]
    rel = ctx.relation(key)
    rel_name = ctx.spec["inputs"][key]["relation"]
    if name == "maximal_elements":
        return _coords(pm.maximal_elements(rel, ground))
    if name == "maxima":
        return _coords(pm.maxima(rel, ground))
    if name == "zero_maximality_check":
        gap = pm.get_fixture(rel_name).gap
        report = pm.zero_maximality_check(gap, rel, ground,
                                          rng=np.random.default_rng(op["rng_seed"]))
        return report.prop, report.holds
    if name == "mvip_solutions":
        return _coords(pm.mvip_solutions(ctx.oracle(rel_name), ground, VIP_TOL))
    if name == "uniqueness_check":
        return pm.uniqueness_check(rel, ctx.oracle(rel_name), ground, VIP_TOL)
    if name == "svip_solutions":
        return _coords(pm.svip_solutions(rel, ground, ctx.oracle(rel_name), tol=VIP_TOL))
    if name in ("complete", "transitive", "fip"):
        report = pm.check_property(rel, ground, name)
        witness = None if report.witness is None else _coords(report.witness)
        return report.holds, witness
    raise ValueError(f"unknown op {name!r}")


# ---------------------------------------------------------------- references


def _grid_reference(op: dict, ctx: Context, cache: dict):
    key = op["input"]
    inp = ctx.spec["inputs"][key]
    if key not in cache:
        pts = _coords(ctx.built[key]["ground"])
        cache[key] = {"pts": pts, "X": np.array(pts, dtype=float)}
    c = cache[key]
    pts, X = c["pts"], c["X"]

    def preference():
        if "R" not in c:
            c["R"] = refs.preference_matrix(inp["relation"], X, inp.get("matrix"))
        return c["R"]

    def pick(mask):
        return [pts[i] for i in np.flatnonzero(mask)]

    name = op["op"]
    rel = inp["relation"]
    if name in ("maximal_elements", "maxima") and rel in refs.UTILITY_BACKED:
        u = refs.utility(rel, X)
        return pick(u == u.max())  # argmax of the utility
    if name == "maximal_elements":
        return pick(refs.maximal_mask(preference()))
    if name == "maxima":
        return pick(refs.maxima_mask(preference()))
    if name == "zero_maximality_check":
        return "zero_maximality", True
    if name == "mvip_solutions":
        return pick(refs.mvip_mask(rel, X))
    if name == "svip_solutions":
        return pick(refs.svip_mask(rel, X))
    if name == "uniqueness_check":
        return refs.uniqueness(refs.maximal_mask(preference()), refs.mvip_mask(rel, X))
    check = {"complete": refs.complete_check, "transitive": refs.transitive_check,
             "fip": refs.fip_check}[name]
    holds, witness = check(preference())
    return holds, None if witness is None else [pts[i] for i in witness]


def reference(op: dict, ctx: Context, cache: dict):
    """The expected output of an op, computed without timing."""
    name = op["op"]
    if name == "cli-check":
        return None  # the fixture's registered expectation: the verdict passes
    if name == "cli-vip":
        # the library call the harness makes for this fixture
        fx = pm.get_fixture(op["fixture"])
        if op["kind"] == "svip":
            sols = pm.svip_solutions(fx.relation, fx.default_ground, fx.cone_oracle,
                                     ball_on_empty=False, tol=VIP_TOL,
                                     contour_sampler=fx.contour_sampler)
        else:
            sols = pm.mvip_solutions(fx.cone_oracle, fx.default_ground, VIP_TOL)
        return _coords(sols), len(fx.default_ground)
    if name == "descend":
        return None  # checked against invariants, see check()
    if name == "cli-descend":
        trace = pm.descend_fixture(op["fixture"], op["x0"], max_iters=op["max_iters"])
        return {"digest": trace_digest(trace), "rows": len(trace),
                "termination": trace.termination,
                "final": trace.final_point.coords}
    return _grid_reference(op, ctx, cache)


# -------------------------------------------------------------------- checks

_VIP_HEAD = re.compile(r"^(svip|mvip) solutions: (\d+) of (\d+) points$")


def _check_cli_vip(op, output, ref) -> str:
    code, out = output
    expected, n = ref
    lines = out.splitlines()
    if code != 0 or not lines:
        return f"exit code {code}"
    head = _VIP_HEAD.match(lines[0])
    if not head or head.group(1) != op["kind"]:
        return f"unexpected header {lines[0]!r}"
    count, total = int(head.group(2)), int(head.group(3))
    listed = [tuple(float(c) for c in line.strip().split(","))
              for line in lines[1:] if not line.strip().startswith("...")]
    if total != n:
        return f"ground size {total}, expected {n}"
    if count != len(expected) or listed != expected[:20]:
        return (f"CLI reports {count} {op['kind']} solutions, the harness's library call "
                f"{len(expected)}")
    return ""


def _check_cli_check(op, output) -> str:
    code, out, path = output
    if code != 0:
        return f"exit code {code}: {out.strip()[:200]}"
    with open(path) as fh:
        report = json.load(fh)
    os.remove(path)
    verdicts = report.get("verdicts", [])
    if [v.get("check") for v in verdicts] != [op["check"]]:
        return f"report verdicts {verdicts}"
    if not verdicts[0].get("pass"):
        return f"verdict failed: {verdicts[0].get('detail')}"
    return ""


def _check_descend(op, output) -> str:
    trace, qf, gap_stat = output
    fx = pm.get_fixture(op["fixture"])
    ref = descent_reference(op["fixture"])
    if not qf:
        return "quasi_fejer_check returned False"
    xs = np.array([r.x.coords for r in trace.rows])
    thetas = np.array([np.nan if r.theta is None else r.theta for r in trace.rows])
    if not refs.quasi_fejer(xs, thetas, np.array(ref.coords), fx.gap.lipschitz):
        return "quasi-Fejer inequality fails on the recomputed distances"
    final = np.array(trace.final_point.coords)
    if fx.reference is not None:
        dist = float(np.linalg.norm(final - np.array(ref.coords)))
        if dist > 0.01:
            return f"final distance {dist} > 0.01"
    elif fx.gap(final, ref.coords) < 0.0:
        return f"final point {tuple(final)} is off the plateau"
    if not 0.0 <= gap_stat <= 0.01:
        return f"gap statistic {gap_stat} outside [0, 0.01]"
    return ""


def _check_cli_descend(op, output, ref) -> str:
    code, out, path, loaded = output
    if code != 0:
        return f"exit code {code}: {out.strip()[:200]}"
    head = f"termination={ref['termination']} iterations={ref['rows'] - 1} "
    if not out.startswith(head):
        return f"unexpected summary {out.splitlines()[0]!r}"
    if op["format"] == "json":
        if trace_digest(loaded) != ref["digest"]:
            return "JSON trace does not round-trip to the library trace"
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        final = tuple(float(c) for c in rows[-1][1].split(";"))
        if len(rows) != ref["rows"] + 1 or final != ref["final"]:
            return f"CSV trace has {len(rows) - 1} rows ending at {final}"
    os.remove(path)
    return ""


def check(op: dict, output, ref) -> str:
    name = op["op"]
    if name == "cli-check":
        return _check_cli_check(op, output)
    if name == "cli-vip":
        return _check_cli_vip(op, output, ref)
    if name == "descend":
        return _check_descend(op, output)
    if name == "cli-descend":
        return _check_cli_descend(op, output, ref)
    if output != ref:
        return f"got {_brief(output)}, expected {_brief(ref)}"
    return ""


def _brief(value) -> str:
    if isinstance(value, list):
        return f"{len(value)} points {value[:3]}"
    return repr(value)[:200]


def label(op: dict) -> str:
    """Human-readable op name for failure lists."""
    name = op["op"]
    if name == "cli-check":
        return f"prefmax check --fixture {op['fixture']} --suite {op['check']}"
    if name == "cli-vip":
        return f"prefmax vip --kind {op['kind']} --fixture {op['fixture']}"
    if name in ("descend", "cli-descend"):
        fmt = f" --trace .{op['format']}" if name == "cli-descend" else ""
        return f"{name} {op['fixture']} x0={op['x0']}{fmt}"
    return f"{name} {op['input']}"
