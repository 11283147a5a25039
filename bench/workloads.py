"""Seeded op lists for the benchmark's workloads.

`generate(workload, seed)` returns pure data: a dict of named inputs (grid
windows, boolean tables, descent starts) and a list of ops that refer to
them. The same seed gives an identical result; another seed gives the same
sizes and op counts with different windows, tables, starts and order.
Ops listed in KNOWN_DEFECTS go to a separate list. `materialize` turns the inputs into prefmax objects (this is the set-up step
that `setup_s` times after the registry build).

Every window is a lattice of exact multiples of 1e-4 that contains the
relation's distinguished points (peaks, plateau edges, the origin, the
favored point, the axis), so no lattice point sits within the library's
1e-9 tolerances of them without being them.
"""

from __future__ import annotations

import random

# The workloads BENCHMARK.json lists.
WORKLOADS = ("suites", "descent")
# Runnable by hand (`run.py --workload grid-utility`) but not listed in
# BENCHMARK.json: on a shared 2-vCPU VM their ten-seed spreads exceeded the
# bounds, and with four workloads no run could be long enough to fix that
# within the benchmark's time budget.
GRID_WORKLOADS = ("grid-utility", "grid-rules")

UTILITY_RELATIONS = ("vee-peak", "twin-plateau", "radial-bowl")
RULE_RELATIONS = ("kinked-threshold", "band-threshold", "favored-one", "halfline-plane")
TABLE_STYLES = ("uniform", "closure", "utility")

# Ops that need a cone field.
CONE_OPS = ("mvip_solutions", "uniqueness_check", "svip_solutions")

# Relations whose cone field is known in closed form (radial-bowl's is
# supplied by the benchmark: the ray x - peak, full at the peak).
HAS_CONES = {"vee-peak", "twin-plateau", "radial-bowl", "kinked-threshold",
             "favored-one", "halfline-plane"}

_ALL_UTILITY = ("maximal_elements", "maxima", "zero_maximality_check", "mvip_solutions",
                "uniqueness_check", "svip_solutions")
_ALL_RULES = ("maximal_elements", "maxima", "complete", "transitive", "fip",
              "mvip_solutions", "uniqueness_check", "svip_solutions")

# (size class, ground points, windows per relation, {relation: ops on each window}).
# The largest windows carry only the sweeps that fit a run: with the current
# scalar sweeps an O(n^2) Minty sweep on 10^3 points takes 4-6 s.
GRID_UTILITY_PLAN = (
    ("n1e2", 100, 2, {rel: _ALL_UTILITY for rel in UTILITY_RELATIONS}),
    ("n3e2", 300, 1, {rel: ("maximal_elements", "maxima", "zero_maximality_check",
                            "mvip_solutions", "svip_solutions") for rel in UTILITY_RELATIONS}),
    ("n1e3", 1000, 1, {"vee-peak": ("maximal_elements", "maxima", "svip_solutions"),
                       "twin-plateau": ("svip_solutions",),
                       "radial-bowl": ("maximal_elements", "maxima", "svip_solutions")}),
)
GRID_RULES_PLAN = (
    ("n1e2", 100, 1, {rel: _ALL_RULES for rel in RULE_RELATIONS}),
    ("n3e2", 300, 1, {rel: ("maximal_elements", "maxima", "mvip_solutions", "svip_solutions")
                      for rel in RULE_RELATIONS}),
    ("n1e3", 1000, 1, {"kinked-threshold": ("maximal_elements",),
                       "favored-one": ("mvip_solutions", "svip_solutions"),
                       "halfline-plane": ("maximal_elements", "mvip_solutions",
                                          "svip_solutions")}),
)
# One table per style and size: the spread of sizes gives the cheap ops a
# continuum of costs, so the median op latency does not jump between clusters.
_TABLE_OPS = ("maximal_elements", "maxima", "complete", "transitive", "fip")
TABLE_PLAN = tuple((f"n{n}", n, 1, {f"table-{style}": _TABLE_OPS for style in TABLE_STYLES})
                   for n in (36, 42, 48, 54, 60))

# Library runs and CLI runs per trace format, per fixture. A run's step
# count until the exact zero subgradient varies by about 25% with its start,
# so many runs per pass keep the pass time nearly seed-independent.
DESCENT_RUNS = {"radial-bowl": (24, 2), "vee-peak": (24, 2), "twin-plateau": (8, 1)}
DESCENT_CLI_FORMATS = ("csv", "json")
# Iteration budgets. A run's step count to an exact zero subgradient has a
# heavy tail: median 1.8k, 5% above 2.7k, some to 10k. Those few long runs
# made a pass cost up to 25% more on one seed than on another (86k-111k
# steps); with a 2k budget the library runs' total varies by 3% between
# seeds, and every run still ends within 0.01 of the reference. Writing and
# reading the trace dominate a CLI run, so its budget is lower still: every
# CLI trace then has about the same length on every seed.
DESCENT_MAX_ITERS = 2_000
DESCENT_CLI_MAX_ITERS = 1_000
DESCENT_START_BOX = {
    "radial-bowl": ((-3.0, 5.0), (-2.0, 6.0)),
    "vee-peak": ((-2.0, 3.0),),
    "twin-plateau": ((-4.0, 4.0),),
}

# Ops the program is known to answer wrongly, with the reason. They are
# generated like every other op but kept out of the timed list: each run
# executes and checks them once, untimed, and reports whether the defect
# still reproduces (`known_defects` in the result record, a KNOWN DEFECT
# line on standard output, `cli.known_defects` in the traced run), so
# `correct` speaks for every other op while the defect stays visible.
KNOWN_DEFECTS = {
    ("cli-vip", "radial-bowl", "svip"):
        "roadmap item 5: `prefmax vip --kind svip` calls svip_solutions without the "
        "fixture's contour sampler and lists 5 solutions where the library lists 1",
}

_Q = 1e-4  # lattice quantum


def _axis(rng: random.Random, anchor: float, n: int, step_q: tuple[int, int],
          at: tuple[float, float]) -> list[float]:
    """One axis of n lattice points, step a multiple of 1e-4, with `anchor`
    on the lattice at a seeded index between the fractions `at`."""
    step = rng.randint(*step_q) * _Q
    k = rng.randint(int(at[0] * (n - 1)), int(at[1] * (n - 1)))
    lo = round(anchor - k * step, 10)
    return [lo, round(lo + (n - 1) * step, 10), round(step, 10)]


def _window(rng: random.Random, rel: str, n: int) -> list[list[float]]:
    """Seeded grid window of about n points for a named relation."""
    # The anchor's relative position is held nearly fixed: the early-exit
    # sweeps' cost depends on it, while the lattice step does not matter.
    mid = (0.48, 0.52)
    if rel == "vee-peak":
        base = 100 * 100 // n  # about one unit wide
        return [_axis(rng, 0.7, n, (int(base * 0.9), int(base * 1.1)), mid)]
    if rel == "twin-plateau":
        base = 4 * 10_000 // n  # plateau [-1, 1] covers about half the window
        return [_axis(rng, -1.0, n, (int(base * 0.9), int(base * 1.1)), (0.24, 0.26))]
    if rel == "radial-bowl":
        # one step for both axes: the sweeps' cost follows the ordering of
        # distances to the peak, which a stretched lattice would change
        q = int(round(n ** 0.5))
        base = 2 * 10_000 // q
        x = _axis(rng, 1.0, q, (int(base * 0.9), int(base * 1.1)), mid)
        k = rng.randint(int(mid[0] * (q - 1)), int(mid[1] * (q - 1)))
        lo = round(2.0 - k * x[2], 10)
        return [x, [lo, round(lo + (q - 1) * x[2], 10), x[2]]]
    if rel == "kinked-threshold":
        base = 2 * 10_000 // n
        return [_axis(rng, 0.0, n, (int(base * 0.9), int(base * 1.1)), mid)]
    if rel == "band-threshold":
        base = 4 * 10_000 // n
        return [_axis(rng, 0.0, n, (int(base * 0.95), int(base * 1.05)), (0.0, 0.05))]
    if rel == "favored-one":
        base = 2 * 10_000 // n
        return [_axis(rng, 1.0, n, (int(base * 0.9), int(base * 1.1)), mid)]
    if rel == "halfline-plane":
        qy = 5
        qx = n // qy
        base = 2 * 10_000 // qx
        return [_axis(rng, 0.0, qx, (int(base * 0.9), int(base * 1.1)), (0.0, 0.2)),
                _axis(rng, 0.0, qy, (2000, 3000), (0.4, 0.6))]
    raise ValueError(f"no window rule for relation {rel!r}")


def _table(rng: random.Random, style: str, n: int) -> list[list[int]]:
    """Seeded n x n 0/1 preference table of the given style."""
    if style == "uniform":
        density = rng.uniform(0.3, 0.7)
        return [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
    if style == "closure":
        # reflexive transitive closure of a sparse random digraph
        m = [[i == j or rng.random() < 1.5 / n for j in range(n)] for i in range(n)]
        for k in range(n):
            mk = m[k]
            for i in range(n):
                if m[i][k]:
                    mi = m[i]
                    for j in range(n):
                        if mk[j]:
                            mi[j] = True
        return [[int(v) for v in row] for row in m]
    if style == "utility":
        scores = [rng.randrange(max(2, n // 2)) for _ in range(n)]
        return [[int(scores[i] >= scores[j]) for j in range(n)] for i in range(n)]
    raise ValueError(f"unknown table style {style!r}")


def _grid_inputs(rng: random.Random, plan) -> tuple[dict, list]:
    inputs, ops = {}, []
    for size, n, copies, per_relation in plan:
        for rel, names in per_relation.items():
            for c in range(copies):
                key = f"{rel}/{size}/{c}"
                if rel.startswith("table-"):
                    inputs[key] = {"kind": "table", "relation": rel, "size": size,
                                   "matrix": _table(rng, rel[len("table-"):], n)}
                else:
                    inputs[key] = {"kind": "grid", "relation": rel, "size": size,
                                   "axes": _window(rng, rel, n)}
                for name in names:
                    if name in CONE_OPS and rel not in HAS_CONES:
                        continue
                    op = {"op": name, "input": key, "size": size}
                    if name == "zero_maximality_check":
                        op["rng_seed"] = rng.randrange(2 ** 31)
                    ops.append(op)
    return inputs, ops


def _suites_ops(rng: random.Random) -> list[dict]:
    from prefmax import fixture_names, get_fixture

    ops = []
    for name in fixture_names():
        fx = get_fixture(name)
        for check in fx.default_suite:
            ops.append({"op": "cli-check", "fixture": name, "check": check,
                        "seed": rng.randrange(1, 2 ** 31)})
        ops.append({"op": "cli-vip", "fixture": name, "kind": "svip"})
        if fx.cone_oracle is not None:
            ops.append({"op": "cli-vip", "fixture": name, "kind": "mvip"})
    return ops


def _descent_ops(rng: random.Random) -> list[dict]:
    ops = []
    for name, (runs, cli_runs) in DESCENT_RUNS.items():
        box = DESCENT_START_BOX[name]
        kinds = [None] * runs + [fmt for fmt in DESCENT_CLI_FORMATS for _ in range(cli_runs)]
        for fmt in kinds:
            x0 = [round(rng.uniform(lo, hi), 6) for lo, hi in box]
            if fmt is None:
                ops.append({"op": "descend", "fixture": name, "x0": x0,
                            "max_iters": DESCENT_MAX_ITERS})
            else:
                ops.append({"op": "cli-descend", "fixture": name, "x0": x0, "format": fmt,
                            "max_iters": DESCENT_CLI_MAX_ITERS})
    return ops


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs and op list for one seed (pure data)."""
    rng = random.Random(f"{workload}:{seed}")
    inputs: dict = {}
    if workload == "suites":
        ops = _suites_ops(rng)
    elif workload == "grid-utility":
        inputs, ops = _grid_inputs(rng, GRID_UTILITY_PLAN)
    elif workload == "grid-rules":
        inputs, ops = _grid_inputs(rng, GRID_RULES_PLAN + TABLE_PLAN)
    elif workload == "descent":
        ops = _descent_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{WORKLOADS + GRID_WORKLOADS}")
    rng.shuffle(ops)
    defects = [op for op in ops if defect_reason(op)]
    ops = [op for op in ops if not defect_reason(op)]
    for i, op in enumerate(ops + defects):
        op["id"] = i
    return {"workload": workload, "seed": seed, "inputs": inputs, "ops": ops,
            "known_defects": defects}


def defect_reason(op: dict) -> str | None:
    """Why `op` is a known defect, or None when the program should get it right."""
    return KNOWN_DEFECTS.get((op["op"], op.get("fixture"), op.get("kind")))


def materialize(spec: dict) -> dict:
    """Build prefmax ground sets and tabular relations for the spec's inputs."""
    from prefmax import GroundSet, Point, Relation

    built = {}
    for key, inp in spec["inputs"].items():
        if inp["kind"] == "grid":
            ground = GroundSet.grid([tuple(a) for a in inp["axes"]])
            built[key] = {"ground": ground, "relation": None}
        else:
            n = len(inp["matrix"])
            points = [Point((float(i),)) for i in range(n)]
            rel = Relation.from_table(inp["relation"], points, inp["matrix"])
            built[key] = {"ground": GroundSet.explicit(points), "relation": rel}
    return built
