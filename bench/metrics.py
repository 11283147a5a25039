"""The benchmark's metric catalogue and the per-layer numbers of a traced run.

END_TO_END and PER_LAYER are the source of BENCHMARK.json (see
tests/test_bench_workloads.py). Each per-layer entry also names the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import SPANNED

# name, unit, better, bound, meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "fresh interpreter: import prefmax, first get_fixture (registry + self-test), "
     "build the workload's ground sets; median of three"),
    ("wall_s", "s", "lower", 0.25,
     "one pass over the fixed op list, each op at its median host-scaled latency over the "
     "passes; median over the workers"),
    ("op_s.p50", "s", "lower", 0.25, "median host-scaled op latency"),
    ("op_s.p90", "s", "lower", 0.25, "90th-percentile host-scaled op latency"),
    ("pass_ratio", "1", "higher", 0.02,
     "ops whose output matched its reference / ops attempted (1 - fail ratio)"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set size of a worker process"),
)

ALL = "every workload"
GRID = "grid-utility, grid-rules"


def _calls_self(layer, names, moves):
    out = []
    for name in names:
        out.append((f"{layer}.{name}.calls", "count", "lower", moves))
        out.append((f"{layer}.{name}.self_s", "s", "lower", moves))
    return out


BUCKETS = ("n1e2", "n3e2", "n1e3")

# name, unit, better, which end-to-end metric and workload it should move
PER_LAYER = (
    ("points.grid.calls", "count", "lower", "wall_s on suites; setup_s on " + ALL),
    ("points.grid.self_s", "s", "lower", "wall_s on suites; setup_s on " + ALL),
    ("points.grid.points", "count", "lower", "wall_s on suites; setup_s on " + ALL),
    ("relations.holds.calls", "count", "lower", f"wall_s, op_s.p90 on {GRID}; zero on descent"),
    ("relations.evals_per_point", "1", "lower", f"wall_s, op_s.p90 on {GRID}; zero on descent"),
    *_calls_self("relations", ("maximal_elements", "maxima", "check_property", "contour"),
                 f"wall_s, op_s.p90 on {GRID}; zero on descent"),
    *((f"relations.maximal_elements.total_s.{b}", "s", "lower", f"wall_s, op_s.p90 on {GRID}")
      for b in BUCKETS),
    *_calls_self("cones", SPANNED["cones"],
                 "wall_s, op_s.p90 on suites; setup_s on " + ALL),
    ("cones.sample_size.mean", "count", "lower", "wall_s on suites"),
    ("cones.sample_hit_ratio", "1", "higher", "wall_s on suites"),
    ("cones.nnls.calls", "count", "lower", "wall_s, op_s.p90 on suites; setup_s on " + ALL),
    *_calls_self("vip", ("svip_membership", "bodies_for_ground", "mvip_membership",
                         "uniqueness_check", "svip_inclusion_check"),
                 f"wall_s, op_s.p90 on suites (svip) and {GRID} (mvip)"),
    ("vip.svip.certified_ratio", "1", "higher", "wall_s on suites"),
    ("vip.cone_oracle.calls", "count", "lower", f"wall_s, op_s.p90 on {GRID}"),
    ("vip.cone_oracle.per_candidate", "1", "lower", f"wall_s, op_s.p90 on {GRID}"),
    *((f"vip.{f}.total_s.{b}", "s", "lower", f"wall_s, op_s.p90 on {GRID}")
      for f in ("mvip_solutions", "svip_solutions") for b in BUCKETS),
    *_calls_self("plastria", SPANNED["plastria"], "wall_s on grid-utility, suites"),
    ("plastria.gap.calls", "count", "lower", "wall_s on grid-utility, suites"),
    ("descent.run_descent.calls", "count", "lower", "wall_s, op_s.p50 on descent"),
    ("descent.run_descent.self_s", "s", "lower", "wall_s, op_s.p50 on descent"),
    ("descent.steps", "count", "lower", "wall_s, op_s.p50 on descent"),
    ("descent.step_us", "us", "lower", "wall_s, op_s.p50 on descent"),
    ("descent.quasi_fejer_check.self_s", "s", "lower", "wall_s, op_s.p50 on descent"),
    ("descent.gap_convergence_stat.self_s", "s", "lower", "wall_s, op_s.p50 on descent"),
    ("descent.zero_subgradient_ratio", "1", "higher", "wall_s, op_s.p50 on descent"),
    ("fixtures.registry.self_s", "s", "lower", "setup_s on " + ALL),
    ("fixtures.self_test_fixture.calls", "count", "lower", "setup_s on " + ALL + "; suites"),
    ("fixtures.self_test_fixture.self_s", "s", "lower", "setup_s on " + ALL + "; suites"),
    ("fixtures.contour_sampler.calls", "count", "lower", "wall_s on suites"),
    *_calls_self("harness", SPANNED["harness"], "wall_s on suites, descent"),
    ("harness.emit_trace.bytes", "B", "lower", "wall_s, op_s.p90 on descent"),
    ("cli.main.calls", "count", "lower", "op_s.p50 on suites"),
    ("cli.main.self_s", "s", "lower", "op_s.p50 on suites"),
    ("cli.known_defects", "count", "lower",
     "none: known-defect ops that still fail, run untimed outside the op list (suites)"),
    ("setup.import_s", "s", "lower", "setup_s on " + ALL),
    ("setup.registry_s", "s", "lower", "setup_s on " + ALL),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of one pass"),
    ("trace.spans", "count", "lower", "none: spans recorded in the traced pass"),
    ("baseline.registry_self_test_s", "s", "lower", "setup_s on " + ALL),
    ("baseline.radial_bodies_for_ground_s", "s", "lower", "wall_s on suites"),
    ("baseline.box_sample_ms", "ms", "lower", "wall_s on suites"),
    ("baseline.body_from_sample_ms", "ms", "lower", "wall_s on suites"),
    ("baseline.svip_membership_ms", "ms", "lower", "wall_s on suites"),
    ("baseline.kinked_mvip_201_s", "s", "lower", "wall_s on grid-rules"),
    ("baseline.radial_descent_10k_ms", "ms", "lower", "wall_s on descent"),
    ("baseline.radial_descent_steps", "count", "lower", "wall_s on descent"),
)

BUCKETED = ("relations.maximal_elements", "vip.mvip_solutions", "vip.svip_solutions")
RELATION_SWEEPS = ("relations.maximal_elements", "relations.maxima",
                   "relations.check_property", "relations.contour")


def bucket(n: int) -> str:
    return "n1e2" if n < 200 else "n3e2" if n < 600 else "n1e3"


def layer_metrics(spans: list, counts: dict, ops=None) -> dict[str, float]:
    """Per-layer numbers from spans [name, start, end, parent, op, meta,
    counter deltas] and the counter totals over the same ops. With `ops`
    set, only spans of those op ids count. Self time is a span's duration
    minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    keep = [ops is None or s[4] in ops for s in spans]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_by_bucket = defaultdict(float)
    for i, s in enumerate(spans):
        if not keep[i]:
            continue
        name = s[0]
        calls[name] += 1
        self_s[name] += s[2] - s[1] - child[i]
        if name in BUCKETED and s[5] is not None:
            total_by_bucket[f"{name}.total_s.{bucket(s[5])}"] += s[2] - s[1]

    def of(name):
        return [s for s, k in zip(spans, keep) if k and s[0] == name and s[5] is not None]

    def nested_in_sweep(s):
        p = s[3]
        while p >= 0:
            if spans[p][0] in RELATION_SWEEPS:
                return True
            p = spans[p][3]
        return False

    m: dict[str, float] = {}
    for entry in PER_LAYER:
        name = entry[0]
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = float(calls.get(base, 0))
        elif field == "self_s":
            m[name] = self_s.get(base, 0.0)
    for name in BUCKETED:
        for b in BUCKETS:
            m[f"{name}.total_s.{b}"] = total_by_bucket.get(f"{name}.total_s.{b}", 0.0)

    m["points.grid.points"] = float(sum(s[5] for s in of("points.grid")))
    m["relations.holds.calls"] = float(counts.get("relations.holds", 0))
    top = [s for s, k in zip(spans, keep)
           if k and s[0] in RELATION_SWEEPS and s[5] is not None and not nested_in_sweep(s)]
    swept = sum(s[5] for s in top)
    m["relations.evals_per_point"] = sum(s[6][0] for s in top) / swept if swept else 0.0

    samples = of("cones.box_sample") + of("cones.sample_contour")
    kept = sum(s[5] for s in samples)
    tested = sum(s[6][1] for s in samples)
    m["cones.sample_size.mean"] = kept / len(samples) if samples else 0.0
    m["cones.sample_hit_ratio"] = kept / tested if tested else 0.0
    m["cones.nnls.calls"] = float(counts.get("cones.nnls.cone", 0)
                                  + counts.get("cones.nnls.body", 0))

    svip = of("vip.svip_membership")
    m["vip.svip.certified_ratio"] = sum(1 for s in svip if s[5]) / len(svip) if svip else 0.0
    m["vip.cone_oracle.calls"] = float(counts.get("vip.cone_oracle", 0))
    mvip = [s for s, k in zip(spans, keep) if k and s[0] == "vip.mvip_membership"]
    m["vip.cone_oracle.per_candidate"] = (sum(s[6][2] for s in mvip) / len(mvip)
                                          if mvip else 0.0)
    m["plastria.gap.calls"] = float(counts.get("plastria.gap", 0))

    runs = of("descent.run_descent")
    steps = sum(s[5][0] for s in runs)
    m["descent.steps"] = float(steps)
    m["descent.step_us"] = 1e6 * self_s.get("descent.run_descent", 0.0) / steps if steps else 0.0
    m["descent.zero_subgradient_ratio"] = (
        sum(1 for s in runs if s[5][1] == "zeroSubgradient") / len(runs) if runs else 0.0)
    m["fixtures.contour_sampler.calls"] = float(counts.get("fixtures.contour_sampler", 0))
    m["harness.emit_trace.bytes"] = float(sum(s[5] for s in of("harness.emit_trace")))
    return m
