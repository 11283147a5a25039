"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import time

import numpy as np

from prefmax import (
    ContourSample,
    GapFunction,
    GroundSet,
    check_property,
    descend_fixture,
    gap_convergence_stat,
    get_fixture,
    maximal_elements,
    mvip_solutions,
    normal_membership,
    normal_membership_many,
    plastria_membership,
    pt,
    quasi_fejer_check,
    strict_normal_membership,
    svip_solutions,
    zero_maximality_check,
)

from scalar_reference import random_tabular_relation


def verdict(num: int, ok: bool, message: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


_RADIAL_RUN = {}


def radial_run():
    if "trace" not in _RADIAL_RUN:
        start = time.perf_counter()
        trace = descend_fixture("radial-bowl", (0.0, 0.0), theta0=1.0, max_iters=10_000)
        _RADIAL_RUN["runtime"] = time.perf_counter() - start
        _RADIAL_RUN["trace"] = trace
    return _RADIAL_RUN["trace"], _RADIAL_RUN["runtime"]


def test_criterion_01_descent_convergence():
    trace, runtime = radial_run()
    dists = trace.dists
    final = dists[-1]
    # the independent one-dimensional recursion for the radial dynamics
    e = dists[0]
    drift = 0.0
    for i, row in enumerate(trace.rows[:-1]):
        e = abs(e - row.theta)
        drift = max(drift, abs(e - dists[i + 1]))
    ok = final <= 0.01 and drift <= 1e-9 and runtime < 1.0
    verdict(1, ok, f"final distance {final:.3e}, oracle drift {drift:.2e}, "
                   f"runtime {runtime * 1000:.0f} ms over {len(trace.rows) - 1} steps")


def test_criterion_02_gap_vanishes():
    trace, _ = radial_run()
    stat = gap_convergence_stat(trace, get_fixture("radial-bowl").gap, pt(1.0, 2.0))
    verdict(2, stat <= 0.02, f"max |gap| over the last 5% of iterates = {stat:.3e}")


def test_criterion_03_quasi_fejer():
    trace, _ = radial_run()
    ok = quasi_fejer_check(trace, pt(1.0, 2.0), L=1.0, slack=1e-10)
    verdict(3, ok, "squared distances grow by at most theta_k^2 L^2 at every step")


def test_criterion_04_favored_one_cones():
    fx = get_fixture("favored-one")
    rng = np.random.default_rng(404)
    mismatches = 0
    bases = 0
    for x in fx.default_ground:
        sample = fx.contour_sampler(x)
        cone = fx.cone_oracle(x)
        probes = rng.uniform(-3.0, 3.0, size=(100, 1))
        sampled = normal_membership_many(sample, probes, tol=1e-9)
        closed = np.array([cone.contains(tuple(p)) for p in probes])
        mismatches += int(np.sum(sampled != closed))
        bases += 1
    verdict(4, mismatches == 0,
            f"{bases} base points x 100 probes, {mismatches} disagreements at tol 1e-9")


def test_criterion_05_segment_counterexample():
    fx = get_fixture("segment-line")
    g = fx.default_ground
    sols = svip_solutions(fx.relation, g, fx.cone_oracle)
    me = maximal_elements(fx.relation, g)
    ok = len(sols) == len(g) and [p.coords for p in me] == [(1.0, 0.0)]
    verdict(5, ok, f"solution set fills all {len(sols)}/{len(g)} segment points, "
                   f"maximal set = {[p.coords for p in me]}")


def test_criterion_06_kinked_threshold_sets():
    fx = get_fixture("kinked-threshold")
    window = {p.coords for p in fx.default_ground}
    me = sorted(p.coords for p in maximal_elements(fx.relation, fx.me_ground())
                if p.coords in window)
    mv = mvip_solutions(fx.cone_oracle, fx.default_ground)
    ok = me == [(0.0,)] and mv == []
    verdict(6, ok, f"maximal set on the window = {me}, Minty set size = {len(mv)}")


def test_criterion_07_inclusion_on_lsc_fixtures():
    from prefmax import ExperimentSpec, fixture_names, run_experiment

    violations = []
    checked = []
    for name in fixture_names():
        if not get_fixture(name).lsc:
            continue
        (report,) = run_experiment(ExperimentSpec(name, suite=("svip-inclusion",))).verdicts
        checked.append(name)
        if not report.detail.startswith("inclusion held"):
            violations.append((name, report.detail))
    verdict(7, len(checked) >= 5 and not violations,
            f"solutions are maximal on all of: {', '.join(checked)}")


def test_criterion_08_transitive_2fip_implies_fip():
    rng = np.random.default_rng(808)
    exercised = 0
    counterexamples = 0
    for i in range(100):
        style = ("uniform", "closure", "utility")[i % 3]
        rel = random_tabular_relation(rng, 8, style)
        ground = GroundSet.explicit(rel.table_ground)
        if not check_property(rel, ground, "transitive").holds:
            continue
        if not check_property(rel, ground, "mfip", m=2).holds:
            continue
        exercised += 1
        if not check_property(rel, ground, "fip").holds:
            counterexamples += 1
    verdict(8, counterexamples == 0 and exercised >= 20,
            f"{exercised}/100 relations transitive with pairwise upper bounds, "
            f"{counterexamples} missing the full intersection property")


def test_criterion_09_gap_cone_boundaries():
    square = GapFunction(lambda x, y: y[0] ** 2 - x[0] ** 2, lipschitz=25.0)
    linear = GapFunction(lambda x, y: y[0] - x[0], lipschitz=1.0)
    bases = [round(-5.0 + 0.5 * k, 12) for k in range(21) if k != 10]
    assert len(bases) == 20
    failures = []
    for b in bases:
        coarse = np.arange(b + 0.01, b + 4.0, 0.01)
        fine = np.arange(b + 0.005, b + 0.1, 0.005)
        pts = tuple(pt(round(float(v), 12)) for v in np.concatenate([fine, coarse]))
        sample = ContourSample(pt(b), pts)
        if not plastria_membership(square, sample, (2.0 * b,)):
            failures.append((b, "square boundary rejected"))
        if plastria_membership(square, sample, (2.0 * b + 0.1,)):
            failures.append((b, "square boundary+0.1 accepted"))
        if not plastria_membership(linear, sample, (1.0,)):
            failures.append((b, "linear boundary rejected"))
        if plastria_membership(linear, sample, (1.1,)):
            failures.append((b, "linear boundary+0.1 accepted"))
    verdict(9, not failures,
            f"boundary elements accepted and boundary+0.1 rejected at {len(bases)} base points")


def test_criterion_10_zero_iff_maximal():
    results = []
    for name in ("radial-bowl", "mutual-zero"):
        fx = get_fixture(name)
        report = zero_maximality_check(fx.gap, fx.relation, fx.default_ground)
        results.append((name, report.holds))
    ok = all(h for _, h in results)
    verdict(10, ok, "; ".join(f"{n}: zero element exactly at maximal points ({h})"
                              for n, h in results))


def test_criterion_11_weak_strict_gap():
    fx = get_fixture("halfline-plane")
    query = (0.0, 1.0)
    bases = [pt(round(0.25 * k, 12), 0.0) for k in range(9)]
    weak_ok = strict_bad = 0
    for x in bases:
        sample = fx.contour_sampler(x)
        assert not sample.is_empty
        if normal_membership(sample, query, 1e-9):
            weak_ok += 1
        if not strict_normal_membership(sample, query):
            strict_bad += 1
    ok = weak_ok == len(bases) and strict_bad == len(bases)
    verdict(11, ok, f"query (0,1) weakly normal at {weak_ok}/{len(bases)} line points, "
                    f"strictly normal at {len(bases) - strict_bad}")
