import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefmax import (
    ContourSample,
    DescentConfig,
    GapFunction,
    StepSchedule,
    audit_gap_flags,
    gap_from_utility,
    normal_membership,
    parse_grid_spec,
    plastria_membership,
    plastria_subgradient,
    pt,
    run_descent,
    sample_contour,
    strict_normal_membership,
    zero_gap,
    zero_maximality_check,
)

from scalar_reference import norm


def right_tail_sample(base: float, hi: float, step: float = 0.01) -> ContourSample:
    vals = np.arange(base + step, hi + step / 2, step)
    return ContourSample(pt(base), tuple(pt(round(float(v), 12)) for v in vals))


ABS_U = lambda x: -abs(x[0])


# -------------------------------------------------------- gap construction


def test_gap_from_utility_sign_and_identity():
    gap = gap_from_utility(ABS_U, 1.0)
    assert gap((1.0,), (2.0,)) == 1.0  # 1 is strictly better than 2 under -|x|
    assert gap((0.3,), (0.3,)) == 0.0


@given(st.floats(-50, 50))
def test_gap_identity_everywhere(x):
    gap = gap_from_utility(ABS_U, 1.0)
    assert gap((x,), (x,)) == 0.0


def test_gap_lipschitz_validates_on_random_pairs(rng):
    gap = gap_from_utility(ABS_U, 1.0)
    pairs = rng.uniform(-10, 10, size=(1000, 2))
    for x, y in pairs:
        assert abs(gap((x,), (y,))) <= abs(x - y) + 1e-12


def test_gap_rejects_nonpositive_lipschitz():
    with pytest.raises(ValueError):
        gap_from_utility(ABS_U, 0.0)
    with pytest.raises(ValueError):
        GapFunction(lambda x, y: 0.0, -1.0)


# ------------------------------------------------- membership and boundaries


def square_gap() -> GapFunction:
    return GapFunction(lambda x, y: y[0] ** 2 - x[0] ** 2, lipschitz=20.0)


def linear_gap() -> GapFunction:
    return GapFunction(lambda x, y: y[0] - x[0], lipschitz=1.0)


def test_square_gap_boundary_at_one():
    sample = right_tail_sample(1.0, 5.0)
    assert plastria_membership(square_gap(), sample, (2.0,))
    assert not plastria_membership(square_gap(), sample, (2.1,))


def test_linear_gap_boundary():
    sample = right_tail_sample(3.0, 7.0)
    assert plastria_membership(linear_gap(), sample, (1.0,))
    assert not plastria_membership(linear_gap(), sample, (1.1,))


def test_membership_trivial_at_maximal_point(kinked):
    sample = sample_contour(kinked.relation, pt(0.0), kinked.default_ground)
    assert sample.is_empty
    assert plastria_membership(square_gap(), sample, (1e6,))


def test_membership_dimension_mismatch():
    sample = right_tail_sample(0.0, 1.0)
    with pytest.raises(ValueError):
        plastria_membership(linear_gap(), sample, (1.0, 2.0))


# ------------------------------------------------------ subgradient element


def test_subgradient_radial_example(radial, rng):
    gap = radial.gap
    x = pt(0.0, 0.0)
    out = plastria_subgradient(gap, x, (-1.0, -2.0))
    root5 = math.sqrt(5.0)
    assert abs(out[0] + 1.0 / root5) < 1e-12
    assert abs(out[1] + 2.0 / root5) < 1e-12
    assert abs(norm(out.coords) - gap.lipschitz) <= 1e-12
    # membership over 500 random points of the open ball around (1, 2)
    angles = rng.uniform(0, 2 * math.pi, size=500)
    radii = root5 * np.sqrt(rng.uniform(0, 1, size=500)) * (1 - 1e-9)
    pts = tuple(pt(1.0 + r * math.cos(a), 2.0 + r * math.sin(a))
                for r, a in zip(radii, angles))
    sample = ContourSample(x, pts)
    assert plastria_membership(gap, sample, out.coords, tol=1e-7)


def test_subgradient_vee_example(vee):
    out = plastria_subgradient(vee.gap, pt(0.0), (-1.0,))
    assert out == pt(-1.0)
    vals = np.arange(0.01, 1.40, 0.01)
    sample = ContourSample(pt(0.0), tuple(pt(round(float(v), 12)) for v in vals))
    assert plastria_membership(vee.gap, sample, (-1.0,), tol=1e-9)


def test_subgradient_rejects_zero_direction(vee):
    with pytest.raises(ValueError):
        plastria_subgradient(vee.gap, pt(0.0), (0.0,))


def test_subgradient_norm_contract_and_soundness(vee, radial, rng):
    # 100 random (fixture, base, strict-normal direction) triples
    for _ in range(50):
        x = float(rng.uniform(0, 1))
        if abs(x - 0.7) < 0.05:
            continue
        ustar = (-rng.uniform(0.5, 3.0),) if x < 0.7 else (rng.uniform(0.5, 3.0),)
        sample = vee.contour_sampler(pt(x))
        assert strict_normal_membership(sample, ustar)
        out = plastria_subgradient(vee.gap, pt(x), ustar)
        assert abs(norm(out.coords) - vee.gap.lipschitz) <= 1e-12
        assert plastria_membership(vee.gap, sample, out.coords, tol=1e-7)
    a = (1.0, 2.0)
    for _ in range(50):
        x = tuple(rng.uniform(-2, 2, size=2))
        d = (x[0] - a[0], x[1] - a[1])
        if norm(d) < 0.05:
            continue
        out = plastria_subgradient(radial.gap, pt(*x), d)
        assert abs(norm(out.coords) - radial.gap.lipschitz) <= 1e-12
        sample = radial.contour_sampler(pt(*x))
        assert plastria_membership(radial.gap, sample, out.coords, tol=1e-7)


# ----------------------------------------------------- zero and maximality


def test_zero_maximality_on_vee(vee):
    report = zero_maximality_check(vee.gap, vee.relation, vee.default_ground)
    assert report.holds
    zero_members = [
        x for x in vee.default_ground
        if plastria_membership(vee.gap, sample_contour(vee.relation, x, vee.default_ground),
                               (0.0,))
    ]
    assert [p.coords for p in zero_members] == [(0.7,)]


def test_zero_maximality_on_zero_gap_fixture():
    from prefmax import get_fixture

    fx = get_fixture("mutual-zero")
    report = zero_maximality_check(fx.gap, fx.relation, fx.default_ground)
    assert report.holds


def test_zero_maximality_skips_on_bad_sign_flags(kinked):
    bad = GapFunction(lambda x, y: y[0] ** 2 - x[0] ** 2, lipschitz=20.0,
                      negative_iff_better=True, positive_iff_worse=True)
    with pytest.warns(UserWarning):
        report = zero_maximality_check(bad, kinked.relation, kinked.default_ground)
    assert not report.holds
    assert report.prop == "zero_maximality_precondition"


def test_audit_downgrades_bad_flags(kinked):
    bad = GapFunction(lambda x, y: y[0] ** 2 - x[0] ** 2, lipschitz=20.0,
                      negative_iff_better=True, positive_iff_worse=True)
    with pytest.warns(UserWarning):
        audited = audit_gap_flags(bad, kinked.relation, kinked.default_ground)
    assert not audited.negative_iff_better
    assert not audited.positive_iff_worse


def test_audit_finds_a_gap_wrong_on_one_pair(radial):
    # radial-bowl's gap with its sign flipped on one of the 28,561 pairs of
    # its default grid: only an audit of every pair finds it
    x, y = pt(-0.5, 0.5), pt(1.0, 2.0)
    fn = lambda a, b: -radial.gap(a, b) if (a, b) == (x.coords, y.coords) else radial.gap(a, b)
    bad = GapFunction(fn, radial.gap.lipschitz, negative_iff_better=True, positive_iff_worse=True)
    with pytest.warns(UserWarning) as caught:
        audited = audit_gap_flags(bad, radial.relation, radial.default_ground)
    assert audited.flags() == {"negative_iff_better": False, "positive_iff_worse": False}
    assert [str(w.message) for w in caught] == [
        f"gap sign ({side} side) disagrees with the relation at ({x}, {y})"
        for side in ("negative", "positive")]
    with pytest.warns(UserWarning):
        report = zero_maximality_check(bad, radial.relation, radial.default_ground)
    assert (report.prop, report.holds) == ("zero_maximality_precondition", False)


def test_zero_maximality_calls_a_utility_once_per_point(radial):
    calls = []
    gap = gap_from_utility(lambda p: calls.append(p) or radial.relation.utility(p), 1.0)
    report = zero_maximality_check(gap, radial.relation, radial.default_ground)
    assert report.holds
    assert calls == [p.coords for p in radial.default_ground]


def test_zero_maximality_reads_the_relation_in_row_blocks(radial):
    # one 3,721 x 3,721 boolean matrix alone would be 13.8 MB; the row
    # blocks of the gap table and of the relation stay far below 8 MB
    ground = parse_grid_spec("-0.5:2.5:0.05,0.5:3.5:0.05")
    assert len(ground) == 3721
    tracemalloc.start()
    try:
        report = zero_maximality_check(radial.gap, radial.relation, ground)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak <= 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_audit_keeps_clean_flags(vee):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        audited = audit_gap_flags(vee.gap, vee.relation, vee.default_ground)
    assert audited.flags() == vee.gap.flags()


# ----------------------------------------------------- closedness, sampled


def test_membership_closed_along_gap_sequences(vee):
    tol = 1e-9
    for k in range(2, 40):
        x = pt(0.7 - 1.0 / k)
        sample = vee.contour_sampler(x)
        assert plastria_membership(vee.gap, sample, (-1.0,), tol)
    limit_sample = vee.contour_sampler(pt(0.7))
    assert plastria_membership(vee.gap, limit_sample, (-1.0,), 10 * tol)


def test_graph_closure_at_zero(vee):
    # zero is in the cone only at the peak, so any in-graph sequence with
    # vanishing elements can only accumulate there
    for x in vee.default_ground:
        sample = sample_contour(vee.relation, x, vee.default_ground)
        if sample.is_empty:
            assert x == pt(0.7)
            continue
        assert not plastria_membership(vee.gap, sample, (0.0,))


# ------------------------------------------------- reduction to the classic


def test_zero_gap_reduces_to_normal_membership(vee, halfline, rng):
    gap = zero_gap()
    for fx, dim in ((vee, 1), (halfline, 2)):
        for x in list(fx.default_ground)[::7]:
            sample = fx.contour_sampler(x)
            for q in rng.uniform(-2, 2, size=(20, dim)):
                assert plastria_membership(gap, sample, tuple(q)) \
                    == normal_membership(sample, tuple(q))


def test_a_descent_run_evaluates_the_utility_at_its_reference_once(radial):
    """The gap column evaluates u(reference) once, ahead of the iterates,
    then u once per iterate, in iterate order."""
    calls = []

    def u(x):
        calls.append(x)
        return -math.hypot(x[0] - 1.0, x[1] - 2.0)

    ref = radial.reference.coords
    trace = run_descent(radial.descent_oracle(), pt(-2.5, 4.0), StepSchedule.harmonic(1.0),
                        DescentConfig(1.0, max_iters=300), reference=radial.reference,
                        gap=gap_from_utility(u, 1.0))
    assert len(trace) == 301
    assert calls == [ref, *trace.xs]
    assert [repr(g) for g in trace.gaps] == [repr(u(x) - u(ref)) for x in trace.xs]

