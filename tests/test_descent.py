import math
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (
    DescentConfig,
    OracleNormViolation,
    ScheduleValidationError,
    StepSchedule,
    descend_fixture,
    gap_convergence_stat,
    gap_from_utility,
    pt,
    quasi_fejer_check,
    run_descent,
)
from prefmax.descent import TraceRow

from scalar_reference import norm, reconstruction_residuals_ref, sub, theta_ref, trace_from_rows


# ----------------------------------------------------------------- schedules


def test_harmonic_schedule_valid():
    StepSchedule.harmonic(1.0).validate()
    with pytest.raises(ScheduleValidationError):
        StepSchedule.harmonic(0.0).validate()


def _partial_sums(schedule, horizon):
    """(sum theta_k, sum theta_k^2) over the first `horizon` steps."""
    thetas = list(islice(schedule.steps(), horizon))
    return sum(thetas), sum(t * t for t in thetas)


@settings(deadline=None, max_examples=40)
@given(st.floats(0.1, 5.0), st.integers(10, 5000))
def test_harmonic_square_sums_below_basel_bound(theta0, horizon):
    _, s2 = _partial_sums(StepSchedule.harmonic(theta0), horizon)
    assert s2 < theta0 * theta0 * math.pi * math.pi / 6.0 + 1e-9


def test_harmonic_linear_sums_grow_without_bound():
    sched = StepSchedule.harmonic(1.0)
    s, _ = _partial_sums(sched, 200)
    assert s > 5.0
    s_long, _ = _partial_sums(sched, 25_000)
    assert s_long > 10.0


@pytest.mark.parametrize("schedule", [StepSchedule.harmonic(0.3), StepSchedule.harmonic(7),
                                      StepSchedule.explicit([0.5, 0.25, 1e-3])])
def test_steps_are_the_original_theta_of_k(schedule):
    """The step iterator gives theta_k for k = 1, 2, ... bit for bit as the
    original `StepSchedule.theta(k)` did, and None for ever once an explicit
    list runs out."""
    expected = [theta_ref(schedule, k) for k in range(1, 2001)]
    assert [repr(t) for t in islice(schedule.steps(), 2000)] == [repr(t) for t in expected]


def test_constant_schedule_rejected_before_any_iteration():
    config = DescentConfig(lipschitz=1.0, max_iters=10)
    calls = []

    def oracle(x):
        calls.append(x)
        return (1.0,)

    with pytest.raises(ScheduleValidationError):
        run_descent(oracle, pt(0.0), StepSchedule.constant(0.1), config)
    assert calls == []


def test_explicit_schedule_validation():
    StepSchedule.explicit([0.5, 0.25]).validate()
    with pytest.raises(ScheduleValidationError):
        StepSchedule.explicit([]).validate()
    with pytest.raises(ScheduleValidationError):
        StepSchedule.explicit([0.5, -0.1]).validate()


def test_explicit_schedule_exhaustion_stops_run():
    sched = StepSchedule.explicit([0.5, 0.25, 0.125])
    config = DescentConfig(lipschitz=1.0, max_iters=10)
    trace = run_descent(lambda x: (1.0,), pt(0.0), sched, config)
    assert trace.termination == "maxIters"
    assert len(trace.rows) == 4  # three steps plus the stranded iterate


def test_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(lipschitz=1.0, max_iters=0)
    with pytest.raises(ValueError):
        DescentConfig(lipschitz=0.0)
    with pytest.raises(ValueError):
        DescentConfig(lipschitz=1.0, eps=-1.0)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_non_finite_parameters_are_rejected(value):
    """Each names its parameter. A nan Lipschitz bound would turn the oracle
    norm check off (nothing exceeds nan), and a nan step would move every
    iterate to nan."""
    with pytest.raises(ValueError, match=r"^lipschitz must be finite, got "):
        DescentConfig(lipschitz=value)
    with pytest.raises(ValueError, match=r"^eps must be finite, got "):
        DescentConfig(lipschitz=1.0, eps=value)
    with pytest.raises(ValueError, match=r"^lipschitz must be finite, got "):
        gap_from_utility(lambda x: 0.0, value)
    with pytest.raises(ScheduleValidationError, match=r"^harmonic schedule needs a finite theta0"):
        StepSchedule.harmonic(value).validate()
    with pytest.raises(ScheduleValidationError,
                       match=r"^explicit schedule has a non-finite step .* at k = 2$"):
        StepSchedule.explicit([0.5, value, 0.25]).validate()


def test_a_nan_lipschitz_bound_no_longer_lets_a_long_oracle_run():
    with pytest.raises(ValueError, match="lipschitz"):
        run_descent(lambda x: (1e6,), pt(0.0), StepSchedule.harmonic(1.0),
                    DescentConfig(lipschitz=math.nan, max_iters=3))
    with pytest.raises(OracleNormViolation, match="at iteration 1$"):
        run_descent(lambda x: (1e6,), pt(0.0), StepSchedule.harmonic(1.0),
                    DescentConfig(lipschitz=1.0, max_iters=3))


# ---------------------------------------------------------------- iteration


def test_radial_run_contracts_and_reconstructs(radial):
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=500)
    assert trace.termination == "maxIters"
    assert len(trace.rows) == 501
    assert trace.dists[-1] < 0.05
    assert max(reconstruction_residuals_ref(trace)) <= 1e-12
    L = radial.gap.lipschitz
    for r in trace.rows:
        if r.xstar is not None:
            assert norm(r.xstar.coords) <= L * (1.0 + 1e-12)


def test_zero_oracle_stops_immediately():
    trace = descend_fixture("mutual-zero", (3.0, -1.0))
    assert trace.termination == "zeroSubgradient"
    assert len(trace.rows) == 1
    assert trace.final_point == pt(3.0, -1.0)


def test_oracle_norm_violation_is_hard_error():
    config = DescentConfig(lipschitz=1.0, max_iters=10)
    with pytest.raises(OracleNormViolation):
        run_descent(lambda x: (2.0,), pt(0.0), StepSchedule.harmonic(1.0), config)


def test_eps_stop_reports_norm_below_eps():
    config = DescentConfig(lipschitz=1.0, max_iters=1000, eps=0.01)
    trace = run_descent(lambda x: (x[0] / 2.0,), pt(1.0), StepSchedule.harmonic(1.0), config)
    assert trace.termination == "normBelowEps"
    assert norm(trace.rows[-1].xstar.coords) <= 0.01


# ------------------------------------------------------------- diagnostics


def test_quasi_fejer_holds_on_radial_run():
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=2000)
    assert quasi_fejer_check(trace, pt(1.0, 2.0), L=1.0)


def test_quasi_fejer_constant_trace():
    trace = descend_fixture("mutual-zero", (0.5, 0.5))
    assert quasi_fejer_check(trace, pt(0.0, 0.0), L=1.0)


def test_quasi_fejer_rejects_adversarial_trace():
    # one unit step away from the reference with a claimed budget of 0.01
    rows = (
        TraceRow(1, pt(0.0), pt(-1.0), 1.0),
        TraceRow(2, pt(1.0), None, None),
    )
    trace = trace_from_rows(rows, "maxIters", reference=pt(0.0), lipschitz=0.1)
    assert not quasi_fejer_check(trace, pt(0.0), L=0.1)


def test_gap_stat_zero_at_reference(radial):
    trace = descend_fixture("radial-bowl", (1.0, 2.0), max_iters=100)
    assert trace.termination == "zeroSubgradient"
    assert gap_convergence_stat(trace, radial.gap, pt(1.0, 2.0)) == 0.0


def test_gap_stat_flags_short_runs(radial):
    trace = descend_fixture("radial-bowl", (100.0, 100.0), max_iters=10)
    d1 = trace.dists[0]
    stat = gap_convergence_stat(trace, radial.gap, pt(1.0, 2.0))
    assert stat > 0.9 * d1  # ten harmonic steps barely dent a far start


@pytest.mark.parametrize("n, tail", [(1, 1), (20, 1), (21, 2), (40, 2), (41, 3)])
def test_gap_stat_reads_exactly_the_last_five_percent(n, tail):
    # |gap| to the origin is |x|: row k holds k, except 100 on the row just
    # before the tail of ceil(0.05 n) rows, which the statistic must not read
    gap = gap_from_utility(lambda x: -abs(x[0]), 1.0)
    xs = [100.0 if k == n - tail else float(k) for k in range(1, n + 1)]
    rows = [TraceRow(k, pt(x), None, None) for k, x in enumerate(xs, 1)]
    trace = trace_from_rows(rows, "maxIters")
    assert gap_convergence_stat(trace, gap, pt(0.0)) == float(n)


def test_gap_stat_rejects_empty_trace(radial):
    with pytest.raises(ValueError):
        gap_convergence_stat(trace_from_rows((), "maxIters"), radial.gap, pt(1.0, 2.0))


def test_radial_distance_monotone_then_step_bounded():
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=2000)
    dists = trace.dists
    crossing = None
    for i, row in enumerate(trace.rows):
        if row.theta is not None and dists[i] < row.theta:
            crossing = i
            break
    assert crossing is not None
    for i in range(crossing):
        assert dists[i + 1] <= dists[i] + 1e-12
    for i in range(crossing + 1, len(dists)):
        theta_k = 1.0 / (i + 1)
        theta_next = 1.0 / (i + 2)
        assert dists[i] <= theta_k + theta_next + 1e-12


def test_iterates_stay_within_theory_bound():
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=2000)
    d1 = trace.dists[0]
    s2 = sum(r.theta ** 2 for r in trace.rows if r.theta is not None)
    bound = norm(trace.rows[0].x.coords) + d1 + s2 + 1.0
    assert max(norm(r.x.coords) for r in trace.rows) <= bound


def test_fejer_residual_column_tracks_definition():
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=50)
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        if prev.theta is None:
            continue
        d_prev = norm(sub(prev.x, trace.reference))
        d_next = norm(sub(nxt.x, trace.reference))
        expected = d_next ** 2 - d_prev ** 2 - prev.theta ** 2 * trace.lipschitz ** 2
        assert abs(prev.fejer_residual - expected) <= 1e-12
