"""The tuple descent loop against the original Point loop (tests/scalar_reference.py).

Both loops run on the same start, schedule, budget, reference and gap: the
library's `run_descent` with the fixture's tuple oracle, the reference with
the original Point oracle. Traces must agree row for row by repr (every float
to the last bit), with the same termination, the same oracle and gap calls,
and the same `quasi_fejer_check`, `gap_convergence_stat`, `distances` and
`reconstruction_residuals`. A run that fails must fail in both loops with the
same exception and message, so at the same iteration.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (
    DescentConfig,
    OracleNormViolation,
    StepSchedule,
    gap_convergence_stat,
    gap_from_utility,
    get_fixture,
    pt,
    quasi_fejer_check,
    run_descent,
)
from prefmax.descent import DescentTrace, TraceRow, reconstruction_residuals

from scalar_reference import (
    descent_oracle_ref,
    distances_ref,
    quasi_fejer_check_ref,
    reconstruction_residuals_ref,
    run_descent_ref,
)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=60)

# start boxes of the benchmark's descent runs, plus mutual-zero's window
FIXTURE_BOX = {
    "vee-peak": ((-2.0, 3.0),),
    "radial-bowl": ((-3.0, 5.0), (-2.0, 6.0)),
    "twin-plateau": ((-4.0, 4.0),),
    "mutual-zero": ((-1.0, 1.0), (-1.0, 1.0)),
}


def _recorded(fn, calls):
    def wrapper(*args):
        calls.append(tuple(tuple(a) for a in args))
        return fn(*args)
    return wrapper


def _outcome(run, oracle, x1, schedule, config, reference, gap):
    """The run's trace with its oracle and gap calls, or its error."""
    calls = []
    oracle = _recorded(oracle, calls)
    if gap is not None:
        gap = _recorded(gap, calls)
    try:
        return run(oracle, x1, schedule, config, reference, gap), calls
    except (ValueError, OracleNormViolation) as exc:
        return (type(exc), str(exc)), calls


def _reprs(items):
    # element by element, so a mismatch is reported by its index
    return [repr(item) for item in items]


def assert_same_run(oracle, oracle_ref, x1, schedule, config, reference=None, gap=None,
                    probes=()):
    """Run both loops and compare everything they return; `probes` are the
    reference points `quasi_fejer_check` and the gap statistic are asked
    about. Returns the library's trace, or None when both raised."""
    new, new_calls = _outcome(run_descent, oracle, x1, schedule, config, reference, gap)
    ref, ref_calls = _outcome(run_descent_ref, oracle_ref, x1, schedule, config, reference, gap)
    assert new_calls == ref_calls
    if isinstance(ref, tuple):
        assert new == ref
        return None
    assert _reprs(new.rows) == _reprs(ref.rows)
    assert new.termination == ref.termination
    assert repr((new.reference, new.lipschitz)) == repr((ref.reference, ref.lipschitz))
    assert _reprs(reconstruction_residuals(new)) == _reprs(reconstruction_residuals_ref(ref))
    if reference is not None:
        assert _reprs(new.distances()) == _reprs(distances_ref(ref))
    L = config.lipschitz
    for r in probes:
        for slack in (1e-10, 0.0):
            for bound in (L, 0.5 * L):
                assert (quasi_fejer_check(new, r, bound, slack)
                        == quasi_fejer_check_ref(ref, r, bound, slack))
        if gap is not None:
            assert (repr(gap_convergence_stat(new, gap, r))
                    == repr(gap_convergence_stat(ref, gap, r)))
    return new


@st.composite
def schedules(draw):
    """Harmonic steps, an explicit theta0 / k^p prefix, or a few arbitrary
    positive steps."""
    kind = draw(st.sampled_from(("harmonic", "prefix", "arbitrary")))
    if kind == "harmonic":
        return StepSchedule.harmonic(draw(st.floats(0.05, 3.0)))
    if kind == "prefix":
        theta0, p = draw(st.floats(0.05, 2.0)), draw(st.floats(0.5, 1.0))
        n = draw(st.sampled_from((300, 40, 3, 1)))
        return StepSchedule.explicit(theta0 / k ** p for k in range(1, n + 1))
    return StepSchedule.explicit(draw(st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=20)))


# budgets: long enough for most runs to end on their own, a few steps, a single one
budgets = st.sampled_from((400, 25, 2, 1))


@st.composite
def points_in(draw, box):
    """Mostly a uniform point of the box from a drawn seed; now and then one
    with hypothesis' edge-case coordinates (0, tiny, bounds)."""
    if draw(st.sampled_from(("uniform", "uniform", "uniform", "edge"))) == "edge":
        return pt(*(draw(st.floats(lo, hi)) for lo, hi in box))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return pt(*(float(rng.uniform(lo, hi)) for lo, hi in box))


# ------------------------------------------------------------ fixtures


@DIFFERENTIAL
@given(st.sampled_from(sorted(FIXTURE_BOX)), st.data())
def test_fixture_runs_match(name, data):
    fx = get_fixture(name)
    box = FIXTURE_BOX[name]
    x1 = data.draw(points_in(box))
    config = DescentConfig(lipschitz=fx.gap.lipschitz,
                           max_iters=data.draw(budgets),
                           eps=data.draw(st.sampled_from((0.0, 1e-3, 0.5, 2.0))))
    reference = data.draw(st.sampled_from(("fixture", "none", "random")))
    if reference == "random":
        reference = data.draw(points_in(box))
    elif reference == "fixture":
        reference = fx.reference
    else:
        reference = None
    gap = fx.gap if data.draw(st.booleans()) else None
    probes = [p for p in (reference, fx.reference, data.draw(points_in(box))) if p is not None]
    assert_same_run(fx.descent_oracle(), descent_oracle_ref(fx), x1, data.draw(schedules()),
                    config, reference, gap, probes)


def _uniform_starts(name, n, seed=5):
    rng = np.random.default_rng(seed)
    return [(name, tuple(float(rng.uniform(lo, hi)) for lo, hi in FIXTURE_BOX[name]))
            for _ in range(n)]


@pytest.mark.parametrize("name, x0", [
    ("vee-peak", (0.7,)), ("radial-bowl", (0.0, 0.0)), ("radial-bowl", (1.0, 2.0)),
    *_uniform_starts("vee-peak", 5), *_uniform_starts("radial-bowl", 5),
    *_uniform_starts("twin-plateau", 4), *_uniform_starts("mutual-zero", 1),
])
def test_whole_fixture_runs_match(name, x0):
    """Runs as the benchmark makes them, from starts in its boxes: to an
    exact zero cone element or a budget of 2000 steps, with the fixture's
    reference and gap."""
    fx = get_fixture(name)
    reference = fx.reference if fx.reference is not None else pt(0.0)
    trace = assert_same_run(fx.descent_oracle(), descent_oracle_ref(fx), pt(*x0),
                            StepSchedule.harmonic(1.0),
                            DescentConfig(lipschitz=fx.gap.lipschitz, max_iters=2000),
                            fx.reference, fx.gap, (reference,))
    assert trace.rows[-1].k == len(trace.rows)


def test_vee_peak_ends_on_an_exact_peak():
    # the start 2.1 comes within 1e-9 of 0.7 at k = 177 and lands on 0.7 at k = 1937
    fx = get_fixture("vee-peak")
    trace = assert_same_run(fx.descent_oracle(), descent_oracle_ref(fx), pt(2.1),
                            StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=5000),
                            fx.reference, fx.gap, (fx.reference,))
    assert trace.termination == "zeroSubgradient"
    assert len(trace.rows) == 1937
    assert trace.rows[-1].x == pt(0.7)
    assert abs(trace.rows[176].x[0] - 0.7) < 1e-9 < abs(trace.rows[175].x[0] - 0.7)


# ---------------------------------------------------- synthetic oracles


def affine_field(dim, seed, L, form):
    """x -> A x + b scaled back to norm L where it is longer, zero in a small
    box around the origin; returned as a tuple, a list or a numpy array."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)).tolist()
    b = rng.normal(scale=0.5, size=dim).tolist()

    def field(x):
        x = tuple(x)
        if all(abs(c) < 0.05 for c in x):
            v = [0.0] * dim
        else:
            v = [sum(A[i][j] * x[j] for j in range(dim)) + b[i] for i in range(dim)]
            n = math.sqrt(sum(c * c for c in v))
            if n > L:
                v = [c * (L / n) for c in v]
        return {"tuple": tuple, "list": list, "array": np.array}[form](v)

    return field


@DIFFERENTIAL
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.25, 4.0),
       st.sampled_from(("tuple", "list", "array")), st.data())
def test_synthetic_oracles_match(dim, seed, L, form, data):
    box = ((-3.0, 3.0),) * dim
    oracle = affine_field(dim, seed, L, form)
    config = DescentConfig(lipschitz=L, max_iters=data.draw(budgets),
                           eps=data.draw(st.sampled_from((0.0, 1e-2, 0.5))))
    reference = data.draw(st.one_of(st.none(), points_in(box)))
    gap = None
    if data.draw(st.booleans()):
        gap = gap_from_utility(lambda x: -math.sqrt(sum(c * c for c in x)), 1.0)
    probes = [p for p in (reference, data.draw(points_in(box))) if p is not None]
    assert_same_run(oracle, oracle, data.draw(points_in(box)), data.draw(schedules()), config,
                    reference, gap, probes)


def test_explicit_schedule_runs_out_the_same_way():
    oracle = affine_field(3, 7, 1.0, "tuple")
    trace = assert_same_run(oracle, oracle, pt(2.0, -1.0, 0.5),
                            StepSchedule.explicit([0.5, 0.25, 0.125]),
                            DescentConfig(1.0, max_iters=10), pt(0.0, 0.0, 0.0), None,
                            (pt(0.0, 0.0, 0.0),))
    assert trace.termination == "maxIters"
    assert len(trace.rows) == 4 and trace.rows[-1].xstar is not None


@pytest.mark.parametrize("eps, termination", [(0.5, "normBelowEps"), (0.4999, "maxIters")])
def test_a_norm_equal_to_eps_stops(eps, termination):
    trace = assert_same_run(lambda x: (0.5,), lambda x: (0.5,), pt(3.0),
                            StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=4, eps=eps),
                            pt(0.0), None, (pt(0.0),))
    assert trace.termination == termination


# --------------------------------------------- diagnostics on any trace


@DIFFERENTIAL
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-10, 1e-3)))
def test_diagnostics_match_on_arbitrary_traces(dim, seed, n, stranded, slack):
    """Traces the loop would not write, as `load_trace_json` may return:
    rows without a step anywhere, steps that do not reconstruct, and moves
    that break the Fejer inequality now and then."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=dim)
    rows = []
    for k in range(1, n + 1):
        stepped = rng.uniform() >= stranded
        theta = float(rng.uniform(0.01, 1.0)) if stepped else None
        xstar = pt(*rng.uniform(-1.0, 1.0, size=dim).tolist()) if rng.uniform() < 0.9 else None
        rows.append(TraceRow(k, pt(*x.tolist()), xstar, theta))
        x = 0.8 * x + rng.normal(scale=0.3, size=dim)
    reference = pt(*rng.uniform(-0.5, 0.5, size=dim).tolist())
    trace = DescentTrace.from_rows(tuple(rows), "maxIters", reference=reference, lipschitz=1.0)
    assert _reprs(trace.distances()) == _reprs(distances_ref(trace))
    assert _reprs(reconstruction_residuals(trace)) == _reprs(reconstruction_residuals_ref(trace))
    for m in range(1, n + 1):  # every prefix, so each pair decides one verdict
        prefix = DescentTrace.from_rows(trace.rows[:m], "maxIters", reference=reference,
                                        lipschitz=1.0)
        for L in (0.1, 1.0):
            assert (quasi_fejer_check(prefix, reference, L, slack)
                    == quasi_fejer_check_ref(prefix, reference, L, slack))


# ---------------------------------------------------------- error paths


def switching_oracle(good, bad, at):
    """Returns `good` on the first at - 1 calls and `bad` from call `at` on;
    a fresh one per run."""
    def make():
        calls = []

        def oracle(x):
            calls.append(x)
            return bad if len(calls) >= at else good
        return oracle
    return make


def assert_same_failure(make, x1, schedule, config, expected, reference=None):
    new = _outcome(run_descent, make(), x1, schedule, config, reference, None)[0]
    ref = _outcome(run_descent_ref, make(), x1, schedule, config, reference, None)[0]
    assert new == ref
    assert new[0] is expected
    return new[1]


@pytest.mark.parametrize("at", (1, 2, 7))
@pytest.mark.parametrize("dim", (1, 2))
def test_norm_violation_at_the_same_iteration(at, dim):
    good, bad = (0.5,) + (0.0,) * (dim - 1), (0.0,) * (dim - 1) + (1.5,)
    message = assert_same_failure(switching_oracle(good, bad, at), pt(*(0.0,) * dim),
                                  StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=20),
                                  OracleNormViolation, reference=pt(*(1.0,) * dim))
    assert message.endswith(f"at iteration {at}")


@pytest.mark.parametrize("bad, L, expected", [
    ((math.nan,), 1.0, ValueError),
    ((0.5, math.nan), 1.0, ValueError),
    ((math.inf, math.nan), 1.0, ValueError),
    ((-math.inf,), math.inf, ValueError),  # no bound to catch it: the iterate is not finite
    ((math.inf,), 1.0, OracleNormViolation),  # its norm exceeds the bound first, as in the Point loop
])
@pytest.mark.parametrize("schedule", (StepSchedule.harmonic(1.0), StepSchedule.explicit([0.5])))
def test_non_finite_oracle_output(bad, L, expected, schedule):
    # with the one-step explicit schedule the bad output comes when the steps
    # have run out, so it fails as the stored cone element, not as an iterate
    dim = len(bad)
    assert_same_failure(switching_oracle((0.25,) * dim, bad, 2), pt(*(1.0,) * dim), schedule,
                        DescentConfig(L, max_iters=20, eps=1e-3), expected,
                        reference=pt(*(0.0,) * dim))


@pytest.mark.parametrize("x1, out", [((1e308,), (-1.0,)), ((0.0, -1.7e308), (0.0, 1.0))])
def test_overflowing_iterate_raises_value_error(x1, out):
    message = assert_same_failure(switching_oracle(out, out, 1), pt(*x1),
                                  StepSchedule.explicit([1e308]), DescentConfig(1.0, max_iters=5),
                                  ValueError)
    assert "non-finite coordinate" in message
