"""The tuple descent loop against the original Point loop (tests/scalar_reference.py).

Both loops run on the same start, schedule, budget, reference and gap: the
library's `run_descent` with the fixture's tuple oracle, the reference with
the original Point oracle. Traces must agree row for row by repr (every float
to the last bit), with the same termination, the same oracle calls in the
same order, the gap evaluated once per row in row order (inside the reference
loop, after the library's), and the same `quasi_fejer_check`,
`gap_convergence_stat` and distance column. A run
that fails must fail in both loops with the same exception and message, so
at the same iteration.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from prefmax.descent import TraceRow, _distance_column
from prefmax.points import scaled_to

from scalar_reference import (
    descent_oracle_ref,
    distances_ref,
    quasi_fejer_check_ref,
    run_descent_ref,
    trace_from_rows,
)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=60)

# start boxes of the benchmark's descent runs, plus mutual-zero's window
FIXTURE_BOX = {
    "vee-peak": ((-2.0, 3.0),),
    "radial-bowl": ((-3.0, 5.0), (-2.0, 6.0)),
    "twin-plateau": ((-4.0, 4.0),),
    "mutual-zero": ((-1.0, 1.0), (-1.0, 1.0)),
}


def _recorded(fn, calls, tag=None):
    def wrapper(*args):
        calls.append(tuple(tuple(a) for a in args) if tag is None else (tag, *map(tuple, args)))
        return fn(*args)
    return wrapper


def _outcome(run, oracle, x1, schedule, config, reference, gap):
    """The run's trace with its oracle calls and its gap calls, or its error.
    The gap is the same GapFunction with its `fn` and `utility` recorded."""
    calls, gap_calls = [], []
    oracle = _recorded(oracle, calls)
    if gap is not None:
        gap = replace(gap, fn=_recorded(gap.fn, gap_calls, "fn"),
                      utility=gap.utility and _recorded(gap.utility, gap_calls, "u"))
    try:
        return run(oracle, x1, schedule, config, reference, gap), calls, gap_calls
    except (ValueError, OracleNormViolation) as exc:
        return (type(exc), str(exc)), calls, gap_calls


def _gap_pairs(gap_calls):
    """The (x, y) pairs a run's gap calls evaluated f at. A utility gap's
    column evaluates u(y) once, ahead of u at each x."""
    if gap_calls and gap_calls[0][0] == "u":
        (_, y), *xs = gap_calls
        assert all(tag == "u" for tag, _ in xs)
        return [(x, y) for _, x in xs]
    assert all(tag == "fn" for tag, *_ in gap_calls)
    return [(x, y) for _, x, y in gap_calls]


def _reprs(items):
    # element by element, so a mismatch is reported by its index
    return [repr(item) for item in items]


def assert_same_run(oracle, oracle_ref, x1, schedule, config, reference=None, gap=None,
                    probes=()):
    """Run both loops and compare everything they return; `probes` are the
    reference points `quasi_fejer_check` and the gap statistic are asked
    about. The oracle calls must agree in order. The reference loop calls
    the gap at each row's iterate inside the loop, the library after it, in
    one column pass: the gap must be evaluated once per row, in row order,
    at the same points, and not at all in a run that raises. Returns the
    library's trace, or None when both raised."""
    new, new_calls, new_gap = _outcome(run_descent, oracle, x1, schedule, config, reference, gap)
    ref, ref_calls, ref_gap = _outcome(run_descent_ref, oracle_ref, x1, schedule, config,
                                       reference, gap)
    assert new_calls == ref_calls
    if not isinstance(ref, tuple):
        assert _gap_pairs(new_gap) == _gap_pairs(ref_gap)
        assert len(_gap_pairs(new_gap)) == (len(ref) if gap and reference else 0)
    if isinstance(ref, tuple):
        assert new == ref
        assert new_gap == []
        return None
    assert _reprs(new.rows) == _reprs(ref.rows)
    assert new.termination == ref.termination
    assert repr((new.reference, new.lipschitz)) == repr((ref.reference, ref.lipschitz))
    if reference is not None:
        assert _reprs(new.dists) == _reprs(distances_ref(ref))
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


class Draws:
    """Stands in for `st.data()` in an explicit example: `draw` returns the
    given values in order, whatever the strategy."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy, label=None):
        return next(self._values)


def scaled(p, s: float):
    """The point p times s, or None for None."""
    return None if p is None else pt(*(s * c for c in p))


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
    reference = fx.reference if fx.reference is not None else pt(*(0.0,) * len(x0))
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


def affine_field(dim, seed, L, form, scale=1.0):
    """x -> A x + b scaled back to norm L where it is longer, zero in a small
    box around the origin; returned as a tuple, a list or a numpy array.
    With a scale s, x and the output are read in units of s: s f(x / s)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)).tolist()
    b = rng.normal(scale=0.5, size=dim).tolist()

    def field(x):
        x = tuple(c / scale for c in x)
        if all(abs(c) < 0.05 for c in x):
            v = [0.0] * dim
        else:
            v = [sum(A[i][j] * x[j] for j in range(dim)) + b[i] for i in range(dim)]
            n = math.sqrt(sum(c * c for c in v))
            if n > L:
                v = [c * (L / n) for c in v]
        return {"tuple": tuple, "list": list, "array": np.array}[form]([scale * c for c in v])

    return field


@DIFFERENTIAL
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.25, 4.0),
       st.sampled_from(("tuple", "list", "array")), st.just(1.0), st.data())
# the field, its bound, eps, the start and the reference at a scale where
# the squares of every cone element underflow, or overflow
@example(2, 7, 1.0, "array", 1e-170,
         Draws(25, 0.0, pt(0.5, -0.5), False, pt(1.0, 1.0), pt(2.0, -1.0),
               StepSchedule.harmonic(1.0)))
@example(1, 3, 2.0, "list", 1e-170,
         Draws(25, 1e-2, None, False, pt(-1.0), pt(2.5), StepSchedule.harmonic(0.5)))
@example(2, 7, 1.0, "tuple", 1e200,
         Draws(25, 0.0, pt(0.5, -0.5), False, pt(1.0, 1.0), pt(2.0, -1.0),
               StepSchedule.harmonic(1.0)))
@example(3, 11, 0.5, "list", 1e200,
         Draws(25, 0.5, pt(0.0, 0.0, 1.0), False, pt(1.0, 1.0, 1.0), pt(2.0, -1.0, 0.5),
               StepSchedule.harmonic(2.0)))
def test_synthetic_oracles_match(dim, seed, L, form, scale, data):
    box = ((-3.0, 3.0),) * dim
    oracle = affine_field(dim, seed, L, form, scale)
    config = DescentConfig(lipschitz=L * scale, max_iters=data.draw(budgets),
                           eps=data.draw(st.sampled_from((0.0, 1e-2, 0.5))) * scale)
    reference = scaled(data.draw(st.one_of(st.none(), points_in(box))), scale)
    gap = None
    if data.draw(st.booleans()):
        gap = gap_from_utility(lambda x: -math.sqrt(sum(c * c for c in x)), 1.0)
    probes = [p for p in (reference, scaled(data.draw(points_in(box)), scale)) if p is not None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_run(oracle, oracle, scaled(data.draw(points_in(box)), scale),
                        data.draw(schedules()), config, reference, gap, probes)


def test_explicit_schedule_runs_out_the_same_way():
    oracle = affine_field(3, 7, 1.0, "tuple")
    trace = assert_same_run(oracle, oracle, pt(2.0, -1.0, 0.5),
                            StepSchedule.explicit([0.5, 0.25, 0.125]),
                            DescentConfig(1.0, max_iters=10), pt(0.0, 0.0, 0.0), None,
                            (pt(0.0, 0.0, 0.0),))
    assert trace.termination == "maxIters"
    assert len(trace.rows) == 4 and trace.rows[-1].xstar is not None


# at 1e-170 the square of the cone element underflows, at 1e200 it overflows
@pytest.mark.parametrize("scale", (1.0, 1e-170, 1e200))
@pytest.mark.parametrize("eps, termination", [(0.5, "normBelowEps"), (0.4999, "maxIters")])
def test_a_norm_equal_to_eps_stops(eps, termination, scale):
    out = (0.5 * scale,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = assert_same_run(lambda x: out, lambda x: out, pt(3.0 * scale),
                                StepSchedule.harmonic(1.0),
                                DescentConfig(scale, max_iters=4, eps=eps * scale),
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
    trace = trace_from_rows(rows, "maxIters", reference=reference, lipschitz=1.0)
    assert (_reprs(_distance_column(trace.array, tuple(reference)).tolist())
            == _reprs(distances_ref(trace)))
    for m in range(1, n + 1):  # every prefix, so each pair decides one verdict
        prefix = trace_from_rows(trace.rows[:m], "maxIters", reference=reference,
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


# at 1e-170 the squares of both outputs underflow, at 1e200 they overflow
@pytest.mark.parametrize("scale", (1.0, 1e-170, 1e200))
@pytest.mark.parametrize("at", (1, 2, 7))
@pytest.mark.parametrize("dim", (1, 2))
def test_norm_violation_at_the_same_iteration(at, dim, scale):
    good, bad = (0.5 * scale,) + (0.0,) * (dim - 1), (0.0,) * (dim - 1) + (1.5 * scale,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = assert_same_failure(switching_oracle(good, bad, at), pt(*(0.0,) * dim),
                                      StepSchedule.harmonic(1.0),
                                      DescentConfig(scale, max_iters=20), OracleNormViolation,
                                      reference=pt(*(scale,) * dim))
    assert message.endswith(f"at iteration {at}")
    assert message.startswith(f"oracle output norm {1.5 * scale} exceeds")


@pytest.mark.parametrize("out", [(1e-170,), (1e-170, 0.0), (0.0, -1e-170)])
def test_a_nonzero_cone_element_whose_squares_underflow_is_a_step(out):
    # eps = 0 stops only on an exact zero; read as 0.0 this one stopped at k = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = assert_same_run(_constant(out), _constant(out), pt(*(1.0,) * len(out)),
                                StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=6),
                                pt(*(0.0,) * len(out)), None, (pt(*(0.0,) * len(out)),))
    assert trace.termination == "maxIters"
    assert len(trace.rows) == 7


def test_a_cone_element_of_norm_l_whose_squares_overflow_is_a_step():
    # its norm is L = 1e200; read as inf it raised OracleNormViolation
    out = scaled_to((1.0, 1.0), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = assert_same_run(_constant(out), _constant(out), pt(0.0, 0.0),
                                StepSchedule.harmonic(1.0), DescentConfig(1e200, max_iters=3),
                                pt(0.0, 0.0), None, (pt(0.0, 0.0),))
    assert trace.termination == "maxIters"
    assert len(trace.rows) == 4


def test_an_exact_zero_still_stops_and_a_norm_of_twice_l_still_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = assert_same_run(_constant((0.0, 0.0)), _constant((0.0, 0.0)), pt(1.0, 1.0),
                                StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=6))
        assert trace.termination == "zeroSubgradient" and len(trace.rows) == 1
        message = assert_same_failure(switching_oracle(None, (2e200, 0.0), 1), pt(0.0, 0.0),
                                      StepSchedule.harmonic(1.0),
                                      DescentConfig(1e200, max_iters=6), OracleNormViolation)
    assert message == "oracle output norm 2e+200 exceeds the declared bound 1e+200 at iteration 1"


@pytest.mark.parametrize("bad, L, expected", [
    ((math.nan,), 1.0, ValueError),  # a nan norm passes the bound: the iterate is not finite
    ((0.5, math.nan), 1.0, ValueError),
    ((math.inf, math.nan), 1.0, ValueError),
    ((-math.inf,), 1.0, OracleNormViolation),  # the bound is finite, so an infinite norm exceeds it
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


# ------------------------------------------- oracle outputs and fallbacks
#
# The loop converts the oracle's output with float and validates a step from
# its two norms, checking coordinates one by one only where a norm is not
# finite or there is no reference. These runs reach every branch of that.


def _constant(value):
    return lambda x: value


OUTPUTS = {
    "ints": (1, 0),
    "mixed-int-float": (0, -0.75),
    "numpy-ints": np.array([0, -1]),
    "numpy-floats": np.array([0.6, -0.8]),
    "numpy-float64-tuple": (np.float64(-0.28), np.float64(0.96)),
    "list": [0.8, 0.6],
}


@pytest.mark.parametrize("with_reference", (True, False))
@pytest.mark.parametrize("schedule", (StepSchedule.harmonic(1.0),
                                      StepSchedule.explicit([0.5, 0.25, 0.125])),
                         ids=("harmonic", "runs-out"))
@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_oracle_output_types_give_the_same_trace(name, schedule, with_reference):
    out = OUTPUTS[name]
    reference = pt(0.5, -1.0) if with_reference else None
    gap = gap_from_utility(lambda x: -math.hypot(*x), 1.0) if with_reference else None
    trace = assert_same_run(_constant(out), _constant(out), pt(2.0, 1.0), schedule,
                            DescentConfig(1.0, max_iters=30), reference, gap,
                            (pt(0.0, 0.0),))
    assert all(type(c) is float for xs in trace.xstars if xs is not None for c in xs)


BAD_OUTPUTS = {
    "nan": (math.nan, 0.0),
    "nan-second": (0.5, math.nan),
    "numpy-nan": np.array([math.nan, 0.25]),
    "numpy-float64-nan": (np.float64(0.25), np.float64(math.nan)),
    "inf": (math.inf, 0.0),
    "-inf": (0.0, -math.inf),
    "numpy-inf": np.array([0.0, math.inf]),
    "inf-nan": (math.inf, math.nan),
    "empty": (),
    "numpy-empty": np.array([]),
}


@pytest.mark.parametrize("at", (1, 2, 5))
@pytest.mark.parametrize("with_reference", (True, False))
@pytest.mark.parametrize("schedule", (StepSchedule.harmonic(1.0), StepSchedule.explicit([0.5])),
                         ids=("harmonic", "runs-out"))
@pytest.mark.parametrize("name", sorted(BAD_OUTPUTS))
def test_bad_oracle_output_fails_the_same_way(name, schedule, with_reference, at):
    """The same exception with the same message, after the same oracle
    calls. With the one-step schedule a bad output on call 2 comes when the
    steps have run out, and fails as the stored cone element; one on call 5
    never comes."""
    make = switching_oracle((0.6, -0.8), BAD_OUTPUTS[name], at)
    reference = pt(0.0, 0.0) if with_reference else None
    gap = gap_from_utility(lambda x: -math.hypot(*x), 1.0) if with_reference else None
    trace = assert_same_run(make(), make(), pt(1.0, 1.0), schedule,
                            DescentConfig(1.0, max_iters=20), reference, gap)
    assert (trace is None) == (at < 5 or schedule.kind == "harmonic")


@pytest.mark.parametrize("with_reference", (True, False))
def test_an_empty_output_still_needs_a_coordinate(with_reference):
    reference = pt(0.0) if with_reference else None
    with pytest.raises(ValueError, match="^point needs at least one coordinate$"):
        run_descent(lambda x: (), pt(1.0), StepSchedule.harmonic(1.0),
                    DescentConfig(1.0, max_iters=5), reference)


@pytest.mark.parametrize("x1, reference, dist", [
    ((1.5e308, 1.5e308), (-1.5e308, -1.5e308), math.inf),  # the differences overflow
    ((1e308, 1e308), (0.0, 0.0), 1e308 * math.sqrt(2.0)),  # the squares overflow
    ((-1e200,), (1e200,), 2e200),
])
@pytest.mark.parametrize("schedule", (StepSchedule.harmonic(1.0),
                                      StepSchedule.explicit([0.5, 0.25, 0.125])),
                         ids=("harmonic", "runs-out"))
def test_finite_iterates_whose_distance_overflows_still_run(x1, reference, dist, schedule):
    # where only the squares overflow, the distance is rescaled and finite,
    # and so is every residual, though two distances add up past the
    # largest float
    dim = len(x1)
    out = (0.6, -0.8)[:dim] if dim == 2 else (1.0,)
    trace = assert_same_run(_constant(out), _constant(out), pt(*x1), schedule,
                            DescentConfig(1.0, max_iters=12), pt(*reference), None,
                            (pt(*reference),))
    assert trace.dists[0] == dist
    if dist < math.inf:
        assert all(math.isfinite(r) for r in trace.residuals if r is not None)
    assert len(trace) == (13 if schedule.kind == "harmonic" else 4)


@pytest.mark.parametrize("at", (1, 4))
@pytest.mark.parametrize("with_reference", (True, False))
def test_an_iterate_that_overflows_fails_the_same_way(at, with_reference):
    # a finite output whose step takes the iterate past the largest float
    make = switching_oracle((0.0, 1e-100), (-1.0, 0.0), at)
    reference = pt(0.0, 0.0) if with_reference else None
    message = assert_same_failure(make, pt(1.7e308, 0.0), StepSchedule.explicit([1e308] * 6),
                                  DescentConfig(1.0, max_iters=10), ValueError, reference)
    assert message.startswith("non-finite coordinate in (inf, ")


@pytest.mark.parametrize("form", ("tuple", "list", "array"))
@pytest.mark.parametrize("dim", (1, 2, 3))
def test_runs_without_a_reference_match(dim, form):
    oracle = affine_field(dim, 11 + dim, 1.5, form)
    trace = assert_same_run(oracle, oracle, pt(*(2.5,) * dim), StepSchedule.harmonic(0.75),
                            DescentConfig(1.5, max_iters=300), None, None,
                            (pt(*(0.0,) * dim),))
    assert trace.reference is None and set(trace.dists) == {None}


@pytest.mark.parametrize("with_reference", (True, False))
def test_a_longer_output_is_checked_beyond_the_iterate(with_reference):
    # an output longer than the iterate raises, and the coordinate check of
    # the output itself comes first, so the nan in its tail is what it
    # reports
    make = switching_oracle((0.5,), (0.5, math.nan), 2)
    message = assert_same_failure(make, pt(1.0), StepSchedule.harmonic(1.0),
                                  DescentConfig(1.0, max_iters=10), ValueError,
                                  pt(0.0) if with_reference else None)
    assert message == "non-finite coordinate in (0.5, nan)"
