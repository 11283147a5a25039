"""The descent post-pass against the scalar reference loop, and the trace's
iterate array.

After its loop, `run_descent` stacks the iterates once into the trace's
`array` and reads the theta column off `StepSchedule.prefix`; the distance
and residual columns and `quasi_fejer_check` read that array, and the gap
column is one `GapFunction` pass. Every column and every verdict must be
what tests/scalar_reference.py gives, by repr: `run_descent_ref` computes
each row's values inside its loop with Python floats, and
`quasi_fejer_check_ref` recomputes every distance. A trace built from its
columns (`trace_from_rows`, `load_trace_json`) stacks its array on first
use, and the array takes no part in eq, repr or `rows`.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (DescentConfig, GapFunction, StepSchedule, emit_trace, gap_from_utility,
                     load_trace_json, pt, quasi_fejer_check, run_descent)
from prefmax.descent import TraceRow

from scalar_reference import quasi_fejer_check_ref, run_descent_ref, trace_from_rows

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=120)

COLUMNS = ("xs", "xstars", "thetas", "dists", "gaps", "residuals", "termination")


def toward(peak, L):
    """The cone element x - peak, cut back to norm L where it is longer:
    zero at the peak, and shorter than any eps near it."""
    def oracle(x):
        d = [c - p for c, p in zip(x, peak)]
        n = math.sqrt(sum(c * c for c in d))
        return tuple(c * (L / n) for c in d) if n > L else tuple(d)
    return oracle


def distance_utility(peak):
    return lambda x: -math.sqrt(sum((c - p) ** 2 for c, p in zip(x, peak)))


def coords(dim, lo=-3.0, hi=3.0):
    return st.tuples(*(st.floats(lo, hi),) * dim)


@st.composite
def runs(draw):
    """A run's arguments: a start, a harmonic schedule with any theta0 or an
    explicit list shorter or longer than the budget, an eps, a reference or
    none, and no gap, a utility gap or a gap that is only a function."""
    dim = draw(st.integers(1, 3))
    L = draw(st.sampled_from((0.5, 1.0, 2.5)))
    peak = draw(coords(dim))
    budget = draw(st.sampled_from((1, 3, 40, 300)))
    if draw(st.booleans()):
        schedule = StepSchedule.harmonic(draw(st.floats(1e-3, 5.0)))
    else:
        n = draw(st.sampled_from((1, max(1, budget // 2), budget + 5)))
        schedule = StepSchedule.explicit(draw(st.lists(st.floats(1e-3, 2.0), min_size=n,
                                                       max_size=n)))
    config = DescentConfig(L, max_iters=budget, eps=draw(st.sampled_from((0.0, 1e-3, 0.3))))
    reference = draw(st.none() | st.just(pt(*peak)) | coords(dim).map(lambda c: pt(*c)))
    gap = draw(st.sampled_from((None, "utility", "function")))
    if gap is not None:
        u = distance_utility(peak)
        gap = (gap_from_utility(u, L) if gap == "utility"
               else GapFunction(lambda x, y: u(x) - u(y), L))
    return toward(peak, L), pt(*draw(coords(dim))), schedule, config, reference, gap


@DIFFERENTIAL
@given(runs(), st.sampled_from((0.0, 1e-10)), st.data())
def test_every_column_and_verdict_is_the_scalar_loops(run, slack, data):
    oracle, x1, schedule, config, reference, gap = run
    new = run_descent(oracle, x1, schedule, config, reference, gap)
    ref = run_descent_ref(oracle, x1, schedule, config, reference, gap)
    for name in COLUMNS:
        assert [repr(v) for v in getattr(new, name)] == [repr(v) for v in getattr(ref, name)]
    assert new == ref and repr(new) == repr(ref)
    assert new.array.shape == (len(ref), x1.dim) and not new.array.flags.writeable
    assert new.array.tolist() == [list(x) for x in ref.xs]
    probe = pt(*data.draw(coords(x1.dim)))
    for r in (probe,) if reference is None else (reference, probe):
        for L in (config.lipschitz, 0.5 * config.lipschitz):
            assert (quasi_fejer_check(new, r, L, slack)
                    == quasi_fejer_check_ref(ref, r, L, slack))


@pytest.mark.parametrize("schedule, n", [(StepSchedule.harmonic(0.37), 2000),
                                         (StepSchedule.explicit([0.5, 0.25, 1e-3]), 3),
                                         (StepSchedule.explicit([0.5, 0.25, 1e-3]), 1)])
def test_a_prefix_is_the_first_steps(schedule, n):
    steps = iter(schedule.steps())
    assert [repr(t) for t in schedule.prefix(n).tolist()] == [repr(next(steps))
                                                             for _ in range(n)]
    assert schedule.prefix(0).shape == (0,)


@pytest.mark.parametrize("x1, peak", [((2.5,), (0.7,)), ((-2.0, 3.0), (1.0, 2.0)),
                                      ((0.5, -1.0, 2.0), (0.0, 0.0, 0.0))])
def test_a_trace_built_from_columns_stacks_its_array_on_first_use(tmp_path, x1, peak):
    run = run_descent(toward(peak, 1.0), pt(*x1), StepSchedule.harmonic(1.0),
                      DescentConfig(1.0, max_iters=200), pt(*peak),
                      gap_from_utility(distance_utility(peak), 1.0))
    emit_trace(run, "json", str(tmp_path / "t.json"))
    loaded = load_trace_json(str(tmp_path / "t.json"))
    rebuilt = trace_from_rows(run.rows, run.termination, reference=run.reference,
                              lipschitz=run.lipschitz)
    for trace in (loaded, rebuilt):
        assert trace == run and repr(trace) == repr(run)
        assert trace.array is trace.array  # built once
        assert trace.array.tolist() == run.array.tolist()
        assert not trace.array.flags.writeable
        assert trace == run  # an array built on first use changes no comparison
        for L in (1.0, 0.25):
            assert quasi_fejer_check(trace, run.reference, L) == quasi_fejer_check(
                run, run.reference, L)
    assert "array" not in repr(run)
    assert hash(run) == hash(rebuilt)
    moved = dataclasses.replace(run, xs=tuple((c + 1.0,) * len(x1) for c in range(len(run))))
    assert moved.array.tolist() == [list(x) for x in moved.xs]


def test_an_empty_trace_has_an_empty_array():
    trace = trace_from_rows((), "maxIters")
    assert trace.array.shape == (0, 0)
    assert quasi_fejer_check(trace, pt(0.0, 0.0), 1.0)


def test_rows_of_mixed_dimensions_raise_when_the_array_is_first_read():
    trace = trace_from_rows((TraceRow(1, pt(1.0, 0.0), None, 0.5),
                             TraceRow(2, pt(0.5), None, None)), "maxIters")
    assert len(trace) == 2
    with pytest.raises(ValueError, match="^iterates differ in dimension$"):
        trace.array


@pytest.mark.parametrize("kind", ("utility", "function"))
def test_a_gap_that_raises_raises_after_every_oracle_call(kind):
    """The gaps are one pass after the loop: a utility is called at the
    reference first, then at each iterate in order, and a gap that raises
    part-way through that pass (at its fourth call) raises once the loop
    has made every oracle call."""
    peak, reference = (0.0, 0.0), pt(0.5, -0.5)
    calls = []

    def oracle(x):
        calls.append("oracle")
        return toward(peak, 1.0)(x)

    def u(x):
        calls.append(x)
        if sum(c != "oracle" for c in calls) == 4:
            raise ArithmeticError("u failed")
        return distance_utility(peak)(x)

    gap = (gap_from_utility(u, 1.0) if kind == "utility"
           else GapFunction(lambda x, y: u(x) - distance_utility(peak)(y), 1.0))
    args = (pt(3.0, 1.0), StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=12), reference)
    trace = run_descent(oracle, *args)
    full = calls.count("oracle")
    calls.clear()
    with pytest.raises(ArithmeticError, match="^u failed$"):
        run_descent(oracle, *args, gap)
    assert calls[:full] == ["oracle"] * full
    gap_calls = calls[full:]
    if kind == "utility":
        assert gap_calls == [reference.coords, *trace.xs[:3]]
    else:
        assert gap_calls == list(trace.xs[:4])
