"""The descent trace's column pass against the scalar reference loop.

`run_descent` computes its dists and residuals columns after the loop, in
one numpy pass over the stacked iterates (`_distance_column`), and
`quasi_fejer_check` uses the same kernel. Each is compared by repr with
tests/scalar_reference.py, which recomputes every distance with Python
floats, on traces in 1-D to 3-D: coordinates near 1e154-1e308, where the
differences and squares overflow, and rows without a step in mid-trace.
"""

import math
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (DescentConfig, OracleNormViolation, StepSchedule, load_trace_json, pt,
                     quasi_fejer_check)
from prefmax.cli import main
from prefmax.descent import TraceRow, _distance_column, run_descent

from scalar_reference import distances_ref, quasi_fejer_check_ref, run_descent_ref, trace_from_rows

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=80)

# 1e154 squared is about the largest float; 1e300 differences of opposite
# signs overflow too
SCALES = (1.0, 1e-150, 1e154, 1e200, 1e300, 1e308)


@st.composite
def coordinates(draw):
    return draw(st.floats(-1.7, 1.7)) * draw(st.sampled_from(SCALES))


@st.composite
def points(draw, dim):
    """Half the time uniform coordinates of one scale from a drawn seed, so
    that the order in which their squares are summed shows; else
    hypothesis' own coordinates (0, tiny, bounds), scales mixed."""
    if draw(st.booleans()):
        return pt(*(draw(coordinates()) for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return pt(*(rng.uniform(-1.7, 1.7, size=dim) * draw(st.sampled_from(SCALES))).tolist())


def _reprs(items):
    return [repr(item) for item in items]


@st.composite
def traces(draw):
    """A trace as `load_trace_json` may return one: any finite iterates,
    and a step or none on any row."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    xs = draw(st.lists(points(dim), min_size=n, max_size=n))
    thetas = draw(st.lists(st.one_of(st.none(), st.floats(1e-3, 1.0), coordinates()),
                           min_size=n, max_size=n))
    reference = draw(points(dim))
    rows = tuple(TraceRow(k, x, None, theta) for k, (x, theta) in enumerate(zip(xs, thetas), 1))
    return trace_from_rows(rows, "maxIters", reference=reference, lipschitz=1.0)


@DIFFERENTIAL
@given(traces(), st.sampled_from((1e-3, 1.0, 1e154)), st.sampled_from((0.0, 1e-10, 1.0)),
       st.data())
def test_distances_and_the_fejer_check_match_on_any_trace(trace, L, slack, data):
    dists = _distance_column(trace.array, tuple(trace.reference)).tolist()
    assert _reprs(dists) == _reprs(distances_ref(trace))
    probe = data.draw(points(len(trace.reference.coords)))
    for m in range(1, len(trace) + 1):  # every prefix, so each pair decides one verdict
        prefix = trace_from_rows(trace.rows[:m], "maxIters", reference=trace.reference,
                                 lipschitz=1.0)
        for reference in (trace.reference, probe):
            assert (quasi_fejer_check(prefix, reference, L, slack)
                    == quasi_fejer_check_ref(prefix, reference, L, slack))


def _outcome(run, oracle, x1, schedule, config, reference):
    try:
        return run(oracle, x1, schedule, config, reference)
    except (ValueError, OracleNormViolation) as exc:
        return type(exc), str(exc)


@DIFFERENTIAL
@given(st.integers(1, 3), st.data())
def test_run_columns_match_the_scalar_loop(dim, data):
    """Runs with steps up to 1e308 from starts up to 1.7e308: distances
    and residuals that overflow, and iterates that do, which must fail at
    the same step with the same message."""
    x1 = data.draw(points(dim))
    reference = data.draw(points(dim))
    direction = data.draw(points(dim))
    norm = math.sqrt(sum(c * c for c in direction))
    out = (tuple(c / norm for c in direction) if 0.0 < norm < math.inf
           else (1.0,) + (0.0,) * (dim - 1))
    steps = data.draw(st.lists(st.one_of(st.floats(1e-3, 1.0), st.sampled_from((0.5, 1e308)),
                                         coordinates().map(abs).filter(lambda t: t > 0.0)),
                               min_size=1, max_size=12))
    schedule = StepSchedule.explicit(steps)
    config = DescentConfig(1.0, max_iters=data.draw(st.sampled_from((20, 5))))
    new = _outcome(run_descent, lambda x: out, x1, schedule, config, reference)
    ref = _outcome(run_descent_ref, lambda x: out, x1, schedule, config, reference)
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert _reprs(new.rows) == _reprs(ref.rows)
    assert _reprs(new.dists) == _reprs(distances_ref(ref))
    for slack in (0.0, 1e-10):
        assert (quasi_fejer_check(new, reference, 1.0, slack)
                == quasi_fejer_check_ref(ref, reference, 1.0, slack))


@pytest.mark.parametrize("output", ((0.6,), (0.6, 0.0, 0.0)))
@pytest.mark.parametrize("reference", (None, (0.5, -1.0)))
def test_an_output_of_another_length_raises_as_the_scalar_loop(reference, output):
    """An oracle output with fewer or more coordinates than the iterate
    raises ValueError at its step, as a non-finite one does, in the run and
    in the scalar loop alike, instead of pairing coordinates up to the
    shorter of the two."""
    reference = None if reference is None else pt(*reference)
    calls = []

    def oracle(x):
        calls.append(x)
        return (0.6, 0.0) if len(calls) < 3 else output

    args = (oracle, pt(2.0, 1.0), StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=6),
            reference)
    new = _outcome(run_descent, *args)
    calls.clear()
    assert new == _outcome(run_descent_ref, *args) == (
        ValueError, f"oracle output has {len(output)} coordinates at iteration 3, the iterate 2")


def test_a_reference_or_iterates_of_another_dimension_raise():
    args = (lambda x: (0.6, 0.0), pt(2.0, 1.0), StepSchedule.harmonic(1.0),
            DescentConfig(1.0, max_iters=6), pt(0.5))
    assert _outcome(run_descent, *args) == _outcome(run_descent_ref, *args) == (
        ValueError, "reference has 1 coordinates, the start 2")
    trace = run_descent(*args[:4])
    with pytest.raises(ValueError, match="differ in dimension"):
        quasi_fejer_check(trace, pt(0.5), 1.0)
    ragged = trace_from_rows((TraceRow(1, pt(2.0, 1.0), None, 0.5),
                              TraceRow(2, pt(1.4), None, None)), "maxIters")
    with pytest.raises(ValueError, match="differ in dimension"):
        quasi_fejer_check(ragged, pt(0.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="differ in dimension"):
        _distance_column(trace.array, (0.0,))


@pytest.mark.parametrize("x1, x2, theta, holds", [
    (1.2533578376502246, 1.2533578376502248, 9.466135053566102e-09, False),
    (0.8743388384801343, 0.8743388384801345, 9.665546675519226e-09, True),
])
def test_the_fejer_bound_is_summed_left_to_right(x1, x2, theta, holds):
    """d'^2 lies between (d^2 + theta^2 L^2) + slack (1 + d^2) and
    d^2 + (theta^2 L^2 + slack (1 + d^2)), so only the order in which the
    scalar check adds decides the verdict."""
    reference, slack = pt(0.0), 1e-16
    rows = (TraceRow(1, pt(x1), None, theta), TraceRow(2, pt(x2), None, None))
    trace = trace_from_rows(rows, "maxIters", reference=reference)
    d, d2 = distances_ref(trace)
    budget, extra = theta * theta, slack * (1.0 + d * d)
    assert (d2 * d2 > d * d + budget + extra) != (d2 * d2 > d * d + (budget + extra))
    assert quasi_fejer_check(trace, reference, 1.0, slack) is holds
    assert quasi_fejer_check_ref(trace, reference, 1.0, slack) is holds


def test_descend_prints_a_distance_whose_square_overflows(tmp_path):
    # from (1e200, 0) radial-bowl's peak (1, 2) is 1e200 away: the squared
    # distance overflows, the distance and the residuals do not
    path = tmp_path / "far.json"
    result = CliRunner().invoke(main, ["descend", "--fixture", "radial-bowl", "--x0", "1e200,0",
                                       "--max-iters", "5", "--trace", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1] == "distance_to_reference=1e+200"
    trace = load_trace_json(str(path))
    assert trace.dists == (1e200,) * 6
    assert trace.residuals[:-1] == tuple(-t * t for t in trace.thetas[:-1])


def test_a_move_whose_squared_distances_overflow_is_refuted():
    # from (1e200, 0) to (2e200, 0) with reference 0, theta 1 and L 1 the
    # squared distance grows by 3e400, far past its budget of 1
    reference = pt(0.0, 0.0)
    rows = (TraceRow(1, pt(1e200, 0.0), None, 1.0), TraceRow(2, pt(2e200, 0.0), None, None))
    trace = trace_from_rows(rows, "maxIters", reference=reference)
    assert not quasi_fejer_check(trace, reference, 1.0)
    assert not quasi_fejer_check_ref(trace, reference, 1.0)
    assert distances_ref(trace) == [1e200, 2e200]


def test_a_move_whose_differences_overflow_is_refuted():
    # from (1e308,) to (1.7e308,) with reference -1.7e308, theta 1 and L 1
    # the distance grows from 2.7e308 to 3.4e308, both inf as floats; in
    # units of 2^1024 the pair is 1.5 -> 1.9, far past its budget
    reference = pt(-1.7e308)
    rows = (TraceRow(1, pt(1e308), None, 1.0), TraceRow(2, pt(1.7e308), None, None))
    trace = trace_from_rows(rows, "maxIters", reference=reference)
    assert distances_ref(trace) == [math.inf, math.inf]
    assert not quasi_fejer_check(trace, reference, 1.0)
    assert not quasi_fejer_check_ref(trace, reference, 1.0)
    # the move back shrinks the distance and passes
    rows = (TraceRow(1, pt(1.7e308), None, 1.0), TraceRow(2, pt(1e308), None, None))
    back = trace_from_rows(rows, "maxIters", reference=reference)
    assert quasi_fejer_check(back, reference, 1.0)
