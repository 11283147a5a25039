"""Columnar descent traces: trace files, loading and rows built on demand.

`emit_trace` formats the trace's columns straight into text; the original
row-by-row writer and the columnar writer with `csv.writer` and `json.dumps`
(`emit_trace_ref` and `emit_trace_columns_ref` in tests/scalar_reference.py)
must produce the same bytes, non-finite distances, gaps and residuals
included.
`load_trace_json` must give back the written trace, and reject a file that
is not one with a ValueError naming the file and the fault; on any file,
well-formed or not, it must do what the row-by-row loader
(`load_trace_json_ref`) does.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (
    DescentConfig,
    StepSchedule,
    descend_fixture,
    emit_trace,
    gap_from_utility,
    load_trace_json,
    pt,
    run_descent,
)
from prefmax.descent import DescentTrace
from prefmax.harness import TRACE_COLUMNS

from scalar_reference import (emit_trace_columns_ref, emit_trace_ref, load_trace_json_ref,
                              trace_from_rows, trace_records)

REFERENCE_WRITERS = (emit_trace_ref, emit_trace_columns_ref)


def _no_reference_run():
    return run_descent(lambda x: (0.6, -0.8), pt(2.0, 1.0), StepSchedule.harmonic(0.5),
                       DescentConfig(1.0, max_iters=40))


def _eps_stop():
    # the cone element shrinks with the iterate, so its norm falls below eps
    return run_descent(lambda x: tuple(0.5 * c for c in x), pt(1.5, -1.0),
                       StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=500, eps=0.05),
                       reference=pt(0.0, 0.0))


def _three_d_run():
    return run_descent(lambda x: (0.6, 0.0, -0.8), pt(1.0, 2.0, 3.0),
                       StepSchedule.harmonic(0.5), DescentConfig(1.0, max_iters=60),
                       reference=pt(0.0, 0.5, 1.0),
                       gap=gap_from_utility(lambda x: -math.sqrt(sum(c * c for c in x)), 1.0))


def _one_row_stop():
    return run_descent(lambda x: (0.0, 0.0), pt(0.25, -4.0), StepSchedule.harmonic(1.0),
                       DescentConfig(1.0, max_iters=10), reference=pt(1.0, 2.0))


TRACES = {
    "3-D": _three_d_run,
    "one-row": _one_row_stop,
    "radial-bowl": lambda: descend_fixture("radial-bowl", (0.0, 0.0), max_iters=10_000),
    "radial-bowl-budget": lambda: descend_fixture("radial-bowl", (-2.5, 4.0), max_iters=300),
    "vee-peak": lambda: descend_fixture("vee-peak", (2.1,), max_iters=5_000),
    "twin-plateau": lambda: descend_fixture("twin-plateau", (3.3,), max_iters=2_000),
    "explicit-schedule": lambda: descend_fixture(
        "radial-bowl", (0.5, 0.5), schedule=StepSchedule.explicit([0.5, 0.25, 0.125])),
    "no-reference": _no_reference_run,
    "eps-stop": _eps_stop,
}


@pytest.fixture(params=sorted(TRACES))
def trace(request):
    return TRACES[request.param]()


def test_the_cases_cover_every_termination():
    terminations = {TRACES[name]().termination for name in TRACES}
    assert terminations == {"zeroSubgradient", "maxIters", "normBelowEps"}
    assert _no_reference_run().reference is None


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_trace_files_are_byte_identical_to_the_row_writer(trace, fmt, tmp_path):
    assert_same_files(trace, fmt, tmp_path)


def assert_same_files(trace, fmt, directory):
    """emit_trace's file has the bytes of each reference writer's."""
    new = directory / f"new.{fmt}"
    emit_trace(trace, fmt, str(new))
    for writer in REFERENCE_WRITERS:
        ref = directory / f"ref.{fmt}"
        writer(trace, fmt, str(ref))
        assert new.read_bytes() == ref.read_bytes(), writer.__name__


def _columns_trace(xs, xstars, thetas, dists, gaps, residuals, termination="maxIters",
                   reference=None, lipschitz=1.0):
    return DescentTrace(tuple(xs), tuple(xstars), tuple(thetas), tuple(dists), tuple(gaps),
                        tuple(residuals), termination, reference=reference,
                        lipschitz=lipschitz)


EDGE_TRACES = {
    # one row, after a budget of zero steps was spent: no cone element
    "one-row-spent-budget": _columns_trace([(0.5,)], [None], [None], [None], [None], [None]),
    "one-row-3-D": _columns_trace([(1.0, -2.0, 3e-300)], [(0.0, 0.0, 0.0)], [None], [2.5],
                                  [-0.0], [None], "zeroSubgradient", pt(0.0, 0.0, 0.0)),
    "non-finite-values": _columns_trace(
        [(0.0, 1.0), (-0.5, 1.25), (-1.0, 1.5), (1e308, -1e-320)],
        [(0.5, -0.25), (0.5, -0.25), (1.0, 0.0), None],
        [1.0, 1.0, 0.5, None],
        [math.nan, math.inf, -math.inf, 1.5],
        [math.inf, -math.inf, math.nan, None],
        [-math.inf, math.nan, math.inf, None],
        reference=pt(1e308, 1e308), lipschitz=2.0),
    "no-rows": _columns_trace([], [], [], [], [], []),
}


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_edge_trace_files_are_byte_identical(name, fmt, tmp_path):
    assert_same_files(EDGE_TRACES[name], fmt, tmp_path)


def test_non_finite_values_are_written_as_json_and_csv_write_them(tmp_path):
    trace = EDGE_TRACES["non-finite-values"]
    emit_trace(trace, "json", str(tmp_path / "t.json"))
    emit_trace(trace, "csv", str(tmp_path / "t.csv"))
    text = (tmp_path / "t.json").read_text()
    for word in ("NaN", "Infinity", "-Infinity"):
        assert f'"dist_to_ref": {word},' in text
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1:4] == ["1,0.0;1.0,0.5;-0.25,1.0,nan,inf,-inf",
                          "2,-0.5;1.25,0.5;-0.25,1.0,inf,-inf,nan",
                          "3,-1.0;1.5,1.0;0.0,0.5,-inf,nan,inf"]


def test_a_finite_run_whose_distances_overflow_writes_the_same_files(tmp_path):
    # every iterate is finite, but its distance to the reference overflows to
    # inf, and the Fejer residual inf - inf is nan
    trace = run_descent(lambda x: (-0.6, -0.8), pt(1.5e308, 1.5e308),
                        StepSchedule.explicit([0.5, 0.25]), DescentConfig(1.0, max_iters=5),
                        reference=pt(-1.5e308, -1.5e308))
    assert trace.dists == (math.inf,) * 3
    assert all(math.isnan(r) for r in trace.residuals[:2])
    for fmt in ("csv", "json"):
        assert_same_files(trace, fmt, tmp_path)


finite = st.floats(allow_nan=False, allow_infinity=False)
anything = st.floats()
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def column_traces(draw):
    """Random float columns of one dimension; thetas finite or None, the
    other values any float, nan and infinities included, or None; a
    lipschitz that is None or positive, as a loadable trace has."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    coords = st.tuples(*(finite,) * dim)
    column = st.lists(st.one_of(st.none(), anything), min_size=n, max_size=n)
    reference = draw(st.one_of(st.none(), coords.map(lambda c: pt(*c))))
    return _columns_trace(
        draw(st.lists(coords, min_size=n, max_size=n)),
        draw(st.lists(st.one_of(st.none(), coords), min_size=n, max_size=n)),
        draw(st.lists(st.one_of(st.none(), finite), min_size=n, max_size=n)),
        draw(column), draw(column), draw(column),
        draw(st.sampled_from(("zeroSubgradient", "maxIters", "normBelowEps"))),
        reference, draw(st.one_of(st.none(), positive)))


@settings(settings.get_profile("differential"), max_examples=150)
@given(column_traces(), st.sampled_from(("csv", "json")))
def test_random_column_traces_give_byte_identical_files(tmp_path_factory, trace, fmt):
    assert_same_files(trace, fmt, tmp_path_factory.mktemp("trace"))


def _columns_repr(trace):
    return repr((trace.xs, trace.xstars, trace.thetas, trace.dists, trace.gaps,
                 trace.residuals, trace.termination, trace.reference, trace.lipschitz))


@settings(settings.get_profile("differential"), max_examples=150)
@given(column_traces())
def test_random_column_traces_load_back_to_their_columns(tmp_path_factory, trace):
    """Read by columns, a written JSON trace gives back every column by repr:
    nan, infinities, -0.0 and None included."""
    path = str(tmp_path_factory.mktemp("trace") / "trace.json")
    assert _columns_repr(load_trace_json(emit_trace(trace, "json", path))) == _columns_repr(trace)


def test_json_trace_loads_back_to_the_written_trace(trace, tmp_path):
    path = tmp_path / "trace.json"
    emit_trace(trace, "json", str(path))
    loaded = load_trace_json(str(path))
    assert loaded == trace
    assert [repr(r) for r in loaded.rows] == [repr(r) for r in trace.rows]


def test_rows_round_trip_to_equal_columns(trace):
    again = trace_from_rows(trace.rows, trace.termination, trace.reference, trace.lipschitz)
    assert again == trace
    assert (again.xs, again.xstars, again.thetas, again.dists, again.gaps,
            again.residuals) == (trace.xs, trace.xstars, trace.thetas, trace.dists,
                                 trace.gaps, trace.residuals)


def test_rows_are_built_on_first_access_and_kept(trace):
    assert "rows" not in vars(trace)
    rows = trace.rows
    assert trace.rows is rows
    assert [r.k for r in rows] == list(range(1, len(trace) + 1))
    assert rows[-1].x == trace.final_point


def test_columns_hold_float_tuples_from_any_oracle_output():
    import numpy as np

    trace = run_descent(lambda x: np.array([1, 0]), pt(3.0, 1.0),
                        StepSchedule.explicit([0.5, 0.5]), DescentConfig(1.0, max_iters=5))
    assert all(type(c) is float for x in trace.xs for c in x)
    assert all(type(c) is float for xs in trace.xstars for c in xs)
    assert trace.xs == ((3.0, 1.0), (2.5, 1.0), (2.0, 1.0))


def test_columns_must_have_equal_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        DescentTrace(((0.0,),), (None,), (None,), (), (None,), (None,), "maxIters")


# ------------------------------------------------------ malformed trace files


def _written(tmp_path):
    trace = descend_fixture("radial-bowl", (0.0, 0.0), max_iters=3)
    path = tmp_path / "trace.json"
    emit_trace(trace, "json", str(path))
    return path, json.loads(path.read_text())


def _rejected(path, payload, match):
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match) as info:
        load_trace_json(str(path))
    assert str(path) in str(info.value)
    return str(info.value)


def test_rejects_another_schema(tmp_path):
    path, payload = _written(tmp_path)
    _rejected(path, {**payload, "schema": 7, "rows": []}, "schema 7, expected 1")
    _rejected(path, {**payload, "schema": 7}, "schema 7, expected 1")


def test_rejects_a_trace_without_rows(tmp_path):
    path, payload = _written(tmp_path)
    _rejected(path, {**payload, "rows": []}, "trace has no rows")


@pytest.mark.parametrize("key", ("schema", "termination", "reference", "lipschitz", "rows"))
def test_rejects_a_missing_top_level_key(tmp_path, key):
    path, payload = _written(tmp_path)
    del payload[key]
    _rejected(path, payload, f"trace has no '{key}' key")


@pytest.mark.parametrize("key", ("k", "x", "xstar", "theta", "dist_to_ref", "gap_to_ref",
                                 "fejer_residual"))
def test_rejects_a_row_with_a_missing_key(tmp_path, key):
    path, payload = _written(tmp_path)
    del payload["rows"][1][key]
    _rejected(path, payload, f"row 2 has no '{key}' key")


@pytest.mark.parametrize("ks, bad", [((1, 3, 4, 5), "row 2 has k = 3"),
                                     ((0, 1, 2, 3), "row 1 has k = 0"),
                                     ((1, 2, 2, 3), "row 3 has k = 2")])
def test_rejects_rows_not_numbered_one_to_n(tmp_path, ks, bad):
    path, payload = _written(tmp_path)
    for row, k in zip(payload["rows"], ks):
        row["k"] = k
    message = _rejected(path, payload, bad)
    assert "numbered 1..4" in message


def test_rejects_a_file_that_is_not_a_json_trace(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("k,x\n1,0.0\n")
    with pytest.raises(ValueError, match="not a JSON trace") as info:
        load_trace_json(str(path))
    assert str(path) in str(info.value)
    _rejected(path, [1, 2], "top level is not an object")


@pytest.mark.parametrize("field", ("x", "xstar"))
def test_non_finite_coordinates_raise_as_a_point_does(tmp_path, field):
    path, payload = _written(tmp_path)
    payload["rows"][1][field] = [0.5, math.nan]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"^non-finite coordinate in \(0\.5, nan\)$"):
        load_trace_json(str(path))


def test_rows_without_coordinates_raise_as_a_point_does(tmp_path):
    # every row of one dimension, but that dimension is 0
    path, payload = _written(tmp_path)
    for row in payload["rows"]:
        row["x"], row["xstar"] = [], None
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="^point needs at least one coordinate$"):
        load_trace_json(str(path))


@pytest.mark.parametrize("field, row, value", [("x", 1, [0.5]), ("x", 2, [0.5, 1.0, 2.0]),
                                               ("xstar", 1, [0.5]), ("xstar", 3, [0.1, 0.2, 0.3])])
def test_rejects_rows_of_another_dimension(tmp_path, field, row, value):
    # a row whose x or xstar has another length than row 1's x
    path, payload = _written(tmp_path)
    payload["rows"][row][field] = value
    _rejected(path, payload, f"row {row + 1} has an x or xstar of another dimension")


def test_rejects_a_reference_of_another_dimension(tmp_path):
    path, payload = _written(tmp_path)
    _rejected(path, {**payload, "reference": [1.0, 2.0, 3.0]},
              "the reference has 3 coordinates, the rows 2")


@pytest.mark.parametrize("value, fault", [([], "has 0 coordinates, the rows 2"),
                                          ("", "has 0 coordinates, the rows 2"),
                                          ({}, "has 0 coordinates, the rows 2"),
                                          (0, "'int' object is not iterable"),
                                          (False, "'bool' object is not iterable")])
def test_only_a_null_reference_means_none(tmp_path, value, fault):
    # a falsy reference is checked as any other is, not read as no reference
    path, payload = _written(tmp_path)
    message = _rejected(path, {**payload, "reference": value}, "the reference ")
    assert message.endswith(fault)


@pytest.mark.parametrize("value, fault", [(1, "'int' object is not iterable"),
                                          (["1", 2.0], "must be real number, not str"),
                                          ([10 ** 400, 1.0], "int too large to convert to float")])
@pytest.mark.parametrize("field", ("x", "xstar", "reference"))
def test_rejects_coordinates_that_are_not_floats(tmp_path, field, value, fault):
    # a value whose conversion to floats raises TypeError or OverflowError
    path, payload = _written(tmp_path)
    if field == "reference":
        payload["reference"] = value
        what = "the reference"
    else:
        payload["rows"][1][field] = value
        what = f"row 2's {field}"
    message = _rejected(path, payload, f"{what} is not a list of floats")
    assert message.endswith(fault)


@pytest.mark.parametrize("value", (5, "bogus", None, True, ["maxIters"]))
def test_rejects_an_unknown_termination(tmp_path, value):
    path, payload = _written(tmp_path)
    message = _rejected(path, {**payload, "termination": value},
                        f"trace termination {re.escape(repr(value))} is not one of")
    assert message.endswith("zeroSubgradient, maxIters, normBelowEps")


HUGE = pytest.param(10 ** 400, id="int-1e400")


@pytest.mark.parametrize("value", ("x", -1, 0, -0.0, math.nan, math.inf, True, HUGE, [1.0]))
def test_rejects_a_lipschitz_that_is_not_a_finite_positive_number(tmp_path, value):
    path, payload = _written(tmp_path)
    _rejected(path, {**payload, "lipschitz": value},
              "trace lipschitz .* is neither null nor a finite positive number")


@pytest.mark.parametrize("value", ([1], "abc", True, {}, HUGE,
                                   pytest.param(-10 ** 400, id="int-minus-1e400")))
@pytest.mark.parametrize("field", ("theta", "dist_to_ref", "gap_to_ref", "fejer_residual"))
def test_rejects_a_value_that_is_not_a_number(tmp_path, field, value):
    path, payload = _written(tmp_path)
    payload["rows"][1][field] = value
    _rejected(path, payload, f"row 2's {field} .* is neither null nor a number$")


def test_value_faults_come_last_and_by_columns(tmp_path):
    # every fault a loader checked before comes first; then the termination,
    # the lipschitz, and the value columns in file order, each from row 1
    path, payload = _written(tmp_path)
    payload["rows"][0]["fejer_residual"] = "abc"
    payload["rows"][2]["theta"] = "abc"
    _rejected(path, payload, "row 3's theta 'abc'")
    _rejected(path, {**payload, "lipschitz": -1}, "trace lipschitz -1")
    _rejected(path, {**payload, "lipschitz": -1, "termination": 5}, "trace termination 5")
    _rejected(path, {**payload, "termination": 5, "reference": [1.0]},
              "the reference has 1 coordinates")
    payload["rows"][3]["x"] = [0.5]
    _rejected(path, {**payload, "termination": 5}, "row 4 has an x or xstar of another dimension")


def test_non_finite_int_and_null_values_load(tmp_path):
    # nan and infinities are what `emit_trace` writes for such floats
    path, payload = _written(tmp_path)
    values = (math.nan, math.inf, -math.inf, 2, None)
    for row, value in zip(payload["rows"], values):
        row["theta"] = row["dist_to_ref"] = row["gap_to_ref"] = row["fejer_residual"] = value
    path.write_text(json.dumps({**payload, "lipschitz": 3}))
    trace = load_trace_json(str(path))
    assert repr(trace.thetas) == repr(trace.residuals) == repr(values[:4])
    assert trace.lipschitz == 3


JUNK = (None, 3, 0, False, 10 ** 400, "ab", "", [], {}, {"a": 1}, True, math.nan, [0.5],
        [0.5, 1.0, 2.0], [math.nan, 0.5], [math.inf], [1, 2], [True, 0], [10 ** 400, 1.0],
        ["1", 2.0], [[1.0], 2.0], [None, 1.0])
# Values of the top-level and value fields, well-formed or not
TERMINATION_JUNK = (5, "bogus", None, True, [], "maxIters", "normBelowEps")
LIPSCHITZ_JUNK = (None, 2, 0.5, 0, -1, -0.0, "x", math.nan, math.inf, True, 10 ** 400, [1.0])
VALUE_JUNK = (None, 1, -2.5, math.nan, math.inf, -math.inf, "abc", "", [1], {}, True,
              10 ** 400, -10 ** 400)


@st.composite
def malformed_payloads(draw):
    """A written trace's JSON payload with up to four rows, keys,
    coordinates, values, its termination or its lipschitz replaced by junk,
    or none at all. The faults fall on the first three rows, so one row
    often has two of them."""
    trace = draw(column_traces())
    payload = {"schema": 1, "termination": trace.termination,
               "reference": list(trace.reference) if trace.reference else None,
               "lipschitz": trace.lipschitz,
               "rows": [{"k": k, "x": list(x), "xstar": None if xstar is None else list(xstar),
                         "theta": t, "dist_to_ref": d, "gap_to_ref": g, "fejer_residual": r}
                        for k, x, xstar, t, d, g, r in trace_records(trace)]}
    rows = payload["rows"]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, min(2, len(rows) - 1)))
        what = draw(st.sampled_from(("row", "key", "k", "x", "xstar", "reference",
                                     "termination", "lipschitz", "value")))
        if what == "row":
            rows[i] = draw(st.sampled_from(JUNK))
        elif not isinstance(rows[i], dict):
            continue
        elif what == "key":
            rows[i].pop(draw(st.sampled_from(TRACE_COLUMNS)), None)
        elif what == "k":
            rows[i]["k"] = draw(st.sampled_from((0, i, i + 2, 1.0 * (i + 1), str(i + 1), None,
                                                 True)))
        elif what in ("x", "xstar"):
            rows[i][what] = draw(st.sampled_from(JUNK))
        elif what == "value":
            rows[i][draw(st.sampled_from(TRACE_COLUMNS[3:]))] = draw(st.sampled_from(VALUE_JUNK))
        elif what == "termination":
            payload["termination"] = draw(st.sampled_from(TERMINATION_JUNK))
        elif what == "lipschitz":
            payload["lipschitz"] = draw(st.sampled_from(LIPSCHITZ_JUNK))
        else:
            payload["reference"] = draw(st.sampled_from(JUNK))
    return payload


def _load_outcome(load, path):
    try:
        trace = load(path)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return _columns_repr(trace)


@settings(settings.get_profile("differential"), max_examples=300)
@given(malformed_payloads())
def test_any_file_loads_as_the_row_loader_loads_it(tmp_path_factory, payload):
    """The same columns, or the same exception with the same message, as
    the row-by-row loader gives: the first faulty row decides, and within
    it the first fault in the order object, keys, k, x, xstar, dimension;
    then the reference, the termination, the lipschitz and the value
    columns."""
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    path.write_text(json.dumps(payload))
    assert _load_outcome(load_trace_json, str(path)) == _load_outcome(load_trace_json_ref,
                                                                      str(path))
