"""Columnar descent traces: trace files, loading and rows built on demand.

`emit_trace` writes from the trace's columns; the original row-by-row writer
(`emit_trace_ref` in tests/scalar_reference.py) must produce the same bytes.
`load_trace_json` must give back the written trace, and reject a file that
is not one with a ValueError naming the file and the fault.
"""

import json
import math

import pytest

from prefmax import (
    DescentConfig,
    StepSchedule,
    descend_fixture,
    emit_trace,
    load_trace_json,
    pt,
    run_descent,
)
from prefmax.descent import DescentTrace, TraceRow

from scalar_reference import emit_trace_ref


def _no_reference_run():
    return run_descent(lambda x: (0.6, -0.8), pt(2.0, 1.0), StepSchedule.harmonic(0.5),
                       DescentConfig(1.0, max_iters=40))


def _eps_stop():
    # the cone element shrinks with the iterate, so its norm falls below eps
    return run_descent(lambda x: tuple(0.5 * c for c in x), pt(1.5, -1.0),
                       StepSchedule.harmonic(1.0), DescentConfig(1.0, max_iters=500, eps=0.05),
                       reference=pt(0.0, 0.0))


TRACES = {
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
    new, ref = tmp_path / f"new.{fmt}", tmp_path / f"ref.{fmt}"
    emit_trace(trace, fmt, str(new))
    emit_trace_ref(trace, fmt, str(ref))
    assert new.read_bytes() == ref.read_bytes()


def test_json_trace_loads_back_to_the_written_trace(trace, tmp_path):
    path = tmp_path / "trace.json"
    emit_trace(trace, "json", str(path))
    loaded = load_trace_json(str(path))
    assert loaded == trace
    assert [repr(r) for r in loaded.rows] == [repr(r) for r in trace.rows]


def test_rows_round_trip_to_equal_columns(trace):
    again = DescentTrace.from_rows(trace.rows, trace.termination, trace.reference,
                                   trace.lipschitz)
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


def test_from_rows_needs_rows_numbered_from_one():
    rows = (TraceRow(1, pt(0.0), pt(1.0), 0.5), TraceRow(3, pt(-0.5), None, None))
    with pytest.raises(ValueError, match="row 2 has k = 3"):
        DescentTrace.from_rows(rows, "maxIters")


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
