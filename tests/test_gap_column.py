"""`GapFunction.table` and its one-column call `column` against the gap
called once per pair, and the one formula L * u / ||u|| against the
expressions it replaced.

For each fixture gap that descent runs use, and for the zero gap,
`column(xs, y)` must be `[gap(x, y) for x in xs]` by repr, nan and
infinities included, over one row block or several, and `table(xs, ys)`
the same for every pair, in row blocks of any size. A gap from a utility
u evaluates u once per y, then once per x (once per point when ys is
omitted); any other gap calls its `fn` once per pair, row by row.
`plastria_subgradient` and `Fixture.descent_oracle` must give what
`Point(scale(u, L / norm(u)))` and the original Point oracle
(`descent_oracle_ref` in tests/scalar_reference.py) give, bit for bit.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import GapFunction, Point, get_fixture, plastria_subgradient, points, pt, zero_gap

from scalar_reference import descent_oracle_ref, norm, scale

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=150)

GAP_DIMS = {"vee-peak": 1, "twin-plateau": 1, "radial-bowl": 2, "zero-gap": 2}
# the y descent runs ask about: each fixture's reference (twin-plateau has none)
REFERENCES = {"vee-peak": (0.7,), "twin-plateau": (0.0,), "radial-bowl": (1.0, 2.0),
              "zero-gap": (0.0, 0.0)}


def _gap(name) -> GapFunction:
    return zero_gap(1.0) if name == "zero-gap" else get_fixture(name).gap


def _recorded(fn, calls):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


def _reprs(items):
    return [repr(item) for item in items]


@pytest.mark.parametrize("entries", (1, 7))
@DIFFERENTIAL
@given(st.sampled_from(sorted(GAP_DIMS)), st.data())
def test_column_is_the_gap_at_each_point(entries, name, data):
    # a block budget of 1 or 7 entries makes `column` span several row
    # blocks of `table`, 1 or 7 rows each
    gap = _gap(name)
    coords = st.tuples(*(st.floats(),) * GAP_DIMS[name])
    xs = data.draw(st.lists(coords, max_size=30))
    y = data.draw(coords | st.just(REFERENCES[name]))
    expected = _reprs(gap(x, y) for x in xs)
    calls = []
    if gap.utility is not None:
        recorded = replace(gap, utility=_recorded(gap.utility, calls))
        expected_calls = _reprs([(y,), *((x,) for x in xs)])
    else:
        recorded = replace(gap, fn=_recorded(gap.fn, calls))
        expected_calls = _reprs((x, y) for x in xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", entries)
        got = recorded.column(xs, y)
    assert _reprs(got) == expected
    assert _reprs(calls) == expected_calls
    assert all(type(v) is float for v in got)


@DIFFERENTIAL
@given(st.sampled_from(sorted(GAP_DIMS)), st.booleans(), st.sampled_from((1, 7, 1 << 16)),
       st.data())
def test_table_is_the_gap_at_each_pair(name, by_utility, entries, data):
    gap = _gap(name)
    if not by_utility:
        gap = replace(gap, utility=None)  # the same u(x) - u(y), pair by pair
    coords = st.tuples(*(st.floats(),) * GAP_DIMS[name])
    xs = data.draw(st.lists(coords, max_size=12))
    ys = data.draw(st.none() | st.lists(coords, max_size=12))
    pairs = [(x, y) for x in xs for y in (xs if ys is None else ys)]
    expected = _reprs(gap(x, y) for x, y in pairs)
    calls = []
    recorded = (replace(gap, utility=_recorded(gap.utility, calls)) if by_utility
                else replace(gap, fn=_recorded(gap.fn, calls)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", entries)
        blocks = list(recorded.table(xs, ys))
    n, m = len(xs), len(xs if ys is None else ys)
    assert [i for rows, _ in blocks for i in range(n)[rows]] == list(range(n))
    assert all(F.shape == (len(range(n)[rows]), m) and (F.size <= entries or len(F) == 1)
               for rows, F in blocks)
    assert _reprs(v for _, F in blocks for v in F.ravel().tolist()) == expected
    if by_utility:
        assert _reprs(calls) == _reprs((p,) for p in (xs if ys is None else ys + xs))
    else:
        assert _reprs(calls) == _reprs(pairs)


@pytest.mark.parametrize("name", sorted(GAP_DIMS))
def test_column_takes_points_and_lists(name):
    gap = _gap(name)
    dim = GAP_DIMS[name]
    xs = [pt(*(0.25 * k,) * dim) for k in range(-8, 9)]
    y = [0.5] * dim
    expected = _reprs(gap(x, y) for x in xs)
    assert _reprs(gap.column(xs, y)) == expected
    assert _reprs(gap.column([list(x) for x in xs], Point(tuple(y)))) == expected
    assert gap.column([], y) == []


@DIFFERENTIAL
@given(st.lists(st.floats(), min_size=1, max_size=3), st.floats(1e-3, 1e3))
def test_subgradient_is_the_scaled_direction_bit_for_bit(u, L):
    def subgradient_ref(gap, ustar):
        # the formula before the shared helper, on u / max |u| where the
        # squares of finite coordinates, not all zero, underflow or overflow
        u = tuple(ustar)
        m = max(map(abs, u))
        if norm(u) in (0.0, math.inf) and 0.0 < m < math.inf:
            u = tuple(c / m for c in u)
        nu = norm(u)
        if nu == 0.0:
            raise ValueError("ustar must be nonzero")
        return Point(scale(u, gap.lipschitz / nu))

    gap = GapFunction(lambda x, y: 0.0, L)
    outcomes = []
    for fn in (lambda: plastria_subgradient(gap, pt(0.0), u), lambda: subgradient_ref(gap, u)):
        try:
            outcomes.append(repr(fn()))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@DIFFERENTIAL
@given(st.sampled_from(("vee-peak", "twin-plateau", "radial-bowl")), st.data())
def test_descent_oracle_is_the_original_bit_for_bit(name, data):
    fx = get_fixture(name)
    dim = fx.relation.dim
    x = data.draw(st.tuples(*(st.floats(-1e6, 1e6),) * dim)
                  | st.sampled_from([tuple(fx.reference or (0.0,) * dim)]))
    assert repr(fx.descent_oracle()(x)) == repr(descent_oracle_ref(fx)(Point(x)))


def test_a_zero_direction_is_rejected():
    with pytest.raises(ValueError, match="^ustar must be nonzero$"):
        plastria_subgradient(zero_gap(2.0), pt(0.0, 0.0), (0.0, -0.0))
    # a direction whose squares underflow or overflow is a direction still
    assert plastria_subgradient(zero_gap(2.0), pt(0.0), (1e-200,)) == pt(2.0)
    assert plastria_subgradient(zero_gap(2.0), pt(0.0, 0.0), (1e-170, 0.0)) == pt(2.0, 0.0)
    assert plastria_subgradient(zero_gap(2.0), pt(0.0, 0.0), (0.0, -1e200)) == pt(0.0, -2.0)
    assert plastria_subgradient(zero_gap(2.0), pt(0.0), (3e-150,)) == pt(2.0)
    assert math.isclose(norm(plastria_subgradient(zero_gap(3.0), pt(0.0, 0.0), (1.0, 1.0))),
                        3.0)
