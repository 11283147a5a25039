import builtins
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prefmax import (ContourSample, DescentConfig, GroundSet, Point, StepSchedule,
                     normal_membership_many, parse_grid_spec, pt, run_descent)
from prefmax.points import (axis_lattice, centred_lattice, dot_signs, ground_points,
                            ground_spacing, row_norms, scaled_to, unit_rows)

from scalar_reference import length_ref, normal_membership_ref, run_descent_ref, scaled_to_ref


def test_point_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        Point(())
    with pytest.raises(ValueError):
        Point((float("nan"),))
    with pytest.raises(ValueError):
        Point((1.0, math.inf))


def test_grid_expands_exact_lattice():
    g = GroundSet.grid([(0.0, 4.0, 0.25)])
    coords = [p[0] for p in g]
    assert len(coords) == 17
    assert 3.5 in coords and 4.0 in coords and 0.0 in coords


def test_fine_grid_hits_named_points():
    g = GroundSet.grid([(-1.0, 1.0, 0.01)])
    coords = {p[0] for p in g}
    assert 0.0 in coords and 1.0 in coords and -1.0 in coords
    assert len(coords) == 201


def test_grid_2d_and_degenerate_axis():
    g = GroundSet.grid([(0.0, 1.0, 0.5), (0.0, 0.0, 0.5)])
    assert [p.coords for p in g] == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]


def test_default_steps_by_dimension():
    assert len(GroundSet.grid([(0.0, 1.0)])) == 101  # 0.01 in 1-D
    g2 = GroundSet.grid([(0.0, 1.0), (0.0, 1.0)])
    assert len(g2) == 21 * 21  # 0.05 per axis in 2-D


def test_extended_keeps_lattice_alignment():
    # the extension adds whole steps, so it keeps every grid point (where
    # a margin off the lattice would shift it, off all the window's
    # points), and it reaches at least `margin` beyond the grid's extreme
    # points on every axis
    assert len(GroundSet.grid([(-1.0, 1.0, 0.01)]).extended(0.5)) == 301
    for axes, margin in (([(-1.0, 1.0, 0.01)], 0.5), ([(-0.9, 0.9, 0.3)], 0.5),
                         ([(-0.99, 0.99, 0.03)], 0.5), ([(-1.0, 1.0, 0.07)], 0.5),
                         ([(0.0, 1.0, 0.3)], 0.2), ([(-0.9, 0.9, 0.3), (0.1, 0.8, 0.07)], 0.5)):
        g = GroundSet.grid(axes)
        ext = g.extended(margin)
        assert {p.coords for p in g} <= {p.coords for p in ext}, axes
        for i in range(g.dim):
            inner, outer = ([p[i] for p in s] for s in (g, ext))
            assert min(outer) <= min(inner) - margin and max(outer) >= max(inner) + margin, axes


def test_parse_grid_spec():
    g = parse_grid_spec("0:1:0.5,0:0:1")
    assert g.dim == 2 and len(g) == 3
    for spec, message in (("0:1:0.5:7", "bad grid clause"),
                          ("0:inf:0.1", "grid bound must be finite, got inf"),
                          ("nan:1:0.1", "grid bound must be finite, got nan"),
                          ("0:1:inf", "grid step must be finite, got inf")):
        with pytest.raises(ValueError, match=message):
            parse_grid_spec(spec)


@pytest.mark.parametrize("lo, hi, step, message", [
    (math.nan, 1.0, 0.1, "grid bound must be finite, got nan"),
    (-math.inf, 1.0, 0.1, "grid bound must be finite, got -inf"),
    (0.0, math.nan, 0.1, "grid bound must be finite, got nan"),
    (0.0, math.inf, 0.1, "grid bound must be finite, got inf"),
    (0.0, 1.0, math.nan, "grid step must be finite, got nan"),
    (0.0, 1.0, math.inf, "grid step must be finite, got inf"),
])
def test_axis_lattice_names_a_non_finite_value(lo, hi, step, message):
    with pytest.raises(ValueError, match=message):
        axis_lattice(lo, hi, step)


def test_ground_spacing_is_a_grids_smallest_step_or_the_smallest_distance():
    # the grid's own step, 0.3, beats its points' smallest distance, 0.5
    grid = GroundSet.grid([(0.0, 0.0, 0.3), (0.0, 1.0, 0.5)])
    assert ground_spacing(*ground_points(grid)) == 0.3
    assert ground_spacing(*ground_points(list(grid))) == 0.5
    assert ground_spacing(*ground_points(GroundSet.explicit(grid))) == 0.5
    assert ground_spacing(*ground_points([pt(0.0, 0.0), pt(3.0, 4.0), pt(3.0, 4.5)])) == 0.5
    assert ground_spacing(*ground_points([pt(1.0)])) == math.inf


def test_explicit_requires_distinct():
    with pytest.raises(ValueError):
        GroundSet.explicit([pt(1.0), pt(1.0)])


def test_a_grounds_array_is_built_once_and_read_only():
    g = GroundSet.grid([(0.0, 1.0, 0.5), (0.0, 1.0, 0.5)])
    assert g.array is g.array
    assert g.array.tolist() == [list(p.coords) for p in g]
    with pytest.raises(ValueError):
        g.array[0, 0] = 7.0


def test_positions_place_each_point_and_membership_reads_them():
    g = GroundSet.explicit([pt(0.5, 1.0), pt(-1.0, 0.0), pt(2.0, 2.0)])
    assert g.positions == {(0.5, 1.0): 0, (-1.0, 0.0): 1, (2.0, 2.0): 2}
    assert g.positions is g.positions
    for p in (pt(0.5, 1.0), pt(2.0, 2.0), pt(0.0, 0.0), pt(1.0, 0.5), pt(-0.0, 1e-300)):
        assert (p in g) == (p.coords in g.positions) == (p in list(g))


def test_lattice_coordinates_hold_no_negative_zero():
    # lo + i * step rounds to -0.0 where the sum is a tiny negative number;
    # -0.0 == 0.0, so only its printed form would differ
    for step in (0.1, 0.3, 0.03, 0.07, 0.01, 0.05, 0.25, 0.013):
        for k in range(1, 100):
            lattice = axis_lattice(-k * step, 1.0, step)
            assert "-0.0" not in map(repr, lattice), (k, step)
    assert "-0.0" not in map(repr, centred_lattice(-0.9, 0.9, 0.3))


@given(st.floats(-100, 100), st.floats(1e-3, 100))
def test_point_scaling_preserves_dim(base, s):
    p = pt(base, base * s)
    assert p.dim == 2
    assert p[0] == base


# Coordinates for `scaled_to`: exact zeros, magnitudes whose squares
# underflow to 0 (1e-170), are subnormal (1e-159, 4e-160) or overflow to inf
# (1e160), and plain values, as floats, ints and np.float64
SPECIAL = st.sampled_from((0.0, -0.0, 1e-170, -1e-170, 1e-159, -4e-160, 1e160, -1e160, 0.6,
                           -0.8, 3.0))
SCALED_COORDS = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-10 ** 6, 10 ** 6), SPECIAL.map(np.float64),
                          st.floats(-1e3, 1e3).map(np.float64))


def _scaled_outcome(scale, u, length):
    try:
        with np.errstate(over="ignore", under="ignore"):
            return repr(scale(u, length))
    except ZeroDivisionError as exc:
        return type(exc), str(exc)


@st.composite
def scaled_inputs(draw):
    coords = draw(st.lists(SCALED_COORDS, min_size=1, max_size=3))
    container = draw(st.sampled_from((tuple, list, Point)))
    return container(coords), draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from((1.0, 1))))


@settings(settings.get_profile("differential"), max_examples=400)
@given(scaled_inputs())
@example(((1e160,), 2.0))
@example(((1e160, -1e160), 2.0))
@example(([3, 4], 1))
@example((Point((0.6, -0.8, 0.0)), 2.5))
def test_scaled_to_matches_the_generic_expressions(inputs):
    """The written-out 1-D and 2-D arithmetic gives, by repr, what the `map`
    and `sum` expressions give; an exact zero raises ZeroDivisionError on
    both, and squares that underflow or overflow are rescaled on both."""
    u, length = inputs
    assert _scaled_outcome(scaled_to, u, length) == _scaled_outcome(scaled_to_ref, u, length)


@pytest.mark.parametrize("coords", [(0.0,), (0.0, -0.0), (0.0, 0.0, 0.0), (-0.0,), (-0.0, 0),
                                    (0, -0.0, 0.0)])
@pytest.mark.parametrize("container", (tuple, list, Point))
def test_scaled_to_a_zero_norm_raises_as_the_generic_expressions_do(coords, container):
    u = container(coords)
    outcome = _scaled_outcome(scaled_to, u, 1.0)
    assert outcome == _scaled_outcome(scaled_to_ref, u, 1.0)
    assert outcome[0] is ZeroDivisionError


def _exact_scaled(u, length):
    """length * u / ||u|| in 60-digit decimal arithmetic, rounded to floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        coords = [Decimal(c) for c in u]
        s = Decimal(length) / sum(c * c for c in coords).sqrt()
        return [float(c * s) for c in coords]


@pytest.mark.parametrize("coords, expected", [
    ((1e160,), (2.0,)),
    ((-1e-170,), (-2.0,)),
    ((1e200, 0.0), (2.0, 0.0)),
    ((1e-170, -0.0), (2.0, -0.0)),
    ((-1e-170, 1e-170), (-math.sqrt(2.0), math.sqrt(2.0))),
    ((0.0, 1e300, 0.0), (0.0, 2.0, 0.0)),
    ((1e-200, 1e-200, 1e-200), (2.0 / math.sqrt(3.0),) * 3),
    ((1e-159,), (2.0,)),
    ((-3e-160, 4e-160), (-1.2, 1.6)),
    ((3e-160, 0.0, -4e-160), (1.2, 0.0, -1.6)),
])
@pytest.mark.parametrize("container", (tuple, list, Point))
def test_squares_that_underflow_or_overflow_are_rescaled(coords, expected, container):
    """A u whose squares sum to 0.0, a subnormal or inf, with every
    coordinate finite and one nonzero, is scaled along its direction to norm
    `length`, in 1-D to 3-D, instead of raising ZeroDivisionError,
    collapsing to zeros or losing digits."""
    got = scaled_to(container(coords), 2.0)
    assert all(math.isclose(g, e, rel_tol=4e-16) for g, e in zip(got, expected))
    assert [math.copysign(1.0, g) for g in got] == [math.copysign(1.0, e) for e in expected]
    assert _scaled_outcome(scaled_to, container(coords), 2.0) == _scaled_outcome(
        scaled_to_ref, container(coords), 2.0)


@settings(settings.get_profile("differential"), max_examples=300)
@given(st.lists(st.tuples(st.floats(-1.7, 1.7), st.sampled_from(
    (1e-300, 1e-200, 1e-170, 1e-159, 1e-150, 1.0, 1e150, 1e160, 1e200, 1e300))),
    min_size=1, max_size=3),
    st.floats(1e-3, 1e3))
def test_scaled_to_has_the_length_and_direction_at_any_scale(coords, length):
    """Every nonzero finite u, whatever its squares sum to, comes out as
    length * u / ||u|| to within a few ulps of `length`."""
    u = tuple(c * scale for c, scale in coords)
    assume(any(u))
    got = scaled_to(u, length)
    for g, e in zip(got, _exact_scaled(u, length)):
        assert abs(g - e) <= 4 * math.ulp(length)


# Coordinates of either sign from 1e-320 (subnormal) to 1.7e308, and zeros
MAGNITUDES = st.one_of(st.just(0.0), st.builds(lambda s, m, k: s * m * 10.0 ** k,
                                               st.sampled_from((1.0, -1.0)), st.floats(1.0, 1.7),
                                               st.integers(-320, 307)))


@settings(settings.get_profile("differential"), max_examples=300)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(MAGNITUDES, min_size=d, max_size=d).filter(any),
                       min_size=1, max_size=8)))
@example([[1e200, 0.0], [1e-170, -0.0], [3.0, 4.0], [1e-320, 1.7e308]])
def test_unit_rows_and_row_norms_are_scaled_to_and_its_norm_row_by_row(rows):
    """Each finite nonzero row gets, by repr, the floats of `scaled_to(row,
    1.0)`, and its norm is the square root of its squares added left to
    right, or m ||row / m|| where `scaled_to` rescales."""
    A = np.array(rows)
    # the rows once more, stacked as a 3-D array with their reversal
    stacked = np.stack((A, A[::-1]))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got, lengths = unit_rows(A).tolist(), row_norms(A).tolist()
        units3, lengths3 = unit_rows(stacked).tolist(), row_norms(stacked).tolist()
    assert list(map(repr, chain.from_iterable(got))) == [
        repr(c) for row in rows for c in scaled_to(row, 1.0)]
    assert list(map(repr, lengths)) == [repr(length_ref(row)) for row in rows]
    assert repr(units3) == repr([got, got[::-1]])
    assert repr(lengths3) == repr([lengths, lengths[::-1]])


def _compensated_sum(items, start=0):
    return math.fsum(chain((start,), items))


def test_library_floats_do_not_depend_on_a_compensated_sum(monkeypatch):
    # Python 3.12 compensates sum() of floats; scaled_to and a 3-D descent
    # add their squares left to right whatever `sum` does
    rng = np.random.default_rng(3)
    vectors = [tuple((rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, size=3)).tolist())
               for _ in range(2000)]
    peak = (0.3, -1.7, 2.9)

    def away(x):
        return scaled_to(tuple(a - b for a, b in zip(x, peak)), 1.0)

    def floats():
        trace = run_descent(away, pt(4.1, 0.7, -2.3), StepSchedule.harmonic(1.0),
                            DescentConfig(1.0, max_iters=200), pt(*peak))
        return {"scaled_to": [scaled_to(v, 1.5) for v in vectors],
                "run_descent": trace.rows + (trace.termination,)}

    plain = floats()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    compensated = floats()
    # the scalar references fold their float sums from the int 0 too, so a
    # differential slice holds with the compensated sum: a 3-D descent, and
    # normal-cone membership at tol 0, where 1e16 + 1 - 1e16 folds to 0.0
    # and compensates to 1.0
    ref = run_descent_ref(away, pt(4.1, 0.7, -2.3), StepSchedule.harmonic(1.0),
                          DescentConfig(1.0, max_iters=200), pt(*peak))
    samples = [ContourSample(pt(0.0, 0.0, 0.0), rows) for rows in ([(1.0, 1.0, 1.0)], vectors[:40])]
    probes = np.array([(1e16, 1.0, -1e16)] + vectors[40:80])
    membership = [[normal_membership_ref(s, p, 0.0) for p in probes.tolist()] for s in samples]
    monkeypatch.undo()
    moved = {name: [repr(a) != repr(b) for a, b in zip(plain[name], compensated[name])].count(True)
             for name in plain}
    assert moved == {"scaled_to": 0, "run_descent": 0}
    assert repr(ref.rows) == repr(plain["run_descent"][:-1])
    assert ref.termination == plain["run_descent"][-1]
    assert [normal_membership_many(s, probes, 0.0).tolist() for s in samples] == membership
    assert membership[0][0]


# ------------------------------------------------------------- exact signs

_SIGN_SCALES = st.sampled_from((1.0, 0.05, 2.0 ** 500, 2.0 ** -500, 2.0 ** 1000, 2.0 ** -1000))


@settings(settings.get_profile("differential"), max_examples=200)
@given(st.integers(1, 3), st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                             st.floats(-1.0, 1.0)), min_size=1, max_size=20),
       _SIGN_SCALES, _SIGN_SCALES, st.integers(-2, 2))
def test_dot_signs_are_the_exact_signs(dim, rows, sa, sb, ulps):
    # b is turned to be nearly orthogonal to a, then moved by a few ulps, so
    # the float sum sits inside its rounding; scales put factors outside
    # the error-free products' range, and products near overflow
    A = np.array([r[:dim] for r in rows]) * sa
    B = np.array([(r[1], -r[0], r[2])[:dim] if dim > 1 else r[:1] for r in rows]) * sb
    B[:, 0] = [np.nextafter(b, np.inf if ulps > 0 else -np.inf) if ulps else b for b in B[:, 0]]
    want = [(t > 0) - (t < 0) for t in (sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))
                                        for a, b in zip(A.tolist(), B.tolist()))]
    assert dot_signs(A, B).tolist() == want
