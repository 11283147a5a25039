import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import GroundSet, Point, parse_grid_spec, pt
from prefmax.points import axis_lattice, ground_points, ground_spacing, scaled_to

from scalar_reference import scaled_to_ref


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
    g = GroundSet.grid([(-1.0, 1.0, 0.01)])
    ext = g.extended(0.5)
    inner = {p.coords for p in g}
    assert inner <= {p.coords for p in ext}
    assert len(ext) == 301


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


@given(st.floats(-100, 100), st.floats(1e-3, 100))
def test_point_scaling_preserves_dim(base, s):
    p = pt(base, base * s)
    assert p.dim == 2
    assert p[0] == base


# Coordinates for `scaled_to`: exact zeros, magnitudes whose squares
# underflow to 0 (1e-170) or overflow to inf (1e160), and plain values, as
# floats, ints and np.float64
SPECIAL = st.sampled_from((0.0, -0.0, 1e-170, -1e-170, 1e160, -1e160, 0.6, -0.8, 3.0))
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
    and `sum` expressions give; a norm that is 0.0, exactly or by underflow,
    raises ZeroDivisionError on both."""
    u, length = inputs
    assert _scaled_outcome(scaled_to, u, length) == _scaled_outcome(scaled_to_ref, u, length)


@pytest.mark.parametrize("coords", [(0.0,), (0.0, 0.0), (0.0, 0.0, 0.0), (1e-170,),
                                    (1e-170, -1e-170), (0, 1e-170, 0.0)])
@pytest.mark.parametrize("container", (tuple, list, Point))
def test_scaled_to_a_zero_norm_raises_as_the_generic_expressions_do(coords, container):
    u = container(coords)
    outcome = _scaled_outcome(scaled_to, u, 1.0)
    assert outcome == _scaled_outcome(scaled_to_ref, u, 1.0)
    assert outcome[0] is ZeroDivisionError
