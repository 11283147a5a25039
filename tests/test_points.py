import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefmax import GroundSet, Point, parse_grid_spec, pt
from prefmax.points import axis_lattice


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


def test_explicit_requires_distinct():
    with pytest.raises(ValueError):
        GroundSet.explicit([pt(1.0), pt(1.0)])


@given(st.floats(-100, 100), st.floats(1e-3, 100))
def test_point_scaling_preserves_dim(base, s):
    p = pt(base, base * s)
    assert p.dim == 2
    assert p[0] == base
