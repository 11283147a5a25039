"""Closed-form cone membership against NNLS (tests/scalar_reference.py).

In 1-D and 2-D, `Cone.contains_many` reads the residual NNLS minimises off
the cone's exact shape and edges. It must give NNLS's verdict on every
fixture oracle, and on random cones with antipodal and parallel generators,
probes on and near the generators, at zero, and at near-tie tolerances.
Where a pair of generators is within 1e-12 of opposite, NNLS's own rank
test drops one of them as dependent; there the cone is the exact wedge the
pair spans. `ConvexBody.contains` is one NNLS solve, the zero test of a
fixture body reads its shape without one, and `cone_unit_hull`
must give the body of the exact cone (`tests/exact_reference.py`), and
`box_sample`'s lattice mask the `np.isin` one.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prefmax import Cone, ConvexBody, Point, cone_unit_hull, fixture_names, get_fixture
from prefmax.cones import DEFAULT_TOL, _box_candidates, contains_zero
from prefmax.vip import bodies_for_ground

from exact_reference import assert_body_is_the_shape, oracle_cone_ref
from scalar_reference import (
    body_contains_ref,
    box_candidates_isin_ref,
    cone_contains_ref,
    cone_residual_ref,
    hull_residual_ref,
    probe_fan,
)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=60)
TOLS = (0.0, 1e-9, 1e-3)
FIXTURES = fixture_names()
CONE_FIXTURES = [n for n in FIXTURES if get_fixture(n).cone_oracle is not None]

# Rotations (radians) that turn a unit generator into a near-antipode, on
# both sides of the band of cross products (about 48 to 102 eps, 1.1e-14 to
# 2.3e-14) where NNLS's own rank test decides by rounding, and inside it.
OFFSETS = (0.0, 1e-16, -1e-16, 1e-15, -1e-15, 5e-15, -5e-15, 1.2e-14, -1.2e-14,
           1.6e-14, -1.6e-14, 2e-14, -2e-14, 1e-13, -1e-13, 1e-12, -1e-12, 1e-9, -1e-9,
           1e-6, -1e-6)

coord = st.floats(-3.0, 3.0, allow_nan=False)

# A generator is drawn at unit scale or times 2^600 or 2^-600, where its
# squares overflow or underflow: a cone does not change when a generator is
# rescaled, and both sides read each generator's direction.
SCALES = st.sampled_from((1.0, 2.0 ** 600, 2.0 ** -600))


def near_antipode(g, e: float) -> tuple[float, float]:
    """-g / ||g|| rotated by e (to first order: cos e = 1 for these e)."""
    n = math.hypot(*g)
    ux, uy = g[0] / n, g[1] / n
    return (-(ux - e * uy), -(uy + e * ux))


@st.composite
def cones_2d(draw):
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("angle", "net", "antipode", "copy") if gens else ("angle", "net")))
        if kind == "angle":
            a, r = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.1, 3.0))
            g = (r * math.cos(a), r * math.sin(a))
        elif kind == "net":
            g = tuple(probe_fan(2)[draw(st.integers(0, 359))].tolist())
        elif kind == "antipode":
            g = near_antipode(draw(st.sampled_from(gens)), draw(st.sampled_from(OFFSETS)))
        else:
            g = tuple(draw(st.floats(0.1, 3.0)) * c for c in draw(st.sampled_from(gens)))
        gens.append(g)
    scales = [draw(SCALES) for _ in gens]
    return Cone.generated([tuple(k * c for c in g) for k, g in zip(scales, gens)])


@st.composite
def cones_1d(draw):
    return Cone.generated([(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e-3, 3.0))
                            * draw(SCALES),) for _ in range(draw(st.integers(1, 5)))])


def probes(cone: Cone, extra) -> np.ndarray:
    """Each generator, its negation and 1e-12 times it, zero, the probe fan
    and the extra rows."""
    G = [g.coords for g in cone.generators]
    rows = G + [tuple(-c for c in g) for g in G] + [tuple(1e-12 * c for c in g) for g in G]
    rows += [(0.0,) * cone.dim] + probe_fan(cone.dim).tolist() + [tuple(p) for p in extra]
    return np.array(rows, dtype=float)


def spans_exactly(cone: Cone) -> bool:
    """Whether no two unit generators are within 1e-12 of opposite, where
    NNLS's rank test drops one of them and the exact cone does not."""
    U = cone.units
    cross = np.outer(U[:, 0], U[:, 1]) - np.outer(U[:, 1], U[:, 0])
    return not ((np.abs(cross) < 1e-12) & (U @ U.T < 0.0)).any()


def assert_matches_nnls(cone: Cone, P: np.ndarray, tol: float = DEFAULT_TOL) -> None:
    want = [cone_contains_ref(cone, p, tol) for p in P]
    assert cone.contains_many(P, tol).tolist() == want
    assert [cone.contains(tuple(p), tol) for p in P] == want


# ---------------------------------------------------------------------- cones


@DIFFERENTIAL
@given(cones_2d(), st.lists(st.tuples(coord, coord), max_size=20), st.sampled_from(TOLS))
def test_2d_cones_match_nnls(cone, extra, tol):
    assume(spans_exactly(cone))
    assert_matches_nnls(cone, probes(cone, extra), tol)


@DIFFERENTIAL
@given(cones_1d(), st.lists(st.tuples(coord), max_size=10), st.sampled_from(TOLS))
def test_1d_cones_match_nnls(cone, extra, tol):
    assert_matches_nnls(cone, probes(cone, extra), tol)


@DIFFERENTIAL
@given(cones_2d(), st.tuples(coord, coord), st.integers(-3, 3))
def test_2d_near_ties_match_nnls(cone, q, ulps):
    # tol puts the threshold within a few ulps of the reference's residual
    assume(math.hypot(*q) > 1e-6 and spans_exactly(cone))
    tol = max(cone_residual_ref(cone, q), 1e-10)
    for _ in range(abs(ulps)):
        tol = np.nextafter(tol, np.inf if ulps > 0 else -np.inf)
    assert_matches_nnls(cone, np.array([q]), tol)


@DIFFERENTIAL
@given(st.one_of(cones_1d(), cones_2d()))
def test_unit_hulls_are_the_exact_cones(cone):
    assert_body_is_the_shape(cone_unit_hull(cone), oracle_cone_ref(cone))


@pytest.mark.parametrize("tag", ["full", "zero"])
@pytest.mark.parametrize("tol", TOLS)
def test_full_and_zero_cones_match_nnls(tag, tol):
    assert_matches_nnls(getattr(Cone, tag)(2),
                        np.array([(0.0, 0.0), (1e-4, 0.0), (1.0, -2.0)] + probe_fan(2).tolist()), tol)


@pytest.mark.parametrize("name", CONE_FIXTURES)
def test_fixture_cones_match_nnls_over_the_unit_net(name):
    fx = get_fixture(name)
    rng = np.random.default_rng(11)
    seen = set()
    for x in fx.me_ground():
        cone = fx.cone_oracle(x)
        key = (cone.tag, cone.generators)
        if key in seen:  # an equal cone gets equal verdicts
            continue
        seen.add(key)
        assert_matches_nnls(cone, np.r_[probe_fan(x.dim), rng.uniform(-3.0, 3.0, (20, x.dim))])
        assert_body_is_the_shape(cone_unit_hull(cone), oracle_cone_ref(cone))


def test_near_antipodal_pairs_span_their_exact_wedge():
    # a wedge of a half-turn less e around (0, 1): NNLS treats the pair as
    # dependent for e below about 1e-14; the cone is the wedge at every e
    for e in (1e-16, 1e-15, 5e-15, 1.6e-14, 1e-13, 1e-12):
        cone = Cone.generated([(1.0, 0.0), near_antipode((1.0, 0.0), -e)])
        assert cone.contains((0.0, 1.0))
        assert not cone.contains((0.0, -1.0))
        assert_body_is_the_shape(cone_unit_hull(cone), oracle_cone_ref(cone))


def test_a_wedge_is_decided_by_its_pair_not_by_the_nearest_ray():
    # 0.5 away from both rays, yet inside: only the pair test sees it
    cone = Cone.generated([(1.0, 0.0), (0.0, 1.0)])
    assert cone.contains((1.0, 1.0)) and cone_contains_ref(cone, (1.0, 1.0))
    assert not cone.contains((-1.0, -1.0)) and not cone_contains_ref(cone, (-1.0, -1.0))


def test_query_dimension_is_checked():
    with pytest.raises(ValueError, match="dimension"):
        Cone.generated([(1.0, 0.0)]).contains_many([(1.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="non-finite"):
        Cone.generated([(1.0, 0.0)]).contains((math.nan, 0.0))


# --------------------------------------------------------------------- bodies


@st.composite
def bodies_1d(draw):
    return ConvexBody(1, [(draw(coord),) for _ in range(draw(st.integers(1, 5)))])


@st.composite
def bodies_2d(draw):
    kind = draw(st.sampled_from(("points", "arc", "hull")))
    if kind == "points":
        return ConvexBody(2, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6)))
    if kind == "arc":
        start, length = draw(st.integers(0, 359)), draw(st.integers(1, 360))
        return ConvexBody(2, probe_fan(2)[(start + np.arange(length)) % 360])
    return cone_unit_hull(draw(cones_2d()))


def queries(body: ConvexBody, extra) -> list[tuple]:
    """Zero, each vertex and its neighbours 1e-9 and 1e-12 away on each
    axis; for pairs of vertices their midpoint, the midpoint moved 1e-6,
    1e-8 and 1e-10 either way across their line, and the points on the line
    one pair-length beyond each end; and the extra rows."""
    V = [np.array(v) for v in body.vertices.tolist()]
    rows = [np.zeros(body.dim)] + V + [np.array(p, dtype=float) for p in extra]
    for v in V[:4]:
        for k in range(body.dim):
            for h in (1e-9, -1e-9, 1e-12, -1e-12):
                rows.append(v + h * (np.arange(body.dim) == k))
    for i in range(min(len(V), 6)):
        for j in range(i + 1, min(len(V), 6)):
            a, b = V[i], V[j]
            rows += [0.5 * (a + b), 2.0 * b - a, 2.0 * a - b]
            if body.dim == 2 and np.any(a != b):
                n = np.array([a[1] - b[1], b[0] - a[0]]) / np.hypot(*(b - a))
                rows += [0.5 * (a + b) + h * n for h in (1e-6, -1e-6, 1e-8, -1e-8, 1e-10, -1e-10)]
    return [tuple(r.tolist()) for r in rows]


def assert_body_matches_nnls(body: ConvexBody, Q, tol: float) -> None:
    assert [body.contains(q, tol) for q in Q] == [body_contains_ref(body, q, tol) for q in Q]


# Bodies and queries at 1e200, whose squares overflow: the threshold
# tol (1 + ||q||) and the screen's norms keep their lengths, as the
# reference's `length_ref` does.
@DIFFERENTIAL
@given(bodies_1d(), st.lists(st.tuples(coord), max_size=10), st.sampled_from(TOLS))
@example(ConvexBody(1, [(0.0,), (1.0,)]), [(1e200,), (-1e200,)], 1e-9)
@example(ConvexBody(1, [(1e200,), (3e200,)]), [(2e200,), (0.0,), (-1e200,), (4e200,)], 1e-3)
def test_1d_bodies_match_nnls(body, extra, tol):
    assert_body_matches_nnls(body, queries(body, extra), tol)


@DIFFERENTIAL
@given(bodies_2d(), st.lists(st.tuples(coord, coord), max_size=10), st.sampled_from(TOLS))
@example(ConvexBody(2, [(1.0, 0.0), (0.0, 1.0)]), [(1e200, 0.0), (-1e200, 5.0), (1e100, 0.0)],
         1e-9)
@example(ConvexBody(2, [(1e200, 1e200), (2e200, 1e200)]), [(1.5e200, 1e200), (0.0, 0.0)], 1e-9)
@example(ConvexBody(2, [(1e200, 0.0), (0.0, 1e200), (-1e200, -1e200)]),
         [(0.0, 0.0), (3e200, 0.0), (1e199, 1e199)], 0.0)
def test_2d_bodies_match_nnls(body, extra, tol):
    assert_body_matches_nnls(body, queries(body, extra), tol)


@DIFFERENTIAL
@given(st.one_of(bodies_1d(), bodies_2d()), st.data(), st.integers(-3, 3))
def test_near_ties_match_nnls(body, data, ulps):
    # tol puts the threshold within a few ulps of the reference's residual
    q = data.draw(st.tuples(*[coord] * body.dim))
    r = hull_residual_ref(body, q)
    tol = r / (1.0 + float(np.linalg.norm(q)))
    for _ in range(abs(ulps)):
        tol = np.nextafter(tol, np.inf if ulps > 0 else -np.inf)
    assert body.contains(q, tol) == body_contains_ref(body, q, tol)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_bodies_match_nnls(name):
    # every body of the Stampacchia sweeps (closed-form cones and samples)
    # at the first 40 `queries`: zero, vertices and near them
    fx = get_fixture(name)
    X = fx.default_ground
    oracles = [fx.cone_oracle] if fx.cone_oracle is not None else []
    seen = set()
    for oracle in oracles + [None]:
        sampler = None if oracle is not None else fx.contour_sampler
        for body in bodies_for_ground(fx.relation, X, oracle, contour_sampler=sampler).values():
            if body in seen:
                continue
            seen.add(body)
            for tol in (0.0, 1e-9):
                assert_body_matches_nnls(body, queries(body, ())[:40], tol)


def test_1d_residual_is_the_distance_to_the_nearer_ray():
    # the residual is the distance from (q, 1) to the rays (v, 1); for the
    # vertex -1 and q = 2 the nearest point of the ray is its apex, which
    # gives sqrt(5), not |v - q| / sqrt(1 + v^2) = 3 / sqrt(2)
    body = ConvexBody(1, [(-1.0,)])
    assert hull_residual_ref(body, (2.0,)) == pytest.approx(math.sqrt(5.0), abs=1e-15)
    for f, inside in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
        assert body.contains((2.0,), f * math.sqrt(5.0) / 3.0) is inside


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_zero_queries_need_no_solve_and_vertex_queries_match_nnls(name, monkeypatch):
    # every body of the fixture's oracle or sampler on its default ground:
    # the Stampacchia sweep's zero test reads the body's shape and runs no
    # NNLS solve, and a vertex witness's hull test, at and 1e-11 off each of
    # the first five vertices, gives NNLS's verdict at the default tol
    fx = get_fixture(name)
    oracles = [fx.cone_oracle] if fx.cone_oracle is not None else []
    for oracle in oracles + [None]:
        sampler = None if oracle is not None else fx.contour_sampler
        bodies = bodies_for_ground(fx.relation, fx.default_ground, oracle,
                                   contour_sampler=sampler)
        unique = {b for b in bodies.values() if not b.is_empty}
        with monkeypatch.context() as m:
            m.setattr(ConvexBody, "contains", lambda *args: pytest.fail("NNLS solve"))
            verdicts = [contains_zero(body) for body in unique]
        for body, zero in zip(unique, verdicts):
            assert zero is body_contains_ref(body, np.zeros(body.dim), DEFAULT_TOL)
            for q in [v + h for v in body.vertices[:5] for h in (0.0, 1e-11, -1e-11)]:
                assert body.contains(q) is body_contains_ref(body, q, DEFAULT_TOL)


def test_body_query_is_checked():
    body = ConvexBody(2, [(1.0, 0.0)])
    with pytest.raises(ValueError, match="dimension"):
        body.contains((1.0,))
    with pytest.raises(ValueError, match="finite"):
        body.contains((math.inf, 0.0))


# ------------------------------------------------------------ lattice mask

# Bases on the lattice, off it, and half a unit of the last lattice decimal
# off it, where the per-axis masks differ between axes.
base_coord = st.one_of(coord, st.integers(-60, 60).map(lambda k: k * 0.05),
                       st.integers(-30, 30).map(lambda k: k * 0.1),
                       st.integers(-60, 60).map(lambda k: k * 0.05 + 5e-13))


@DIFFERENTIAL
@given(st.lists(base_coord, min_size=1, max_size=2), st.sampled_from((0.05, 0.1, 0.3, 1.0)),
       st.sampled_from((0.1, 0.3, 0.05, 0.02)))
def test_box_candidates_match_the_isin_mask(coords, radius, step):
    # steps whose halves round at the lattice decimals (0.1, 0.3, 0.05)
    x = Point(tuple(coords))
    assert _box_candidates(x, radius, step).tolist() == box_candidates_isin_ref(x, radius, step).tolist()


@pytest.mark.parametrize("step", [0.1, 0.3, 0.05])
def test_box_candidates_follow_each_axis_mask_in_lattice_order(step):
    # one axis on the lattice, one half a unit of the 12th decimal off it:
    # their masks differ, so a mask expanded in the wrong order shows
    for coords in ((0.0, 0.1234567890125), (0.1234567890125, 0.0)):
        x = Point(coords)
        assert (_box_candidates(x, 1.0, step).tolist()
                == box_candidates_isin_ref(x, 1.0, step).tolist())
