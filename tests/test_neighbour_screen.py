"""The neighbour screen of the sampled Stampacchia path against references.

`vip.bodies_for_ground` meets each base of a 1-D or 2-D ground with its
strictly-better neighbours on the ground's own coordinate lattice
(`points.ground_neighbours`), refutes a base whose neighbours alone leave no
witness at the ground's extreme rows (`vip._neighbour_screen`), samples only
the other bases, and adds each one's neighbours to its sample. A larger
sample only narrows the cone, so the screen is a shortcut: the listing must
be the unscreened decision on every base's sample plus its neighbours, those
found by ground coordinates (`tests/exact_reference.py`), at every block
budget, on grids and on grounds with holes. A maximal point has no
strictly-better neighbour and is never refuted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (ContourSample, GroundSet, Point, Relation, fixture_names, get_fixture,
                     maximal_elements, parse_grid_spec, pt, strictly_prefers, svip_membership,
                     svip_solutions)
from prefmax import cones, points, vip
from prefmax.cones import BoxSampler, sampled_bodies
from prefmax.points import ground_neighbours, ground_points

from exact_reference import strictly_better_neighbours_ref, window_utility, with_neighbours

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=150)
BUDGETS = st.sampled_from((1, 7, 64, points.BLOCK_ENTRIES))
_DYADIC = st.integers(-16, 16).map(lambda k: k / 8.0)


def _near(rel, ground) -> dict:
    return strictly_better_neighbours_ref(
        lambda y, x: strictly_prefers(rel, Point(y), Point(x)), ground)


@st.composite
def windows(draw):
    """A bowl, vee peak or kinked-linear utility, or a predicate that ranks
    by a tilted first coordinate, on a 1-D or 2-D grid with dyadic or
    tenth-lattice steps, as a GroundSet or, with some points dropped, as a
    list; and a box sampler of dyadic radius and step."""
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("bowl", "vee", "kinked", "tilted")))
    c = (draw(_DYADIC), draw(_DYADIC))[:dim]
    a = (draw(st.sampled_from((1.0, 2.0, -1.0, 0.5))), draw(st.sampled_from((1.0, -2.0, 0.25))))
    if kind == "tilted":
        rel = Relation.from_predicate(kind, dim,
                                      lambda x, y: x[0] + 0.5 * x[-1] >= y[0] + 0.5 * y[-1])
    else:
        u, cols = window_utility(kind, c, a[:dim])
        rel = Relation.from_utility(kind, dim, u, columns=cols)
    step = draw(st.sampled_from((0.25, 0.125, 0.1, 0.05, 0.03)))
    axes = []
    for _ in range(dim):
        lo, n = draw(_DYADIC), draw(st.integers(2, 20 if dim == 1 else 9))
        axes.append((lo, lo + (n - 1) * step, step))
    ground = GroundSet.grid(axes)
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(ground), max_size=len(ground)))
        ground = [x for x, k in zip(ground, keep) if k] or [ground[0]]
    radius, sstep = draw(st.sampled_from(((0.5, 0.125), (1.0, 0.25), (0.25, 0.0625))))
    return rel, ground, BoxSampler(rel, radius, sstep)


@DIFFERENTIAL
@given(windows())
def test_neighbours_are_the_ground_coordinate_neighbours(case):
    _, ground, _ = case
    pts, G = ground_points(ground)
    got = [[pts[j].coords for j in row if j >= 0] for row in ground_neighbours(G).tolist()]
    assert got == list(strictly_better_neighbours_ref(lambda y, x: True, pts).values())


@DIFFERENTIAL
@given(windows(), st.sampled_from((0.0, 1e-9, 1e-3)), BUDGETS)
def test_the_screened_listing_is_the_decision_on_samples_plus_neighbours(case, tol, budget):
    rel, ground, sampler = case
    pts, G = ground_points(ground)
    near = _near(rel, pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        got = svip_solutions(rel, pts, tol=tol, contour_sampler=sampler)
        bodies = sampled_bodies([with_neighbours(s, near[s.base.coords])
                                 for s in sampler.samples(pts)], tol)
        found = vip._stampacchia(bodies, G, G, tol)
    assert got == [x for x, w in zip(pts, found) if w is not None]


@DIFFERENTIAL
@given(windows(), st.sampled_from((0.0, 1e-9, 1e-3, -1e-9)))
def test_no_maximal_point_is_refuted(case, tol):
    rel, ground, _ = case
    pts, G = ground_points(ground)
    refuted, better, kept = vip._neighbour_screen(rel, G, tol)
    assert [pts[j].coords for j in better] == [y for ys in _near(rel, pts).values() for y in ys]
    index = {x.coords: i for i, x in enumerate(pts)}
    for x in maximal_elements(rel, pts):
        assert kept[index[x.coords]] == 0 and not refuted[index[x.coords]]


@pytest.mark.parametrize("name", fixture_names())
def test_no_maximal_fixture_point_is_refuted(name):
    fx = get_fixture(name)
    pts, G = ground_points(fx.default_ground)
    maximal = {x.coords for x in maximal_elements(fx.relation, pts)}
    for tol in (0.0, 1e-9):
        refuted, _, _ = vip._neighbour_screen(fx.relation, G, tol)
        assert not any(r for x, r in zip(pts, refuted) if x.coords in maximal)


def test_radial_bowl_box_samples_only_the_peak_and_its_axis_neighbours(radial, monkeypatch):
    # of radial-bowl's 169 default bases, the neighbour screen leaves the
    # peak (1, 2), whose neighbours are none, and its four axis neighbours,
    # whose one strictly-better neighbour is the peak: each of their
    # polars holds a line; the other 164 are refuted without a box sample
    sampled = []
    blocks = cones._box_blocks

    def spy(rel, B, radius, step):
        sampled.extend(map(tuple, B.tolist()))
        return blocks(rel, B, radius, step)

    monkeypatch.setattr(cones, "_box_blocks", spy)
    for tol in (0.0, 1e-9):
        sampled.clear()
        got = svip_solutions(radial.relation, radial.default_ground, tol=tol,
                             contour_sampler=radial.box_sampler)
        assert got == [radial.reference]
        assert sampled == [(0.75, 2.0), (1.0, 1.75), (1.0, 2.0), (1.0, 2.25), (1.25, 2.0)]


def test_the_finer_radial_grid_loses_two_points_to_their_neighbours(radial):
    # on the 0.03 grid the box samples of (0.97, 2) and (1.03, 2) hold no
    # point along x = 1, so they were listed; their strictly-better
    # neighbours (1, 2) and (1, 2.03), which ranks strictly above them in
    # floats, span a wedge and refute both at both tols
    ground = parse_grid_spec("-0.5:2.5:0.03,0.5:3.5:0.03")
    pts, G = ground_points(ground)
    index = {x.coords: i for i, x in enumerate(pts)}
    for tol in (0.0, 1e-9):
        refuted, better, kept = vip._neighbour_screen(radial.relation, G, tol)
        starts = np.cumsum(kept) - kept
        for x in ((0.97, 2.0), (1.03, 2.0)):
            i = index[x]
            assert refuted[i]
            assert [pts[j].coords for j in better[starts[i]:starts[i] + kept[i]]] == [
                (1.0, 2.0), (1.0, 2.03)]
        got = svip_solutions(radial.relation, ground, tol=tol, contour_sampler=radial.box_sampler)
        assert [x.coords for x in got] == [(1.0, 1.97), (1.0, 2.0), (1.0, 2.03)]


def test_the_plain_floor_refutes_a_narrow_wedge_and_leaves_a_near_bound_one():
    # the base (0, 0) on the lower edge of the grid {-1, 0, 1} x {0, 1}: its
    # strictly-better neighbours (1, 0) and (1, 1) span a 45-degree wedge,
    # whose polar runs from u = (-1, 1) / sqrt 2 to v = (0, -1). The point
    # (1 - t) u + t v of the polar's unit hull meets the floors at the
    # corners (1, 0) and (1, 1) where 1 - 2 sqrt 2 tol <= t and
    # t <= (1 + sqrt 2) tol, so from tol = 1 / (1 + 3 sqrt 2) = 0.1907.
    # At tol 3/16 the screen refutes the base, though the floors divided by
    # rho = ||(u + v) / 2|| clear, and no larger sample gives it a witness;
    # at tol 25/128 the screen leaves it to its sampler, and the sample of
    # its neighbours alone certifies it
    ground = GroundSet.grid([(-1.0, 1.0, 1.0), (0.0, 1.0, 1.0)])
    rel = Relation.from_utility("tilted", 2, lambda p: p[0] - 0.1 * p[1])
    u, v = np.array([-1.0, 1.0]) / math.sqrt(2.0), np.array([0.0, -1.0])
    rho = float(np.linalg.norm(0.5 * (u + v)))
    D = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 1.0], [1.0, 1.0]])
    t = np.linspace(0.0, 1.0, 4097)[:, None]
    W = (1.0 - t) * u + t * v
    pts, G = ground_points(ground)
    base = list(pts).index(pt(0.0, 0.0))
    near = _near(rel, pts)
    assert near[(0.0, 0.0)] == [(1.0, 0.0), (1.0, 1.0)]
    for tol, left in ((0.1875, False), (25 / 128, True)):
        floor = -tol * (1.0 + np.linalg.norm(D, axis=1))
        assert (W @ D.T >= floor / rho).all(axis=1).any()
        assert (W @ D.T >= floor).all(axis=1).any() == left
        refuted, _, _ = vip._neighbour_screen(rel, G, tol)
        assert refuted[base] != left
        sampled = []
        bodies = vip.bodies_for_ground(rel, ground, tol=tol,
                                       contour_sampler=lambda x: sampled.append(x.coords)
                                       or ContourSample(x, ()))
        assert ((0.0, 0.0) in sampled) == left
        assert (svip_membership(bodies[(0.0, 0.0)], pt(0.0, 0.0), ground, tol) is None) != left
        for sampler in (BoxSampler(rel, 1.0, 0.25), BoxSampler(rel, 0.5, 0.0625)):
            body = sampled_bodies([with_neighbours(sampler(pt(0.0, 0.0)), near[(0.0, 0.0)])],
                                  tol)[0]
            if not left:
                assert svip_membership(body, pt(0.0, 0.0), ground, tol) is None
