"""1-D and 2-D cone shapes and tol-0 Stampacchia listings against exact references.

`cones._shapes` reads a set's cone by exact signs of float products
(`points.dot_signs`), each side's end by a pairwise tournament;
`tests/exact_reference.py` reads it by integer signs and one scan per side,
another way. They must give the same shape and edges of the same direction
on sets built to sit on every edge case: parallel and opposite directions,
near misses by one ulp, wedges a hair short of a half-turn, and
coordinates whose squares overflow or underflow. On large lattice sets
crowded with multiples and ulp turns of their outermost rows, each edge
must be the very row the reference picks, the first outermost one in set
order. The library's tol-0 `svip_solutions` must list exactly the
reference's points on every fixture's default grid, on radial-bowl's 961-
and 3,721-point grids, and on drawn windows of bowls, vee peaks and
kinked-linear utilities with dyadic bounds, steps and box samplers, where
every displacement is exact in floats. A sampled base's reference cone is
that of its box sample plus its strictly-better ground neighbours, which
the reference finds by ground coordinates.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import (Cone, ContourSample, GroundSet, Point, Relation, body_from_sample,
                     cone_unit_hull, fixture_names, get_fixture, parse_grid_spec, strictly_prefers,
                     svip_solutions)
from prefmax.cones import FULL, HALF, LINE, RAY, WEDGE, ZERO, BoxSampler, _shapes

from exact_reference import (assert_body_is_the_shape, cone_shape_ref, corners, cross, dot,
                             exact_ints, oracle_cone_ref, polar_ref, sample_normal_cone_ref,
                             strictly_better_neighbours_ref, svip_listing_ref, window_utility,
                             with_neighbours)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=150)


def _same_direction(a, b) -> bool:
    """Whether floats a and ints b point the same way, exactly."""
    a = exact_ints([a])[0]
    return cross(a, b) == 0 and dot(a, b) > 0 if len(a) == 2 else a[0] * b[0] > 0


def _assert_shape_matches(got, want):
    kind, f, l = got
    assert kind == want[0]
    if kind in (RAY, WEDGE, HALF):
        assert _same_direction(f, want[1]) and _same_direction(l, want[2])
    if kind == LINE:  # either direction of the line may come first
        assert _same_direction(f, want[1]) or _same_direction(f, want[2])


# ------------------------------------------------------------------ shapes

# unit directions at whole degrees, and rotations by a few ulps: parallel,
# opposite and near-opposite pairs, and wedges just short of a half-turn
_SCALES = st.sampled_from((1.0, 0.05, 3.0, 2.0 ** 600, 2.0 ** -600))
_NUDGES = (0.0, 1e-17, -1e-17, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9)


@st.composite
def direction_sets(draw):
    base = draw(st.integers(0, 359))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("degree", "opposite", "nudge", "lattice", "zero")))
        if kind == "lattice":
            d = (draw(st.integers(-4, 4)) * 0.05, draw(st.integers(-4, 4)) * 0.05)
        elif kind == "zero":
            d = (0.0, 0.0)
        else:
            a = math.radians(base + draw(st.sampled_from((0, 1, 90, 179, 180, 181, 270)))
                             * (kind != "degree" or draw(st.booleans())))
            a += math.pi * (kind == "opposite") + draw(st.sampled_from(_NUDGES)) * (kind == "nudge")
            d = (math.cos(a), math.sin(a))
        s = draw(_SCALES)
        rows.append((d[0] * s, d[1] * s))
    return rows


@DIFFERENTIAL
@given(st.lists(direction_sets(), min_size=1, max_size=4))
@example([[(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)], [(1.0, 0.0), (-1.0, 1e-17), (0.0, 1.0)],
          [(1.0, 0.0), (-1.0, -1e-17), (0.0, 1.0)], [(2.0, 1.0), (4.0, 2.0)], []])
@example([[(0.15, 0.1), (0.1, 0.05 + 0.15 - 0.15), (0.3, 0.2)], [(1e200, 0.0), (-1e200, 1e200)]])
def test_2d_shapes_match_the_exact_reference(sets):
    D = np.array([r for s in sets for r in s], dtype=float).reshape(-1, 2)
    shape, first, last = _shapes(D, [len(s) for s in sets])
    for s, kind, f, l in zip(sets, shape.tolist(), first.tolist(), last.tolist()):
        _assert_shape_matches((kind, f, l), cone_shape_ref(exact_ints(s) if s else []))


def _assert_first_rows(sets, got):
    """The library's shapes against the reference's, each edge the very row
    the reference picks: a side's first outermost direction in set order,
    or the set's first opposite one."""
    for s, kind, f, l in zip(sets, *(a.tolist() for a in got)):
        E = exact_ints(s)
        want = cone_shape_ref(E)
        assert kind == want[0]
        if want[1] is not None:
            assert [f, l] == [list(map(float, s[E.index(e)])) for e in want[1:]]


def _disc_displacements(rng) -> np.ndarray:
    """A radial bowl's box sample at a lattice base x, as displacements:
    the lattice points x + k h strictly nearer a peak p than x, less x, in
    row-major order (100 to about 3,000 rows)."""
    h = rng.choice((0.1, 0.05, 0.03, 0.07))
    x = rng.integers(-20, 21, 2) * h
    angle, reach = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(6.0, 30.0)
    p = x + reach * h * np.array([math.cos(angle), math.sin(angle)])
    k = np.arange(-61, 62) * h
    Y = np.stack(np.meshgrid(x[0] + k, x[1] + k, indexing="ij"), axis=-1).reshape(-1, 2)
    return Y[((Y - p) ** 2).sum(axis=1) < ((x - p) ** 2).sum()] - x


def _crowd_the_ends(rng, D: np.ndarray) -> np.ndarray:
    """D with its outermost rows repeated at random places: times powers of
    two and small integers (exact, or rounded a hair off the ray), and
    turned by one or two ulps of a coordinate either way."""
    rows, E = D.tolist(), exact_ints(D)
    for e in cone_shape_ref(E)[1:]:
        if e is None:
            continue
        v = D[E.index(e)]
        near = [v * 2.0 ** j for j in (-3, -1, 1, 4)] + [v * m for m in (3.0, 5.0, 7.0)]
        for _ in range(6):
            w, c = v.copy(), rng.integers(0, 2)
            for _ in range(rng.integers(1, 3)):
                w[c] = np.nextafter(w[c], rng.choice((-np.inf, np.inf)))
            near.append(w * rng.choice((1.0, 2.0, 3.0)))
        for w in near:
            rows.insert(int(rng.integers(0, len(rows) + 1)), w.tolist())
    return np.array(rows)


@settings(DIFFERENTIAL, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_large_sets_take_the_reference_ends(seed, n):
    # the tournament meets thousands of rows of one side over a dozen
    # rounds, carrying an odd last candidate, on lattice ties and ulp turns
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        D = _crowd_the_ends(rng, _disc_displacements(rng))
        sets.append(np.roll(D, rng.integers(0, len(D)), axis=0) * rng.choice((1.0, -1.0), 2))
    _assert_first_rows(sets, _shapes(np.concatenate(sets), list(map(len, sets))))


def test_the_ends_are_the_first_outermost_rows():
    # outermost directions at several lengths: each end is the first of
    # them in set order, through odd and even group sizes
    left = [(1.0, 1.0), (3.0, 9.0), (1.0, 3.0), (2.0, 3.0), (0.5, 1.5)]
    right = [(3.0, -1.0), (1.0, -2.0), (2.0, -4.0)]
    sets = [[(1.0, 0.0)] + left + right, [(1.0, 0.0)] + left[::-1] + right[::-1],
            [(1.0, 0.0)] + left[:4], [(1.0, 0.0)] + right[1:] + [(-1.0, 0.0), (-2.0, 0.0)],
            [(2.0, 1.0), (4.0, 2.0), (-1.0, -0.5), (-4.0, -2.0)]]
    shape, first, last = got = _shapes(np.array([r for s in sets for r in s]), list(map(len, sets)))
    assert shape.tolist() == [WEDGE, WEDGE, WEDGE, HALF, LINE]
    assert first.tolist() == [[1.0, -2.0], [2.0, -4.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 1.0]]
    assert last.tolist() == [[3.0, 9.0], [0.5, 1.5], [3.0, 9.0], [1.0, 0.0], [-1.0, -0.5]]
    _assert_first_rows([np.array(s) for s in sets], got)


@DIFFERENTIAL
@given(st.lists(st.lists(st.sampled_from((-2.0, -1e-300, 0.0, 1e-300, 0.5, 1e300)), max_size=5),
                min_size=1, max_size=4))
def test_1d_shapes_match_the_exact_reference(sets):
    D = np.array([r for s in sets for r in s], dtype=float).reshape(-1, 1)
    shape, first, last = _shapes(D, [len(s) for s in sets])
    for s, kind, f, l in zip(sets, shape.tolist(), first.tolist(), last.tolist()):
        _assert_shape_matches((kind, f, l), cone_shape_ref(exact_ints([(c,) for c in s])))


@DIFFERENTIAL
@given(direction_sets(), st.sampled_from(((0.0, 0.0), (0.3, -1.7))), st.sampled_from((0.0, 1e-9, 0.5)))
def test_sampled_bodies_are_the_exact_polar(rows, base, tol):
    # the polar does not depend on tol in 1-D and 2-D
    sample = ContourSample(Point(base), [(base[0] + a, base[1] + b) for a, b in rows])
    assert_body_is_the_shape(body_from_sample(sample, tol), sample_normal_cone_ref(sample))


@DIFFERENTIAL
@given(direction_sets())
def test_oracle_bodies_are_the_exact_cone(rows):
    rows = [r for r in rows if any(r)]
    cone = Cone.generated(rows) if rows else Cone.zero(2)
    assert_body_is_the_shape(cone_unit_hull(cone), oracle_cone_ref(cone))


# --------------------------------------------------------------- listings


def _sample_cones(rel, sampler, ground) -> dict:
    """Each base's exact normal cone from its sample plus its strictly-better
    ground neighbours, those found by ground coordinates."""
    near = strictly_better_neighbours_ref(
        lambda y, x: strictly_prefers(rel, Point(y), Point(x)), ground)
    return {s.base.coords: sample_normal_cone_ref(with_neighbours(s, near[s.base.coords]))
            for s in sampler.samples(ground)}


def _reference_listing(fx, ground):
    if fx.cone_oracle is not None:
        cones = {x.coords: oracle_cone_ref(fx.cone_oracle(x)) for x in ground}
    else:
        cones = _sample_cones(fx.relation, fx.box_sampler, ground)
    return svip_listing_ref(cones, ground)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_listings_match_the_exact_reference(name):
    fx = get_fixture(name)
    ground = fx.default_ground
    got = svip_solutions(fx.relation, ground, fx.cone_oracle, tol=0.0,
                         contour_sampler=fx.box_sampler)
    assert got == _reference_listing(fx, ground)


@pytest.mark.parametrize("spec, count", [("-0.5:2.5:0.1,0.5:3.5:0.1", 1),
                                         ("-0.5:2.5:0.05,0.5:3.5:0.05", 3)])
def test_radial_listings_match_the_exact_reference(radial, spec, count):
    ground = parse_grid_spec(spec)
    got = svip_solutions(radial.relation, ground, tol=0.0, contour_sampler=radial.box_sampler)
    assert got == _reference_listing(radial, ground) and len(got) == count


# -------------------------------------------------- drawn dyadic windows


def _utility(kind, dim, c, a):
    u, cols = window_utility(kind, c[:dim], a[:dim])
    return Relation.from_utility(f"{kind} c={c[:dim]} a={a[:dim]}", dim, u, columns=cols)


_DYADIC = st.integers(-16, 16).map(lambda k: k / 8.0)


@st.composite
def dyadic_windows(draw):
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("bowl", "vee", "kinked")))
    c = (draw(_DYADIC), draw(_DYADIC))
    a = (draw(st.sampled_from((1.0, 2.0, -1.0, 0.5))), draw(st.sampled_from((1.0, -2.0, 0.25))))
    step = draw(st.sampled_from((0.25, 0.125)))
    axes = []
    for _ in range(dim):
        lo, n = draw(_DYADIC), draw(st.integers(2, 20 if dim == 1 else 10))
        axes.append((lo, lo + (n - 1) * step, step))
    radius, sstep = draw(st.sampled_from(((0.5, 0.125), (1.0, 0.25), (0.25, 0.0625))))
    return _utility(kind, dim, c, a), GroundSet.grid(axes), BoxSampler(None, radius, sstep)


@DIFFERENTIAL
@given(dyadic_windows())
def test_dyadic_window_listings_match_the_exact_reference(case):
    rel, ground, box = case
    sampler = BoxSampler(rel, box.radius, box.step)
    got = svip_solutions(rel, ground, tol=0.0, contour_sampler=sampler)
    assert got == svip_listing_ref(_sample_cones(rel, sampler, ground), ground)


def test_the_hull_of_a_grid_is_its_corners():
    ground = GroundSet.grid([(0.0, 1.0, 0.25), (-1.0, 0.0, 0.5)])
    assert sorted(corners(ground)) == [(0.0, -1.0), (0.0, 0.0), (1.0, -1.0), (1.0, 0.0)]
    assert polar_ref((RAY, (1,), (1,))) == (RAY, (-1,), (-1,))
    assert polar_ref((FULL, None, None))[0] == ZERO
