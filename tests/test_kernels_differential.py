"""Array kernels against their scalar references (tests/scalar_reference.py).

Contour samples must hold the same points in the same order, Stampacchia
sweeps must return the same witness (or None), and Minty sweeps the same
solution list, on every fixture in both hull modes, on random tabular
relations and on random bodies and cone fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (
    Cone,
    ConvexBody,
    GroundSet,
    Point,
    box_sample,
    fixture_names,
    get_fixture,
    mvip_membership,
    mvip_solutions,
    pt,
    random_tabular_relation,
    sample_contour,
    strictly_prefers,
    svip_membership,
)
from prefmax.relations import strictly_better_mask
from prefmax.vip import bodies_for_ground

from scalar_reference import (
    box_sample_ref,
    mvip_membership_ref,
    mvip_solutions_ref,
    sample_contour_ref,
    svip_sweep_ref,
)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=60)
FIXTURES = fixture_names()
CONE_FIXTURES = [n for n in FIXTURES if get_fixture(n).cone_oracle is not None]
TOLS = (0.0, 1e-9)


# ------------------------------------------------------------ contour samples


@DIFFERENTIAL
@given(st.sampled_from(FIXTURES), st.integers(0, 10 ** 6))
def test_fixture_box_samples_match(name, pick):
    fx = get_fixture(name)
    ground = list(fx.default_ground)
    x = ground[pick % len(ground)]
    got = fx.contour_sampler(x)
    assert got == box_sample_ref(fx.relation, x, fx.sample_radius, fx.sample_step)


@DIFFERENTIAL
@given(st.sampled_from(FIXTURES), st.integers(0, 10 ** 6),
       st.sampled_from((0.05, 0.3, 1.0)), st.sampled_from((0.05, 0.1, 0.25)))
def test_box_samples_match_at_other_radii_and_steps(name, pick, radius, step):
    fx = get_fixture(name)
    ground = list(fx.default_ground)
    x = ground[pick % len(ground)]
    assert box_sample(fx.relation, x, radius, step) == box_sample_ref(fx.relation, x, radius, step)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_ground_samples_match(name):
    fx = get_fixture(name)
    for x in list(fx.default_ground)[::7]:
        assert sample_contour(fx.relation, x, fx.default_ground) \
            == sample_contour_ref(fx.relation, x, fx.default_ground)


@DIFFERENTIAL
@given(st.integers(2, 12), st.sampled_from(("uniform", "closure", "utility")),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_tabular_samples_and_masks_match(n, style, dim, seed):
    rel = random_tabular_relation(np.random.default_rng(seed), n, style, dim)
    ground = GroundSet.explicit(rel.table_ground)
    coords = [y.coords for y in ground]
    for x in ground:
        assert sample_contour(rel, x, ground) == sample_contour_ref(rel, x, ground)
        assert strictly_better_mask(rel, x, coords) == [strictly_prefers(rel, y, x) for y in ground]


def test_mask_rejects_foreign_and_mismatched_points():
    rel = random_tabular_relation(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        strictly_better_mask(rel, pt(0.0), [(0.5,)])
    with pytest.raises(ValueError):
        strictly_better_mask(rel, pt(0.0), [(1.0, 0.0)])
    assert strictly_better_mask(rel, pt(0.0, 0.0), []) == []


# --------------------------------------------------------------- Stampacchia


# without a cone oracle the hull mode does not enter the bodies
@pytest.mark.parametrize("name,mode", [(n, m) for n in FIXTURES for m in ("T", "G")
                                       if m == "T" or get_fixture(n).cone_oracle is not None])
def test_fixture_witnesses_match(name, mode):
    fx = get_fixture(name)
    ground = fx.default_ground
    bodies = bodies_for_ground(fx.relation, ground, fx.cone_oracle, ball_on_empty=(mode == "G"),
                               contour_sampler=fx.contour_sampler)
    for x in ground:
        for tol in TOLS:
            body = bodies[x.coords]
            assert svip_membership(body, x, ground, tol) == svip_sweep_ref(body, x, ground, tol)


_quarter = st.sampled_from((-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0))
_coord = st.one_of(_quarter, st.floats(-2.0, 2.0))
_point2 = st.tuples(_coord, _coord)


@st.composite
def _bodies_and_grounds(draw):
    # vertices in an arc narrower than a half-turn keep zero out of the body,
    # so the sweep runs past the zero test; quarter-lattice coordinates make
    # exact-zero inner products, where tol=0 decides on the sign alone
    arc = draw(st.floats(0.1, 3.0))
    start = draw(st.floats(0.0, 2 * np.pi))
    angles = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    verts = [pt(np.cos(start + arc * a), np.sin(start + arc * a)) for a in angles]
    verts += [pt(*p) for p in draw(st.lists(_point2, max_size=4))]
    ground = draw(st.lists(_point2, min_size=1, max_size=30, unique=True))
    xhat = pt(*draw(_point2))
    if draw(st.booleans()):
        ground.append(xhat.coords)  # xhat is itself a point of X
    return ConvexBody(2, tuple(dict.fromkeys(verts))), xhat, [Point(p) for p in dict.fromkeys(ground)]


@DIFFERENTIAL
@given(_bodies_and_grounds(), st.sampled_from((0.0, 1e-9, 1e-3)))
def test_random_2d_witnesses_match(case, tol):
    body, xhat, X = case
    assert svip_membership(body, xhat, X, tol) == svip_sweep_ref(body, xhat, X, tol)


@DIFFERENTIAL
@given(st.lists(st.sampled_from((-1.0, -0.5, 0.5, 1.0)), min_size=1, max_size=2, unique=True),
       st.lists(_quarter, min_size=1, max_size=12, unique=True), _quarter, st.sampled_from(TOLS))
def test_random_1d_witnesses_match(verts, ground, x, tol):
    body = ConvexBody(1, tuple(pt(v) for v in verts))
    X = [pt(g) for g in ground]
    assert svip_membership(body, pt(x), X, tol) == svip_sweep_ref(body, pt(x), X, tol)


def test_midpoint_witness_found_after_vertices_fail():
    # neither vertex passes, their midpoint (0, 1) does
    body = ConvexBody(2, (pt(1.0, 1.0), pt(-1.0, 1.0)))
    X = [pt(0.0, 0.0), pt(2.0, 1.0), pt(-2.0, 1.0)]
    cert = svip_membership(body, pt(0.0, 0.0), X, 0.0)
    assert cert is not None and cert.witness == pt(0.0, 1.0)
    assert cert == svip_sweep_ref(body, pt(0.0, 0.0), X, 0.0)


def test_midpoint_sweep_returns_the_first_witness_across_blocks():
    # unit vertices at 0..39 degrees; two ground points leave only witness
    # directions between 30.4 and 30.6 degrees, met by the midpoints (i, j)
    # with i + j = 61; against 402 ground points they fall in two different
    # blocks of the sweep, and the first in (i, j) order is (22, 39)
    deg = lambda a: pt(np.cos(np.deg2rad(a)), np.sin(np.deg2rad(a)))
    body = ConvexBody(2, tuple(deg(a) for a in range(40)))
    rng = np.random.default_rng(5)
    X = [deg(30.4 + 90.0), deg(30.6 - 90.0)]
    X += [Point(tuple(r * np.array(deg(a).coords)))
          for a, r in zip(rng.uniform(-39.5, 100.5, 400), rng.uniform(0.1, 2.0, 400))]
    xhat = pt(0.0, 0.0)
    cert = svip_membership(body, xhat, X, 1e-9)
    mid = tuple(0.5 * (a + b) for a, b in zip(deg(22), deg(39)))
    assert cert is not None and cert.witness == Point(mid)
    assert cert == svip_sweep_ref(body, xhat, X, 1e-9)


# --------------------------------------------------------------------- Minty


@pytest.mark.parametrize("name", CONE_FIXTURES)
def test_fixture_minty_sets_match(name):
    fx = get_fixture(name)
    for tol in TOLS:
        assert mvip_solutions(fx.cone_oracle, fx.default_ground, tol) \
            == mvip_solutions_ref(fx.cone_oracle, fx.default_ground, tol)


def test_minty_calls_the_oracle_once_per_ground_point(kinked):
    calls = []

    def oracle(p):
        calls.append(p)
        return kinked.cone_oracle(p)

    mvip_solutions(oracle, kinked.default_ground)
    assert calls == list(kinked.default_ground)


def test_full_cone_axis_fan_decides_where_the_self_direction_rounds_low():
    # d = (-a,): (d / ||d||) . d rounds to just below a = max |d_i|, and the
    # tolerance puts the bound between the two, so only the axis fan rejects
    a = 1.9896196208960126
    tol = 0.6655092865291363
    cones = {(0.0,): Cone.zero(1), (a,): Cone.full(1)}
    oracle = lambda y: cones[y.coords]
    X = [pt(0.0), pt(a)]
    assert not mvip_membership(oracle, pt(0.0), X, tol)
    assert not mvip_membership_ref(oracle, pt(0.0), X, tol)


def test_full_cone_self_direction_decides_at_a_large_tolerance():
    # d = (1, 1) at tol 0.5: max |d_i| = 1 stays under 0.5 (1 + sqrt 2), while
    # (d / ||d||) . d = sqrt 2 exceeds it, so only (1, 1) itself solves
    cones = {(0.0, 0.0): Cone.zero(2), (1.0, 1.0): Cone.full(2)}
    oracle = lambda y: cones[y.coords]
    X = [pt(0.0, 0.0), pt(1.0, 1.0)]
    assert mvip_solutions(oracle, X, 0.5) == mvip_solutions_ref(oracle, X, 0.5) == [pt(1.0, 1.0)]


_gen = st.tuples(_quarter, _quarter).filter(lambda g: g != (0.0, 0.0))
_cone2 = st.one_of(st.just(Cone.full(2)), st.just(Cone.zero(2)),
                   st.lists(_gen, min_size=1, max_size=4).map(Cone.generated))


@DIFFERENTIAL
@given(st.lists(st.tuples(_point2, _cone2), min_size=1, max_size=25,
                unique_by=lambda item: item[0]),
       _point2, st.sampled_from(TOLS + (0.5,)))
def test_random_2d_minty_fields_match(field, outside, tol):
    cones = {Point(p).coords: cone for p, cone in field}
    X = [Point(p) for p in cones]
    oracle = lambda y: cones[y.coords]
    assert mvip_solutions(oracle, X, tol) == mvip_solutions_ref(oracle, X, tol)
    # a candidate that need not lie in X
    xhat = Point(outside)
    assert mvip_membership(oracle, xhat, X, tol) == mvip_membership_ref(oracle, xhat, X, tol)


@DIFFERENTIAL
@given(st.lists(st.tuples(_quarter, st.sampled_from(("full", "zero", "left", "right", "both"))),
                min_size=1, max_size=20, unique_by=lambda item: item[0]),
       st.sampled_from(TOLS + (0.5,)))
def test_random_1d_minty_fields_match(field, tol):
    make = {"full": Cone.full(1), "zero": Cone.zero(1), "left": Cone.ray((-1.0,)),
            "right": Cone.ray((2.0,)), "both": Cone.generated(((-0.5,), (3.0,)))}
    cones = {(x,): make[kind] for x, kind in field}
    X = GroundSet.explicit(pt(x) for x, _ in field)
    oracle = lambda y: cones[y.coords]
    assert mvip_solutions(oracle, X, tol) == mvip_solutions_ref(oracle, X, tol)
