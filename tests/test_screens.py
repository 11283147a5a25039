"""The refuting screens of the Stampacchia and Minty sweeps, and the fixtures'
cones, which each oracle builds once.

`vip._stampacchia` first meets its open bases at the ground's extreme rows,
and `vip._minty_holds` its candidates at a few entries of the cone field;
only what these screens leave open meets the whole ground or field. The
screens only refute, so every witness and verdict must be that of the
screen-free sweeps in tests/scalar_reference.py, witness for witness by
repr, on grids and on explicit grounds whose hull is not a box, at every
block budget.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import (
    Cone,
    ConvexBody,
    GroundSet,
    Point,
    fixture_names,
    get_fixture,
    mvip_membership,
    mvip_solutions,
    pt,
)
from prefmax import points, vip
from prefmax.cones import sampled_bodies

from scalar_reference import (
    FIXTURE_CONES_REF,
    minty_holds_unscreened_ref,
    mvip_membership_ref,
    mvip_solutions_ref,
    probe_fan,
    stampacchia_unscreened_ref,
)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=80)
TOLS = st.sampled_from((0.0, 1e-9, 1e-3))
# block budgets that put one base or candidate, or a few, in each block, and the default
BUDGETS = st.sampled_from((1, 7, 64, points.BLOCK_ENTRIES))
CONE_FIXTURES = [n for n in fixture_names() if get_fixture(n).cone_oracle is not None]

_quarter = st.sampled_from((-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0))


# --------------------------------------------------------------- Stampacchia


def _directions(draw, dim: int, n: int) -> list:
    """n unit vectors of R^dim, from random angles or normalised draws."""
    if dim == 1:
        return [(draw(st.sampled_from((-1.0, 1.0))),) for _ in range(n)]
    if dim == 2:
        angles = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
        return [(np.cos(a), np.sin(a)) for a in angles]
    out = []
    for _ in range(n):
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        nv = np.linalg.norm(v)
        out.append(tuple((v / nv).tolist()) if nv > 1e-3 else (0.0, 0.0, 1.0))
    return out


@st.composite
def _explicit_grounds(draw):
    # an explicit ground in 1-D to 3-D: points on a circle or sphere, whose
    # hull is no box, and convex combinations of them inside it, with
    # quarter-lattice points that make exact ties and exact-zero products;
    # the bases are ground points on the hull and inside it, and points
    # inside the hull that are not in the ground; each base gets a body
    # from a small pool (empty, the unit net, an arc or a pair that keeps
    # zero out, random vertices), shared or copied into an equal object
    dim = draw(st.integers(1, 3))
    radius = draw(st.sampled_from((0.5, 1.0, 3.0)))
    hull = [tuple(radius * c for c in u) for u in _directions(draw, dim, draw(st.integers(1, 8)))]
    inside = []
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, len(hull) - 1)), draw(st.integers(0, len(hull) - 1))
        t = draw(st.floats(0.0, 1.0))
        inside.append(tuple(t * a + (1.0 - t) * b for a, b in zip(hull[i], hull[j])))
    lattice = draw(st.lists(st.tuples(*[_quarter] * dim), max_size=6))
    ground = list(dict.fromkeys(hull + inside + lattice))
    G = np.array(ground, dtype=float).reshape(len(ground), dim)
    bases = draw(st.lists(st.sampled_from(ground), min_size=1, max_size=12))
    bases += [tuple(0.5 * (a + b) for a, b in zip(hull[0], p)) for p in inside[:3]]
    B = np.array(bases, dtype=float).reshape(len(bases), dim)
    pool = []
    for kind in draw(st.lists(st.sampled_from(("empty", "net", "arc", "pair", "points")),
                              min_size=1, max_size=4)):
        if kind == "empty":
            pool.append(ConvexBody(dim, ()))
        elif kind == "net":
            pool.append(ConvexBody(dim, probe_fan(dim)))
        elif kind == "pair" and dim == 2:
            q = draw(st.sampled_from((0.25, 0.5, 1.0)))
            pool.append(ConvexBody(2, ((q, 1.0), (-q, 1.0))))
        elif kind == "arc" and dim == 2:
            arc, start = draw(st.floats(0.1, 3.0)), draw(st.floats(0.0, 2 * np.pi))
            angles = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
            pool.append(ConvexBody(2, tuple(dict.fromkeys(
                (np.cos(start + arc * a), np.sin(start + arc * a)) for a in angles))))
        else:
            verts = draw(st.lists(st.tuples(*[_quarter] * dim), min_size=1, max_size=5,
                                  unique=True))
            pool.append(ConvexBody(dim, verts))
    bodies = []
    for _ in bases:
        body = pool[draw(st.integers(0, len(pool) - 1))]
        bodies.append(ConvexBody(dim, body.vertices) if draw(st.booleans()) else body)
    return bodies, B, G


def _grid_case(step: float):
    # every point of a grid a base, each with a body that keeps zero out:
    # arcs of unit vectors that face the grid's middle from two sides
    G = GroundSet.grid([(0.0, 1.0, step), (0.0, 1.0, step)]).array()
    left = ConvexBody(2, ((1.0, 0.0), (0.8, 0.6)))
    right = ConvexBody(2, ((-1.0, 0.0), (-0.8, -0.6)))
    return [left if x < 0.5 else right for x, _ in G], G, G


@DIFFERENTIAL
@given(_explicit_grounds(), TOLS, BUDGETS)
@example(_grid_case(0.25), 0.0, 1)
@example(_grid_case(0.1), 1e-9, points.BLOCK_ENTRIES)
@example(([ConvexBody(1, ((-1.0,),))] * 3, np.array([[0.0], [1e200], [-1e200]]),
          np.array([[0.0], [1e200], [-1e200]])), 1e-9, 1)
def test_screened_stampacchia_is_the_unscreened_sweep(case, tol, budget):
    bodies, B, G = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        got = vip._stampacchia(bodies, B, G, tol)
        assert repr(got) == repr(stampacchia_unscreened_ref(bodies, B, G, tol))


def test_extreme_rows_are_the_first_maximisers_in_ground_order():
    # a grid's ties go to its corners: a 3 x 3 grid's edge midpoints tie
    # with a corner that comes first in ground order
    G = GroundSet.grid([(0.0, 1.0, 0.5), (0.0, 1.0, 0.5)]).array()
    assert vip._extreme_rows(G).tolist() == [0, 2, 6, 8]
    G = np.array(list(product((0.0, 1.0, 2.0), repeat=3)))
    assert vip._extreme_rows(G).tolist() == [0, 2, 6, 8, 18, 20, 24, 26]
    # a repeated row: the first copy
    G = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    assert vip._extreme_rows(G).tolist() == [0, 2, 3, 4]
    G = np.array([[float(x)] for x in (3, 1, 3, -2, -2)])
    assert vip._extreme_rows(G).tolist() == [0, 3]
    # on the unit sphere each of the 26 directions has its own maximiser
    V = np.array([v for v in product((-1.0, 0.0, 1.0), repeat=3)])
    G = V / np.maximum(np.linalg.norm(V, axis=1), 1.0)[:, None]
    assert vip._extreme_rows(G).tolist() == [i for i in range(27) if i != 13]
    assert vip._extreme_rows(np.zeros((0, 2))).tolist() == []


def _blocks_met(monkeypatch) -> list:
    # (bases, ground rows) of every block that `vip._margin_blocks` yields
    met = []
    margins = vip._margin_blocks

    def spy(bodies, bases, B, G, tol):
        for block, V, D, S in margins(bodies, bases, B, G, tol):
            met.append((len(block), len(G)))
            yield block, V, D, S

    monkeypatch.setattr(vip, "_margin_blocks", spy)
    return met


def test_the_screen_settles_radial_bases_at_the_extreme_rows(radial, monkeypatch):
    # on radial-bowl's default grid every base but the peak, whose body
    # holds zero, is refuted at the grid's extreme rows, its 4 corners, and
    # none meets the whole ground; the bodies are those of the box samples
    # alone, which the neighbour screen of `bodies_for_ground` would mostly
    # leave empty
    ground = radial.default_ground
    bodies = dict(zip((x.coords for x in ground),
                      sampled_bodies(radial.box_sampler.samples(ground))))
    met = _blocks_met(monkeypatch)
    G = ground.array()
    found = vip._stampacchia([bodies[x.coords] for x in ground], G, G, 1e-9)
    assert found == stampacchia_unscreened_ref([bodies[x.coords] for x in ground], G, G, 1e-9)
    assert {g for _, g in met} == {4}
    assert sum(n for n, _ in met) == len(ground) - 1


def test_a_ground_of_extreme_rows_alone_is_swept_once(monkeypatch):
    # two 1-D points are both extreme rows: no screen, one sweep
    met = _blocks_met(monkeypatch)
    G = np.array([[0.0], [1.0]])
    body = ConvexBody(1, ((1.0,),))
    assert vip._stampacchia([body, body], G, G, 0.0) == [(1.0,), None]
    assert met == [(2, 2)]


def test_a_base_the_screen_leaves_open_goes_to_the_midpoints_and_the_segment(monkeypatch):
    # the segment (1, 1)-(2, 2) at xhat = 0, tol 0. At the far displacement
    # d1 = (1e6, -(1e6 + u)), u = 2^-33 one ulp of 1e6, the vertices fail by
    # u and 2u, below their rounding slack 8 eps sum_k |v_k| |d_k| (about
    # 3.6e-9 and 7.1e-9); at the near one d2 = (-1e-11, -1e-11) they fail by
    # 2e-11 and 4e-11, far above theirs. The screen tests only d1, where the
    # smallest margin is largest, and leaves the base open, although d2
    # refutes every vertex by more than rounding; the midpoint sweep and
    # the segment's interval then decide it, and both find no witness
    u = 2.0 ** -33
    G = np.array([[1e6, -(1e6 + u)], [-1e-11, -1e-11]])
    B = np.zeros((1, 2))
    body = ConvexBody(2, ((1.0, 1.0), (2.0, 2.0)))
    [(block, V, D, S)] = vip._margin_blocks([body], [0], B, G, 0.0)
    assert S.tolist() == [[[u, 2e-11], [2 * u, 4e-11]]]
    slack = vip._EPS8 * points.rowdot(np.abs(V)[:, :, None, :], np.abs(D)[:, None, :, :])
    assert (S[..., 0] <= slack[..., 0]).all() and (S[..., 1] > slack[..., 1]).all()
    assert vip._refuted(S, V, D).tolist() == [False]
    late = []
    for name in ("_midpoint_witness", "_segment_witness"):
        stage = getattr(vip, name)
        monkeypatch.setattr(vip, name, lambda *args, stage=stage: late.append(stage(*args)) or late[-1])
    assert vip._stampacchia([body], B, G, 0.0) == [None]
    assert late == [None, None]


# --------------------------------------------------------------------- Minty


_gen2 = st.sampled_from(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.5, -0.5), (0.25, 1.0)))


@st.composite
def _cone_fields(draw):
    # a 1-D or 2-D ground whose cones repeat a few generators across points
    # and within one cone, with zero cones and often two or more full
    # cones; the candidates are the ground and points off it. A field of
    # one generator direction and zero cones has a Minty set, whose
    # boundary the test probes
    dim = draw(st.integers(1, 2))
    gen = st.sampled_from(((-1.0,), (2.0,), (0.5,))) if dim == 1 else _gen2
    if draw(st.booleans()):
        g = draw(gen)
        gen = st.sampled_from([tuple(c * a for a in g) for c in (1.0, 0.5, 3.0)])
        cone = st.one_of(st.just(Cone.zero(dim)),
                         st.lists(gen, min_size=1, max_size=3).map(Cone.generated))
    else:
        cone = st.one_of(st.just(Cone.full(dim)), st.just(Cone.zero(dim)),
                         st.lists(gen, min_size=1, max_size=4).map(Cone.generated))
    coord = st.one_of(_quarter, st.floats(-2.0, 2.0))
    items = draw(st.lists(st.tuples(st.tuples(*[coord] * dim), cone), min_size=1, max_size=25,
                          unique_by=lambda item: item[0]))
    cones = {Point(p).coords: c for p, c in items}
    outside = draw(st.lists(st.tuples(*[coord] * dim), max_size=5))
    return cones, [Point(p) for p in cones], [Point(p) for p in outside]


_TWO_FULL = ({(0.0,): Cone.full(1), (0.5,): Cone.ray((-1.0,)), (1.0,): Cone.full(1),
              (2.0,): Cone.zero(1), (3.0,): Cone.generated(((-1.0,), (-1.0,)))},
             [pt(0.0), pt(0.5), pt(1.0), pt(2.0), pt(3.0)], [pt(1.5), pt(-4.0)])


@DIFFERENTIAL
@given(_cone_fields(), st.sampled_from((0.0, 1e-9, 1e-3, 0.5)), BUDGETS,
       st.lists(st.floats(-2.0, 2.0), max_size=4))
@example(_TWO_FULL, 0.0, 1, [])
@example(_TWO_FULL, 1e-9, points.BLOCK_ENTRIES, [-0.75])
@example(({(0.0,): Cone.ray((1.0,)), (1e200,): Cone.full(1), (-1e200,): Cone.zero(1)},
          [pt(0.0), pt(1e200), pt(-1e200)], [pt(5e199)]), 1e-9, 1, [])
def test_screened_minty_is_the_unscreened_test(case, tol, budget, shifts):
    # besides the ground and points off it, the candidates y + s tol g for
    # every entry (g, y) of the field, near the boundary of its inequality,
    # where a screen that tested anything but the field's own expression
    # would decide otherwise
    cones, X, outside = case
    oracle = lambda y: cones[y.coords]
    dim = X[0].dim
    field = vip._cone_field(oracle, X, dim)
    outside += [Point(tuple(y + s * tol * g)) for s in shifts for g, y in zip(field.units, field.at)]
    C = np.array([p.coords for p in X + outside], dtype=float).reshape(-1, dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        assert vip._minty_holds(field, C, tol).tolist() \
            == minty_holds_unscreened_ref(field, C, tol).tolist()
        assert mvip_solutions(oracle, X, tol) == mvip_solutions_ref(oracle, X, tol)
        for p in outside:
            assert mvip_membership(oracle, p, X, tol) == mvip_membership_ref(oracle, p, X, tol)


def test_the_minty_screen_keeps_one_entry_per_generator_and_two_full_cones():
    # generator (-1,) is least <g, y> at the last of its points, 3.0, and
    # appears twice there; of the three full cones the first and last stay
    cones = {(0.0,): Cone.full(1), (0.5,): Cone.ray((-1.0,)), (1.0,): Cone.full(1),
             (2.0,): Cone.full(1), (3.0,): Cone.generated(((-1.0,), (-1.0,))),
             (4.0,): Cone.ray((2.0,)), (5.0,): Cone.ray((1.0,))}
    field = vip._cone_field(lambda y: cones[y.coords], [pt(x) for x, in cones], 1)
    sub = vip._minty_screen(field)
    assert sub.units.tolist() == [[-1.0], [1.0]]
    assert sub.at.tolist() == [[3.0], [4.0]]
    assert sub.full.tolist() == [[0.0], [2.0]]


def test_kinked_threshold_candidates_never_meet_the_whole_field(kinked, monkeypatch):
    # the screen's two entries, the ray (-1,) at y = 1 and the full cone at
    # 0, reject each of 2,001 candidates, so none meets the whole field
    X = GroundSet.grid([(-1.0, 1.0, 0.001)])
    sizes = []
    test = vip._minty_fails
    monkeypatch.setattr(vip, "_minty_fails",
                        lambda field, C, tol: sizes.append((len(field.units), len(C)))
                        or test(field, C, tol))
    assert mvip_solutions(kinked.cone_oracle, X) == []
    assert sizes == [(1, 2001), (2000, 0)]


# --------------------------------------------------------------------- cones


def test_every_cone_fixture_has_a_reference_oracle():
    assert set(FIXTURE_CONES_REF) == set(CONE_FIXTURES)


@pytest.mark.parametrize("name", CONE_FIXTURES)
def test_fixture_cones_are_built_once(name):
    # at every point of the default and extended grounds the oracle's cone
    # equals the one a per-call constructor builds, and equal cones are
    # one object
    fx = get_fixture(name)
    seen = {}
    for x in list(fx.default_ground) + list(fx.me_ground()):
        cone = fx.cone_oracle(x)
        assert cone == FIXTURE_CONES_REF[name](x)
        assert seen.setdefault(cone, cone) is cone


def test_the_on_axis_fixtures_share_two_cones(halfline, segment):
    for p in (pt(0.5, 0.0), pt(0.5, 0.25)):
        assert halfline.cone_oracle(p) is segment.cone_oracle(p)
