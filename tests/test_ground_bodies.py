"""Sampled Stampacchia bodies for a whole ground against the scalar references.

`vip.bodies_for_ground` with a `BoxSampler` cuts every base's box candidates
from its own axis lattices, meets each block of them against its bases in
one pass, and turns the samples into bodies in one pass. Its samples must
be `box_sample_ref`'s, for column forms off by up to K floats or not
finite, for predicates, and with block budgets that split a ground into
many blocks. Its bodies must be the per-sample ones, whether the samples
come from `BoxSampler.samples` or from the per-base call: in 3-D the net
rows that `normal_membership_ref` accepts, row by row; in 1-D and 2-D the
unit hulls of the exact polars of the cones of the samples plus each
base's strictly-better ground neighbours (`tests/exact_reference.py`), or
empty where those neighbours refute the base, whose sample's body then
has no witness. The zero stage reads a 1-D
or 2-D body's verdict off its shape, exactly: it holds zero where the
polar holds a line.
The bodies that `cones._shape_bodies` builds from sets of directions a hair
inside, on and past a half-turn are the exact reference's shapes, and their
containment is NNLS's at every tol.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import (Cone, ConvexBody, GroundSet, Point, Relation, cone_unit_hull, fixture_names,
                     get_fixture, parse_grid_spec, strictly_prefers)
from prefmax import cones, points, relations
from prefmax.cones import (FULL, HALF, RAY, WEDGE, ZERO, BoxSampler, contains_zero,
                           sampled_bodies, unit_net)
from prefmax.harness import ExperimentSpec, vip_solutions
from prefmax.vip import bodies_for_ground, svip_membership

from exact_reference import (assert_body_is_the_shape, cone_shape_ref, exact_ints, holds_line,
                             sample_normal_cone_ref, strictly_better_neighbours_ref,
                             with_neighbours)
from scalar_reference import (body_contains_ref, box_sample_ref, normal_membership_ref,
                              scalar_holds, strictly_prefers_ref)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=100)

# a peak on the quarter-tenth lattice: its max-norm distance ties exactly
# across many lattice points
PEAK = (0.15, -0.35, 0.05)


def _max_distance(dim):
    peak = PEAK[:dim]
    return lambda x: -max(abs(c - p) for c, p in zip(x, peak))


def _column_form(u, kind):
    """A column form that scores each row with u, then moves the score by
    up to K floats (all up, all down, or a per-point amount), or puts nan
    at every third row."""
    K = relations.K

    def columns(x):
        rows = list(zip(*(np.asarray(c, dtype=float).tolist() for c in x)))
        s = np.array([u(y) for y in rows], dtype=float)
        if kind == "nan":
            s[::3] = np.nan
            return s
        if kind == "mixed":
            k = np.array([hash(y) % (2 * K + 1) - K for y in rows])
        else:
            k = np.full(len(rows), {"up": K, "down": -K, "exact": 0}[kind])
        for _ in range(K):
            s = np.where(k > 0, np.nextafter(s, np.inf),
                         np.where(k < 0, np.nextafter(s, -np.inf), s))
            k = k - np.sign(k)
        return s

    return columns


def _tilted(x, y):
    return x[0] + 0.5 * x[-1] >= y[0] + 0.5 * y[-1]


def _banded(x, y):
    return (abs(x[0] - y[0]) <= 0.25) & (x[-1] >= y[-1])


def _relation(kind, dim):
    if kind in ("tilted", "banded"):
        rule = _tilted if kind == "tilted" else _banded
        rel = Relation.from_predicate(kind, dim, rule)
        return rel, scalar_holds(rel, lambda x, y: bool(rule(x, y)))
    u = _max_distance(dim)
    rel = Relation.from_utility(kind, dim, u, columns=_column_form(u, kind))
    return rel, scalar_holds(rel)


@st.composite
def windows(draw):
    """A relation, a grid of bases (a window on the tenth lattice, or off
    it) and a box radius and step small enough for the scalar references:
    up to 6 bases in 1-D and 2-D, up to 4 in 3-D."""
    dim = draw(st.integers(1, 3))
    axes = []
    for _ in range(dim):
        lo = draw(st.one_of(st.integers(-10, 10).map(lambda k: k / 20.0), st.floats(-1.0, 1.0)))
        n = draw(st.integers(1, 3 if dim == 1 else 2))
        step = draw(st.sampled_from((0.05, 0.1, 0.25)))
        axes.append((lo, lo + (n - 1) * step + step / 4, step))
    ground = GroundSet.grid(axes)
    if dim == 1:
        radius, step = draw(st.sampled_from(((0.25, 0.05), (0.1, 0.05), (2.0, 0.01), (0.3, 0.1))))
    else:
        radius, step = draw(st.sampled_from(((0.2, 0.1), (0.25, 0.1), (0.1, 0.05))))
    kind = draw(st.sampled_from(("exact", "up", "down", "mixed", "nan", "tilted", "banded")))
    return _relation(kind, dim), ground, radius, step


@DIFFERENTIAL
@given(windows(), st.sampled_from((0.0, 1e-9, 1e-3, -1e-9)),
       st.sampled_from((1, 50, 700, points.BLOCK_ENTRIES)))
@example((_relation("exact", 2), GroundSet.grid([(-0.1, 0.3, 0.1), (-0.5, -0.2, 0.1)]), 0.25, 0.1),
         0.0, 50)
@example((_relation("exact", 1), GroundSet.grid([(0.15, 0.3, 0.125)]), 0.25, 0.05), 0.0,
         points.BLOCK_ENTRIES)  # the first candidate of the second base ties with it
@example((_relation("banded", 2), GroundSet.grid([(-0.1, 0.3, 0.1), (0.0, 0.1, 0.1)]), 0.2, 0.1),
         1e-9, 50)
@example((_relation("nan", 2), GroundSet.grid([(0.013, 0.5, 0.3), (-0.21, 0.1, 0.3)]), 0.25, 0.1),
         -1e-9, 1)
def test_stacked_samples_and_bodies_match_the_scalar_references(case, tol, budget):
    # in 1-D and 2-D each sample also holds the base's strictly-better
    # ground neighbours, found by ground coordinates; a base the neighbour
    # screen refutes gets the empty body, and its sample's body has no
    # witness on the ground either
    (rel, h), ground, radius, step = case
    want = [box_sample_ref(h, x, radius, step) for x in ground]
    if ground.dim <= 2:
        near = strictly_better_neighbours_ref(
            lambda y, x: strictly_prefers_ref(h, Point(y), Point(x)), ground)
        decided = [with_neighbours(w, near[w.base.coords]) for w in want]
    else:
        decided = want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        got, blocks = [], 0
        for _, P, kept in cones._box_blocks(rel, ground.array, radius, step):
            got += np.split(P, np.cumsum(kept)[:-1])
            blocks += 1
        stacked = bodies_for_ground(rel, ground, tol=tol,
                                    contour_sampler=BoxSampler(rel, radius, step))
        per_sample = sampled_bodies(decided, tol)
    assert [g.tolist() for g in got] == [w.points.tolist() for w in want]
    if budget == 1:
        assert blocks == len(ground)
    for x, sample, body in zip(ground, decided, per_sample):
        if ground.dim == 3:
            assert stacked[x.coords] == body
            rows = [u for u in unit_net(3).tolist() if normal_membership_ref(sample, u, tol)]
            assert body.vertices.tolist() == rows
            continue
        zero = tol >= 0.0 and holds_line(sample_normal_cone_ref(sample))
        assert contains_zero(body, tol) == zero
        if stacked[x.coords] != body:
            assert stacked[x.coords].is_empty and not zero
            assert svip_membership(body, x, ground, tol) is None


def test_a_column_form_scores_each_block_of_candidates_once(radial):
    # radial-bowl's 169 bases, 286,793 candidates: the column form runs once
    # per block, on exactly that block's candidates, base after base, and
    # the stacked samples are the per-base box samples
    calls = []

    def columns(x):
        calls.append(np.column_stack(x))
        return radial.relation.columns(x)

    rel = Relation.from_utility("counted", 2, radial.relation.utility, columns=columns)
    ground, radius, step = radial.default_ground, radial.sample_radius, radial.sample_step
    blocks = list(cones._box_blocks(rel, ground.array, radius, step))
    assert len(blocks) > 1 and len(calls) == len(blocks)
    for (blk, P, kept), Y in zip(blocks, calls):
        want = [cones._box_candidates(x, radius, step) for x in ground[blk]]
        assert Y.tolist() == np.concatenate(want).tolist()
        got = np.split(P, np.cumsum(kept)[:-1])
        assert [g.tolist() for g in got] == [
            cones.box_sample(radial.relation, x, radius, step).points.tolist() for x in ground[blk]]
    assert blocks[-1][0].stop == len(ground)


@pytest.mark.parametrize("tol", (0.0, 1e-9))
@pytest.mark.parametrize("name, spec", [("radial-bowl", None), ("band-threshold", None),
                                        ("radial-bowl", "-0.5:2.5:0.1,0.5:3.5:0.1")])
def test_box_sampler_bodies_are_the_per_base_samplers(name, spec, tol):
    # the ground-level `BoxSampler.samples` and the per-base callable give
    # every base the same body: the harness decides through the one, the
    # benchmark's `vip` reference lists through the other
    fx = get_fixture(name)
    ground = fx.default_ground if spec is None else parse_grid_spec(spec)
    batched = bodies_for_ground(fx.relation, ground, tol=tol, contour_sampler=fx.box_sampler)
    per_base = bodies_for_ground(fx.relation, ground, tol=tol, contour_sampler=fx.contour_sampler)
    assert list(batched) == list(per_base) == [x.coords for x in ground]
    for x in ground:
        assert batched[x.coords] == per_base[x.coords]
        assert (getattr(batched[x.coords], "_holds_zero", None)
                == getattr(per_base[x.coords], "_holds_zero", None))


# ------------------------------------------------------------- zero test


@pytest.mark.parametrize("name", fixture_names())
def test_zero_verdicts_are_the_exact_polars(name):
    # every body of a box sample plus its base's strictly-better ground
    # neighbours on a fixture's default ground, and every body that
    # `bodies_for_ground` gives there with the box sampler, holds zero at
    # tol >= 0 exactly where the exact polar holds a line, and at no
    # negative tol
    fx = get_fixture(name)
    ground = fx.default_ground
    near = strictly_better_neighbours_ref(
        lambda y, x: strictly_prefers(fx.relation, Point(y), Point(x)), ground)
    samples = [with_neighbours(s, near[s.base.coords]) for s in fx.box_sampler.samples(ground)]
    for tol in (0.0, 1e-9, -1e-9):
        bodies = bodies_for_ground(fx.relation, ground, tol=tol, contour_sampler=fx.box_sampler)
        for sample, body in zip(samples, sampled_bodies(samples, tol)):
            zero = tol >= 0.0 and holds_line(sample_normal_cone_ref(sample))
            assert contains_zero(body, tol) == zero
            assert contains_zero(bodies[sample.base.coords], tol) == zero


def _degree(k):
    """The unit vector at k whole degrees, exact on the axes."""
    axes = {0: (1.0, 0.0), 90: (0.0, 1.0), 180: (-1.0, 0.0), 270: (0.0, -1.0)}
    return axes.get(k % 360, (math.cos(math.radians(k)), math.sin(math.radians(k))))


def _directions(dim, rows):
    if dim == 1:
        return np.array([unit_net(1)[k] for k in rows], dtype=float).reshape(-1, 1)
    return np.array([_degree(k) for k in rows], dtype=float).reshape(-1, 2)


# sets of directions at whole degrees whose largest cyclic gap is 179, 180
# or 181 degrees (the plane, a half-plane, a wedge), a single direction, no
# direction, and all 360; and the rows of unit_net(1), one, both or none
BUILT = [(2, (0, 179, 270), FULL), (2, (0, 180, 270), HALF), (2, (0, 179), WEDGE),
         (2, (5, 186), WEDGE), (2, (90,), RAY), (2, (), ZERO), (2, tuple(range(360)), FULL),
         (1, (0,), RAY), (1, (1,), RAY), (1, (0, 1), FULL), (1, (), ZERO)]


@pytest.mark.parametrize("tol", (0.0, 1e-13, 1e-9, 1e-3, 0.5, -1e-9))
@pytest.mark.parametrize("dim, rows, kind", BUILT)
def test_built_shape_bodies_match_the_nnls_reference(dim, rows, kind, tol):
    # the body of the cone of each set: its shape is the exact reference's,
    # its zero verdict holds exactly where the cone holds a line, and
    # containment is NNLS's at every tol
    D = _directions(dim, rows)
    shape, first, last = cones._shapes(D, [len(D)])
    assert shape.tolist() == [kind]
    want = cone_shape_ref(exact_ints(D.tolist()))
    assert want[0] == kind
    body = cones._shape_bodies(shape, first, last)[0]
    assert_body_is_the_shape(body, want)
    if D.size:
        assert body == cone_unit_hull(Cone.generated(D.tolist()))
    line = holds_line(want)
    assert contains_zero(body, tol) is (line and tol >= 0.0)
    zero = (0.0,) * dim
    nnls = body_contains_ref(body, zero, tol)
    assert body.contains(zero, tol) == nnls
    if line and tol >= 1e-13:
        assert nnls  # zero inside the body, or on its segment through zero
    elif not line and tol <= 1e-3:
        assert not nnls  # the arc of a wedge short of a half-turn clears tol


def test_shapes_of_a_batch_are_each_sets_own():
    # one pass over all the 2-D sets, with empty sets between them, gives
    # each set the shape and edges of a pass over that set alone
    sets = [_directions(2, rows) for dim, rows, _ in BUILT if dim == 2]
    sets = [s for t in sets for s in (t, np.zeros((0, 2)))]
    shape, first, last = cones._shapes(np.concatenate(sets), [len(s) for s in sets])
    for s, kind, f, l in zip(sets, shape.tolist(), first.tolist(), last.tolist()):
        own = cones._shapes(s, [len(s)])
        assert (kind, f, l) == (own[0][0], own[1][0].tolist(), own[2][0].tolist())


def test_a_body_not_built_from_a_shape_runs_the_hull_test():
    body = ConvexBody(2, ((1.0, 0.0), (-1.0, 0.5), (-1.0, -0.5)))
    assert not hasattr(body, "_holds_zero")
    assert contains_zero(body, 1e-9) is True
    assert contains_zero(ConvexBody(2, ((1.0, 0.0), (0.0, 1.0))), 1e-9) is False


def test_the_radial_zero_stage_needs_no_solve(monkeypatch):
    # at tol 1e-9 every radial-bowl body's zero verdict comes from its gaps
    def refuse(*args, **kwargs):
        raise AssertionError("ConvexBody.contains called")

    monkeypatch.setattr(ConvexBody, "contains", refuse)
    ground, sols = vip_solutions(ExperimentSpec(fixture="radial-bowl", tol=1e-9), "svip")
    assert [p.coords for p in sols] == [(1.0, 2.0)] and len(ground) == 169
