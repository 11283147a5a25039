"""Sampled cone bodies and box-sample lattices against their references.

In 1-D and 2-D, `body_from_sample` gives the unit hull of the exact polar
of the sample's cone (`tests/exact_reference.py`), whatever tol, on samples
built to sit on its edges: displacements along, at and a hair past right
angles to one another, exactly opposite, and spanning a hair less than,
exactly and a hair more than a half-turn. Each of its vertices passes the
membership kernel's scalar reference wherever tol clears rounding, and in
1-D, at tol 0, its vertices are the net rows that reference accepts. In
3-D the rows that `body_from_sample` keeps must be those the membership
kernel (`normal_membership_many`) and its scalar reference accept, in net
order, on random samples. `_box_candidates` takes each axis's lattices from
a cache shared across bases, and must still give the `np.isin` reference's
candidates.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import ContourSample, Point, body_from_sample, get_fixture, normal_membership_many
from prefmax import cones
from prefmax.cones import _box_axis, _box_candidates, contains_zero, unit_net
from prefmax.points import axis_lattice
from prefmax.vip import bodies_for_ground

from exact_reference import assert_body_is_the_shape, holds_line, sample_normal_cone_ref
from scalar_reference import (box_candidates_isin_ref, fine_axis_ref, normal_membership_ref,
                              probe_fan)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=80)
TOLS = (0.0, 1e-9, 1e-3, 0.5)

# 10^e for e in [-10, 1]: below, at and above every tolerance in TOLS
magnitude = st.floats(-10.0, 1.0).map(lambda e: 10.0 ** e)


def _assert_body_is_the_kernels(sample, tol):
    net = unit_net(sample.base.dim)
    got = body_from_sample(sample, tol).vertices.tolist()
    assert got == net[normal_membership_many(sample, net, tol)].tolist()
    assert got == [v for v in net.tolist() if normal_membership_ref(sample, v, tol)]


def _assert_body_is_the_exact_polar(sample, tol):
    body = body_from_sample(sample, tol)
    polar = sample_normal_cone_ref(sample)
    assert_body_is_the_shape(body, polar)
    assert contains_zero(body, tol) is (tol >= 0.0 and holds_line(polar))
    if tol >= 1e-9:  # every edge is at a right angle to a displacement, to rounding
        assert all(normal_membership_ref(sample, v, tol) for v in body.vertices.tolist())
    return body


# rotations past a right angle, on both sides of 1e-9
SKEWS = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 2e-9, -2e-9, 1e-6, -1e-6, 1e-3, -1e-3)


@st.composite
def wedge_samples(draw):
    # directions within a span of whole degrees from degree k: along a
    # degree, along an axis (as lattice displacements lie), at or near right
    # angles to a degree, exactly opposite degree k, or between degrees; a
    # span of 179, 180 or 181 degrees puts the sample just inside, on and
    # just past a half-turn
    fan = probe_fan(2)
    k = draw(st.one_of(st.sampled_from((0, 90, 180, 270)), st.integers(0, 359)))
    span = draw(st.sampled_from((0, 1, 90, 179, 180, 181, 270, 359)))
    rows = []
    for _ in range(draw(st.integers(0, 64))):
        j = (k + draw(st.integers(0, span))) % 360
        kind = draw(st.sampled_from(("along", "axis", "right", "skew", "opposite", "between",
                                     "zero")))
        if kind == "along":
            u = fan[j]
        elif kind == "axis":
            u = np.array(draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))))
        elif kind == "right":
            u = np.array([-fan[j][1], fan[j][0]])
        elif kind == "skew":
            a = (math.radians(j) + draw(st.sampled_from((0.5, -0.5))) * math.pi
                 + draw(st.sampled_from(SKEWS)))
            u = np.array([math.cos(a), math.sin(a)])
        elif kind == "opposite":
            u = -fan[k]
        elif kind == "between":
            a = math.radians(k + draw(st.floats(0.0, 1.0)) * span)
            u = np.array([math.cos(a), math.sin(a)])
        else:
            u = np.zeros(2)
        rows.append(tuple((draw(magnitude) * u).tolist()))
    base = draw(st.sampled_from(((0.0, 0.0), (0.3, -1.7))))
    return ContourSample(Point(base), [tuple(b + d for b, d in zip(base, r)) for r in rows])


@DIFFERENTIAL
@given(wedge_samples(), st.sampled_from(TOLS))
def test_2d_bodies_are_the_exact_polars_of_wedge_samples(sample, tol):
    _assert_body_is_the_exact_polar(sample, tol)


@DIFFERENTIAL
@given(st.lists(st.tuples(st.sampled_from((-1.0, 0.0, 1.0)), magnitude), max_size=64),
       st.sampled_from((0.0, 0.3)), st.sampled_from(TOLS))
def test_1d_bodies_are_the_exact_polars(rows, base, tol):
    sample = ContourSample(Point((base,)), [(base + s * m,) for s, m in rows])
    body = _assert_body_is_the_exact_polar(sample, tol)
    # at tol 0 the kernel reads the signs, and accepts the polar's rows
    net = unit_net(1)
    assert body.vertices.tolist() == [
        v for v in net.tolist() if normal_membership_ref(sample, v, 0.0)]


@pytest.mark.parametrize("tol", [-1e-9, -0.1])
def test_a_negative_tol_leaves_the_body_exact(tol):
    # below 0 the body is the polar still, the body of tol 0, and it never
    # holds zero
    sample = ContourSample(Point((0.0, 0.0)), [(1.0, 0.0), (2.0, 1e-3)])
    body = _assert_body_is_the_exact_polar(sample, tol)
    assert body == body_from_sample(sample, 0.0)
    line = ContourSample(Point((0.0, 0.0)), [(1.0, 0.0), (-2.0, 0.0)])
    assert body_from_sample(line, 0.0)._holds_zero
    assert not contains_zero(_assert_body_is_the_exact_polar(line, tol), tol)


@pytest.mark.parametrize("stacked", (False, True))
def test_radial_bodies_take_one_shape_pass_per_sample(monkeypatch, stacked):
    # radial-bowl's default bodies from box samples, per-base samples or the
    # ground-level pass: `_shapes` reads the 169 bases' strictly-better
    # neighbours in one pass (the neighbour screen), then the 5 samples it
    # leaves, each with its base's neighbours, in one more, and no net row
    # meets a displacement
    passes = []
    shapes = cones._shapes

    def spy_shapes(D, counts):
        passes.append(len(counts))
        return shapes(D, counts)

    def refuse(*args):
        raise AssertionError("net product run in 2-D")

    monkeypatch.setattr(cones, "_shapes", spy_shapes)
    monkeypatch.setattr(cones, "normal_cone_test", refuse)
    fx = get_fixture("radial-bowl")
    sampler = fx.box_sampler if stacked else fx.contour_sampler
    bodies = bodies_for_ground(fx.relation, fx.default_ground, contour_sampler=sampler)
    assert len(bodies) == 169
    assert passes == [169, 5]


def test_1d_and_2d_bodies_do_not_run_the_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel called")

    monkeypatch.setattr(cones, "normal_membership_many", refuse)
    monkeypatch.setattr(cones, "normal_cone_test", refuse)
    for name in ("band-threshold", "radial-bowl"):
        fx = get_fixture(name)
        for x in list(fx.default_ground)[::7]:
            body_from_sample(fx.contour_sampler(x))


def test_3d_bodies_are_the_net_rows_the_scalar_test_accepts():
    sample = ContourSample(Point((0.0, 0.0, 0.0)), [(1.0, 0.0, 0.0), (0.0, 1.0, 1.0)])
    net = unit_net(3)
    assert body_from_sample(sample).vertices.tolist() == [
        v for v in net.tolist() if normal_membership_ref(sample, v, 1e-9)]


# quarter-lattice coordinates put displacements at exact right angles to
# net rows, where tol 0 decides on the sign of an exact zero
_coord3 = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0), st.floats(-2.0, 2.0))
_point3 = st.tuples(_coord3, _coord3, _coord3)


@DIFFERENTIAL
@given(_point3, st.lists(_point3, max_size=40), st.sampled_from((0.0, 1e-9, 1e-3)))
@example(base=(0.0, 0.0, 0.0), rows=[], tol=0.0)
@example(base=(0.0, 0.0, 0.0), rows=[(1.0, 1.0, 0.0), (0.0, -1.0, 1.0)], tol=0.0)
def test_random_3d_bodies_are_the_net_rows_the_kernel_accepts(base, rows, tol):
    _assert_body_is_the_kernels(ContourSample(Point(base), rows), tol)


# ------------------------------------------------------ box-lattice cache


def _candidates_match(x, radius, step):
    got = _box_candidates(x, radius, step)
    assert got.tobytes() == box_candidates_isin_ref(x, radius, step).tobytes()


def test_box_candidates_on_bases_that_share_coordinates():
    # a grid's bases, twice over, interleaved with other radii and steps on
    # the same coordinates
    _box_axis.cache_clear()
    bases = [Point((a, b)) for a in (-0.5, 0.0, 0.5) for b in (0.5, 1.0, 1.5)]
    for _ in range(2):
        for x in bases:
            for radius, step in ((2.0, 0.1), (0.3, 0.1), (2.0, 0.05), (1.0, 0.3)):
                _candidates_match(x, radius, step)
    assert _box_axis.cache_info().hits > 0


def test_box_axis_key_separates_radius_and_step():
    for radius, step in ((1.0, 0.1), (1.0, 0.01), (0.5, 0.1), (0.05, 0.01)):
        coarse, fine, _ = _box_axis(0.3, radius, step)
        assert coarse.tolist() == axis_lattice(0.3 - radius, 0.3 + radius, step)
        assert fine.tolist() == fine_axis_ref(0.3, radius, step)
    assert len(_box_axis(0.3, 1.0, 0.1)[0]) != len(_box_axis(0.3, 1.0, 0.01)[0])


_DYADIC_BOXES = st.sampled_from(((0.0625, 0.0625), (0.0625, 0.03125), (0.25, 0.0625),
                                 (0.5, 0.125), (1.0, 0.25), (2.0, 0.125), (0.03125, 0.015625)))


@settings(settings.get_profile("differential"), max_examples=200)
@given(st.integers(-64, 64).map(lambda k: k / 16.0), _DYADIC_BOXES)
@example(1.375, (0.25, 0.125))
def test_a_box_axis_mirrors_about_zero(c, box):
    # with a dyadic coordinate, radius and step, the axis at -c is the
    # mirror image of the axis at c, and the fine lattice holds c: with
    # step 0.125, c = 1.375 gets 1.3125, 1.375 and 1.4375 (the fine
    # lattice once ran 1.275, 1.3375, 1.4, 1.4625)
    coarse, fine, on = _box_axis(c, *box)
    mirror = _box_axis(-c, *box)
    assert [a.tolist() for a in mirror] == [(-coarse[::-1]).tolist(), (-fine[::-1]).tolist(),
                                           on[::-1].tolist()]
    assert c in fine.tolist() and fine.tolist() == fine_axis_ref(c, *box)
    if c == 1.375 and box == (0.25, 0.125):
        assert fine.tolist() == [1.3125, 1.375, 1.4375]


def test_cached_box_axes_are_read_only():
    for a in _box_axis(0.7, 2.0, 0.1):
        with pytest.raises(ValueError):
            a[0] = a[-1]


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_signed_zero_coordinates_give_the_same_candidates(first):
    # 0.0 and -0.0 share a cache entry; either sign, asked first, gives the
    # reference's candidates bit for bit
    _box_axis.cache_clear()
    for c in (first, -first):
        for x in (Point((c, 0.5)), Point((0.5, c)), Point((c,))):
            _candidates_match(x, 1.0, 0.1)
