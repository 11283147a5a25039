"""Sampled Stampacchia bodies for a whole ground against the scalar references.

`vip.bodies_for_ground` with a `BoxSampler` cuts every base's box candidates
from its own axis lattices, or, for a utility's column form, from one union
lattice scored once per point, and turns each block of samples into bodies
in one pass. Its samples
must be `box_sample_ref`'s and its bodies the net rows that
`normal_membership_ref` accepts, row by row, in any dimension, for column
forms off by up to K floats or not finite, for predicates, and with block
budgets that split a ground into many blocks. The zero stage reads a
sampled body's verdict off the largest gap between its net rows, and must
agree with `body_contains_ref` (one NNLS solve) wherever it gives one.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import ConvexBody, GroundSet, Relation, fixture_names, get_fixture, parse_grid_spec
from prefmax import cones, points, relations
from prefmax.cones import BoxSampler, contains_zero, sampled_bodies, unit_net
from prefmax.harness import ExperimentSpec, vip_solutions
from prefmax.vip import bodies_for_ground

from scalar_reference import body_contains_ref, box_sample_ref, normal_membership_ref, scalar_holds

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
    (rel, h), ground, radius, step = case
    want = [box_sample_ref(h, x, radius, step) for x in ground]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        got, blocks = [], 0
        for _, P, kept in cones._box_blocks(rel, ground.array(), radius, step):
            got += np.split(P, np.cumsum(kept)[:-1])
            blocks += 1
        stacked = bodies_for_ground(rel, ground, tol=tol,
                                    contour_sampler=BoxSampler(rel, radius, step))
        per_sample = sampled_bodies(want, tol)
    assert [g.tolist() for g in got] == [w.points.tolist() for w in want]
    if budget == 1:
        assert blocks == len(ground)
    net = unit_net(ground.dim).tolist()
    for x, sample, body in zip(ground, want, per_sample):
        rows = [u for u in net if normal_membership_ref(sample, u, tol)]
        assert stacked[x.coords].vertices.tolist() == rows
        assert body.vertices.tolist() == rows


def test_a_ground_of_one_lattice_scores_each_point_once(radial):
    # radial-bowl's 169 bases share a union lattice of 137 x 137 points
    # (every multiple of 0.05 within the bases' boxes), against 286,793
    # candidates: the column form runs once, on that lattice
    calls = []

    def columns(x):
        calls.append(len(x[0]))
        return radial.relation.columns(x)

    rel = Relation.from_utility("counted", 2, radial.relation.utility, columns=columns)
    B = radial.default_ground.array()
    blocks = list(cones._box_blocks(rel, B, radial.sample_radius, radial.sample_step))
    assert len(blocks) > 1 and calls == [137 * 137]
    assert sum(len(P) for _, P, _ in blocks) == sum(
        len(radial.contour_sampler(x).points) for x in radial.default_ground)


def test_the_union_lattice_is_built_only_for_a_column_form_over_several_bases():
    # predicates, and a single base, cut their candidates from their own
    # axis lattices: no union lattice is asked for
    caches = (cones._union_axes, cones._union_offsets)
    for cache in caches:
        cache.cache_clear()
    for name in ("band-threshold", "halfline-plane"):
        fx = get_fixture(name)
        bodies_for_ground(fx.relation, fx.default_ground, contour_sampler=fx.box_sampler)
        assert len(list(fx.box_sampler.samples(fx.default_ground))) == len(fx.default_ground)
    radial = get_fixture("radial-bowl")
    radial.box_sampler(radial.default_ground[0])
    assert [(c.cache_info().hits, c.cache_info().misses) for c in caches] == [(0, 0), (0, 0)]
    # radial-bowl's column form scores one union lattice per ground pass: the
    # first pass builds its values, then the offsets, which read the values
    for hits in (0, 1):
        bodies_for_ground(radial.relation, radial.default_ground,
                          contour_sampler=radial.box_sampler)
        assert ([(c.cache_info().hits, c.cache_info().misses) for c in caches]
                == [(hits + 1, 1), (hits, 1)])


@pytest.mark.parametrize("spec", ["-0.5:2.5:0.07,0.5:3.5:0.07", "-0.5:2.5:0.03,0.5:3.5:0.03"])
def test_a_union_lattice_too_large_to_score_builds_no_offsets(spec):
    # 411,522 and 467,172 union points: above _TABLE_POINTS, so each
    # base's candidates come from its own lattices and no offsets are built
    radial = get_fixture("radial-bowl")
    cones._union_offsets.cache_clear()
    B = parse_grid_spec(spec).array()
    next(cones._box_blocks(radial.relation, B, radial.sample_radius, radial.sample_step))
    assert cones._union_offsets.cache_info().misses == 0


# ------------------------------------------------------------- zero test


@pytest.mark.parametrize("name", fixture_names())
def test_net_gap_verdicts_match_the_nnls_reference(name):
    # every body that the fixture's box sampler gives on its default ground
    fx = get_fixture(name)
    for tol in (0.0, 1e-9):
        bodies = bodies_for_ground(fx.relation, fx.default_ground, tol=tol,
                                   contour_sampler=fx.box_sampler)
        decided = 0
        for body in bodies.values():
            want = body_contains_ref(body, (0.0,) * body.dim, tol)
            verdict = cones._net_gap_zero(body, tol)
            if verdict is not None:
                decided += 1
                assert verdict == want
            assert contains_zero(body, tol) == want
        if tol > 0.0 and name == "radial-bowl":
            assert decided == len(bodies)


def _net_body(dim, rows):
    keep = np.zeros((1, len(unit_net(dim))), dtype=bool)
    keep[0, list(rows)] = True
    return cones._net_bodies(dim, keep)[0]


# rows of the 2-D net whose largest cyclic index gap is 179, 180 or 181
# (degrees), a single row, no row, and the whole net; the two 1-D rows
BUILT = [(2, (0, 179, 270), 179), (2, (0, 180, 270), 180), (2, (0, 179), 181),
         (2, (5, 186), 181), (2, (90,), 360), (2, (), None), (2, tuple(range(360)), 1),
         (1, (0,), 2), (1, (1,), 2), (1, (0, 1), 1), (1, (), None)]


@pytest.mark.parametrize("tol", (0.0, 1e-13, 1e-9, 1e-3, 0.5, -1e-9))
@pytest.mark.parametrize("dim, rows, gap", BUILT)
def test_built_net_bodies_match_the_nnls_reference(dim, rows, gap, tol):
    body = _net_body(dim, rows)
    assert body.vertices.tolist() == unit_net(dim)[list(rows)].tolist()
    assert getattr(body, "_net_gap", None) == gap
    want = body_contains_ref(body, (0.0,) * dim, tol)
    verdict = cones._net_gap_zero(body, tol)
    assert verdict in (None, want)
    n = len(unit_net(dim))
    if gap is None or 2 * gap == n:
        assert verdict is None  # no record, or exactly a half-turn
    elif 2 * gap < n:
        # interior, decided wherever tol clears the hull screen's slack
        assert verdict is (True if tol >= 1e-9 else None)
    elif tol <= 1e-3:
        assert verdict is False  # the arc's bound clears tol
    assert contains_zero(body, tol) == want


def test_gaps_of_a_batch_are_each_bodys_own():
    keep = np.zeros((len(BUILT), 360), dtype=bool)
    for i, (dim, rows, _) in enumerate(BUILT):
        if dim == 2:
            keep[i, list(rows)] = True
    batch = cones._net_bodies(2, keep)
    for body, (dim, rows, gap) in zip(batch, BUILT):
        if dim == 2:
            assert getattr(body, "_net_gap", None) == gap


def test_a_body_not_from_the_net_gets_no_net_verdict():
    body = ConvexBody(2, ((1.0, 0.0), (-1.0, 0.5), (-1.0, -0.5)))
    assert cones._net_gap_zero(body, 1e-9) is None
    assert contains_zero(body, 1e-9) is True
    # the net rows copied into a new body lose the record
    assert cones._net_gap_zero(ConvexBody(2, _net_body(2, (0, 179)).vertices), 1e-9) is None


def test_the_radial_zero_stage_needs_no_solve(monkeypatch):
    # at tol 1e-9 every radial-bowl body's zero verdict comes from its gaps
    def refuse(*args, **kwargs):
        raise AssertionError("ConvexBody.contains called")

    monkeypatch.setattr(ConvexBody, "contains", refuse)
    ground, sols = vip_solutions(ExperimentSpec(fixture="radial-bowl", tol=1e-9), "svip")
    assert [p.coords for p in sols] == [(1.0, 2.0)] and len(ground) == 169
