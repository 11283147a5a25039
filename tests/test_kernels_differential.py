"""Array kernels against their scalar references (tests/scalar_reference.py).

Every relation sweep (maximal elements, maxima, contours, property checks
with their witnesses, the preference matrix, the gap audit and the
zero-maximality check) must match its per-pair loop, and every fixture's
column rule its scalar rule, on all fixtures, random tables and random
column rules, across block boundaries. Contour samples must hold the same points in the same order, the
membership kernel must give every probe the same verdict under all three
right-hand sides, in 1-D, 2-D and 3-D, Stampacchia sweeps must return the same witness wherever
the vertex and midpoint sweep finds one (and elsewhere None or a certificate
that re-validates), and Minty sweeps the same solution list, on every
fixture, on random tabular relations and on random samples, bodies and cone
fields. The Stampacchia decider is checked in 2-D and 3-D against a grid of
vertex weights.
"""

import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefmax import (
    Cone,
    ContourSample,
    ConvexBody,
    GapFunction,
    GroundSet,
    Point,
    Relation,
    VipCertificate,
    audit_gap_flags,
    body_from_sample,
    box_sample,
    certificate_valid,
    check_property,
    contour,
    fixture_names,
    gap_from_utility,
    get_fixture,
    maxima,
    maximal_elements,
    mvip_membership,
    mvip_solutions,
    normal_membership,
    normal_membership_many,
    plastria_membership,
    preference_matrix,
    pt,
    sample_contour,
    strict_normal_membership,
    strictly_prefers,
    svip_membership,
    zero_gap,
    zero_maximality_check,
)
from prefmax import points, relations, vip
from prefmax.cones import ZERO, contains_zero, sampled_bodies, unit_net
from prefmax.relations import PROPERTIES, strictly_better_mask
from prefmax.vip import bodies_for_ground

from exact_reference import holds_line, sample_normal_cone_ref, unit_ref
from scalar_reference import (
    SCALAR_RULES,
    _passes_all,
    audit_gap_flags_ref,
    box_candidates,
    box_sample_ref,
    check_property_ref,
    contour_ref,
    maxima_ref,
    maximal_elements_ref,
    mvip_membership_ref,
    mvip_solutions_ref,
    normal_membership_ref,
    plastria_membership_ref,
    probe_fan,
    random_tabular_relation,
    sample_contour_ref,
    scalar_holds,
    strict_normal_membership_ref,
    strictly_better_mask_ref,
    svip_sweep_ref,
    zero_maximality_check_ref,
)

DIFFERENTIAL = settings(settings.get_profile("differential"), max_examples=60)
FIXTURES = fixture_names()
CONE_FIXTURES = [n for n in FIXTURES if get_fixture(n).cone_oracle is not None]
TOLS = (0.0, 1e-9)
PREDICATE_FIXTURES = [n for n in FIXTURES if get_fixture(n).relation.kind == "predicate"]
UTILITY_FIXTURES = [n for n in FIXTURES if get_fixture(n).relation.kind == "utility"]


# ------------------------------------------------------------ contour samples


@DIFFERENTIAL
@given(st.sampled_from(FIXTURES), st.integers(0, 10 ** 6))
def test_fixture_box_samples_match(name, pick):
    fx = get_fixture(name)
    ground = list(fx.default_ground)
    x = ground[pick % len(ground)]
    got = fx.contour_sampler(x)
    assert got == box_sample_ref(scalar_holds(fx.relation), x, fx.sample_radius, fx.sample_step)


@DIFFERENTIAL
@given(st.sampled_from(FIXTURES), st.integers(0, 10 ** 6),
       st.sampled_from((0.05, 0.3, 1.0)), st.sampled_from((0.05, 0.1, 0.25)))
def test_box_samples_match_at_other_radii_and_steps(name, pick, radius, step):
    fx = get_fixture(name)
    ground = list(fx.default_ground)
    x = ground[pick % len(ground)]
    assert box_sample(fx.relation, x, radius, step) \
        == box_sample_ref(scalar_holds(fx.relation), x, radius, step)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_ground_samples_match(name):
    fx = get_fixture(name)
    for x in list(fx.default_ground)[::7]:
        assert sample_contour(fx.relation, x, fx.default_ground) \
            == sample_contour_ref(scalar_holds(fx.relation), x, fx.default_ground)


@DIFFERENTIAL
@given(st.integers(2, 12), st.sampled_from(("uniform", "closure", "utility")),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_tabular_samples_and_masks_match(n, style, dim, seed):
    rel = random_tabular_relation(np.random.default_rng(seed), n, style, dim)
    ground = GroundSet.explicit(rel.table_ground)
    coords = [y.coords for y in ground]
    h = scalar_holds(rel)
    for x in ground:
        assert sample_contour(rel, x, ground) == sample_contour_ref(h, x, ground)
        assert strictly_better_mask(rel, x, coords).tolist() == [strictly_prefers(rel, y, x) for y in ground]


def test_mask_rejects_foreign_and_mismatched_points():
    rel = random_tabular_relation(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        strictly_better_mask(rel, pt(0.0), [(0.5,)])
    with pytest.raises(ValueError):
        strictly_better_mask(rel, pt(0.0), [(1.0, 0.0)])
    assert strictly_better_mask(rel, pt(0.0, 0.0), []).tolist() == []


# ------------------------------------------------- utility column forms


@pytest.mark.parametrize("name", UTILITY_FIXTURES)
def test_utility_box_samples_match_at_every_base(name):
    fx = get_fixture(name)
    h = scalar_holds(fx.relation)
    for x in fx.default_ground:
        got = fx.contour_sampler(x)
        assert got.points.tolist() \
            == box_sample_ref(h, x, fx.sample_radius, fx.sample_step).points.tolist()


# radial-bowl's peak is (1, 2): on a lattice of eighths around it the
# candidates (1 + a, 2 + b), (1 - a, 2 + b) and (1 + b, 2 + a) score exactly
# alike, and many tie with the base
_eighth = st.integers(-16, 16).map(lambda i: i / 8.0)


@DIFFERENTIAL
@given(st.one_of(st.tuples(_eighth, _eighth), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))),
       st.sampled_from((0.125, 0.25, 0.5, 1.0)), st.sampled_from((0.0625, 0.125, 0.25)))
def test_radial_box_samples_match_on_a_lattice_with_ties(offset, radius, step):
    rel = get_fixture("radial-bowl").relation
    x = pt(1.0 + offset[0], 2.0 + offset[1])
    assert box_sample(rel, x, radius, step).points.tolist() \
        == box_sample_ref(scalar_holds(rel), x, radius, step).points.tolist()


def _counted(u):
    calls = []

    def counted(y):
        calls.append(y)
        return u(y)

    return counted, calls


def test_ties_are_scored_by_u_and_the_rest_by_columns(radial):
    u, calls = _counted(radial.relation.utility)
    rel = Relation.from_utility("counted", 2, u, columns=radial.relation.columns)
    x = pt(1.5, 2.5)
    C = np.array(box_candidates(x, radial.sample_radius, radial.sample_step))
    mask = strictly_better_mask(rel, x, C)
    rescored = len(calls) - 1  # and the base
    assert 0 < rescored < len(C) // 10
    ux = radial.relation.utility(x.coords)
    assert mask.tolist() == [radial.relation.utility(tuple(y)) > ux for y in C.tolist()]
    # the mirror images of every re-scored candidate tie with it exactly
    assert (1.5, 2.5) in calls and (0.5, 2.5) in calls and (1.5, 1.5) in calls


def _points_of(fx):
    pts = {p.coords for p in fx.default_ground} | {p.coords for p in fx.me_ground()}
    for x in fx.default_ground:
        pts.update(box_candidates(x, fx.sample_radius, fx.sample_step))
    return np.array(sorted(pts))


@pytest.mark.parametrize("name", UTILITY_FIXTURES)
def test_column_forms_keep_the_ulp_contract(name):
    rel = get_fixture(name).relation
    Y = _points_of(get_fixture(name))
    s = rel.columns(tuple(Y.T))
    u = np.array([rel.utility(y) for y in map(tuple, Y.tolist())])
    assert s.shape == u.shape and np.isfinite(s).all()
    assert (np.abs(s - u) <= relations.K * np.spacing(np.abs(s))).all()


def _moved(u, shift):
    """A column form that scores each row with u and moves the score by up
    to K = 4 floats, the documented bound: all up, all down, or by a
    per-point amount in [-K, K]."""
    K = 4

    def columns(x):
        rows = list(zip(*(c.tolist() for c in x)))
        s = np.array([u(y) for y in rows])
        if shift == "mixed":
            k = np.array([hash(y) % (2 * K + 1) - K for y in rows])
        else:
            k = np.full(len(rows), K if shift == "up" else -K)
        for _ in range(K):
            s = np.where(k > 0, np.nextafter(s, np.inf), np.where(k < 0, np.nextafter(s, -np.inf), s))
            k = k - np.sign(k)
        return s

    return columns


@pytest.mark.parametrize("shift", ("up", "down", "mixed"))
@pytest.mark.parametrize("name", UTILITY_FIXTURES)
def test_a_column_form_k_floats_off_gives_the_scalar_masks(name, shift):
    fx = get_fixture(name)
    u = fx.relation.utility
    rel = Relation.from_utility("moved", fx.relation.dim, u, columns=_moved(u, shift))
    for x in list(fx.default_ground)[::4]:
        C = box_candidates(x, fx.sample_radius, fx.sample_step)
        assert strictly_better_mask(rel, x, C).tolist() == [u(y) > u(x.coords) for y in C]


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_scores_fall_back_to_u(radial, bad):
    u, calls = _counted(radial.relation.utility)
    spoil = lambda x: np.where(np.arange(len(x[0])) % 3 == 0, bad, radial.relation.columns(x))
    rel = Relation.from_utility("spoiled", 2, u, columns=spoil)
    x = pt(0.25, 1.5)
    C = box_candidates(x, radial.sample_radius, radial.sample_step)
    assert strictly_better_mask(rel, x, C).tolist() \
        == [radial.relation.utility(y) > radial.relation.utility(x.coords) for y in C]
    assert set(C[::3]) <= set(calls)
    assert box_sample(rel, x, radial.sample_radius, radial.sample_step) == radial.contour_sampler(x)


def test_a_constant_column_form_broadcasts():
    rel = Relation.from_utility("flat", 1, lambda x: 0.0, columns=lambda x: 0.0)
    assert strictly_better_mask(rel, pt(0.5), [(0.0,), (1.0,)]).tolist() == [False, False]


# ------------------------------------------------------ membership kernel


def _assert_memberships_match(sample, probes, tols=TOLS, gap=None):
    """Every wrapper of the kernel against its scalar loop, probe by probe."""
    P = np.array(probes, dtype=float).reshape(-1, sample.base.dim)
    for tol in tols:
        want = [normal_membership_ref(sample, p, tol) for p in probes]
        assert [normal_membership(sample, p, tol) for p in probes] == want
        assert normal_membership_many(sample, P, tol).tolist() == want
        if gap is not None:
            assert [plastria_membership(gap, sample, p, tol) for p in probes] \
                == [plastria_membership_ref(gap, sample, p, tol) for p in probes]
    for margin in (1e-7, 0.5):
        assert [strict_normal_membership(sample, p, margin) for p in probes] \
            == [strict_normal_membership_ref(sample, p, margin) for p in probes]


def _fixture_probes(dim, seed):
    rng = np.random.default_rng(seed)
    quarter = rng.integers(-8, 9, size=(6, dim)) / 4.0
    return [tuple(p) for p in np.r_[probe_fan(dim)[::9], quarter, rng.uniform(-3.0, 3.0, (6, dim))]]


@settings(DIFFERENTIAL, max_examples=25)
@given(st.sampled_from(FIXTURES), st.integers(0, 10 ** 6))
def test_fixture_box_sample_memberships_match(name, pick):
    fx = get_fixture(name)
    ground = list(fx.default_ground)
    x = ground[pick % len(ground)]
    _assert_memberships_match(fx.contour_sampler(x), _fixture_probes(x.dim, pick), gap=fx.gap)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_ground_sample_memberships_match(name):
    fx = get_fixture(name)
    for i, x in enumerate(list(fx.default_ground)[::23]):
        sample = sample_contour(fx.relation, x, fx.default_ground)
        _assert_memberships_match(sample, _fixture_probes(x.dim, i), gap=fx.gap)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_bodies_are_the_exact_polars(name):
    # every 17th base's box sample: the body's vertices are the unit edges
    # of the exact polar of the sample's cone, or, where the polar holds a
    # line, a body that holds zero
    fx = get_fixture(name)
    for x in list(fx.default_ground)[::17]:
        sample = fx.contour_sampler(x)
        kind, f, l = sample_normal_cone_ref(sample)
        body = body_from_sample(sample)
        if holds_line((kind, f, l)):
            assert contains_zero(body, 0.0)
        elif kind == ZERO:
            assert body.is_empty
        else:
            assert np.allclose(body.vertices, [unit_ref(f), unit_ref(l)][:len(body.vertices)],
                               rtol=0.0, atol=1e-15)


@st.composite
def _samples_and_probes(draw):
    # samples of 0 to 48 rows, in 1-D, 2-D and 3-D; quarter-lattice
    # coordinates make exact-zero inner products, where tol 0 decides on the
    # sign alone
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[_coord] * dim)
    base = pt(*draw(point))
    rows = draw(st.lists(point, max_size=48))
    probes = draw(st.lists(point, min_size=1, max_size=12))
    return ContourSample(base, rows), probes


# the gap keeps the relaxed test away from both trivial outcomes: it is
# negative towards (1, ...), positive against it, and zero across it
_TILTED_GAP = GapFunction(lambda x, y: 0.5 * (x[0] - y[0]), lipschitz=1.0)


# displacements whose squares overflow: each keeps its length 1e200 (or
# 1.4e200) in every right-hand side, where inf would let every probe pass
_FAR_SAMPLE = (ContourSample(pt(0.0, 0.0), [(1e200, 0.0), (-1e200, 1e200)]),
               [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0), (-1.0, 0.5), (0.0, 0.0)])


@DIFFERENTIAL
@given(_samples_and_probes())
@example(_FAR_SAMPLE)
def test_random_sample_memberships_match(case):
    sample, probes = case
    _assert_memberships_match(sample, probes, TOLS + (1e-3,), gap=_TILTED_GAP)


def _line_sample(n):
    return ContourSample(pt(0.0, 0.0), [(1.0 + k, 0.25 * k) for k in range(n)])


def test_membership_on_an_empty_sample_accepts_every_probe():
    sample = ContourSample(pt(0.5, -0.5), ())
    probes = [(1.0, 2.0), (-3.0, 0.0), (0.0, 0.0)]
    assert normal_membership_many(sample, probes).tolist() == [True] * 3
    _assert_memberships_match(sample, probes, gap=_TILTED_GAP)
    with pytest.raises(ValueError):
        normal_membership(sample, (1.0,))


def test_membership_on_a_short_sample():
    sample = _line_sample(13)
    _assert_memberships_match(sample, [tuple(v) for v in probe_fan(2)], gap=_TILTED_GAP)


def test_every_probe_fails_from_the_first_row():
    # every probe points into the sample, so each fails on the first row
    sample = _line_sample(64)
    probes = [(1.0, 0.0), (0.5, 1.0), (2.0, -1.0)]
    assert normal_membership_many(sample, probes).tolist() == [False] * 3
    _assert_memberships_match(sample, probes, gap=_TILTED_GAP)


def test_one_row_alone_rejects_a_probe():
    # all rows but row 1 lie on the ray (-1, 0); row 1 is the only one that
    # rejects (0, 1), and no row rejects the other two probes
    rows = [(-1.0 - k, 0.0) for k in range(64)]
    rows[1] = (0.0, 1.0)
    sample = ContourSample(pt(0.0, 0.0), rows)
    probes = [(0.0, 1.0), (1.0, 0.0), (1.0, -0.5)]
    assert normal_membership_many(sample, probes).tolist() == [False, True, True]
    _assert_memberships_match(sample, probes, gap=_TILTED_GAP)


def test_normal_threshold_rounds_as_the_scalar_form():
    # <x*, d> = a sits within one rounding of tol (1 + a); the scalar form
    # tol * (1 + ||x*|| ||d||) accepts a and rejects the next float up,
    # while tol + tol * ||x*|| ||d|| would do the opposite
    tol, a = 0.680185478530374, 2.126812364256493
    sample = ContourSample(pt(0.0), [(1.0,)])
    for probe, member in (((a,), True), ((np.nextafter(a, 3.0),), False)):
        assert normal_membership(sample, probe, tol) is member
        assert normal_membership_ref(sample, probe, tol) is member


def test_inner_products_round_as_the_scalar_dot():
    # x * x rounds, and -1 * fl(x * x) + x * x cancels to exactly 0 when both
    # products round first, as the scalar dot does; a fused multiply-add
    # (which a BLAS matrix product may use) keeps the rounding error instead
    x = 1.4554425309821815
    sample = ContourSample(pt(0.0, 0.0), [(x * x, x)])
    probe = (-1.0, x)
    assert normal_membership_many(sample, [probe], 0.0).tolist() == [True]
    assert normal_membership_ref(sample, probe, 0.0) is True


def test_plastria_membership_evaluates_the_gap_once_per_sampled_row():
    # a negative gap rejects the zero probe and a positive one lets it pass,
    # each after one gap call per sampled point, in sample order
    sample = _line_sample(64)
    for value, member in ((-1.0, False), (1.0, True)):
        calls = []
        gap = GapFunction(lambda x, y: calls.append(y) or value, lipschitz=1.0)
        assert plastria_membership(gap, sample, (0.0, 0.0)) is member
        assert calls == list(map(tuple, sample.points.tolist()))
        assert plastria_membership_ref(gap, sample, (0.0, 0.0), 1e-9) is member


@st.composite
def _stacked_samples_and_probes(draw):
    # 0 to 6 samples of one dimension (1-D, 2-D or 3-D), each of 0 to 12
    # rows, so that empty and one-row samples sit among the others
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[_coord] * dim)
    samples = [ContourSample(pt(*draw(point)), draw(st.lists(point, max_size=12)))
               for _ in range(draw(st.integers(0, 6)))]
    return samples, draw(st.lists(point, min_size=1, max_size=8))


def _stacked(samples, dim):
    D = [s.points - np.array(s.base.coords) for s in samples]
    return (np.concatenate(D) if D else np.empty((0, dim))), [len(d) for d in D]


# an empty sample, a one-row sample and the far sample of overflowing squares
_STACKED_CASE = ([ContourSample(pt(0.0, 0.0), ()), ContourSample(pt(1.0, 1.0), [(1.0, 2.0)]),
                  _FAR_SAMPLE[0]], _FAR_SAMPLE[1])


@DIFFERENTIAL
@given(_stacked_samples_and_probes(), st.sampled_from((None, 1, 5, 40)))
@example(_STACKED_CASE, None)
@example(_STACKED_CASE, 1)
def test_stacked_samples_are_the_one_sample_calls(case, block):
    # `normal_cone_test` over consecutive samples gives, row for row, what
    # the one-sample calls give under the three right-hand sides, whatever
    # the block size (at most `block` pairs, or one sample, per block)
    from prefmax.cones import _weak, normal_cone_test

    samples, probes = case
    D, counts = _stacked(samples, len(probes[0]))
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(points, "BLOCK_ENTRIES", block)
        for tol in TOLS + (1e-3,):
            assert normal_cone_test(D, counts, probes, _weak(tol)).tolist() \
                == [normal_membership_many(s, probes, tol).tolist() for s in samples]
        for margin in (1e-7, 0.5):
            assert normal_cone_test(D, counts, probes, lambda pn, dn: -margin * dn).tolist() \
                == [[strict_normal_membership(s, p, margin) for p in probes] for s in samples]
    # the gap side reads the gaps of the stacked rows, so the stack is one block
    gaps = np.array([_TILTED_GAP(s.base.coords, y) for s in samples
                     for y in map(tuple, s.points.tolist())]).reshape(-1, 1)
    for tol in TOLS:
        assert normal_cone_test(D, counts, probes, lambda pn, dn: gaps + tol * (1.0 + dn)).tolist() \
            == [[plastria_membership(_TILTED_GAP, s, p, tol) for p in probes] for s in samples]


@pytest.mark.parametrize("probe, message", [((1.0,), "query dimension mismatch"),
                                            ((1.0, 2.0, 3.0), "query dimension mismatch"),
                                            ((np.nan, 0.0), "non-finite probe"),
                                            ((0.0, np.inf), "non-finite probe")])
def test_stacked_samples_refuse_a_bad_probe(probe, message):
    # also where every sample is empty
    from prefmax.cones import _weak, normal_cone_test

    for samples in (_STACKED_CASE[0], [ContourSample(pt(0.0, 0.0), ())]):
        with pytest.raises(ValueError, match=message):
            normal_cone_test(*_stacked(samples, 2), [probe], _weak(1e-9))


# --------------------------------------------------------------- Stampacchia


def _agrees_with_the_sweep(cert, reference, body, X, tol):
    """Whether a certificate is the reference sweep's where that sweep
    certifies; where it finds none, the LP may still find a witness inside
    the body, which must then re-validate, also in scalar arithmetic."""
    if reference is not None or cert is None:
        return cert == reference
    return certificate_valid(cert, body, X) and _passes_all(cert.witness.coords, cert.solution, X, tol)


def _stacked_certificates(bodies, X, tol):
    """The certificates the stacked stages give every base of X at once."""
    G = np.array([x.coords for x in X], dtype=float).reshape(len(X), -1)
    found = vip._stampacchia([bodies[x.coords] for x in X], G, G, tol)
    return [None if w is None else VipCertificate(x, "stampacchia", Point(w), tol)
            for x, w in zip(X, found)]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_witnesses_match(name, monkeypatch):
    # the one-base call and the whole-ground stages give every base the
    # reference sweep's witness, with the screen and without it; a fixture
    # without a cone oracle gives each base the body of its box sample
    # alone, which the neighbour screen of `bodies_for_ground` would mostly
    # leave empty
    fx = get_fixture(name)
    ground = fx.default_ground
    pts = list(ground)
    if fx.cone_oracle is None:
        bodies = dict(zip((x.coords for x in pts), sampled_bodies(map(fx.contour_sampler, pts))))
    else:
        bodies = bodies_for_ground(fx.relation, ground, fx.cone_oracle)
    reference = {tol: [svip_sweep_ref(bodies[x.coords], x, ground, tol) for x in pts]
                 for tol in TOLS}
    for screen in (True, False):
        if not screen:
            monkeypatch.setattr(vip, "_refuted", lambda S, V, D: np.zeros(len(S), dtype=bool))
        for tol in TOLS:
            assert [svip_membership(bodies[x.coords], x, ground, tol) for x in pts] \
                == reference[tol]
            assert _stacked_certificates(bodies, pts, tol) == reference[tol]


def test_the_screen_refutes_most_radial_bases(radial, monkeypatch):
    # the bodies of radial-bowl's box samples alone, which the neighbour
    # screen of `bodies_for_ground` would mostly leave empty
    ground = radial.default_ground
    bodies = {x.coords: body for x, body in zip(
        ground, sampled_bodies(map(radial.contour_sampler, ground)))}
    verdicts = []
    screen = vip._refuted
    monkeypatch.setattr(vip, "_refuted", lambda *args: verdicts.append(screen(*args)) or verdicts[-1])
    monkeypatch.setattr(vip, "bodies_for_ground", lambda *args, **kwargs: bodies)
    assert vip.svip_solutions(radial.relation, ground) == [radial.reference]
    # every base but the reference, whose body holds zero, meets the screen
    # in a block, and the screen refutes each of them
    verdicts = np.concatenate(verdicts)
    assert len(verdicts) == verdicts.sum() == len(ground) - 1


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


# block budgets that put one base, or a few, in each block of the stacked
# sweeps, and the default
_BUDGETS = st.sampled_from((1, 7, 64, points.BLOCK_ENTRIES))


@st.composite
def _stacked_grounds(draw):
    # a ground of 1-D or 2-D points, each with a body from a small pool:
    # bodies are shared across bases or copied into distinct equal objects,
    # and the pool holds empty bodies, bodies that contain zero (the unit
    # net) and bodies that do not (vertices in an arc narrower than a
    # half-turn), with quarter-lattice points that make exact-zero products;
    # a pair (q, 1), (-q, 1) over a base on the ground's lowest row fails
    # at both vertices while its midpoint (0, 1) passes
    dim = draw(st.integers(1, 2))
    point = st.tuples(*[draw(st.sampled_from((_quarter, _coord)))] * dim)
    ground = draw(st.lists(point, min_size=1, max_size=20, unique=True))
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
    bodies = {}
    for p in ground:
        body = pool[draw(st.integers(0, len(pool) - 1))]
        bodies[p] = ConvexBody(dim, body.vertices) if draw(st.booleans()) else body
    return [Point(p) for p in ground], bodies


# the base (0, -1) fails both vertices of the pair and gets the midpoint
# (0, 1), in a block with bases whose vertices pass and one, (0, 1), that
# the screen refutes
_PAIR = ConvexBody(2, ((0.5, 1.0), (-0.5, 1.0)))
_MIDPOINT_CASE = ([pt(-1.0, -1.0), pt(0.0, -1.0), pt(1.0, -1.0), pt(0.0, 1.0)],
                  {(-1.0, -1.0): _PAIR, (0.0, -1.0): _PAIR, (1.0, -1.0): _PAIR,
                   (0.0, 1.0): ConvexBody(2, ((0.0, 1.0),))})


# the ground {0, 1e200}, whose squared distance overflows: the witness -1
# fails at 0 (<-1, 1e200> is far below the floor) and passes at 1e200
_FAR_CASE = ([pt(0.0), pt(1e200)],
             {(0.0,): ConvexBody(1, ((-1.0,),)), (1e200,): ConvexBody(1, ((-1.0,), (0.5,)))})


@DIFFERENTIAL
@given(_stacked_grounds(), st.sampled_from((0.0, 1e-9, 1e-3)), _BUDGETS)
@example(_MIDPOINT_CASE, 0.0, points.BLOCK_ENTRIES)
@example(_MIDPOINT_CASE, 1e-9, 1)
@example(_FAR_CASE, 0.0, points.BLOCK_ENTRIES)
@example(_FAR_CASE, 1e-9, 1)
def test_stacked_stampacchia_matches_the_per_base_sweep(case, tol, budget):
    X, bodies = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        certs = _stacked_certificates(bodies, X, tol)
        for x, cert in zip(X, certs):
            reference = svip_sweep_ref(bodies[x.coords], x, X, tol)
            assert _agrees_with_the_sweep(cert, reference, bodies[x.coords], X, tol)
        mp.setattr(vip, "bodies_for_ground", lambda *args, **kwargs: bodies)
        assert vip.svip_solutions(None, X, tol=tol) \
            == [x for x, cert in zip(X, certs) if cert is not None]


def test_stacked_stampacchia_in_3d_settles_each_base_at_its_stage(monkeypatch):
    # a 3-D ground whose bases share an empty body, a body with zero, and
    # two bodies without zero: `up` passes at its vertex (0, 0, 1) from
    # both of its bases, `tilted` at (1, 0, 0) from (0, 1, 1), and from
    # (1, 1, 1) the displacement to (0, 0, 0) fails both vertices of
    # `tilted`, so the screen refutes it; no base reaches the midpoint
    # sweep or the LP, and each base's verdict is its own one-base
    # certificate's, which re-validates
    X = [Point(p) for p in product((0.0, 1.0), repeat=3)]
    empty, ball = ConvexBody(3, ()), ConvexBody(3, unit_net(3))
    up = ConvexBody(3, ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8)))
    tilted = ConvexBody(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    bodies = {x.coords: (empty, ball, up, tilted)[i % 4] for i, x in enumerate(X)}
    zero, top, east = (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    expected = [None, zero, top, east, None, zero, top, None]
    screened, late = [], []
    screen = vip._refuted
    monkeypatch.setattr(vip, "_refuted", lambda *args: screened.append(screen(*args)) or screened[-1])
    monkeypatch.setattr(vip, "_midpoint_witness", lambda *args: late.append(args))
    monkeypatch.setattr(vip, "_lp_witness", lambda *args: late.append(args))
    monkeypatch.setattr(vip, "bodies_for_ground", lambda *args, **kwargs: bodies)
    for tol in (0.0, 1e-9):
        screened.clear()
        certs = [svip_membership(bodies[x.coords], x, X, tol) for x in X]
        assert [c and c.witness.coords for c in certs] == expected
        assert np.concatenate(screened).tolist() == [True]
        screened.clear()
        assert _stacked_certificates(bodies, X, tol) == certs
        assert np.concatenate(screened).tolist() == [True]
        assert not late
        assert vip.svip_solutions(None, X, tol=tol) \
            == [x for x, cert in zip(X, certs) if cert is not None]
        assert all(certificate_valid(c, bodies[c.solution.coords], X) for c in certs if c)


@DIFFERENTIAL
@given(_bodies_and_grounds(), st.sampled_from((0.0, 1e-9, 1e-3)))
def test_random_2d_witnesses_match(case, tol):
    body, xhat, X = case
    assert _agrees_with_the_sweep(svip_membership(body, xhat, X, tol),
                                  svip_sweep_ref(body, xhat, X, tol), body, X, tol)


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


def test_a_near_tie_at_tol_zero_gets_an_exact_witness_or_none():
    # both vertices fail at d by one rounding error (their products compute
    # to -1.1e-16 < 0); their midpoint's product computes to 0.0 but is
    # -1.56e-17 exactly, so at tol 0 it is no witness: the base gets a
    # witness whose products are >= 0 exactly, or none
    v, w = pt(0.422128466173938, 0.4241708158072166), pt(0.4069278311689689, 0.4088966368131169)
    X = [pt(1.2351047705900675, -1.2291578367575862)]
    xhat = pt(0.0, 0.0)
    body = ConvexBody(2, (v, w))
    mid = tuple(0.5 * (a + b) for a, b in zip(v, w))
    assert sum(Fraction(a) * Fraction(b) for a, b in zip(mid, X[0].coords)) < 0
    cert = svip_membership(body, xhat, X, 0.0)
    assert cert is None or (cert.witness.coords != mid and _passes_all(cert.witness.coords, xhat, X, 0.0))
    assert cert == svip_sweep_ref(body, xhat, X, 0.0)


def test_the_screen_refutes_only_where_every_midpoint_fails():
    # the same vertices against -d fail by far more than the slack
    body = ConvexBody(2, (pt(0.42, 0.43), pt(0.40, 0.41)))
    X = [pt(0.0, 0.0), pt(-1.0, -1.0)]
    assert svip_membership(body, pt(0.0, 0.0), X, 0.0) is None
    assert svip_sweep_ref(body, pt(0.0, 0.0), X, 0.0) is None


def test_3d_returns_no_witness_beyond_the_floor():
    # the only vertex fails the floor at d by 5e-4; the 3-D search must not
    # return it as a witness, which `certificate_valid` would reject
    body = ConvexBody(3, ((1.0, 0.0, 0.0),))
    X = [pt(-1.5e-3, 0.0, 0.0)]
    assert not certificate_valid(VipCertificate(pt(0.0, 0.0, 0.0), "stampacchia",
                                                pt(1.0, 0.0, 0.0), 1e-3), body, X)
    assert svip_membership(body, pt(0.0, 0.0, 0.0), X, 1e-3) is None


def test_an_lp_point_that_misses_a_floor_by_rounding_is_no_witness():
    # at tol 0 the two floors pin w_x = 0, met only at (0, 1/3) of the
    # segment, which neither vertex nor the midpoint is; the LP's point is
    # a rounded convex combination whose w_x may come out off zero by
    # rounding (1.1e-16 with HiGHS here), and then it must not be returned
    body = ConvexBody(2, ((-1.0, 1.0), (2.0, -1.0)))
    X, xhat = [pt(1.0, 0.0), pt(-1.0, 0.0)], pt(0.0, 0.0)
    cert = svip_membership(body, xhat, X, 0.0)
    assert cert is not None and (certificate_valid(cert, body, X)
                                 and _passes_all(cert.witness.coords, xhat, X, 0.0))
    cert = svip_membership(body, xhat, X, 1e-9)
    assert cert is not None and certificate_valid(cert, body, X)


unit_coord = st.floats(-1.0, 1.0, allow_nan=False)
point_3d = st.tuples(unit_coord, unit_coord, unit_coord)


@settings(settings.get_profile("differential"), max_examples=12)
@given(st.lists(point_3d, min_size=1, max_size=4), st.lists(point_3d, min_size=1, max_size=5),
       st.sampled_from((0.0, 1e-9, 1e-3)))
def test_every_3d_certificate_is_valid(verts, ground, tol):
    # at tol = 0 too: a witness that is a rounded convex combination of
    # vertices has an NNLS hull residual of a few eps, which the hull test's
    # rounding floor accepts
    body, X, xhat = ConvexBody(3, verts), [Point(g) for g in ground], pt(0.0, 0.0, 0.0)
    cert = svip_membership(body, xhat, X, tol)
    if cert is None:
        return
    assert certificate_valid(cert, body, X)
    assert _passes_all(cert.witness.coords, xhat, X, tol)


# weights i/12 on the simplex, one array per vertex count
_SIMPLEX_TWELFTHS = {k: np.array([c for c in product(range(13), repeat=k) if sum(c) == 12]) / 12.0
                     for k in range(1, 5)}


@pytest.mark.parametrize("dim", (2, 3))
@DIFFERENTIAL
@given(st.lists(point_3d, min_size=1, max_size=4, unique=True),
       st.lists(point_3d, max_size=6), point_3d, st.sampled_from((0.0, 1e-9)))
def test_the_decider_certifies_wherever_a_simplex_grid_point_does(dim, verts, ground, x, tol):
    # an independent reference: if a grid point of the body clears every
    # floor by 1e-6, the body has a witness and the stages must find one;
    # in 2-D the points are the 3-D draws without their last coordinate
    verts, ground, x = [v[:dim] for v in verts], [g[:dim] for g in ground], x[:dim]
    body, X, xhat = ConvexBody(dim, verts), [Point(g) for g in ground], Point(x)
    cert = svip_membership(body, xhat, X, tol)
    D = np.array(ground, dtype=float).reshape(-1, dim) - np.array(x)
    floor = -tol * (1.0 + np.linalg.norm(D, axis=1))
    W = _SIMPLEX_TWELFTHS[len(body.vertices)] @ body.vertices
    if ((W @ D.T - floor) >= 1e-6).all(axis=1).any():
        assert cert is not None
    if cert is not None:
        assert certificate_valid(cert, body, X)
        assert _passes_all(cert.witness.coords, xhat, X, tol)


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
def test_fixture_minty_sets_match(name, monkeypatch):
    fx = get_fixture(name)
    budgets = (points.BLOCK_ENTRIES, 997)  # the default blocks, and blocks of a few candidates
    for tol in TOLS:
        reference = mvip_solutions_ref(fx.cone_oracle, fx.default_ground, tol)
        for budget in budgets:
            monkeypatch.setattr(points, "BLOCK_ENTRIES", budget)
            assert mvip_solutions(fx.cone_oracle, fx.default_ground, tol) == reference


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
       _point2, st.sampled_from(TOLS + (1e-3, 0.5)), _BUDGETS)
@example([((0.0, 0.0), Cone.ray((1.0, 0.0))), ((1e200, 0.0), Cone.full(2))],
         (-1e200, 1e200), 1e-9, 1)
def test_random_2d_minty_fields_match(field, outside, tol, budget):
    cones = {Point(p).coords: cone for p, cone in field}
    X = [Point(p) for p in cones]
    oracle = lambda y: cones[y.coords]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        assert mvip_solutions(oracle, X, tol) == mvip_solutions_ref(oracle, X, tol)
        # a candidate that need not lie in X
        xhat = Point(outside)
        assert mvip_membership(oracle, xhat, X, tol) == mvip_membership_ref(oracle, xhat, X, tol)


@DIFFERENTIAL
@given(st.lists(st.tuples(_quarter, st.sampled_from(("full", "zero", "left", "right", "both"))),
                min_size=1, max_size=20, unique_by=lambda item: item[0]),
       st.sampled_from(TOLS + (1e-3, 0.5)), _BUDGETS)
@example([(0.0, "right"), (1e200, "left"), (-1e200, "full")], 1e-9, 1)
@example([(0.0, "right"), (1e200, "zero")], 0.0, points.BLOCK_ENTRIES)
def test_random_1d_minty_fields_match(field, tol, budget):
    make = {"full": Cone.full(1), "zero": Cone.zero(1), "left": Cone.ray((-1.0,)),
            "right": Cone.ray((2.0,)), "both": Cone.generated(((-0.5,), (3.0,)))}
    cones = {(x,): make[kind] for x, kind in field}
    X = GroundSet.explicit(pt(x) for x, _ in field)
    oracle = lambda y: cones[y.coords]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "BLOCK_ENTRIES", budget)
        assert mvip_solutions(oracle, X, tol) == mvip_solutions_ref(oracle, X, tol)


# ------------------------------------------------------------ relation sweeps


# the anchors of the fixtures' `_eq`, each with the points 1e-9 +- 1e-12 away
# on both sides: just inside and just outside the equality tolerance
_ANCHORS = (0.0, 1.0, 2.0, 3.5, 4.0)


def _near(anchors):
    return [a + s * (1e-9 + t) for a in anchors for s in (1.0, -1.0)
            for t in (-1e-12, 0.0, 1e-12)] + list(anchors)


def _rule_points(fx):
    pts = list(fx.default_ground) + list(fx.me_ground())
    if fx.relation.dim == 1:
        pts += [pt(v) for v in _near(_ANCHORS)]
    else:
        pts += [pt(a, b) for a in _near((0.0, 1.0)) for b in _near((0.0, 1.0))]
        pts += [pt(a, b) for a in _near(_ANCHORS) for b in _near((0.0,))]
    return list(dict.fromkeys(pts))


def _columns(P, axis):
    return tuple(np.expand_dims(P[:, k], axis) for k in range(P.shape[1]))


@pytest.mark.parametrize("name", PREDICATE_FIXTURES)
def test_column_rules_match_the_scalar_rules(name):
    fx = get_fixture(name)
    rule, scalar = fx.relation.predicate, SCALAR_RULES[name]
    pts = _rule_points(fx)
    P = np.array([p.coords for p in pts])
    got = np.broadcast_to(rule(_columns(P, 1), _columns(P, 0)), (len(pts), len(pts)))
    assert got.tolist() == [[bool(scalar(x.coords, y.coords)) for y in pts] for x in pts]
    # box-sample candidates against their base, both ways round
    for x in list(fx.default_ground)[::11]:
        C = box_candidates(x, fx.sample_radius, fx.sample_step)
        A, b = np.array(C), tuple(np.array([v]) for v in x.coords)
        assert np.broadcast_to(rule(tuple(A.T), b), (len(C),)).tolist() \
            == [bool(scalar(c, x.coords)) for c in C]
        assert np.broadcast_to(rule(b, tuple(A.T)), (len(C),)).tolist() \
            == [bool(scalar(x.coords, c)) for c in C]


def _assert_sweeps_match(rel, ground, h, every=1, props_size=24):
    """Every relation sweep against its per-pair loop, on one ground."""
    pts = list(ground)
    assert maximal_elements(rel, ground) == maximal_elements_ref(h, ground)
    assert maxima(rel, ground) == maxima_ref(h, ground)
    assert preference_matrix(rel, ground).tolist() == [[h(x, y) for y in pts] for x in pts]
    coords = [y.coords for y in pts]
    for x in pts[::every]:
        assert preference_matrix(rel, [x], ground).tolist() == [[h(x, y) for y in pts]]
        assert strictly_better_mask(rel, x, coords).tolist() == strictly_better_mask_ref(h, x, coords)
        for which in ("U", "Us", "L", "Ls"):
            assert contour(rel, x, ground, which) == contour_ref(h, x, ground, which)
        assert sample_contour(rel, x, ground) == sample_contour_ref(h, x, ground)
    small = GroundSet.explicit(pts[::-(-len(pts) // props_size)])
    for prop in PROPERTIES:
        if prop == "mfip":
            for m in range(1, min(3, len(small)) + 1):
                g = small if m < 3 else GroundSet.explicit(list(small)[:12])
                assert check_property(rel, g, prop, m) == check_property_ref(h, g, prop, m)
        else:
            assert check_property(rel, small, prop) == check_property_ref(h, small, prop)


def _recorded(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


# a gap whose sign follows the first coordinate, so the audit downgrades
# flags (with warnings) on most relations and keeps them on a few
_AXIS_GAP = GapFunction(lambda x, y: x[0] - y[0], 1.0, negative_iff_better=True,
                        positive_iff_worse=True)


def _assert_gap_checks_match(gap, rel, ground, h):
    got, want = (_recorded(audit, gap, rel_or_h, ground)
                 for audit, rel_or_h in ((audit_gap_flags, rel), (audit_gap_flags_ref, h)))
    assert (got[0].flags(), got[1]) == (want[0].flags(), want[1])
    got = _recorded(zero_maximality_check, gap, rel, ground)
    want = _recorded(zero_maximality_check_ref, gap, h, ground)
    assert got == want


def test_zero_maximality_at_the_exact_threshold():
    # at base 0 the gap is exactly -tol (1 + ||d||), so the zero probe's
    # product, +-0, meets the threshold and passes: membership holds at a
    # base that is not maximal, and the report names it
    tol = 0.5
    gap = GapFunction(lambda x, y: -tol * (1.0 + abs(y[0] - x[0])) if y[0] > x[0]
                      else float(y[0] < x[0]), 1.0,
                      negative_iff_better=True, positive_iff_worse=True)
    rel = Relation.from_utility("rising", 1, lambda x: x[0])
    ground = GroundSet.explicit([pt(0.0), pt(1.0)])
    report = zero_maximality_check(gap, rel, ground, tol)
    assert report == zero_maximality_check_ref(gap, scalar_holds(rel), ground, tol)
    assert report.witness == (pt(0.0),) and report.detail == "membership=True, maximal=False"


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_sweeps_match(name):
    fx = get_fixture(name)
    h = scalar_holds(fx.relation)
    _assert_sweeps_match(fx.relation, fx.default_ground, h, every=7)
    assert maximal_elements(fx.relation, fx.me_ground()) == maximal_elements_ref(h, fx.me_ground())
    for gap in (fx.gap, zero_gap(), _AXIS_GAP):
        if gap is not None:
            _assert_gap_checks_match(gap, fx.relation, fx.default_ground, h)
    # at tol 0.05, vee-peak's and twin-plateau's reports name a failing base
    for tol in (0.0, 0.05) if fx.gap is not None else ():
        got, want = (_recorded(check, fx.gap, rel_or_h, fx.default_ground, tol)
                     for check, rel_or_h in ((zero_maximality_check, fx.relation),
                                             (zero_maximality_check_ref, h)))
        assert got == want


@DIFFERENTIAL
@given(st.integers(1, 12), st.sampled_from(("uniform", "closure", "utility")),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_tabular_sweeps_match(n, style, dim, seed):
    rel = random_tabular_relation(np.random.default_rng(seed), n, style, dim)
    ground = GroundSet.explicit(rel.table_ground)
    h = scalar_holds(rel)
    _assert_sweeps_match(rel, ground, h)
    for gap in (zero_gap(), _AXIS_GAP):
        _assert_gap_checks_match(gap, rel, ground, h)


# random rules over coordinate columns, each with its scalar twin: atoms
# compare a coordinate with a shifted coordinate of the other point, test
# one coordinate against a quarter-lattice value within 1e-9, or bound the
# distance along one axis; `not`, `and` and `or` combine them


def _rule_tree(dim):
    k = st.integers(0, dim - 1)
    leaf = st.one_of(
        st.tuples(st.just("ge"), k, k, _quarter),
        st.tuples(st.just("eq"), st.sampled_from((0, 1)), k, _quarter),
        st.tuples(st.just("near"), k, st.sampled_from((0.0, 0.25, 0.5))),
    )
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(("and", "or")), sub, sub)), max_leaves=5)


def _evaluate(tree, x, y, columns):
    op = tree[0]
    if op == "ge":
        return x[tree[1]] >= y[tree[2]] + tree[3]
    if op == "eq":
        return abs((x, y)[tree[1]][tree[2]] - tree[3]) <= 1e-9
    if op == "near":
        return abs(x[tree[1]] - y[tree[1]]) <= tree[2]
    if op == "not":
        inner = _evaluate(tree[1], x, y, columns)
        return ~inner if columns else not inner
    a, b = _evaluate(tree[1], x, y, columns), _evaluate(tree[2], x, y, columns)
    if columns:
        return a & b if op == "and" else a | b
    return (a and b) if op == "and" else (a or b)


@st.composite
def _column_rule_cases(draw):
    dim = draw(st.integers(1, 2))
    tree = draw(_rule_tree(dim))
    ground = draw(st.lists(st.tuples(*[_quarter] * dim), min_size=1, max_size=16, unique=True))
    rel = Relation.from_predicate("random-rule", dim, lambda x, y: _evaluate(tree, x, y, True))
    h = scalar_holds(rel, rule=lambda x, y: _evaluate(tree, x, y, False))
    return rel, GroundSet.explicit(pt(*p) for p in ground), h


@DIFFERENTIAL
@given(_column_rule_cases())
def test_random_column_rules_match(case):
    rel, ground, h = case
    _assert_sweeps_match(rel, ground, h)
    _assert_gap_checks_match(_AXIS_GAP, rel, ground, h)
    for x in list(ground)[:3]:
        assert box_sample(rel, x, 0.5, 0.25) == box_sample_ref(h, x, 0.5, 0.25)


def test_sweeps_cross_a_block_boundary(kinked):
    # kinked-threshold's extended ground has 301 points, so its 301 x 301
    # matrix spans two blocks
    rel, ground = kinked.relation, kinked.me_ground()
    assert len(ground) ** 2 > points.BLOCK_ENTRIES
    h = scalar_holds(rel)
    pts = list(ground)
    assert maximal_elements(rel, ground) == maximal_elements_ref(h, ground)
    assert maxima(rel, ground) == maxima_ref(h, ground)
    assert preference_matrix(rel, ground).tolist() == [[h(x, y) for y in pts] for x in pts]
    for prop in ("reflexive", "complete", "fip"):
        assert check_property(rel, ground, prop) == check_property_ref(h, ground, prop)


@pytest.mark.parametrize("entries", (1, 7, 64))
def test_every_sweep_matches_in_small_blocks(entries, monkeypatch, band):
    # blocks of a row or a few, so each witness search crosses blocks; the
    # gap checks read the relation in the same blocks as the gap table, and
    # a gap that is nan at one ground point fails the audit with warnings
    monkeypatch.setattr(points, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    cases = [(rel, GroundSet.explicit(rel.table_ground))
             for rel in (random_tabular_relation(rng, 9, style)
                         for style in ("uniform", "closure", "utility"))]
    wells = Relation.from_utility("twin-wells", 1, lambda x: -min(abs(x[0] - 0.2), abs(x[0] - 0.8)))
    cases += [(band.relation, band.default_ground), (wells, GroundSet.grid([(0.0, 1.0, 0.05)]))]
    for rel, ground in cases:
        h = scalar_holds(rel)
        _assert_sweeps_match(rel, ground, h)
        nan_at = list(ground)[len(ground) // 2].coords
        nan_gap = gap_from_utility(lambda x: math.nan if x == nan_at else sum(x), 1.0)
        for gap in (zero_gap(), _AXIS_GAP, nan_gap):
            _assert_gap_checks_match(gap, rel, ground, h)


@pytest.mark.parametrize("entries", (1, 7))
def test_gap_checks_are_the_same_in_small_blocks(entries, monkeypatch):
    # one gap-table row or a few per block: the audit's first offending
    # pairs and the first failing base are found across blocks
    def results():
        out = []
        for name in FIXTURES:
            fx = get_fixture(name)
            for gap, tol in product((fx.gap, _AXIS_GAP), (0.0, 0.05)):
                if gap is not None:
                    out.append(_recorded(zero_maximality_check, gap, fx.relation,
                                         fx.default_ground, tol))
        return out

    expected = results()
    assert {r.prop for r, _ in expected} == {"zero_maximality", "zero_maximality_precondition"}
    assert any(r.witness for r, _ in expected) and any(w for _, w in expected)
    monkeypatch.setattr(points, "BLOCK_ENTRIES", entries)
    assert results() == expected


def test_a_scalar_rule_fails_loudly_on_columns():
    # `and`/`or` ask an array for one truth value
    rel = Relation.from_predicate("scalar", 1, SCALAR_RULES["favored-one"])
    with pytest.raises(ValueError):
        maximal_elements(rel, GroundSet.grid([(0.0, 1.0, 0.25)]))
