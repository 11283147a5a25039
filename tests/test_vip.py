import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from prefmax import (
    Cone,
    ConvexBody,
    ExperimentSpec,
    GroundSet,
    Relation,
    box_sample,
    certificate_valid,
    maxima,
    maximal_elements,
    mvip_membership,
    mvip_solutions,
    preference_matrix,
    pt,
    run_experiment,
    svip_membership,
    svip_solutions,
    uniqueness_check,
    zero_maximality_check,
)
from prefmax import vip
from prefmax.vip import VipCertificate, bodies_for_ground

from scalar_reference import dot, norm, scale, sub


def coords(points):
    return {p.coords for p in points}


# ----------------------------------------------------------------- grounds

MISMATCH = "^dimension mismatch: expected rows of 2 coordinates$"
_BODY = ConvexBody(2, [(1.0, 0.0), (0.0, 1.0)])
_MIXED = [pt(0.5, 0.0), pt(1.0, 0.0), pt(0.5, 0.0, 1.0)]


def test_a_stampacchia_base_rejects_a_ground_of_another_dimension():
    # six 1-D points are not three 2-D ones
    with pytest.raises(ValueError, match=MISMATCH):
        svip_membership(_BODY, pt(0.0, 0.0), [pt(float(i)) for i in range(6)])


def test_a_certificate_is_not_checked_against_a_ground_of_another_dimension():
    cert = svip_membership(_BODY, pt(0.0, 0.0), [pt(1.0, 1.0)])
    assert certificate_valid(cert, _BODY, [pt(1.0, 1.0)])
    with pytest.raises(ValueError, match=MISMATCH):
        certificate_valid(cert, _BODY, [pt(1.0, 1.0, 1.0)])


def test_a_minty_base_rejects_a_ground_of_another_dimension():
    with pytest.raises(ValueError, match=MISMATCH):
        mvip_membership(lambda y: Cone.full(2), pt(0.0, 0.0), [pt(1.0, 1.0, 1.0)])


@pytest.mark.parametrize("body", (ConvexBody(1, [(1.0,)]), ConvexBody(3, [(1.0, 0.0, 0.0)])))
def test_a_body_of_another_dimension_gets_no_certificate(body):
    # a 1-D vertex would meet only the first coordinate of each
    # displacement, and a 3-D one would run past the last
    ground = GroundSet.grid([(0.0, 1.0, 0.5), (0.0, 1.0, 0.5)])
    mismatch = re.escape(f"dimension mismatch: {sorted({body.dim, 2})}")
    with pytest.raises(ValueError, match=mismatch):
        svip_membership(body, pt(0.0, 0.0), ground)
    cert = VipCertificate(pt(0.0, 0.0), "stampacchia", pt(*body.vertices[0].tolist()), 1e-9)
    with pytest.raises(ValueError, match=mismatch):
        certificate_valid(cert, body, ground)


def test_the_box_route_rejects_a_ground_of_another_dimension(radial):
    # the ground is read at the relation's dimension, before any box is cut
    ground = GroundSet.grid([(0.0, 1.0, 0.25)])
    with pytest.raises(ValueError, match=MISMATCH):
        bodies_for_ground(radial.relation, ground, contour_sampler=radial.box_sampler)
    with pytest.raises(ValueError, match=MISMATCH):
        svip_solutions(radial.relation, ground, contour_sampler=radial.box_sampler)
    with pytest.raises(ValueError, match=MISMATCH):
        list(radial.box_sampler.samples(ground))


def test_the_solution_sets_reject_a_ground_of_mixed_dimensions(segment):
    with pytest.raises(ValueError, match=MISMATCH):
        svip_solutions(segment.relation, _MIXED, segment.cone_oracle)
    with pytest.raises(ValueError, match=MISMATCH):
        svip_solutions(segment.relation, _MIXED)
    with pytest.raises(ValueError, match=MISMATCH):
        mvip_solutions(segment.cone_oracle, _MIXED)


_SUM = Relation.from_utility("sum", 2, lambda p: p[0] + p[1])


@pytest.mark.parametrize("cone", (Cone.full(3), Cone.zero(1), Cone.ray((1.0, 0.0, 0.0))),
                         ids=("full", "zero", "generated"))
@pytest.mark.parametrize("run", (
    lambda oracle, X: mvip_solutions(oracle, X),
    lambda oracle, X: mvip_membership(oracle, pt(0.0, 0.0), X),
    lambda oracle, X: uniqueness_check(_SUM, oracle, X),
), ids=("solutions", "membership", "uniqueness"))
def test_a_minty_cone_of_another_dimension_raises(cone, run):
    # a full or a zero cone has no generator rows to be read at the ground's
    # dimension: without its own check, a 3-D full cone refutes every
    # candidate and a 1-D zero cone accepts every one
    ground = GroundSet.grid([(0.0, 1.0, 0.5), (0.0, 1.0, 0.5)])
    with pytest.raises(ValueError, match=re.escape(f"dimension mismatch: {sorted({cone.dim, 2})}")):
        run(lambda y: cone, ground)


@pytest.mark.parametrize("route", ("box", "ground"))
def test_bodies_for_a_one_shot_iterable_are_the_grounds(radial, vee, route):
    # a ground is read once (`points.ground_points`): the same points as a
    # GroundSet, a list, a tuple or a one-shot iterator give the same
    # bodies, samples, solution sets, maximal sets, matrices and reports,
    # with bodies from the box sampler, the ground sample or a cone oracle;
    # an empty list gives none
    sampler = radial.box_sampler if route == "box" else None
    rel, oracle = radial.relation, vee.cone_oracle
    calls = [
        (radial, {
            "bodies": lambda X: bodies_for_ground(rel, X, contour_sampler=sampler),
            "svip": lambda X: svip_solutions(rel, X, contour_sampler=sampler),
            "samples": lambda X: list(radial.box_sampler.samples(X)),
            "maximal": lambda X: maximal_elements(rel, X),
            "maxima": lambda X: maxima(rel, X),
            "matrix": lambda X: preference_matrix(rel, X).tolist(),
        }),
        (vee, {
            "svip-cones": lambda X: svip_solutions(vee.relation, X, oracle),
            "mvip": lambda X: mvip_solutions(oracle, X),
            "zero-maximality": lambda X: zero_maximality_check(vee.gap, vee.relation, X),
        }),
    ]
    for fx, table in calls:
        ground = fx.default_ground
        for name, call in table.items():
            expected = call(ground)
            for X in (list(ground), tuple(ground), iter(ground)):
                assert call(X) == expected, name
            if name != "zero-maximality":
                assert call([]) in ([], {}), name


# ------------------------------------------------------------- Stampacchia


def test_segment_certificate_witness_is_zero(segment):
    g = segment.default_ground
    bodies = bodies_for_ground(segment.relation, g, segment.cone_oracle)
    x = pt(0.5, 0.0)
    cert = svip_membership(bodies[x.coords], x, g)
    assert cert is not None
    assert cert.witness == pt(0.0, 0.0)
    assert certificate_valid(cert, bodies[x.coords], g)


def test_favored_sweep(favored):
    g = GroundSet.grid([(0.0, 2.0, 0.01)])
    bodies = bodies_for_ground(favored.relation, g, favored.cone_oracle)
    assert svip_membership(bodies[(1.0,)], pt(1.0), g) is None  # empty body
    cert = svip_membership(bodies[(0.5,)], pt(0.5), g)
    assert cert is not None and cert.witness == pt(0.0)
    assert certificate_valid(cert, bodies[(0.5,)], g)


def test_vee_sweep_certifies_only_peak(vee):
    sols = svip_solutions(vee.relation, vee.default_ground, vee.cone_oracle)
    assert coords(sols) == {(0.7,)}


def test_ball_on_empty_is_accepted_only_as_false(segment):
    args = (segment.relation, segment.default_ground, segment.cone_oracle)
    assert svip_solutions(*args, ball_on_empty=False) == svip_solutions(*args)
    with pytest.raises(ValueError, match="ball_on_empty=True"):
        svip_solutions(*args, ball_on_empty=True)


@pytest.mark.parametrize("sweep", (bodies_for_ground, svip_solutions))
def test_a_stale_positional_flag_is_a_type_error(segment, sweep):
    # `tol` is keyword-only, so an old positional hull-mode bool cannot
    # bind to it
    with pytest.raises(TypeError, match="positional argument"):
        sweep(segment.relation, segment.default_ground, segment.cone_oracle, True)


def test_empty_body_never_certifies():
    body = ConvexBody(1, ())
    assert svip_membership(body, pt(0.0), [pt(0.0), pt(1.0)]) is None


def test_all_returned_certificates_revalidate(segment, vee):
    for fx in (segment, vee):
        g = fx.default_ground
        bodies = bodies_for_ground(fx.relation, g, fx.cone_oracle)
        for x in list(g)[::10]:
            cert = svip_membership(bodies[x.coords], x, g)
            if cert is not None:
                assert certificate_valid(cert, bodies[x.coords], g)


def test_dim3_witness_search_feasible_and_not():
    body = ConvexBody(3, (pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)))
    xhat = pt(0.0, 0.0, 0.0)
    feasible_ground = [xhat, pt(-1.0, 1.0, 0.0)]
    cert = svip_membership(body, xhat, feasible_ground)
    assert cert is not None
    assert certificate_valid(cert, body, feasible_ground)
    infeasible_ground = [xhat, pt(-1.0, -1.0, 0.0)]
    assert svip_membership(body, xhat, infeasible_ground) is None


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_an_empty_ground_gets_a_certificate(dim):
    # zero is outside the body, so the witness comes from the vertex sweep
    # or the 3-D LP, with no floor to meet
    body = ConvexBody(dim, ((1.0,) + (0.0,) * (dim - 1),))
    cert = svip_membership(body, pt(*(0.0,) * dim), [])
    assert cert is not None and certificate_valid(cert, body, [])


def _triangle(dim):
    """A triangle whose witnesses are all inside it: every vertex and every
    vertex midpoint fails one of the two displacements, while (1.9, 0.95)
    clears both by about 0.09 (in 3-D, the same with a zero third
    coordinate)."""
    lift = lambda *c: pt(*c, *(0.0,) * (dim - 2))
    body = ConvexBody(dim, (lift(1.0, 0.0), lift(3.0, 0.0), lift(2.0, 3.0)))
    return body, lift(0.0, 0.0), [lift(1.0, -1.9), lift(-1.0, 2.1)]


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("tol", (0.0, 1e-9))
def test_a_witness_inside_the_body_is_found_by_the_lp(dim, tol, monkeypatch):
    body, xhat, X = _triangle(dim)
    calls = []
    lp = vip._lp_witness
    monkeypatch.setattr(vip, "_lp_witness", lambda *args: calls.append(args) or lp(*args))
    cert = svip_membership(body, xhat, X, tol)
    assert len(calls) == 1
    assert cert is not None and certificate_valid(cert, body, X)


def test_a_witness_lp_that_does_not_solve_raises(monkeypatch):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: SimpleNamespace(
        status=4, message="Numerical difficulties encountered."))
    body, xhat, X = _triangle(2)
    with pytest.raises(RuntimeError, match="Numerical difficulties"):
        svip_membership(body, xhat, X)


def test_a_3d_bowl_is_decided_before_the_lp(monkeypatch):
    # u = -||x - a|| on the 7^3 grid of step 0.25 around a, with sampled
    # bodies: the zero test, the vertex sweep and the screen decide every
    # base, and the solution set is the peak
    a = (1.0, 2.0, 0.5)
    rel = Relation.from_utility(
        "bowl-3d", 3, lambda x: -math.dist(x, a),
        columns=lambda x: -np.sqrt((x[0] - a[0]) ** 2 + (x[1] - a[1]) ** 2 + (x[2] - a[2]) ** 2))
    ground = GroundSet.grid([(c - 0.75, c + 0.75, 0.25) for c in a])
    late = []
    monkeypatch.setattr(vip, "_midpoint_witness", lambda *args: late.append(args))
    monkeypatch.setattr(vip, "_lp_witness", lambda *args: late.append(args))
    for tol in (0.0, 1e-9):
        sols = svip_solutions(rel, ground, tol=tol,
                              contour_sampler=lambda x: box_sample(rel, x, 1.0, 0.25))
        assert len(ground) == 343 and coords(sols) == {a}
    assert not late


# ------------------------------------------------------------------- Minty


def test_kinked_minty_set_empty(kinked):
    assert mvip_solutions(kinked.cone_oracle, kinked.default_ground) == []


def test_vee_minty_singleton(vee):
    assert coords(mvip_solutions(vee.cone_oracle, vee.default_ground)) == {(0.7,)}


def test_minty_singleton_ground_trivial(vee):
    x = pt(0.25)
    assert mvip_membership(vee.cone_oracle, x, [x])


def test_full_cone_rejects_any_other_point():
    oracle = lambda p: Cone.full(2)
    assert mvip_membership(oracle, pt(0.0, 0.0), [pt(0.0, 0.0)])
    assert not mvip_membership(oracle, pt(0.0, 0.0), [pt(0.0, 0.0), pt(0.3, 0.1)])


def test_generator_check_consistent_with_random_cone_elements(rng):
    # if every generator passes the Minty inequality at y, every conic
    # combination must as well; random sampling should never contradict that
    for dim in (2, 3):
        for _ in range(20):
            k = int(rng.integers(1, 9))
            gens = rng.uniform(-1, 1, size=(k, dim))
            gens = gens[np.linalg.norm(gens, axis=1) > 1e-6]
            if len(gens) == 0:
                continue
            cone = Cone.generated([tuple(g) for g in gens])
            y = pt(*rng.uniform(-2, 2, size=dim))
            xhat = pt(*rng.uniform(-2, 2, size=dim))
            if not mvip_membership(lambda p: cone, xhat, [y]):
                continue
            d = sub(xhat, y)
            tol = 1e-9 * (1.0 + norm(d))
            unit = gens / np.linalg.norm(gens, axis=1)[:, None]
            weights = rng.dirichlet(np.ones(len(unit)), size=1000)
            combos = weights @ unit
            assert np.all(combos @ np.asarray(d) <= tol + 1e-12)


# -------------------------------------------------------- inclusion checks


def _inclusion(name: str) -> str:
    """The detail of the harness's svip-inclusion verdict for a fixture."""
    (verdict,) = run_experiment(ExperimentSpec(name, suite=("svip-inclusion",))).verdicts
    return verdict.detail


def test_favored_inclusion_equality(favored):
    g = favored.default_ground
    sols = svip_solutions(favored.relation, g, favored.cone_oracle)
    me = maximal_elements(favored.relation, g)
    assert coords(sols) == coords(me)
    assert _inclusion("favored-one").startswith("inclusion held")


def test_segment_inclusion_fails_off_the_right_end():
    # every point but the maximal right end (1, 0) violates the inclusion
    assert _inclusion("segment-line") == \
        "inclusion failed (expected failure); 100 of 101 solutions not maximal"


def test_radial_inclusion_with_sampled_bodies():
    assert _inclusion("radial-bowl").startswith("inclusion held")


# ------------------------------------------------------------- uniqueness


def test_uniqueness_verdicts(vee):
    # kinked-threshold's verdict needs its extended ground: see
    # test_harness.py::test_kinked_uniqueness_fails_on_the_extended_ground
    from prefmax import get_fixture

    assert uniqueness_check(vee.relation, vee.cone_oracle, vee.default_ground)
    twin = get_fixture("twin-plateau")
    assert uniqueness_check(twin.relation, twin.cone_oracle, twin.default_ground)


def test_nonempty_both_sides_forces_equal_singletons(vee):
    me = maximal_elements(vee.relation, vee.default_ground)
    mv = mvip_solutions(vee.cone_oracle, vee.default_ground)
    assert me and mv
    assert coords(me) == coords(mv) and len(me) == 1


# ----------------------- the necessary inequality under completeness


def _maximal_inequality_holds(fx, ground, tol=1e-9):
    me = coords(maximal_elements(fx.relation, ground))
    for xhat in ground:
        if xhat.coords not in me:
            continue
        for y in ground:
            if y.coords in me:
                continue
            cone = fx.cone_oracle(y)
            gens = cone.generators if cone.tag == "generated" else ()
            for g in gens:
                d = sub(xhat, y)
                if dot(scale(g, 1.0 / norm(g)), d) > tol * (1.0 + norm(d)):
                    return False
    return True


def test_necessary_inequality_on_complete_fixtures(vee, segment):
    assert _maximal_inequality_holds(vee, vee.default_ground)
    assert _maximal_inequality_holds(segment, segment.default_ground)


def test_necessary_inequality_fails_without_completeness(kinked):
    window = coords(kinked.default_ground)
    me = [p for p in maximal_elements(kinked.relation, kinked.me_ground())
          if p.coords in window]
    xhat = me[0]
    y = pt(1.0)
    cone = kinked.cone_oracle(y)
    (g,) = cone.generators
    assert dot(g.coords, sub(xhat, y)) > 1e-9  # the inequality is violated


def test_hull_cache_shares_bodies(segment):
    bodies = bodies_for_ground(segment.relation, segment.default_ground, segment.cone_oracle)
    distinct = {id(b) for b in bodies.values()}
    assert len(distinct) == 1  # one shared half-plane hull


# ------------------------------------------------- certificates at tol 0


def _unit_bodies(dim, n, seed):
    """n random bodies of 2 to 6 unit vertices, with a few ground points each
    on the side of the vertices' mean (so most have a witness)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        V = rng.normal(size=(int(rng.integers(2, 7)), dim))
        V /= np.linalg.norm(V, axis=1)[:, None]
        Y = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), dim))
        Y *= np.sign(Y @ V.mean(axis=0))[:, None]
        yield ConvexBody(dim, V), [pt(*y) for y in Y.tolist()]


def test_tol_zero_midpoint_and_3d_witnesses_are_valid():
    """A witness that is a convex combination of vertices up to rounding (a
    vertex midpoint, or V^T lam in 3-D) passes the re-check at tol 0; its
    NNLS hull residual is a few eps, not exactly 0."""
    for dim, n in ((2, 300), (3, 100)):
        checked = 0
        for body, X in _unit_bodies(dim, n, seed=dim):
            xhat = pt(*(0.0,) * dim)
            cert = svip_membership(body, xhat, X, 0.0)
            if cert is None or not any(cert.witness.coords):
                continue
            checked += 1
            assert certificate_valid(cert, body, X), (body, X, cert)
        assert checked >= 40


def test_midpoint_witness_is_valid_at_tol_zero():
    body = ConvexBody(2, ((0.1, 0.7), (0.7, 0.1)))
    # NNLS leaves a hull residual of a few eps for this rounded midpoint
    w = 0.5 * (body.vertices[0] + body.vertices[1])
    cert = VipCertificate(pt(0.0, 0.0), "stampacchia", pt(*w.tolist()), 0.0)
    assert certificate_valid(cert, body, [pt(1.0, 1.0)])


def test_a_witness_just_outside_the_body_is_still_rejected():
    body = ConvexBody(2, ((0.1, 0.7), (0.7, 0.1)))
    out = 1e-9 / np.sqrt(2.0)
    for w in ((0.4 + out, 0.4 + out), (0.4 - out, 0.4 - out), (0.7 + 1e-9, 0.1)):
        cert = VipCertificate(pt(0.0, 0.0), "stampacchia", pt(*w), 0.0)
        assert not certificate_valid(cert, body, [pt(1.0, 1.0)]), w
    cert = VipCertificate(pt(0.0, 0.0, 0.0), "stampacchia", pt(0.5, 0.5, 1e-9), 0.0)
    assert not certificate_valid(cert, ConvexBody(3, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
                                 [pt(1.0, 1.0, 1.0)])


def test_the_floor_does_not_relax_the_inequalities():
    body = ConvexBody(2, ((0.1, 0.7), (0.7, 0.1)))
    w = pt(*(0.5 * (body.vertices[0] + body.vertices[1])).tolist())
    # <w, y - xhat> = -1e-12, below the tol-0 floor of 0
    y = pt(-1e-12 / w[0], 0.0)
    assert not certificate_valid(VipCertificate(pt(0.0, 0.0), "stampacchia", w, 0.0), body, [y])
