import numpy as np
import pytest

from prefmax import (
    Cone,
    ConvexBody,
    ExperimentSpec,
    GroundSet,
    certificate_valid,
    maximal_elements,
    mvip_membership,
    mvip_solutions,
    pt,
    run_experiment,
    svip_membership,
    svip_solutions,
    uniqueness_check,
)
from prefmax.vip import VipCertificate, bodies_for_ground

from scalar_reference import dot, norm, scale, sub


def coords(points):
    return {p.coords for p in points}


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


def test_dim3_subgradient_search_feasible_and_not():
    body = ConvexBody(3, (pt(1.0, 0.0, 0.0), pt(0.0, 1.0, 0.0)))
    xhat = pt(0.0, 0.0, 0.0)
    feasible_ground = [xhat, pt(-1.0, 1.0, 0.0)]
    cert = svip_membership(body, xhat, feasible_ground)
    assert cert is not None
    assert certificate_valid(cert, body, feasible_ground)
    infeasible_ground = [xhat, pt(-1.0, -1.0, 0.0)]
    assert svip_membership(body, xhat, infeasible_ground) is None


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


def test_uniqueness_verdicts(vee, kinked):
    from prefmax import get_fixture

    assert uniqueness_check(vee.relation, vee.cone_oracle, vee.default_ground)
    assert not uniqueness_check(kinked.relation, kinked.cone_oracle,
                                kinked.default_ground, me_ground=kinked.me_ground())
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
    on the side of the vertices' mean (so most have a witness, and the 3-D
    search finds it in few iterations)."""
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
