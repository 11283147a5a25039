import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (
    Cone,
    ContourSample,
    ConvexBody,
    GroundSet,
    box_sample,
    body_from_sample,
    cone_unit_hull,
    maximal_elements,
    mvip_solutions,
    normal_membership,
    normal_membership_many,
    parse_grid_spec,
    pt,
    sample_contour,
    strict_normal_membership,
)
from prefmax.cones import DEFAULT_TOL, unit_net
from prefmax.points import row_norms, scaled_to

from scalar_reference import complete_equivalence_check, probe_fan, unit_net3_ref


def line_sample(base, lo, hi, step=0.01, exclude=()):
    xs = np.arange(lo, hi + step / 2, step)
    pts = tuple(pt(round(float(v), 12)) for v in xs
                if all(abs(v - e) > 1e-9 for e in exclude))
    return ContourSample(pt(base), pts)


# ------------------------------------------------ sample and body arrays


# each builds a 2-D sample or body from the given rows
MAKERS = pytest.mark.parametrize("make", [lambda rows: ContourSample(pt(0.0, 0.0), rows),
                                          lambda rows: ConvexBody(2, rows)],
                                 ids=["sample", "body"])


@MAKERS
def test_arrays_reject_non_finite_coordinates(make):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            make([(1.0, 2.0), (bad, 0.0)])
        with pytest.raises(ValueError):
            make(np.array([[0.5, bad]]))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_non_finite_probes_raise_instead_of_getting_a_verdict(bad):
    # a NaN or infinite probe has no place in a normal cone: every membership
    # test and every cone kind raises, an empty sample and a full or zero
    # cone included, as `ConvexBody.contains` does
    probe = (bad, 0.0)
    tests = [lambda s: normal_membership(s, probe), lambda s: normal_membership_many(s, [probe]),
             lambda s: strict_normal_membership(s, probe)]
    for sample in (ContourSample(pt(0.0, 0.0), [(1.0, 0.0)]), ContourSample(pt(0.0, 0.0), ())):
        for test in tests:
            with pytest.raises(ValueError):
                test(sample)
    for cone in (Cone.full(2), Cone.zero(2), Cone.ray((1.0, 0.0))):
        with pytest.raises(ValueError):
            cone.contains(probe)
        with pytest.raises(ValueError):
            cone.contains_many([(0.0, 1.0), probe])
    with pytest.raises(ValueError):
        ConvexBody(2, [(1.0, 0.0)]).contains(probe)


@MAKERS
def test_arrays_reject_a_wrong_dimension(make):
    for bad in ([(1.0,)], [(1.0, 2.0, 3.0)], [(1.0, 2.0), (1.0,)], np.zeros((2, 3)),
                np.zeros(2)):
        with pytest.raises(ValueError):
            make(bad)


def test_arrays_are_read_only_copies():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    sample = ContourSample(pt(0.0, 0.0), rows)
    body = ConvexBody(2, rows)
    rows[0, 0] = 9.0  # the caller's array is copied, not kept
    for arr in (sample.points, body.vertices):
        assert arr.shape == (2, 2) and arr.dtype == float
        assert arr[0, 0] == 1.0
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
    with pytest.raises(FrozenInstanceError):
        sample.points = rows
    with pytest.raises(FrozenInstanceError):
        body.vertices = rows


def test_arrays_accept_points_tuples_and_arrays_alike():
    as_points = ContourSample(pt(0.0, 1.0), (pt(0.5, 1.0), pt(0.25, -2.0)))
    as_tuples = ContourSample(pt(0.0, 1.0), [(0.5, 1), (0.25, -2.0)])
    as_array = ContourSample(pt(0.0, 1.0), np.array([[0.5, 1.0], [0.25, -2.0]]))
    assert as_points == as_tuples == as_array
    assert hash(as_points) == hash(as_array)
    assert ContourSample(pt(1.0), ()).points.shape == (0, 1)
    assert ConvexBody(3, ()).vertices.shape == (0, 3)


def test_equality_compares_base_and_coordinates_in_order():
    sample = ContourSample(pt(0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)])
    assert sample == ContourSample(pt(0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)])
    assert sample != ContourSample(pt(0.0, 0.5), [(1.0, 0.0), (0.0, 1.0)])
    assert sample != ContourSample(pt(0.0, 0.0), [(1.0, 0.0), (0.0, 1.5)])
    assert sample != ContourSample(pt(0.0, 0.0), [(0.0, 1.0), (1.0, 0.0)])
    assert sample != ContourSample(pt(0.0, 0.0), [(1.0, 0.0)])
    body = ConvexBody(2, [(1.0, 0.0), (0.0, 1.0)])
    assert body == ConvexBody(2, (pt(1.0, 0.0), pt(0.0, 1.0)))
    assert body != ConvexBody(2, [(0.0, 1.0), (1.0, 0.0)])
    assert ConvexBody(2, ()) != ContourSample(pt(0.0, 0.0), ())


# ----------------------------------------------------------- weak membership


def test_empty_contour_accepts_everything(favored):
    sample = sample_contour(favored.relation, pt(2.0), favored.default_ground)
    assert sample.is_empty
    assert normal_membership(sample, (5.0,))
    assert normal_membership(sample, (-123.0,))


def test_favored_point_cone_is_zero(favored):
    g = GroundSet.grid([(-2.0, 4.0, 0.01)])
    sample = sample_contour(favored.relation, pt(1.0), g)
    assert not sample.is_empty
    assert not normal_membership(sample, (0.5,))
    assert normal_membership(sample, (0.0,))


def test_halfline_membership_examples(halfline):
    sample = box_sample(halfline.relation, pt(0.0, 0.0), 2.0, 0.1)
    assert normal_membership(sample, (-1.0, 7.0))
    assert not normal_membership(sample, (0.1, 0.0))


def test_membership_dimension_mismatch(halfline):
    sample = box_sample(halfline.relation, pt(0.0, 0.0), 1.0, 0.25)
    with pytest.raises(ValueError):
        normal_membership(sample, (1.0,))


def test_vectorised_membership_matches_scalar(vee, rng):
    sample = sample_contour(vee.relation, pt(0.3), vee.default_ground)
    probes = rng.uniform(-2, 2, size=(50, 1))
    batch = normal_membership_many(sample, probes)
    for row, got in zip(probes, batch):
        assert normal_membership(sample, tuple(row)) == bool(got)


# --------------------------------------------------------- strict membership


def test_strict_membership_on_plane_line(halfline):
    sample = box_sample(halfline.relation, pt(1.0, 0.0), 2.0, 0.1)
    assert strict_normal_membership(sample, (-1.0, 0.0))
    assert not strict_normal_membership(sample, (0.0, 1.0))


def test_strict_membership_empty_contour(kinked):
    sample = sample_contour(kinked.relation, pt(0.0), kinked.default_ground)
    assert sample.is_empty
    assert strict_normal_membership(sample, (42.0,))


def test_strict_implies_weak(vee, rng):
    sample = sample_contour(vee.relation, pt(0.2), vee.default_ground)
    for p in rng.uniform(-3, 3, size=(60, 1)):
        if strict_normal_membership(sample, tuple(p)):
            assert normal_membership(sample, tuple(p))


def test_strict_requires_positive_margin(vee):
    sample = sample_contour(vee.relation, pt(0.2), vee.default_ground)
    with pytest.raises(ValueError):
        strict_normal_membership(sample, (-1.0,), margin=0.0)


# ----------------------------------------------------- cone-shape invariants


def test_zero_always_member(vee, halfline):
    s1 = sample_contour(vee.relation, pt(0.4), vee.default_ground)
    s2 = box_sample(halfline.relation, pt(0.5, 0.0), 1.0, 0.25)
    assert normal_membership(s1, (0.0,))
    assert normal_membership(s2, (0.0, 0.0))


@settings(deadline=None)
@given(st.floats(1e-6, 1e6))
def test_membership_invariant_under_positive_scaling(lam):
    sample = line_sample(0.3, 0.31, 1.09)  # strictly-better set of 0.3 under the vee
    for q in ((-1.0,), (0.25,)):
        scaled = (q[0] * lam,)
        assert normal_membership(sample, q) == normal_membership(sample, scaled)


def test_sum_of_accepted_is_accepted(halfline, rng):
    sample = box_sample(halfline.relation, pt(0.5, 0.0), 2.0, 0.1)
    accepted = []
    while len(accepted) < 100:
        q = tuple(rng.uniform(-3, 3, size=2))
        if normal_membership(sample, q):
            accepted.append(q)
    for _ in range(100):
        i, j = rng.integers(0, len(accepted), size=2)
        s = tuple(a + b for a, b in zip(accepted[i], accepted[j]))
        assert normal_membership(sample, s)


def test_strict_subset_of_weak_on_probes(halfline, rng):
    sample = box_sample(halfline.relation, pt(0.0, 0.0), 2.0, 0.1)
    for q in rng.uniform(-3, 3, size=(100, 2)):
        if strict_normal_membership(sample, tuple(q)):
            assert normal_membership(sample, tuple(q))


def test_lsc_fixture_weak_equals_strict_off_zero(vee, favored, rng):
    # on fixtures with open strictly-better sets, every accepted probe of
    # honest size is strictly accepted with the default margin
    for fx, bases in ((vee, (0.2, 0.9)), (favored, (0.3, 1.7))):
        for b in bases:
            sample = box_sample(fx.relation, pt(b), 2.0, 0.01)
            for q in rng.uniform(-3, 3, size=(50, 1)):
                if abs(q[0]) < 0.1:
                    continue
                if normal_membership(sample, tuple(q)):
                    assert strict_normal_membership(sample, tuple(q), margin=1e-7)


def test_non_lsc_gap_weak_without_strict(halfline):
    # the vertical direction is normal but never strictly normal on the line
    for x in (0.0, 0.5, 1.0, 2.0):
        sample = box_sample(halfline.relation, pt(x, 0.0), 2.0, 0.1)
        assert not sample.is_empty
        assert normal_membership(sample, (0.0, 1.0))
        assert not strict_normal_membership(sample, (0.0, 1.0))


# ------------------------------------------------------- closedness, sampled


def test_membership_closed_along_sequences(vee, favored):
    tol = 1e-9
    # approach the vee's peak from the left with the constant member -1
    for k in range(1, 40):
        x = 0.7 - 1.0 / (k + 1)
        sample = box_sample(vee.relation, pt(x), 2.0, 0.01)
        assert normal_membership(sample, (-1.0,), tol)
    limit = box_sample(vee.relation, pt(0.7), 2.0, 0.01)
    assert normal_membership(limit, (-1.0,), 10 * tol)

    # members varying along the sequence, converging to a member at the limit
    for k in range(1, 40):
        x = 0.5 + 0.4 / k  # stays clear of the favored point at 1.0
        sample = box_sample(favored.relation, pt(x), 2.0, 0.01)
        assert normal_membership(sample, (2.0 + 1.0 / k,), tol)
    limit = box_sample(favored.relation, pt(0.5), 2.0, 0.01)
    assert normal_membership(limit, (2.0,), 10 * tol)


# ------------------------------------------------------------ hull building


def test_unit_hull_full_1d():
    body = cone_unit_hull(Cone.full(1))
    assert {tuple(v) for v in body.vertices.tolist()} == {(-1.0,), (1.0,)}
    assert body.contains((0.3,)) and body.contains((-1.0,))
    assert not body.contains((1.2,))


def test_unit_hull_zero_cone_empty():
    body = cone_unit_hull(Cone.zero(1))
    assert body.is_empty
    assert not body.contains((0.0,))


def test_unit_hull_halfplane_contains_vertical_and_zero():
    cone = Cone.generated(((-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
    body = cone_unit_hull(cone)
    assert body.contains((0.0, 1.0))
    assert body.contains((0.0, 0.0))
    assert body.contains((-0.5, 0.4))
    assert not body.contains((0.2, 0.1))


def test_body_from_sample_matches_closed_form(vee):
    g = vee.default_ground
    ray_body = body_from_sample(sample_contour(vee.relation, pt(0.3), g))
    assert {tuple(v) for v in ray_body.vertices.tolist()} == {(-1.0,)}
    ball_body = body_from_sample(sample_contour(vee.relation, pt(0.7), g))
    assert ball_body.contains((0.0,)) and ball_body.contains((1.0,))


def test_unit_net_shapes():
    # 1-D and 3-D only: 2-D bodies are read off cone shapes
    assert unit_net(1).shape == (2, 1)
    assert unit_net(3).shape[1] == 3
    norms = np.linalg.norm(unit_net(3), axis=1)
    assert np.allclose(norms, 1.0)
    for dim in (2, 4):
        with pytest.raises(ValueError):
            unit_net(dim)


def test_unit_net_3d_is_the_nested_loops_net():
    net, ref = unit_net(3), unit_net3_ref()
    assert net.shape == ref.shape == (26, 3) and net.dtype == ref.dtype
    assert net.tobytes() == ref.tobytes()


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone(1, "generated", ())
    with pytest.raises(ValueError):
        Cone.ray((0.0, 0.0))
    with pytest.raises(ValueError):
        Cone(2, "sideways")
    with pytest.raises(ValueError, match="at least one generator"):
        Cone.generated([])


# --------------------------------------------- generators and queries at any scale


def test_a_query_whose_squares_overflow_keeps_its_direction():
    # ||(-1e200, 0)||^2 overflows; read as the zero vector, it was in the cone
    assert not Cone.ray((1.0, 0.0)).contains((-1e200, 0.0))
    assert Cone.ray((1.0, 0.0)).contains((1e200, 0.0))


def test_a_generator_whose_squares_overflow_keeps_its_direction():
    assert Cone.ray((1e200,)).contains((1.0,))
    assert Cone.ray((1e200,)).units.tolist() == [[1.0]]


def test_the_unit_hull_reads_the_direction_of_a_generator_whose_squares_overflow():
    # read as the zero vector, (1e200, 0) would leave a ray, or the ball;
    # the quarter-plane wedge's body is its two unit edges
    big, unit = (cone_unit_hull(Cone.generated([g, (0.0, 1.0)]))
                 for g in ((1e200, 0.0), (1.0, 0.0)))
    assert unit.vertices.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert big == unit


def test_the_minty_set_reads_the_direction_of_a_generator_whose_squares_overflow():
    X = parse_grid_spec("0:1:0.25")
    big, unit = Cone.ray((-1e200,)), Cone.ray((-1.0,))
    assert mvip_solutions(lambda p: big, X) == mvip_solutions(lambda p: unit, X) == [pt(1.0)]


def test_a_generator_whose_squares_underflow_is_a_direction():
    cone = Cone.ray((1e-170, 0.0))
    assert cone.units.tolist() == [[1.0, 0.0]]
    assert cone.contains((3.0, 0.0)) and not cone.contains((0.0, 1.0))
    with pytest.raises(ValueError, match="nonzero"):
        Cone.ray((0.0, -0.0))


def test_unit_generators_are_read_only_and_built_once():
    gens = [(3.0, 4.0), (0.0, -2.0), (-1e-200, 1e-200)]
    cone = Cone.generated(gens)
    assert cone.units.tolist() == [list(scaled_to(g, 1.0)) for g in gens]
    assert cone.units is cone.units and not cone.units.flags.writeable
    assert Cone.full(2).units.shape == (0, 2) and Cone.zero(3).units.shape == (0, 3)


@pytest.mark.parametrize("dim, vertices, query", [
    (2, [(1.0, 0.0), (0.0, 1.0)], (1e200, 0.0)),
    (2, [(1.0, 0.0), (0.0, 1.0)], (-1e200, 5.0)),
    (1, [(0.0,), (1.0,)], (1e200,)),
    (2, [(1e200, 1e200), (2e200, 1e200)], (0.0, 0.0)),
])
def test_a_far_query_or_body_is_measured_at_its_length(dim, vertices, query):
    # with ||q||^2 read as inf the threshold tol (1 + ||q||) let every query
    # in; the bisector bound squared its 1e200-scale product in Python
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not ConvexBody(dim, vertices).contains(query)


def test_a_query_inside_a_far_body_is_contained():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ConvexBody(2, [(1e200, 1e200), (2e200, 1e200)]).contains((1.5e200, 1e200))


# quarter-integers and floats in [0.1, 3], of either sign: times 2^k for
# |k| <= 1000 every nonzero coordinate stays a normal float
SCALABLE = st.one_of(st.integers(-8, 8).map(lambda n: n / 4.0),
                     st.builds(lambda s, c: s * c, st.sampled_from((1.0, -1.0)),
                               st.floats(0.1, 3.0)))


@st.composite
def scalable_cones(draw, dim):
    gens = draw(st.lists(st.tuples(*[SCALABLE] * dim).filter(any), min_size=1, max_size=4))
    return Cone.generated(gens)


def _scaled(cone, s):
    return Cone.generated([tuple(s * c for c in g) for g in cone.generators])


@settings(settings.get_profile("differential"), max_examples=60)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(scalable_cones(d), min_size=1, max_size=3),
    st.lists(st.tuples(*[SCALABLE] * d), min_size=1, max_size=12))),
    st.integers(-1000, 1000), st.sampled_from((0.0, DEFAULT_TOL)))
def test_cone_verdicts_do_not_change_when_generators_and_queries_are_rescaled(drawn, k, tol):
    # the squares of a generator or query overflow for k above about 510 and
    # underflow below about -510
    cones, queries = drawn
    s = 2.0 ** k
    Q = np.array(queries)
    Q = Q[(row_norms(Q) > tol) & (row_norms(Q * s) > tol)]
    net = probe_fan(Q.shape[1])
    for cone in cones:
        big = _scaled(cone, s)
        assert big.contains_many(Q * s, tol).tolist() == cone.contains_many(Q, tol).tolist()
        assert big.contains_many(net).tolist() == cone.contains_many(net).tolist()
        V, W = cone_unit_hull(big).vertices, cone_unit_hull(cone).vertices
        assert V.shape == W.shape and np.abs(V - W).max() <= 2e-12
    if Q.shape[1] <= 2:
        X = parse_grid_spec(",".join(["-0.5:0.5:0.25"] * Q.shape[1]))
        pick = {p: i % len(cones) for i, p in enumerate(X)}
        scaled = [_scaled(cone, s) for cone in cones]
        assert (mvip_solutions(lambda p: scaled[pick[p]], X)
                == mvip_solutions(lambda p: cones[pick[p]], X))


def test_cone_contains_basics():
    cone = Cone.generated(((-1.0, 0.0), (0.0, 1.0)))
    assert cone.contains((0.0, 0.0))
    assert cone.contains((-2.0, 3.0))
    assert not cone.contains((0.5, 0.5))
    assert Cone.zero(2).contains((0.0, 0.0))
    assert not Cone.zero(2).contains((1e-3, 0.0))


# ------------------------------------------------- the complete-equivalence


def test_equivalence_on_complete_utility(vee, rng):
    probes = [tuple(p) for p in rng.uniform(-2, 2, size=(50, 1))]
    assert complete_equivalence_check(vee.relation, pt(0.3), probes, vee.default_ground)


def test_equivalence_zero_probe_trivial(vee):
    assert complete_equivalence_check(vee.relation, pt(0.3), [(0.0,)], vee.default_ground)


def test_equivalence_sides_agree_pointwise_for_favored(favored):
    from prefmax.relations import holds
    from scalar_reference import dot, sub

    g = GroundSet.grid([(-2.0, 4.0, 0.01)])
    x = pt(1.0)
    sample = sample_contour(favored.relation, x, g)
    lhs = normal_membership(sample, (0.5,))
    rhs = all(holds(favored.relation, x, y) for y in g if dot((0.5,), sub(y, x)) > 0)
    assert lhs is False and rhs is False
    assert complete_equivalence_check(favored.relation, x, [(0.5,)], g)


# ------------------------------------------- nonemptiness of cones and hulls


def test_convex_strict_contours_yield_nonzero_directions(vee, kinked):
    from prefmax import get_fixture

    for fx in (vee, kinked, get_fixture("twin-plateau")):
        net = unit_net(1)
        for x in list(fx.default_ground)[::10]:
            sample = fx.contour_sampler(x)
            member = normal_membership_many(sample, net)
            assert member.any(), f"no nonzero direction at {x} on {fx.name}"


def test_strict_directions_everywhere_imply_convex_upper(vee):
    # a rational relation with a nonzero strictly-normal direction at every
    # grid point has convex weakly-better sets
    from prefmax import check_property

    net = unit_net(1)
    for x in vee.default_ground:
        sample = vee.contour_sampler(x)
        assert sample.is_empty or any(
            strict_normal_membership(sample, tuple(v)) for v in net)
    assert check_property(vee.relation, vee.default_ground, "convex_upper").holds


def test_hull_nonempty_on_lsc_convex_fixture(vee):
    for x in list(vee.default_ground)[::5]:
        body = body_from_sample(sample_contour(vee.relation, x, vee.default_ground))
        assert not body.is_empty


def test_hull_closed_across_the_kink(vee):
    # bodies left of the peak are the single vertex -1; the peak's body is
    # the full interval, so it still contains the limit of those vertices
    body_left = body_from_sample(sample_contour(vee.relation, pt(0.69), vee.default_ground))
    assert {tuple(v) for v in body_left.vertices.tolist()} == {(-1.0,)}
    body_peak = body_from_sample(sample_contour(vee.relation, pt(0.7), vee.default_ground))
    assert body_peak.contains((-1.0,))


def test_maximal_exists_on_compact_grids_of_nice_relations(vee, radial):
    from prefmax import get_fixture

    for fx in (vee, radial, get_fixture("mutual-zero"), get_fixture("twin-plateau")):
        assert maximal_elements(fx.relation, fx.default_ground)
