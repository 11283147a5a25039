import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefmax import (
    GroundSet,
    Relation,
    check_property,
    contour,
    fixture_names,
    get_fixture,
    holds,
    maxima,
    maximal_elements,
    preference_matrix,
    pt,
    strictly_prefers,
)
from prefmax.relations import PROPERTIES

from scalar_reference import random_tabular_relation


def coords(points):
    return {p.coords for p in points}


# ---------------------------------------------------------------- holds


def test_band_holds_examples(band):
    assert holds(band.relation, pt(4.0), pt(0.0))
    assert not holds(band.relation, pt(3.5), pt(2.0))  # the excluded pair


def test_favored_holds_example(favored):
    assert holds(favored.relation, pt(2.0), pt(1.0))


def test_holds_dimension_mismatch(band):
    with pytest.raises(ValueError):
        holds(band.relation, pt(1.0, 2.0), pt(0.0, 0.0))


def test_tabular_point_not_in_ground():
    rel = Relation.from_table("t", [pt(0.0), pt(1.0)], [[1, 0], [1, 1]])
    assert holds(rel, pt(1.0), pt(0.0))
    with pytest.raises(ValueError):
        holds(rel, pt(2.0), pt(0.0))


def test_tabular_ground_points_must_be_distinct():
    # with a repeated point, one row would answer for both copies
    with pytest.raises(ValueError, match="distinct"):
        Relation.from_table("dup", [pt(0.0), pt(1.0), pt(0.0)],
                            [[1, 0, 0], [1, 1, 1], [0, 1, 1]])


# ------------------------------------------------------ strictly_prefers


def test_band_strict_example(band):
    assert strictly_prefers(band.relation, pt(3.5), pt(3.0))
    assert strictly_prefers(band.relation, pt(3.0), pt(2.0))
    assert not strictly_prefers(band.relation, pt(3.5), pt(2.0))


def test_self_preference_never_strict(vee, band, favored):
    for fx in (vee, band, favored):
        for x in list(fx.default_ground)[::17]:
            assert not strictly_prefers(fx.relation, x, x)


def test_mutual_zero_has_no_strict_part():
    from prefmax import get_fixture

    fx = get_fixture("mutual-zero")
    pts = list(fx.default_ground)[::7]
    for x in pts:
        for y in pts:
            assert not strictly_prefers(fx.relation, y, x)


# ----------------------------------------------------------------- contour


def test_favored_strict_contours(favored):
    g = GroundSet.grid([(0.0, 2.0, 0.5)])
    assert coords(contour(favored.relation, pt(1.0), g, "Us")) == {(0.0,), (0.5,), (1.5,), (2.0,)}
    assert contour(favored.relation, pt(0.5), g, "Us") == []


def test_reflexive_contour_contains_base(vee):
    g = vee.default_ground
    for x in list(g)[::25]:
        assert x.coords in coords(contour(vee.relation, x, g, "U"))


def test_contour_rejects_unknown_selector(vee):
    with pytest.raises(ValueError):
        contour(vee.relation, pt(0.5), vee.default_ground, "Q")


# ----------------------------------------------------------- check_property


def test_band_transitivity_witness(band):
    rep = check_property(band.relation, band.default_ground, "transitive")
    assert not rep.holds
    assert rep.witness == (pt(3.5), pt(3.0), pt(2.0))
    x, y, z = rep.witness
    assert holds(band.relation, x, y) and holds(band.relation, y, z)
    assert not holds(band.relation, x, z)


def test_band_has_fip(band):
    assert check_property(band.relation, band.default_ground, "fip").holds


def test_band_not_reflexive_not_complete(band):
    rep = check_property(band.relation, band.default_ground, "reflexive")
    assert not rep.holds and not holds(band.relation, *rep.witness, rep.witness[0])
    rep = check_property(band.relation, band.default_ground, "complete")
    assert not rep.holds
    x, y = rep.witness
    assert not holds(band.relation, x, y) and not holds(band.relation, y, x)


def test_mfip_requires_valid_m(band):
    with pytest.raises(ValueError):
        check_property(band.relation, band.default_ground, "mfip")
    with pytest.raises(ValueError):
        check_property(band.relation, band.default_ground, "mfip", m=1000)


def test_mfip_witness_reproduces(rng):
    # a relation with an empty pairwise intersection somewhere
    rel = random_tabular_relation(np.random.default_rng(5), 6)
    ground = GroundSet.explicit(rel.table_ground)
    rep = check_property(rel, ground, "mfip", m=2)
    if not rep.holds:
        combo = rep.witness
        assert not any(all(holds(rel, x, xi) for xi in combo) for x in ground)


def test_transitive_and_2fip_imply_fip_seeded():
    rng = np.random.default_rng(8)
    checked = 0
    for i in range(30):
        style = ("uniform", "closure", "utility")[i % 3]
        rel = random_tabular_relation(rng, 6, style)
        ground = GroundSet.explicit(rel.table_ground)
        if check_property(rel, ground, "transitive").holds and \
           check_property(rel, ground, "mfip", m=2).holds:
            checked += 1
            assert check_property(rel, ground, "fip").holds
    assert checked >= 5  # the implication must not pass vacuously


# --------------------------------------------------------------- convexity


def zero_or_self():
    # weakly-better sets are {0, x}: never convex on a grid, but the strict
    # ones are singletons or empty
    def rule(x, y):
        return (abs(x[0]) <= 1e-9) | (abs(x[0] - y[0]) <= 1e-9)

    return Relation.from_predicate("zero-or-self", 1, rule)


def origin_favors_half():
    # weakly-better sets are intervals or singletons; the strict one at 0 is
    # an interval with its midpoint removed
    def rule(x, y):
        y_zero = abs(y[0]) <= 1e-9
        y_half = ~y_zero & (abs(y[0] - 0.5) <= 1e-9)
        y_other = ~y_zero & ~y_half
        return y_zero | (y_half & (abs(x[0]) <= 1e-9)) | (y_other & (abs(x[0] - y[0]) <= 1e-9))

    return Relation.from_predicate("origin-favors-half", 1, rule)


def test_convexity_counterexample_upper_only():
    g = GroundSet.grid([(0.0, 1.0, 0.05)])
    rel = zero_or_self()
    rep_u = check_property(rel, g, "convex_upper")
    assert not rep_u.holds
    x, p, q, gap_pt = rep_u.witness
    cont = coords(contour(rel, x, g, "U"))
    assert p.coords in cont and q.coords in cont and gap_pt.coords not in cont
    assert check_property(rel, g, "convex_strict_upper").holds


def test_convexity_counterexample_strict_only():
    g = GroundSet.grid([(0.0, 1.0, 0.05)])
    rel = origin_favors_half()
    assert check_property(rel, g, "convex_upper").holds
    assert not check_property(rel, g, "convex_strict_upper").holds


def test_rational_relations_agree_on_both_convexities(vee):
    for fx in (vee, get_fixture("twin-plateau")):
        g = fx.default_ground
        assert check_property(fx.relation, g, "convex_upper").holds \
            == check_property(fx.relation, g, "convex_strict_upper").holds

    # a rational relation with split better-sets fails both the same way
    u = lambda x: -min(abs(x[0] - 0.2), abs(x[0] - 0.8))
    rel = Relation.from_utility("twin-wells", 1, u)
    g = GroundSet.grid([(0.0, 1.0, 0.05)])
    assert not check_property(rel, g, "convex_upper").holds
    assert not check_property(rel, g, "convex_strict_upper").holds


@pytest.mark.parametrize("name", fixture_names())
def test_a_list_an_iterator_and_a_ground_set_give_the_same_results(name):
    # every relations entry point, the convexity properties included, on at
    # most 30 points of the fixture's default grid
    fx = get_fixture(name)
    grid = list(fx.default_ground)
    pts = grid[::-(-len(grid) // 30)]
    rel = fx.relation
    bases = (pts[0], pts[len(pts) // 2], pts[-1])

    def results(ground):
        out = [maximal_elements(rel, ground()), maxima(rel, ground()),
               preference_matrix(rel, ground()).tolist()]
        out += [contour(rel, x, ground(), which) for x in bases for which in ("U", "Us", "L", "Ls")]
        out += [check_property(rel, ground(), prop, m=2 if prop == "mfip" else None)
                for prop in PROPERTIES]
        return out

    want = results(lambda: GroundSet.explicit(pts))
    assert results(lambda: list(pts)) == want
    assert results(lambda: iter(pts)) == want


# ------------------------------------------------------- maximal and maxima


def test_kinked_maximal_window(kinked):
    window = coords(kinked.default_ground)
    me = [p for p in maximal_elements(kinked.relation, kinked.me_ground())
          if p.coords in window]
    assert coords(me) == {(0.0,)}


def test_kinked_maxima_empty(kinked):
    assert maxima(kinked.relation, kinked.default_ground) == []


def test_mutual_zero_everything_maximal():
    from prefmax import get_fixture

    fx = get_fixture("mutual-zero")
    assert coords(maximal_elements(fx.relation, fx.default_ground)) \
        == coords(fx.default_ground)


def test_segment_unique_maximal(segment):
    assert coords(maximal_elements(segment.relation, segment.default_ground)) \
        == {(1.0, 0.0)}


def test_band_maxima(band):
    assert coords(maxima(band.relation, band.default_ground)) == {(4.0,)}
    assert coords(maxima(band.relation, band.default_ground)) \
        <= coords(maximal_elements(band.relation, band.default_ground))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=5, max_size=5))
def test_maxima_subset_maximal_random(matrix):
    rel = Relation.from_table("h", [pt(float(i)) for i in range(5)], matrix)
    ground = GroundSet.explicit(rel.table_ground)
    assert coords(maxima(rel, ground)) <= coords(maximal_elements(rel, ground))


def test_complete_implies_maxima_equal_maximal(rng):
    for i in range(40):
        rel = random_tabular_relation(rng, 7, "utility")
        ground = GroundSet.explicit(rel.table_ground)
        assert check_property(rel, ground, "complete").holds
        assert coords(maxima(rel, ground)) == coords(maximal_elements(rel, ground))
