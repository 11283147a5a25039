"""Registry of worked relations with closed-form cones and known outcomes.

Each fixture bundles a relation, the membership data read off its closed
form (cones, descent directions, gap function), a default evaluation grid,
and the expected outcomes the harness checks against. Fixtures that exist to
break a classical conclusion carry inverted expectations, so reproducing the
breakage counts as suite success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cones import BoxSampler, Cone, normal_membership_many
from .plastria import GapFunction, gap_from_utility, zero_gap
from .points import GroundSet, Point, scaled_to
from .relations import Relation

_EQ_TOL = 1e-9


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= _EQ_TOL


class UnknownFixture(KeyError):
    def __init__(self, name: str, available):
        super().__init__(name)
        self.message = (f"unknown fixture {name!r}; available: "
                        + ", ".join(sorted(available)))

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class Fixture:
    name: str
    relation: Relation
    default_ground: GroundSet
    cone_oracle: Callable[[Point], Cone] | None = None
    gap: GapFunction | None = None
    descent_direction: Callable[[tuple], tuple | None] | None = None
    reference: Point | None = None
    lsc: bool = False
    complete: bool = False
    sample_radius: float = 2.0
    sample_step: float = 0.01
    me_margin: float = 0.0  # grid extension for relations whose domain is unbounded
    expectations: dict = field(default_factory=dict)
    default_suite: tuple[str, ...] = ()
    notes: str = ""

    def contour_sampler(self, x: Point):
        """The box sample of x: the per-base call of `box_sampler`. Only
        `bench/` reads it."""
        return self.box_sampler(x)

    @property
    def box_sampler(self) -> BoxSampler:
        """The fixture's `BoxSampler`, which `bodies_for_ground` runs for a
        whole ground at once; `contour_sampler(x)` is its call at one base."""
        return BoxSampler(self.relation, self.sample_radius, self.sample_step)

    def me_ground(self, ground: GroundSet | None = None) -> GroundSet:
        """The ground on which the maximal elements of a window are decided:
        `ground` (default: the fixture's) extended by `me_margin`."""
        ground = self.default_ground if ground is None else ground
        return ground.extended(self.me_margin) if self.me_margin > 0 else ground

    def descent_oracle(self) -> Callable[[tuple], tuple]:
        """Cone-element oracle of norm at most L on coordinate tuples: the
        scaled strict normal direction, or zero at maximal points."""
        if self.gap is None or self.descent_direction is None:
            raise ValueError(f"fixture {self.name!r} has no descent capability")
        L = self.gap.lipschitz
        direction = self.descent_direction

        def oracle(x: tuple) -> tuple:
            d = direction(x)
            return (0.0,) * len(x) if d is None else scaled_to(d, L)

        return oracle


def _band_threshold() -> Fixture:
    """x beats y when x sits in the band [y/2 + 2, 4], except one excluded
    pair; 4 beats everything, so the family of better-sets has a common
    point even though the relation is neither complete nor transitive."""

    def rule(x, y):
        excluded = _eq(x[0], 3.5) & _eq(y[0], 2.0)
        return ~excluded & (y[0] / 2.0 + 2.0 <= x[0] + _EQ_TOL) & (x[0] <= 4.0 + _EQ_TOL)

    rel = Relation.from_predicate("band-threshold", 1, rule)
    return Fixture(
        name="band-threshold",
        relation=rel,
        default_ground=GroundSet.grid([(0.0, 4.0, 0.25)]),
        lsc=False,
        complete=False,
        expectations={
            "maxima": ((4.0,),),
            "fip": True,
            "transitive": False,
        },
        default_suite=("maxima", "fip", "transitive"),
        notes="intersection property without completeness or transitivity",
    )


def _favored_one() -> Fixture:
    """Everything beats the single favored point and nothing else; all other
    points are maximal, and the cone collapses to {0} at the favored one."""

    def rule(x, y):
        return _eq(y[0], x[0]) | _eq(y[0], 1.0)

    rel = Relation.from_predicate("favored-one", 1, rule)
    zero, full = Cone.zero(1), Cone.full(1)

    def oracle(p: Point) -> Cone:
        return zero if _eq(p[0], 1.0) else full

    return Fixture(
        name="favored-one",
        relation=rel,
        default_ground=GroundSet.grid([(0.0, 2.0, 0.01)]),
        cone_oracle=oracle,
        lsc=True,
        complete=False,
        expectations={"nonmaximal": ((1.0,),), "svip_subset_me": True},
        default_suite=("maximal", "cones", "svip-inclusion"),
        notes="full cones off the favored point, zero cone at it",
    )


def _kinked_threshold() -> Fixture:
    """Strictly larger beats smaller except that nothing beats the origin,
    which is therefore the unique maximal element of the whole line even
    though every finite window has an undominated top edge."""

    def rule(x, y):
        both_zero = _eq(x[0], 0.0) & _eq(y[0], 0.0)
        return both_zero | ((x[0] >= y[0] - _EQ_TOL) & ~_eq(y[0], 0.0))

    rel = Relation.from_predicate("kinked-threshold", 1, rule)
    full, left = Cone.full(1), Cone.ray((-1.0,))

    def oracle(p: Point) -> Cone:
        return full if _eq(p[0], 0.0) else left

    return Fixture(
        name="kinked-threshold",
        relation=rel,
        default_ground=GroundSet.grid([(-1.0, 1.0, 0.01)]),
        cone_oracle=oracle,
        lsc=True,
        complete=False,
        me_margin=0.5,
        expectations={"me": ((0.0,),), "mvip": (), "uniqueness": False},
        default_suite=("maximal", "mvip-empty", "uniqueness", "cones"),
        notes="non-complete order: unique maximal element but empty Minty set",
    )


def _vee_peak() -> Fixture:
    """Distance-to-0.7 utility on the unit interval: a single kinked peak."""
    u = lambda x: -abs(x[0] - 0.7)
    rel = Relation.from_utility("vee-peak", 1, u, columns=lambda x: -np.abs(x[0] - 0.7))
    full, left, right = Cone.full(1), Cone.ray((-1.0,)), Cone.ray((1.0,))

    def oracle(p: Point) -> Cone:
        if _eq(p[0], 0.7):
            return full
        return left if p[0] < 0.7 else right

    def direction(p: tuple):
        if p[0] == 0.7:
            return None
        return (-1.0,) if p[0] < 0.7 else (1.0,)

    return Fixture(
        name="vee-peak",
        relation=rel,
        default_ground=GroundSet.grid([(0.0, 1.0, 0.01)]),
        cone_oracle=oracle,
        gap=gap_from_utility(u, 1.0),
        descent_direction=direction,
        reference=Point((0.7,)),
        lsc=True,
        complete=True,
        expectations={
            "me": ((0.7,),),
            "mvip": ((0.7,),),
            "svip": ((0.7,),),
            "svip_subset_me": True,
            "uniqueness": True,
            "zero_maximality": True,
        },
        default_suite=("maximal", "mvip", "svip-inclusion", "uniqueness",
                       "zero-maximality", "cones"),
        notes="complete utility relation with a unique kinked maximiser",
    )


def _radial_bowl() -> Fixture:
    """Negative Euclidean distance to (1, 2) on the plane.

    No closed-form cone oracle: the strictly-better sets are round, and a
    finite sample only pins the normal ray up to an angular wedge, so cone
    checks here run against sampled memberships instead.
    """
    a = (1.0, 2.0)
    u = lambda x: -math.hypot(x[0] - a[0], x[1] - a[1])
    rel = Relation.from_utility("radial-bowl", 2, u,
                                columns=lambda x: -np.hypot(x[0] - a[0], x[1] - a[1]))

    def direction(p: tuple):
        # strictly-better sets are empty only exactly at the peak; snapping
        # within a tolerance would cut descent runs short at near-tangency
        # steps, where the distance genuinely collapses by many decades
        d = (p[0] - a[0], p[1] - a[1])
        return None if d[0] * d[0] + d[1] * d[1] == 0.0 else d

    return Fixture(
        name="radial-bowl",
        relation=rel,
        default_ground=GroundSet.grid([(-0.5, 2.5, 0.25), (0.5, 3.5, 0.25)]),
        gap=gap_from_utility(u, 1.0),
        descent_direction=direction,
        reference=Point(a),
        lsc=True,
        complete=True,
        sample_step=0.1,
        expectations={
            "me": (a,),
            "svip_subset_me": True,
            "zero_maximality": True,
        },
        default_suite=("maximal", "svip-inclusion", "zero-maximality"),
        notes="smooth-away-from-peak radial utility; descent workhorse",
    )


def _mutual_zero() -> Fixture:
    """Only the origin relates to itself, so nothing strictly beats anything
    and every point is maximal; the zero gap function fits it exactly."""

    def rule(x, y):
        return _eq(x[0], 0.0) & _eq(x[1], 0.0) & _eq(y[0], 0.0) & _eq(y[1], 0.0)

    rel = Relation.from_predicate("mutual-zero", 2, rule)
    full = Cone.full(2)
    return Fixture(
        name="mutual-zero",
        relation=rel,
        default_ground=GroundSet.grid([(-1.0, 1.0, 0.25), (-1.0, 1.0, 0.25)]),
        cone_oracle=lambda p: full,
        gap=zero_gap(1.0),
        descent_direction=lambda p: None,
        lsc=True,
        complete=False,
        sample_step=0.1,
        expectations={"me": "all", "zero_maximality": True},
        default_suite=("maximal", "zero-maximality", "cones"),
        notes="empty strict preference: every point maximal, zero gap",
    )


def _twin_plateau() -> Fixture:
    """Utility flat at zero on [-1, 1] and falling off outside: a continuum
    of maximal elements, so the Minty set must be empty."""
    u = lambda x: -max(abs(x[0]) - 1.0, 0.0)
    rel = Relation.from_utility("twin-plateau", 1, u,
                                columns=lambda x: -np.maximum(np.abs(x[0]) - 1.0, 0.0))
    full, left, right = Cone.full(1), Cone.ray((-1.0,)), Cone.ray((1.0,))

    def oracle(p: Point) -> Cone:
        if p[0] > 1.0 + _EQ_TOL:
            return right
        if p[0] < -1.0 - _EQ_TOL:
            return left
        return full

    def direction(p: tuple):
        if p[0] > 1.0 + _EQ_TOL:
            return (1.0,)
        if p[0] < -1.0 - _EQ_TOL:
            return (-1.0,)
        return None

    return Fixture(
        name="twin-plateau",
        relation=rel,
        default_ground=GroundSet.grid([(-2.0, 2.0, 0.05)]),
        cone_oracle=oracle,
        gap=gap_from_utility(u, 1.0),
        descent_direction=direction,
        lsc=True,
        complete=True,
        expectations={"mvip": (), "uniqueness": True},
        default_suite=("mvip-empty", "uniqueness", "cones"),
        notes="plateau of maximal elements; uniqueness equivalence holds vacuously",
    )


def _line_rule(x, y):
    return _eq(x[1], 0.0) & _eq(y[1], 0.0) & (x[0] >= y[0] - _EQ_TOL)


# The two cones of the on-axis order, built once: a Cone is frozen, so every
# point shares them.
_PLANE = Cone.full(2)
_LINE_NORMALS = Cone.generated(((-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


def _line_cone(p: Point) -> Cone:
    return _LINE_NORMALS if _eq(p[1], 0.0) else _PLANE


def _halfline_plane() -> Fixture:
    """A left-to-right order living on the horizontal axis of the plane.

    Off-axis points have empty strictly-better sets; on-axis points have a
    half-plane of normal directions whose vertical members meet the
    strictly-better set at exactly zero inner product, so the weak and
    strict cones genuinely differ."""
    rel = Relation.from_predicate("halfline-plane", 2, _line_rule)
    return Fixture(
        name="halfline-plane",
        relation=rel,
        default_ground=GroundSet.grid([(0.0, 2.0, 0.25), (-0.5, 0.5, 0.25)]),
        cone_oracle=_line_cone,
        lsc=False,
        complete=False,
        sample_step=0.1,
        expectations={"weak_not_strict_query": (0.0, 1.0)},
        default_suite=("strict-gap", "cones"),
        notes="strictly-better sets are not open; weak and strict cones differ",
    )


def _segment_line() -> Fixture:
    """The same on-axis order restricted to the unit segment of the axis.

    Every segment point's cone is generated by (-1, 0), (0, 1) and (0, -1),
    so its unit hull contains zero, and zero certifies every segment point
    as a Stampacchia solution while only the right endpoint is maximal: the
    inclusion check is expected to fail here."""
    rel = Relation.from_predicate("segment-line", 2, _line_rule)
    return Fixture(
        name="segment-line",
        relation=rel,
        default_ground=GroundSet.grid([(0.0, 1.0, 0.01), (0.0, 0.0, 0.01)]),
        cone_oracle=_line_cone,
        lsc=False,
        complete=True,
        sample_step=0.1,
        expectations={
            "me": ((1.0, 0.0),),
            "svip_subset_me": False,
        },
        default_suite=("maximal", "svip-all", "svip-inclusion", "cones"),
        notes="solution set fills the segment but only its right end is maximal",
    )


_BUILDERS = (
    _band_threshold,
    _favored_one,
    _kinked_threshold,
    _vee_peak,
    _radial_bowl,
    _mutual_zero,
    _twin_plateau,
    _halfline_plane,
    _segment_line,
)

_REGISTRY: dict[str, Fixture] | None = None
_SELF_TEST_DONE = False
SELF_TEST_PROBES = 100  # random probes per base
SELF_TEST_BASES = 5  # bases per ground: its first, middle and last point, then random ones


def _build_registry() -> dict[str, Fixture]:
    registry = {}
    for build in _BUILDERS:
        fx = build()
        if fx.name in registry:
            raise ValueError(f"duplicate fixture name {fx.name!r}")
        registry[fx.name] = fx
    return registry


def self_test_fixture(fixture: Fixture, seed: int = 12345, tol: float = 1e-9,
                      ground: GroundSet | None = None) -> None:
    """Closed-form cones must agree with sampled membership on random probes,
    at bases picked from `ground` (default: the fixture's)."""
    if fixture.cone_oracle is None:
        return
    rng = np.random.default_rng(seed)
    ground = list(fixture.default_ground if ground is None else ground)
    picks = {0, len(ground) // 2, len(ground) - 1}
    while len(picks) < min(SELF_TEST_BASES, len(ground)):
        picks.add(int(rng.integers(0, len(ground))))
    bases = [ground[i] for i in sorted(picks)]
    for x, sample in zip(bases, fixture.box_sampler.samples(bases)):
        cone = fixture.cone_oracle(x)
        P = rng.uniform(-3.0, 3.0, size=(SELF_TEST_PROBES, x.dim))
        bad = np.flatnonzero(cone.contains_many(P) != normal_membership_many(sample, P, tol))
        if bad.size:
            raise AssertionError(
                f"fixture {fixture.name!r}: closed-form cone and sampled "
                f"membership disagree at base {x}, probe {tuple(P[bad[0]])}")


def registry(self_test: bool = True) -> dict[str, Fixture]:
    global _REGISTRY, _SELF_TEST_DONE
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    if self_test and not _SELF_TEST_DONE:
        for fx in _REGISTRY.values():
            self_test_fixture(fx)
        _SELF_TEST_DONE = True
    return _REGISTRY


def get_fixture(name: str) -> Fixture:
    reg = registry(self_test=False)
    try:
        return reg[name]
    except KeyError:
        raise UnknownFixture(name, reg.keys()) from None


def fixture_names() -> list[str]:
    return sorted(registry(self_test=False).keys())
