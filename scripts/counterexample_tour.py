#!/usr/bin/env python3
"""Walk the fixtures that break classical conclusions and show what fails.

Each section prints the enumerated sets so the breakage is visible, not just
asserted: solution sets that are not maximal, a maximal element the Minty
problem misses, and a normal direction that is never strictly normal.
"""

from prefmax import (
    get_fixture,
    maximal_elements,
    mvip_solutions,
    normal_membership,
    pt,
    strict_normal_membership,
    svip_solutions,
)


def segment_inclusion_failure() -> None:
    fx = get_fixture("segment-line")
    g = fx.default_ground
    sols = svip_solutions(fx.relation, g, fx.cone_oracle)
    me = maximal_elements(fx.relation, g)
    print("== segment-line: solution set vs maximal set ==")
    print(f"Stampacchia solution set: {len(sols)} of {len(g)} grid points")
    print(f"maximal elements: {[tuple(p.coords) for p in me]}")
    print("every interior segment point is certified yet only the right end "
          "is maximal, so certification does not imply maximality here\n")


def kinked_uniqueness_failure() -> None:
    fx = get_fixture("kinked-threshold")
    window = {p.coords for p in fx.default_ground}
    me = [tuple(p.coords) for p in maximal_elements(fx.relation, fx.me_ground())
          if p.coords in window]
    mv = mvip_solutions(fx.cone_oracle, fx.default_ground)
    print("== kinked-threshold: maximal vs Minty ==")
    print(f"maximal elements on the window: {me}")
    print(f"Minty solutions: {[tuple(p.coords) for p in mv]}")
    print("a unique maximal element with an empty Minty set: the singleton "
          "equivalence needs completeness, which this order lacks\n")


def weak_strict_gap() -> None:
    fx = get_fixture("halfline-plane")
    query = (0.0, 1.0)
    print("== halfline-plane: weak vs strict normality of (0, 1) ==")
    for x in (0.0, 0.5, 1.0):
        sample = fx.box_sampler(pt(x, 0.0))
        weak = normal_membership(sample, query)
        strict = strict_normal_membership(sample, query)
        print(f"base ({x}, 0): weak={weak} strict={strict}")
    print("the vertical direction meets every better point at inner product "
          "exactly zero, so it is normal but never strictly normal\n")


if __name__ == "__main__":
    segment_inclusion_failure()
    kinked_uniqueness_failure()
    weak_strict_gap()
