"""Gap functions and the gap-relaxed (Plastria-style) normal cone.

A gap function f(x, y) relaxes the normal-cone inequality from <= 0 to
<= f(x, y) over the strictly-better set. When f comes from a utility u as
u(x) - u(y), membership reproduces the Plastria lower subdifferential; when
f is identically zero it reduces to the classical normal cone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cones import DEFAULT_TOL, ContourSample, normal_cone_test
from .points import GroundSet, Point, ground_array, scaled_to
from .relations import PropertyReport, Relation, preference_matrix

# Sign flags, named by content:
#   negative_iff_better  -- f(x,y) < 0 exactly on the strictly-better set of x
#   positive_iff_worse   -- f(x,y) > 0 exactly when x is strictly better than y
FLAG_NAMES = ("negative_iff_better", "positive_iff_worse")


@dataclass(frozen=True)
class GapFunction:
    fn: Callable[[tuple, tuple], float]
    lipschitz: float
    negative_iff_better: bool = False
    positive_iff_worse: bool = False
    utility: Callable[[tuple], float] | None = None  # u, where fn is u(x) - u(y)

    def __post_init__(self):
        if not math.isfinite(self.lipschitz):
            raise ValueError(f"lipschitz must be finite, got {self.lipschitz!r}")
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz bound must be positive")

    def __call__(self, x, y) -> float:
        return float(self.fn(tuple(x), tuple(y)))

    def column(self, xs, y) -> list[float]:
        """f(x, y) for every x of `xs`, each as `self(x, y)` gives it. A gap
        from a utility evaluates u(y) once, ahead of the xs, then u at each
        x in order."""
        y, xs = tuple(y), map(tuple, xs)
        if self.utility is None:
            return [float(self.fn(x, y)) for x in xs]
        uy = self.utility(y)
        return [float(ux - uy) for ux in map(self.utility, xs)]

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}


def gap_from_utility(u: Callable[[tuple], float], lipschitz: float) -> GapFunction:
    """The gap u(x) - u(y); satisfies both sign flags."""
    return GapFunction(lambda x, y: u(x) - u(y), lipschitz, negative_iff_better=True,
                       positive_iff_worse=True, utility=u)


def zero_gap(lipschitz: float = 1.0) -> GapFunction:
    """The identically-zero gap; the membership test then coincides with the
    classical normal cone."""
    return GapFunction(lambda x, y: 0.0, lipschitz,
                       negative_iff_better=True, positive_iff_worse=True)


def audit_gap_flags(gap: GapFunction, rel: Relation, ground: GroundSet,
                    rng: np.random.Generator | None = None,
                    samples: int = 1000) -> GapFunction:
    """Sampled self-audit of the declared sign flags.

    Violated flags are downgraded on the returned copy, and a warning names
    the first offending pair on each side. Strict preference between
    sampled points is read off one preference matrix of the ground; the gap
    is called once per sampled pair, in sample order.
    """
    rng = rng or np.random.default_rng(0)
    pts = list(ground)
    I, J = rng.integers(0, len(pts), size=(samples, 2)).T
    W = preference_matrix(rel, pts)
    strict = W & ~W.T  # strict[i, j]: point i strictly preferred to point j
    f = np.array([gap(pts[i].coords, pts[j].coords) for i, j in zip(I.tolist(), J.tolist())])
    found = []
    for name, side, bad in (("negative_iff_better", "negative", (f < 0.0) != strict[J, I]),
                            ("positive_iff_worse", "positive", (f > 0.0) != strict[I, J])):
        if getattr(gap, name) and bad.any():
            found.append((int(np.argmax(bad)), name, side))
    for k, name, side in sorted(found):
        warnings.warn(f"gap sign ({side} side) disagrees with the relation "
                      f"at ({pts[I[k]]}, {pts[J[k]]})")
    return replace(gap, **{name: False for _, name, _ in found}) if found else gap


def plastria_membership(gap: GapFunction, sample: ContourSample, xstar,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar lies in the gap-relaxed normal cone at the sample base:
    <xstar, y - x> <= f(x, y) for every sampled strictly-better y. An empty
    sample (a maximal base point) accepts everything. This is
    `normal_cone_test` with the right-hand side gap(x, y) + tol (1 + ||d||),
    so the gap is evaluated once per sampled point."""
    x = sample.base.coords

    def rhs(pn, dn):
        gaps = [gap(x, y) for y in map(tuple, sample.points.tolist())]
        return np.array(gaps, dtype=float) + tol * (1.0 + dn)

    return bool(normal_cone_test(sample, [tuple(xstar)], rhs)[0])


def plastria_subgradient(gap: GapFunction, x: Point, ustar) -> Point:
    """The constructive cone element L * u / ||u|| from a strict normal
    direction u at x. The result has norm exactly L."""
    try:
        u = scaled_to(tuple(ustar), gap.lipschitz)
    except ZeroDivisionError:
        raise ValueError("ustar must be nonzero") from None
    return Point(u)


def zero_maximality_check(gap: GapFunction, rel: Relation, ground: GroundSet,
                          tol: float = DEFAULT_TOL,
                          rng: np.random.Generator | None = None) -> PropertyReport:
    """Zero belongs to the gap-relaxed cone exactly at maximal points.

    Requires the two sign flags; the audit runs first and, if either fails,
    the check is skipped with a precondition report carrying the verdict.
    Each base's sample is its row of one strict preference matrix of the
    ground, and the base is maximal when that row is empty.
    """
    audited = audit_gap_flags(gap, rel, ground, rng=rng)
    failed = [n for n in FLAG_NAMES if not getattr(audited, n)]
    if failed:
        return PropertyReport("zero_maximality_precondition", False,
                              detail=f"sign flags failed the sampled audit: {', '.join(failed)}")
    W = preference_matrix(rel, ground)
    better = W.T & ~W  # better[i, j]: ground point j strictly preferred to point i
    rows = ground_array(ground, ground.dim).tolist()
    for x, row in zip(ground, better):
        ys = [rows[j] for j in np.flatnonzero(row).tolist()]
        maximal = not ys
        member = _zero_member(gap, x.coords, ys, tol)
        if member != maximal:
            return PropertyReport("zero_maximality", False, (x,),
                                  detail=f"membership={member}, maximal={maximal}")
    return PropertyReport("zero_maximality", True)


def _zero_member(gap: GapFunction, x: tuple, ys: list, tol: float) -> bool:
    """`plastria_membership` of the zero probe at base x with the sample ys.
    <0, d> is exactly +-0, so the probe fails at y exactly when gap(x, y) +
    tol (1 + ||d||) < 0, d = y - x. ||d|| is summed coordinate by
    coordinate from the first, as the kernel sums it. The rows are met in
    order and the first failure decides: a non-maximal base stops at its
    first failing point, where `plastria_membership` calls the gap at every
    sampled point. That early exit is what keeps `zero_maximality_check`
    at a few ms on the default grids; `plastria_membership` per base costs
    3 to 10 times as much there."""
    for y in ys:
        dd = 0.0
        for a, b in zip(x, y):
            dd = dd + (b - a) * (b - a)
        if gap(x, y) + tol * (1.0 + math.sqrt(dd)) < 0.0:
            return False
    return True
