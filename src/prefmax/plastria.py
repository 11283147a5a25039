"""Gap functions and the gap-relaxed (Plastria-style) normal cone.

A gap function f(x, y) relaxes the normal-cone inequality from <= 0 to
<= f(x, y) over the strictly-better set. When f comes from a utility u as
u(x) - u(y), membership reproduces the Plastria lower subdifferential; when
f is identically zero it reduces to the classical normal cone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cones import DEFAULT_TOL, ContourSample, normal_cone_test
from .points import GroundSet, Point, ground_array, norm, scale, sub
from .relations import PropertyReport, Relation, preference_matrix

# Assumption flags, named by content:
#   negative_iff_better  -- f(x,y) < 0 exactly on the strictly-better set of x
#   positive_iff_worse   -- f(x,y) > 0 exactly when x is strictly better than y
#   lipschitz_bound      -- |f(x,y)| <= L ||x-y||
#   order_compatible     -- strict preference matches pointwise f-dominance
FLAG_NAMES = ("negative_iff_better", "positive_iff_worse", "lipschitz_bound",
              "order_compatible")


@dataclass(frozen=True)
class GapFunction:
    fn: Callable[[tuple, tuple], float]
    lipschitz: float
    negative_iff_better: bool = False
    positive_iff_worse: bool = False
    lipschitz_bound: bool = False
    order_compatible: bool = False

    def __post_init__(self):
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz bound must be positive")

    def __call__(self, x, y) -> float:
        return float(self.fn(tuple(x), tuple(y)))

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}


def gap_from_utility(u: Callable[[tuple], float], lipschitz: float) -> GapFunction:
    """The gap u(x) - u(y); satisfies every assumption when u is Lipschitz."""
    if lipschitz <= 0:
        raise ValueError("Lipschitz bound must be positive")
    return GapFunction(lambda x, y: u(x) - u(y), lipschitz,
                       negative_iff_better=True, positive_iff_worse=True,
                       lipschitz_bound=True, order_compatible=True)


def zero_gap(lipschitz: float = 1.0) -> GapFunction:
    """The identically-zero gap; the membership test then coincides with the
    classical normal cone."""
    return GapFunction(lambda x, y: 0.0, lipschitz,
                       negative_iff_better=True, positive_iff_worse=True,
                       lipschitz_bound=True, order_compatible=True)


def audit_gap_flags(gap: GapFunction, rel: Relation, ground: GroundSet,
                    rng: np.random.Generator | None = None,
                    samples: int = 1000) -> GapFunction:
    """Sampled self-audit of the declared sign/Lipschitz/order flags.

    Violated flags are downgraded on the returned copy and a warning names
    the offending pair. Strict preference between sampled points is read
    off one preference matrix of the ground; the gap is called per sample,
    in sample order.
    """
    rng = rng or np.random.default_rng(0)
    pts = list(ground)
    n = len(pts)
    idx = rng.integers(0, n, size=(samples, 3))
    W = preference_matrix(rel, pts)
    strict = W & ~W.T  # strict[i, j]: point i strictly preferred to point j
    downgrades: dict[str, bool] = {}
    for i, j, k in idx:
        x, y, z = pts[int(i)], pts[int(j)], pts[int(k)]
        fxy = gap(x.coords, y.coords)
        if gap.negative_iff_better and "negative_iff_better" not in downgrades:
            if (fxy < 0.0) != strict[j, i]:
                downgrades["negative_iff_better"] = False
                warnings.warn(f"gap sign (negative side) disagrees with the relation at ({x}, {y})")
        if gap.positive_iff_worse and "positive_iff_worse" not in downgrades:
            if (fxy > 0.0) != strict[i, j]:
                downgrades["positive_iff_worse"] = False
                warnings.warn(f"gap sign (positive side) disagrees with the relation at ({x}, {y})")
        if gap.lipschitz_bound and "lipschitz_bound" not in downgrades:
            if abs(fxy) > gap.lipschitz * norm(sub(x, y)) * (1.0 + 1e-9) + 1e-12:
                downgrades["lipschitz_bound"] = False
                warnings.warn(f"gap exceeds its Lipschitz bound at ({x}, {y})")
        if gap.order_compatible and "order_compatible" not in downgrades:
            dominates = gap(x.coords, z.coords) > gap(y.coords, z.coords)
            if strict[i, j] and not dominates:
                downgrades["order_compatible"] = False
                warnings.warn(f"strict preference without f-dominance at ({x}, {y}, {z})")
    return replace(gap, **downgrades) if downgrades else gap


def plastria_membership(gap: GapFunction, sample: ContourSample, xstar,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar lies in the gap-relaxed normal cone at the sample base:
    <xstar, y - x> <= f(x, y) for every sampled strictly-better y. An empty
    sample (a maximal base point) accepts everything. The gap is evaluated
    only at the displacements the kernel tests."""
    x = sample.base.coords
    Y = sample.points

    def rhs(pn, dn, rows):
        gaps = [gap(x, y) for y in map(tuple, Y[rows].tolist())]
        return np.array(gaps, dtype=float) + tol * (1.0 + dn)

    return bool(normal_cone_test(sample, [tuple(xstar)], rhs)[0])


def plastria_subgradient(gap: GapFunction, x: Point, ustar) -> Point:
    """The constructive cone element L * u / ||u|| from a strict normal
    direction u at x. The result has norm exactly L."""
    u = tuple(ustar)
    nu = norm(u)
    if nu == 0.0:
        raise ValueError("ustar must be nonzero")
    return Point(scale(u, gap.lipschitz / nu))


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
    if not (audited.negative_iff_better and audited.positive_iff_worse):
        failed = [n for n in ("negative_iff_better", "positive_iff_worse")
                  if not getattr(audited, n)]
        return PropertyReport("zero_maximality_precondition", False,
                              detail=f"sign flags failed the sampled audit: {', '.join(failed)}")
    W = preference_matrix(rel, ground)
    better = W.T & ~W  # better[i, j]: ground point j strictly preferred to point i
    G = ground_array(ground, ground.dim)
    zero = (0.0,) * ground.dim
    for x, row in zip(ground, better):
        maximal = not row.any()
        member = plastria_membership(gap, ContourSample(x, G[row]), zero, tol)
        if member != maximal:
            return PropertyReport("zero_maximality", False, (x,),
                                  detail=f"membership={member}, maximal={maximal}")
    return PropertyReport("zero_maximality", True)
