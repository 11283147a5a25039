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
from .points import GroundSet, Point, ground_points, row_blocks, rowdot, scaled_to
from .relations import PropertyReport, Relation, _holds, _operand

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
    utility: Callable[[tuple], float] | None = None  # u, returning floats; fn is u(x) - u(y)

    def __post_init__(self):
        if not math.isfinite(self.lipschitz):
            raise ValueError(f"lipschitz must be finite, got {self.lipschitz!r}")
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz bound must be positive")

    def __call__(self, x, y) -> float:
        return float(self.fn(tuple(x), tuple(y)))

    def table(self, xs, ys=None):
        """f(x, y) for every x of `xs` and y of `ys` (`xs` by default), each
        as `self(x, y)` gives it, as (rows, block) pairs: the rows `rows` (a
        slice of xs) in row blocks of `points.row_blocks`. A gap from a
        utility calls u once per y, then once per x (once per point when
        `ys` is omitted); any other gap calls `fn` once per pair, by rows."""
        xs = list(map(tuple, xs))
        ys = xs if ys is None else list(map(tuple, ys))
        if self.utility is not None:
            uy = np.fromiter(map(self.utility, ys), float, len(ys))
            ux = uy if ys is xs else np.fromiter(map(self.utility, xs), float, len(xs))
        for rows in row_blocks(len(xs), len(ys)):
            if self.utility is None:
                F = np.array([[float(self.fn(x, y)) for y in ys] for x in xs[rows]], dtype=float)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    F = ux[rows, None] - uy
            yield rows, F

    def column(self, xs, y) -> list[float]:
        """f(x, y) for every x of `xs`: the one-column `table`."""
        return [v for _, F in self.table(xs, [y]) for v in F[:, 0].tolist()]

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}


def gap_from_utility(u: Callable[[tuple], float], lipschitz: float) -> GapFunction:
    """The gap u(x) - u(y); satisfies both sign flags."""
    return GapFunction(lambda x, y: u(x) - u(y), lipschitz, negative_iff_better=True,
                       positive_iff_worse=True, utility=u)


def zero_gap(lipschitz: float = 1.0) -> GapFunction:
    """The identically-zero gap, that of the zero utility; the membership
    test then coincides with the classical normal cone."""
    return gap_from_utility(lambda x: 0.0, lipschitz)


def audit_gap_flags(gap: GapFunction, rel: Relation, ground: GroundSet) -> GapFunction:
    """Exhaustive self-audit of the declared sign flags on every pair of
    the ground, the gap `table` against the strict relation in row blocks.

    Violated flags are downgraded on the returned copy, and a warning names
    the first offending pair (x, y) on each side, pairs in ground order."""
    return _sweep(gap, rel, ground)[0]


def plastria_membership(gap: GapFunction, sample: ContourSample, xstar,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar lies in the gap-relaxed normal cone at the sample base:
    <xstar, y - x> <= f(x, y) for every sampled strictly-better y. An empty
    sample (a maximal base point) accepts everything. This is
    `normal_cone_test` with the right-hand side gap(x, y) + tol (1 + ||d||),
    the gaps a one-row `table`."""
    def rhs(pn, dn):
        [(_, F)] = gap.table([sample.base.coords], sample.points.tolist())
        return F[0] + tol * (1.0 + dn)

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
                          tol: float = DEFAULT_TOL, rng=None) -> PropertyReport:
    """Zero belongs to the gap-relaxed cone exactly at maximal points.

    Requires the two sign flags: if the audit of `audit_gap_flags` fails
    either, the check is skipped with a precondition report carrying the
    verdict; otherwise the first base whose membership differs from its
    maximality is reported, both from one row-block `_sweep`. `rng` is
    ignored (nothing is drawn at random); `bench/ops.py` still passes one.
    """
    audited, report = _sweep(gap, rel, ground, tol)
    failed = [n for n in FLAG_NAMES if not getattr(audited, n)]
    if failed:
        return PropertyReport("zero_maximality_precondition", False,
                              detail=f"sign flags failed the audit: {', '.join(failed)}")
    return PropertyReport("zero_maximality", True) if report is None else report


def _sweep(gap: GapFunction, rel: Relation, ground: GroundSet, tol: float | None = None):
    """One pass over the gap table of the ground, each row block beside the
    same rows of the relation both ways, as `check_property` reads them: the
    audited copy of `gap` and, given tol, the failing report of the first
    base whose zero-probe membership differs from its maximality, or None.
    The probe fails at a strictly-better y where <0, d> = +-0 exceeds
    gap(x, y) + tol (1 + ||d||), d = y - x, as `normal_cone_test` sums it."""
    pts, X = ground_points(ground, rel.dim)
    g, found, report = _operand(rel, X), {}, None
    for rows, F in gap.table([p.coords for p in pts]):
        ahead = _holds(rel, g[rows, None], g[None])  # ahead[i, j]: x_i weakly beats point j
        behind = _holds(rel, g[None], g[rows, None])  # behind[i, j]: point j weakly beats x_i
        better = behind & ~ahead  # better[i, j]: point j strictly preferred to x_i
        for name, bad in (("negative_iff_better", (F < 0.0) != better),
                          ("positive_iff_worse", (F > 0.0) != (ahead & ~behind))):
            if getattr(gap, name) and name not in found and bad.any():
                i, j = divmod(int(np.argmax(bad)), len(pts))
                found[name] = (rows.start + i, j)
        if tol is None or report is not None:
            continue
        D = X[None] - X[rows, None]
        with np.errstate(over="ignore", invalid="ignore"):
            fails = better & (F + tol * (1.0 + np.sqrt(rowdot(D, D))) < 0.0)
        member, maximal = ~fails.any(axis=1), ~better.any(axis=1)
        off = np.flatnonzero(member != maximal)
        if off.size:
            k = off[0]
            report = PropertyReport("zero_maximality", False, (pts[rows.start + k],),
                                    detail=f"membership={member[k]}, maximal={maximal[k]}")
    for (i, j), name in sorted((ij, name) for name, ij in found.items()):
        warnings.warn(f"gap sign ({name.split('_')[0]} side) disagrees with the relation "
                      f"at ({pts[i]}, {pts[j]})")
    return (replace(gap, **dict.fromkeys(found, False)) if found else gap), report
