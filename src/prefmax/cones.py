"""Finite cone representations and sampled normal-cone membership oracles.

Cones are stored as finite generator lists (with Full/Zero shortcuts); the
hull of a cone's unit-sphere slice is materialised as a vertex polytope at a
fixed angular resolution, which is all the downstream variational tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

import numpy as np
from scipy.optimize import nnls

from .points import GroundSet, Point, axis_lattice, dot, norm, scale, sub
from .relations import Relation, holds, strictly_better_mask

DEFAULT_TOL = 1e-9
STRICT_MARGIN = 1e-7


@dataclass(frozen=True)
class Cone:
    """A closed convex cone: all of R^n, {0}, or generated by finitely many rays."""

    dim: int
    tag: str  # "full" | "zero" | "generated"
    generators: tuple[Point, ...] = ()
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.tag not in ("full", "zero", "generated"):
            raise ValueError(f"unknown cone tag {self.tag!r}")
        if self.tag == "generated":
            if not self.generators:
                raise ValueError("generated cone needs at least one generator")
            for g in self.generators:
                if g.dim != self.dim:
                    raise ValueError("generator dimension mismatch")
                if norm(g) == 0.0:
                    raise ValueError("generators must be nonzero")

    @classmethod
    def full(cls, dim: int) -> "Cone":
        return cls(dim, "full")

    @classmethod
    def zero(cls, dim: int) -> "Cone":
        return cls(dim, "zero")

    @classmethod
    def ray(cls, direction) -> "Cone":
        g = direction if isinstance(direction, Point) else Point(tuple(direction))
        return cls(g.dim, "generated", (g,))

    @classmethod
    def generated(cls, generators) -> "Cone":
        gens = tuple(g if isinstance(g, Point) else Point(tuple(g)) for g in generators)
        return cls(gens[0].dim, "generated", gens)

    def contains(self, query) -> bool:
        """Conic-combination membership; invariant under positive scaling."""
        q = tuple(query)
        nq = norm(q)
        if nq <= self.tol:
            return True
        if self.tag == "full":
            return True
        if self.tag == "zero":
            return False
        qhat = np.asarray(scale(q, 1.0 / nq))
        G = np.array([scale(g, 1.0 / norm(g)) for g in self.generators]).T
        _, resid = nnls(G, qhat)
        return resid <= max(self.tol, 1e-10)

    def unit_directions(self, net: np.ndarray) -> np.ndarray:
        """Rows of `net` (unit vectors) lying in the cone."""
        if self.tag == "full":
            return net
        if self.tag == "zero":
            return net[:0]
        keep = [i for i in range(net.shape[0]) if self.contains(tuple(net[i]))]
        return net[keep]


@dataclass(frozen=True)
class ConvexBody:
    """A compact convex polytope given by its vertex list (possibly empty)."""

    dim: int
    vertices: tuple[Point, ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, query, tol: float = DEFAULT_TOL) -> bool:
        """Convex-combination feasibility over the vertices, within tol."""
        if self.is_empty:
            return False
        q = np.asarray(tuple(query), dtype=float)
        V = np.array([v.coords for v in self.vertices], dtype=float)
        A = np.r_[V.T, np.ones((1, V.shape[0]))]
        b = np.r_[q, 1.0]
        _, resid = nnls(A, b)
        return resid <= tol * (1.0 + float(np.linalg.norm(q)))


@dataclass(frozen=True)
class ContourSample:
    """A finite sample of the strictly-better set of a base point."""

    base: Point
    points: tuple[Point, ...]

    def __post_init__(self):
        for p in self.points:
            if p.dim != self.base.dim:
                raise ValueError("contour sample dimension mismatch")

    @property
    def is_empty(self) -> bool:
        return not self.points


def sample_contour(rel: Relation, x: Point, ground) -> ContourSample:
    """Strictly-preferred points of `ground`, as a membership sample at x."""
    pts = list(ground)
    mask = strictly_better_mask(rel, x, [p.coords for p in pts])
    return ContourSample(x, tuple(p for p, ok in zip(pts, mask) if ok))


def box_sample(rel: Relation, x: Point, radius: float, step: float) -> ContourSample:
    """Contour sample over a grid box centred at x, refined near the base.

    The box has the given radius per axis; within distance 0.1 of the base
    point the lattice step is halved, since membership failures concentrate
    there. The candidates are the coarse lattice, then the fine lattice's
    points not already in it, each in row-major order; strict preference is
    evaluated for all of them in one `strictly_better_mask` call, and only
    accepted candidates become Points.
    """
    coarse = product(*(axis_lattice(c - radius, c + radius, step) for c in x.coords))
    fine_r = min(0.1, radius)
    fine = product(*(axis_lattice(c - fine_r, c + fine_r, step / 2.0) for c in x.coords))
    candidates = list(dict.fromkeys(chain(coarse, fine)))
    mask = strictly_better_mask(rel, x, candidates)
    return ContourSample(x, tuple(Point(y) for y, ok in zip(candidates, mask) if ok))


def normal_membership(sample: ContourSample, xstar, tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar makes a nonpositive inner product with every sampled
    displacement into the strictly-better set (scale-aware slack)."""
    xs = tuple(xstar)
    if len(xs) != sample.base.dim:
        raise ValueError("query dimension mismatch")
    if sample.is_empty:
        return True
    nxs = norm(xs)
    for y in sample.points:
        d = sub(y, sample.base)
        if dot(xs, d) > tol * (1.0 + nxs * norm(d)):
            return False
    return True


def normal_membership_many(sample: ContourSample, probes, tol: float = DEFAULT_TOL):
    """Vectorised normal_membership over an (m, dim) array of probes."""
    P = np.asarray(probes, dtype=float)
    if sample.is_empty:
        return np.ones(P.shape[0], dtype=bool)
    D = np.array([y.coords for y in sample.points]) - np.array(sample.base.coords)
    inner = P @ D.T
    thresh = tol * (1.0 + np.linalg.norm(P, axis=1)[:, None] * np.linalg.norm(D, axis=1)[None, :])
    return np.all(inner <= thresh, axis=1)


def strict_normal_membership(sample: ContourSample, xstar, margin: float = STRICT_MARGIN) -> bool:
    """Strict-inequality refinement: the inner product must clear a relative
    margin of -margin * ||y - x|| at every sampled point."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    xs = tuple(xstar)
    if len(xs) != sample.base.dim:
        raise ValueError("query dimension mismatch")
    if sample.is_empty:
        return True
    for y in sample.points:
        d = sub(y, sample.base)
        if dot(xs, d) > -margin * norm(d):
            return False
    return True


@lru_cache(maxsize=None)
def unit_net(dim: int) -> np.ndarray:
    """Symmetric unit-vector net: +-1 in 1-D, 1-degree fan in 2-D, axis plus
    diagonal fan in 3-D. Hull construction is out of scope above 3-D."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    if dim == 2:
        ang = np.arange(360) * math.pi / 180.0
        return np.c_[np.cos(ang), np.sin(ang)]
    if dim == 3:
        base = []
        for i in range(3):
            for s in (1.0, -1.0):
                v = [0.0, 0.0, 0.0]
                v[i] = s
                base.append(v)
        for sx in (1.0, -1.0, 0.0):
            for sy in (1.0, -1.0, 0.0):
                for sz in (1.0, -1.0, 0.0):
                    v = (sx, sy, sz)
                    nz = sum(1 for c in v if c != 0.0)
                    if nz >= 2:
                        base.append(list(v))
        arr = np.array(base)
        arr /= np.linalg.norm(arr, axis=1)[:, None]
        return np.unique(np.round(arr, 12), axis=0)
    raise ValueError("unit nets are only built for dimensions 1-3")


def cone_unit_hull(cone: Cone, ball_on_empty: bool = False,
                   contour_empty: bool = False) -> ConvexBody:
    """Hull of the cone's unit-sphere slice, as a vertex polytope.

    With ball_on_empty set, an empty strictly-better set yields the closed
    unit ball regardless of the cone (the alternative map used by the
    counterexample fixture); otherwise the cone alone decides.
    """
    net = unit_net(cone.dim)
    if ball_on_empty and contour_empty:
        return ConvexBody(cone.dim, tuple(Point(tuple(v)) for v in net))
    if cone.tag == "zero":
        return ConvexBody(cone.dim, ())
    if cone.tag == "full":
        return ConvexBody(cone.dim, tuple(Point(tuple(v)) for v in net))
    if len(cone.generators) == 1:
        g = cone.generators[0]
        return ConvexBody(cone.dim, (Point(scale(g, 1.0 / norm(g))),))
    verts: list[tuple] = []
    seen = set()
    for g in cone.generators:
        u = tuple(round(c, 12) for c in scale(g, 1.0 / norm(g)))
        if u not in seen:
            seen.add(u)
            verts.append(u)
    for row in cone.unit_directions(net):
        u = tuple(round(float(c), 12) for c in row)
        if u not in seen:
            seen.add(u)
            verts.append(u)
    return ConvexBody(cone.dim, tuple(Point(u) for u in verts))


def body_from_sample(sample: ContourSample, tol: float = DEFAULT_TOL) -> ConvexBody:
    """Unit hull of the sampled normal cone (net directions passing the
    membership test). An empty sample leaves the cone unconstrained, so the
    body is the unit ball."""
    net = unit_net(sample.base.dim)
    if sample.is_empty:
        return ConvexBody(sample.base.dim, tuple(Point(tuple(v)) for v in net))
    member = normal_membership_many(sample, net, tol)
    return ConvexBody(sample.base.dim, tuple(Point(tuple(v)) for v in net[member].tolist()))


def complete_equivalence_check(rel: Relation, x: Point, probes, ground: GroundSet,
                               tol: float = DEFAULT_TOL) -> bool:
    """For a complete relation, membership in the sampled normal cone must
    coincide with: every ground point on the strictly-positive side of the
    probe is weakly worse than x. Returns False on the first disagreement."""
    sample = sample_contour(rel, x, ground)
    for xstar in probes:
        xs = tuple(xstar)
        lhs = normal_membership(sample, xs, tol)
        rhs = all(holds(rel, x, y) for y in ground if dot(xs, sub(y, x)) > 0.0)
        if lhs != rhs:
            return False
    return True
