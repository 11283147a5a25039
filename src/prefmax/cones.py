"""Finite cone representations and sampled normal-cone membership oracles.

Cones are stored as finite generator lists (with Full/Zero shortcuts); the
hull of a cone's unit-sphere slice is materialised as a vertex polytope at a
fixed angular resolution, which is all the downstream variational tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .points import GroundSet, Point, axis_lattice, coord_array, ground_array, norm, scale
from .relations import Relation, preference_matrix, strictly_better_mask

DEFAULT_TOL = 1e-9
STRICT_MARGIN = 1e-7

# Size of the evenly spaced subset of sampled displacements that every probe
# meets before the rest in `normal_cone_test`.
_SCREEN_ROWS = 16

# `Cone.contains_many` accepts a residual up to max(tol, _CONE_FLOOR), and
# leaves to NNLS every residual within _CONE_SLACK of that threshold (the
# closed form and NNLS each round it by a few eps).
_CONE_FLOOR = 1e-10
_CONE_SLACK = 1e-12

# NNLS (Lawson-Hanson) drops the second generator of a near-antipodal pair
# as linearly dependent. Measured on scipy's nnls in the plane, it drops
# every pair of unit generators whose cross product is below about 48 eps,
# keeps every pair above about 102 eps, and in between decides by rounding.
# The closed form spans a pair's wedge above _PAIR_SPANS, ignores it below
# _PAIR_DEPENDENT, and leaves the queries that only a pair between the two
# would put in the cone to NNLS.
_PAIR_DEPENDENT = 32 * np.finfo(float).eps
_PAIR_SPANS = 128 * np.finfo(float).eps

# Slack of `_hull_screen`'s bounds, relative to 1 + ||q|| + max ||v||: it
# covers the rounding of the bounds and of the NNLS residual, which is a few
# eps on these problems.
_HULL_SLACK = 1e-12


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sum over the last axis of A * B (broadcast), coordinate by coordinate
    from the left, so that each entry rounds exactly as the scalar `dot`."""
    out = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        out = out + A[..., k] * B[..., k]
    return out


def _rows(arr: np.ndarray) -> tuple:
    return tuple(map(tuple, arr.tolist()))


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
        """Conic-combination membership; invariant under positive scaling.
        One row of `contains_many`."""
        return bool(self.contains_many([tuple(query)])[0])

    def contains_many(self, queries) -> np.ndarray:
        """Membership of each row q of an (m, dim) array, as a bool array.

        q is in the cone when ||q|| <= tol, or when the residual of
        q / ||q|| against the cone of the unit generators, its distance to
        that cone (what NNLS minimises), is at most max(tol, 1e-10). A full
        cone holds every q and a zero cone only those with ||q|| <= tol.

        In 1-D the residual is 0 when some generator has q's sign, else 1.
        In 2-D it is 0 when q / ||q|| lies in the wedge of a pair of unit
        generators (g_i, g_j) with cross(g_i, g_j) > 128 eps; otherwise it
        is the distance to the nearest generator ray, |cross(q, g)| where
        <q, g> >= 0 and 1 where <q, g> < 0. The cutoff leaves out the
        near-antipodal pairs that NNLS treats as dependent. NNLS decides
        the rows the closed form cannot: a residual within 1e-12 of the
        threshold, a wedge only a pair in NNLS's rank band (cross product
        between 32 and 128 eps) would span, and every row in 3-D.
        """
        Q = np.asarray(queries, dtype=float)
        if Q.ndim != 2 or Q.shape[1] != self.dim:
            raise ValueError("query dimension mismatch")
        nq = np.sqrt(_rowdot(Q, Q))
        out = nq <= self.tol
        if self.tag != "generated":
            return out | (self.tag == "full")
        if not np.isfinite(Q).all():
            raise ValueError("non-finite query")
        live = ~out
        G = np.array([g.coords for g in self.generators])
        G = G * (1.0 / np.sqrt(_rowdot(G, G)))[:, None]
        Q = Q[live] * (1.0 / nq[live])[:, None]
        thr = max(self.tol, _CONE_FLOOR)
        resid, unsure = _cone_residuals(G, Q)
        verdict = resid <= thr
        unsure |= np.abs(resid - thr) <= _CONE_SLACK
        if unsure.any():
            from scipy.optimize import nnls

            verdict[unsure] = [nnls(G.T, q)[1] <= thr for q in Q[unsure]]
        out[live] = verdict
        return out

    def unit_directions(self, net: np.ndarray) -> np.ndarray:
        """Rows of `net` (unit vectors) lying in the cone."""
        return net[self.contains_many(net)]


def _cone_residuals(G: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed forms of `Cone.contains_many`: the distance from each unit
    row of Q to the cone of the unit rows of G, and a mask of the rows they
    leave to NNLS (a wedge of a pair in the rank band; every row in 3-D)."""
    if G.shape[1] == 1:
        resid = np.where((np.outer(G[:, 0], Q[:, 0]) > 0.0).any(axis=0), 0.0, 1.0)
        return resid, np.zeros(len(Q), dtype=bool)
    if G.shape[1] != 2:
        return np.zeros(len(Q)), np.ones(len(Q), dtype=bool)
    C = np.outer(G[:, 0], Q[:, 1]) - np.outer(G[:, 1], Q[:, 0])  # cross(g, q)
    D = np.outer(G[:, 0], Q[:, 0]) + np.outer(G[:, 1], Q[:, 1])  # <g, q>
    pairs = np.outer(G[:, 0], G[:, 1]) - np.outer(G[:, 1], G[:, 0])  # cross(g_i, g_j)

    def in_wedge(mask):
        I, J = np.nonzero(mask)
        return ((C[I] >= 0.0) & (C[J] <= 0.0)).any(axis=0)

    spans = in_wedge(pairs > _PAIR_SPANS)
    resid = np.where(spans, 0.0, np.where(D >= 0.0, np.abs(C), 1.0).min(axis=0))
    band = (pairs > _PAIR_DEPENDENT) & (pairs <= _PAIR_SPANS)
    return resid, ~spans & in_wedge(band)


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A compact convex polytope given by its vertices (possibly none), stored
    as a read-only (k, dim) array; Points, tuples or an array are accepted."""

    dim: int
    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", coord_array(self.vertices, self.dim))

    def __eq__(self, other):
        if not isinstance(other, ConvexBody):
            return NotImplemented
        return self.dim == other.dim and _rows(self.vertices) == _rows(other.vertices)

    def __hash__(self):
        return hash((self.dim, _rows(self.vertices)))

    @property
    def is_empty(self) -> bool:
        return not len(self.vertices)

    def contains(self, query, tol: float = DEFAULT_TOL) -> bool:
        """Convex-combination feasibility over the vertices, within tol: the
        NNLS residual of [V^T; 1] lam = [q; 1], lam >= 0, is at most
        tol (1 + ||q||). In 1-D and 2-D `_hull_screen` settles every query
        whose residual is bounded clear of that threshold; the others
        (near-ties, and at tol = 0 every query in the hull) are solved."""
        if self.is_empty:
            return False
        q = np.asarray(tuple(query), dtype=float)
        if q.shape != (self.dim,) or not np.isfinite(q).all():
            raise ValueError("query must be a finite point of the body's dimension")
        thr = tol * (1.0 + math.sqrt(q @ q))
        if self.dim <= 2:
            verdict = _hull_screen(self.vertices, q, thr)
            if verdict is not None:
                return verdict
        from scipy.optimize import nnls

        A = np.r_[self.vertices.T, np.ones((1, len(self.vertices)))]
        return nnls(A, np.r_[q, 1.0])[1] <= thr


def _hull_screen(V: np.ndarray, q: np.ndarray, thr: float) -> bool | None:
    """`ConvexBody.contains`' verdict in 1-D and 2-D where bounds on the
    NNLS residual r decide it, else None.

    r is the distance from (q, 1) to the cone of the points (v, 1). In 1-D
    that cone lies in the plane with the rays (lo, 1) and (hi, 1), and r is
    exact: 0 for lo <= q <= hi, else the distance to the nearer ray. In 2-D
    bounds decide. r <= ||p - q|| for every point p of the hull (weights
    summing to 1). For a unit d with m = min_v <v - q, d> > 0 and
    a = min_v <v, d>, weights summing to s give <p - q, d> >= m + (s - 1) a,
    so r >= m / sqrt(1 + a^2). The angles of v - q around q pick p and d: if
    the largest gap between them is below pi, q is interior (r = 0);
    otherwise p is the point nearest q on the chord across the gap, a hull
    segment, and d bisects the occupied arc. Each coordinate of v - q is
    rounded once, so the angles are within a few eps of the true ones, and a
    q wrongly taken as interior is within that much of the hull.

    True needs an upper bound at most thr less the slack, False a lower
    bound above thr plus the slack. The slack covers the rounding of the
    bounds and of NNLS, so at tol = 0 every query in the hull goes to NNLS.
    """
    if V.shape[1] == 1:
        x, lo, hi = float(q[0]), float(V.min()), float(V.max())
        slack = _HULL_SLACK * (1.0 + abs(x) + max(abs(lo), abs(hi)))
        if lo <= x <= hi:
            return True if slack <= thr else None
        r = min(abs(x - v) / math.sqrt(1.0 + v * v) if x * v + 1.0 > 0.0
                else math.sqrt(x * x + 1.0) for v in (lo, hi))
        if r + slack <= thr:
            return True
        return False if r > thr + slack else None
    slack = _HULL_SLACK * (1.0 + math.sqrt(q @ q) + math.sqrt(_rowdot(V, V).max()))
    W = V - q
    if math.sqrt(_rowdot(W, W).min()) + slack <= thr:
        return True
    ang = np.arctan2(W[:, 1], W[:, 0])
    order = np.argsort(ang)
    ang = ang[order]
    gaps = np.concatenate((ang[1:], [ang[0] + 2.0 * math.pi])) - ang
    k = int(np.argmax(gaps))
    if gaps[k] < math.pi:
        return True if slack <= thr else None
    a, b = W[order[k]], W[order[(k + 1) % len(W)]]
    ab = b - a
    den = float(ab @ ab)
    p = a + (min(1.0, max(0.0, float(-a @ ab) / den)) if den > 0.0 else 0.0) * ab
    if math.sqrt(p @ p) + slack <= thr:
        return True
    phi = math.atan2(b[1], b[0]) + 0.5 * (2.0 * math.pi - gaps[k])
    d = np.array([math.cos(phi), math.sin(phi)])
    r = float((W @ d).min()) / math.sqrt(1.0 + float((V @ d).min()) ** 2)
    return False if r > thr + slack else None


@dataclass(frozen=True, eq=False)
class ContourSample:
    """A finite sample of the strictly-better set of a base point, stored as a
    read-only (m, dim) array; Points, tuples or an array are accepted."""

    base: Point
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", coord_array(self.points, self.base.dim))

    def __eq__(self, other):
        if not isinstance(other, ContourSample):
            return NotImplemented
        return self.base == other.base and _rows(self.points) == _rows(other.points)

    def __hash__(self):
        return hash((self.base, _rows(self.points)))

    @property
    def is_empty(self) -> bool:
        return not len(self.points)


def sample_contour(rel: Relation, x: Point, ground) -> ContourSample:
    """Strictly-preferred points of `ground` (a GroundSet or Points), as a
    membership sample at x: the rows of the ground's coordinate array that
    one `strictly_better_mask` call accepts, in ground order."""
    if not isinstance(ground, GroundSet):
        ground = list(ground)
        mask = strictly_better_mask(rel, x, [p.coords for p in ground])
    else:
        mask = strictly_better_mask(rel, x, ground)
    return ContourSample(x, ground_array(ground, x.dim)[mask])


def _lattice(axes: list[list[float]]) -> np.ndarray:
    """The product of per-axis coordinates as an (m, dim) array, in the
    row-major order of `itertools.product`."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _box_candidates(x: Point, radius: float, step: float) -> np.ndarray:
    """The candidates of `box_sample` as an (m, dim) array: the coarse
    lattice, then the fine lattice's points not already in it, each in
    row-major order. A fine point is in the coarse lattice exactly when each
    of its coordinates is on that axis's coarse lattice (float ==, through
    a set per axis), so the mask is built per axis and expanded in the
    lattice's order."""
    fine_r = min(0.1, radius)
    coarse = [axis_lattice(c - radius, c + radius, step) for c in x.coords]
    fine = [axis_lattice(c - fine_r, c + fine_r, step / 2.0) for c in x.coords]
    on_coarse = [np.array([c in axis for c in f], dtype=bool)
                 for axis, f in zip(map(set, coarse), fine)]
    known = reduce(np.logical_and.outer, on_coarse).ravel()
    return np.concatenate([_lattice(coarse), _lattice(fine)[~known]])


def box_sample(rel: Relation, x: Point, radius: float, step: float) -> ContourSample:
    """Contour sample over a grid box centred at x, refined near the base.

    The box has the given radius per axis; within distance 0.1 of the base
    point the lattice step is halved, since membership failures concentrate
    there. Strict preference is evaluated for all of `_box_candidates` in one
    `strictly_better_mask` call, and the accepted candidates, in that order,
    become the rows of the sample's coordinate array.
    """
    candidates = _box_candidates(x, radius, step)
    return ContourSample(x, candidates[strictly_better_mask(rel, x, candidates)])


def normal_cone_test(sample: ContourSample, probes, rhs) -> np.ndarray:
    """For each probe x* (a row of `probes`), whether <x*, d> <= rhs holds at
    every sampled displacement d = y - x into the strictly-better set.

    `normal_membership(_many)`, `strict_normal_membership` and
    `plastria.plastria_membership` are this kernel with three right-hand
    sides: tol (1 + ||x*|| ||d||), -margin ||d|| and gap(x, y) + tol (1 + ||d||).
    `rhs(pn, dn, rows)` returns the thresholds for the sampled points
    `sample.points[rows]`, given the probe norms `pn` as a column and the
    norms `dn` of their displacements. Inner products and norms are summed
    coordinate by coordinate, so each entry rounds as the scalar `dot` and
    `norm` do.

    The displacements are met in three stages: the first one, the rest of an
    evenly spaced screen of at most _SCREEN_ROWS, then all others. A stage
    tests only the probes that passed the stages before it, so the verdicts
    are those of one test against every displacement, while most failing
    probes, and a failing single probe, stop early (and `rhs` is evaluated
    only where a stage looks). An empty sample accepts every probe.
    """
    P = np.asarray(probes, dtype=float)
    if P.ndim != 2 or P.shape[1] != sample.base.dim:
        raise ValueError("query dimension mismatch")
    ok = np.ones(len(P), dtype=bool)
    if sample.is_empty:
        return ok
    Y, base = sample.points, np.array(sample.base.coords)
    pn = np.sqrt(_rowdot(P, P))[:, None]
    step = -(-len(Y) // _SCREEN_ROWS)
    rest = np.ones(len(Y), dtype=bool)
    rest[::step] = False
    for rows in (slice(0, 1), slice(step, None, step), rest):
        live = np.flatnonzero(ok)
        if not live.size:
            break
        D = Y[rows] - base
        inner = _rowdot(P[live][:, None, :], D[None, :, :])
        ok[live] = ~(inner > rhs(pn[live], np.sqrt(_rowdot(D, D)), rows)).any(axis=1)
    return ok


def normal_membership(sample: ContourSample, xstar, tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar makes a nonpositive inner product with every sampled
    displacement into the strictly-better set (scale-aware slack)."""
    return bool(normal_membership_many(sample, [tuple(xstar)], tol)[0])


def normal_membership_many(sample: ContourSample, probes, tol: float = DEFAULT_TOL):
    """normal_membership over an (m, dim) array of probes."""
    return normal_cone_test(sample, probes, lambda pn, dn, rows: tol * (1.0 + pn * dn))


def strict_normal_membership(sample: ContourSample, xstar, margin: float = STRICT_MARGIN) -> bool:
    """Strict-inequality refinement: the inner product must clear a relative
    margin of -margin * ||y - x|| at every sampled point."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return bool(normal_cone_test(sample, [tuple(xstar)],
                                 lambda pn, dn, rows: -margin * dn)[0])


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


def cone_unit_hull(cone: Cone) -> ConvexBody:
    """Hull of the cone's unit-sphere slice, as a vertex polytope.

    A full cone (the normal cone of an empty strictly-better set) gives the
    whole unit net, the ball; a zero cone gives the empty body. A cone that
    holds a direction and its opposite, such as the generators (-1, 0),
    (0, 1), (0, -1) of segment-line's on-axis points, gives a body that
    contains zero.
    """
    net = unit_net(cone.dim)
    if cone.tag == "full":
        return ConvexBody(cone.dim, net)
    if cone.tag == "zero":
        return ConvexBody(cone.dim, ())
    if len(cone.generators) == 1:
        g = cone.generators[0]
        return ConvexBody(cone.dim, (scale(g, 1.0 / norm(g)),))
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
    return ConvexBody(cone.dim, verts)


def body_from_sample(sample: ContourSample, tol: float = DEFAULT_TOL) -> ConvexBody:
    """Unit hull of the sampled normal cone (net directions passing the
    membership test), as the rows of the net that pass, in net order. An
    empty sample leaves the cone unconstrained, so the body is the unit ball:
    the whole net."""
    net = unit_net(sample.base.dim)
    if sample.is_empty:
        return ConvexBody(sample.base.dim, net)
    return ConvexBody(sample.base.dim, net[normal_membership_many(sample, net, tol)])


def complete_equivalence_check(rel: Relation, x: Point, probes, ground: GroundSet,
                               tol: float = DEFAULT_TOL) -> bool:
    """For a complete relation, membership in the sampled normal cone must
    coincide with: every ground point on the strictly-positive side of the
    probe is weakly worse than x. Both sides are evaluated for all probes at
    once."""
    sample = sample_contour(rel, x, ground)
    P = np.array([tuple(p) for p in probes], dtype=float).reshape(-1, x.dim)
    lhs = normal_membership_many(sample, P, tol)
    ahead = _rowdot(P[:, None, :], (ground_array(ground, x.dim) - np.array(x.coords))[None]) > 0.0
    worse = preference_matrix(rel, [x], ground)[0]
    rhs = ~(ahead & ~worse).any(axis=1)
    return bool(np.array_equal(lhs, rhs))
