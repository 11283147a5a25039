"""Finite cone representations and sampled normal-cone membership oracles.

Cones are stored as finite generator lists (with Full/Zero shortcuts); the
hull of a cone's unit-sphere slice is materialised as a vertex polytope at a
fixed angular resolution, which is all the downstream variational tests need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby, product

import numpy as np

from . import points
from .points import (Point, axis_lattice, blocks, coord_array, ground_array, ground_points, norm,
                     row_blocks, rowdot, scaled_to)
from .relations import Relation, _scored_strict, strictly_better_mask, strictly_better_rows

DEFAULT_TOL = 1e-9
STRICT_MARGIN = 1e-7

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

# `body_from_sample` (2-D) passes a net row unchecked when its nearest
# sampled direction is more than a right angle plus this margin away; the
# margin covers the rounding of the angles, a few eps.
_WEDGE_MARGIN = 1e-9

# Per-axis box lattices kept by `_box_axis`: a 31 x 31 grid of bases with
# one radius and step needs 62.
_BOX_AXES = 256

# Largest score table of `_box_blocks`: a column form is scored once per
# point of the bases' union lattice where it has at most this many points
# (1 MB of scores) and no more than the bases have candidates.
_TABLE_POINTS = 1 << 17

# `contains_zero`'s slack: above `_hull_screen`'s at the origin for rows of
# the unit net, 1e-12 (1 + max ||v||) < 3e-12, so that a net-gap verdict is
# one the screen gives too.
_ZERO_SLACK = 4.0 * _HULL_SLACK


def _rows(arr: np.ndarray) -> tuple:
    return tuple(map(tuple, arr.tolist()))


@dataclass(frozen=True)
class Cone:
    """A closed convex cone: all of R^n, {0}, or generated by finitely many rays."""

    dim: int
    tag: str  # "full" | "zero" | "generated"
    generators: tuple[Point, ...] = ()

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

    def contains(self, query, tol: float = DEFAULT_TOL) -> bool:
        """Conic-combination membership; invariant under positive scaling.
        One row of `contains_many`."""
        return bool(self.contains_many([tuple(query)], tol)[0])

    def contains_many(self, queries, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Membership of each row q of an (m, dim) array, as a bool array.

        q is in the cone when ||q|| <= tol, or when the residual of
        q / ||q|| against the cone of the unit generators, its distance to
        that cone (what NNLS minimises), is at most max(tol, 1e-10). A full
        cone holds every q and a zero cone only those with ||q|| <= tol. A
        row that is not finite raises ValueError, whatever the cone.

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
        if not np.isfinite(Q).all():
            raise ValueError("non-finite query")
        nq = np.sqrt(rowdot(Q, Q))
        out = nq <= tol
        if self.tag != "generated":
            return out | (self.tag == "full")
        live = ~out
        G = np.array([g.coords for g in self.generators])
        G = G * (1.0 / np.sqrt(rowdot(G, G)))[:, None]
        Q = Q[live] * (1.0 / nq[live])[:, None]
        thr = max(tol, _CONE_FLOOR)
        resid, unsure = _cone_residuals(G, Q)
        verdict = resid <= thr
        unsure |= np.abs(resid - thr) <= _CONE_SLACK
        if unsure.any():
            from scipy.optimize import nnls

            verdict[unsure] = [nnls(G.T, q)[1] <= thr for q in Q[unsure]]
        out[live] = verdict
        return out

    def unit_directions(self, net: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Rows of `net` (unit vectors) lying in the cone, within tol."""
        return net[self.contains_many(net, tol)]


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
    slack = _HULL_SLACK * (1.0 + math.sqrt(q @ q) + math.sqrt(rowdot(V, V).max()))
    W = V - q
    if math.sqrt(rowdot(W, W).min()) + slack <= thr:
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
    Y = ground_array(ground, x.dim)
    return ContourSample(x, Y[strictly_better_mask(rel, x, Y)])


def _lattice(axes) -> np.ndarray:
    """The product of per-axis coordinate arrays as an (m, dim) array, in
    the row-major order of `itertools.product`: column k is axis k
    broadcast along the others. Per-axis arrays with a leading axis (one
    row per base) give one product per row, as a (bases, m, dim) array."""
    lead, dim = axes[0].shape[:-1], len(axes)
    out = np.empty(lead + tuple(a.shape[-1] for a in axes) + (dim,), dtype=axes[0].dtype)
    for k, a in enumerate(axes):
        out[..., k] = a.reshape(lead + tuple(-1 if j == k else 1 for j in range(dim)))
    return out.reshape(lead + (-1, dim))


@lru_cache(maxsize=_BOX_AXES)
def _box_axis(c: float, radius: float, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of `_box_candidates` at coordinate c, as read-only arrays:
    the coarse lattice, the fine lattice, and the mask of the fine points on
    the coarse lattice (float ==, through a set). Bases on a grid share
    their coordinates, so a sweep builds each axis once."""
    fine_r = min(0.1, radius)
    coarse = axis_lattice(c - radius, c + radius, step)
    fine = axis_lattice(c - fine_r, c + fine_r, step / 2.0)
    on_coarse = set(coarse)
    arrays = (np.array(coarse, dtype=float), np.array(fine, dtype=float),
              np.array([v in on_coarse for v in fine], dtype=bool))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _axis_union(coords: tuple, radius: float, step: float) -> tuple[np.ndarray, dict]:
    """One axis of the box lattices at the given coordinates: the union U of
    their `_box_axis` lattices, as distinct values (distinct by bits, so that
    0.0 and -0.0 stay apart), and for each coordinate its coarse and fine
    lattices as indices into U."""
    parts = {c: _box_axis(c, radius, step) for c in coords}
    bits = np.sort(np.concatenate([a.view(np.int64) for coarse, fine, _ in parts.values()
                                   for a in (coarse, fine)]))
    bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]  # np.unique loads numpy.ma
    return bits.view(float), {c: (np.searchsorted(bits, coarse.view(np.int64)),
                                  np.searchsorted(bits, fine.view(np.int64)))
                              for c, (coarse, fine, _) in parts.items()}


@lru_cache(maxsize=_BOX_AXES)
def _union_axes(coords: tuple, radius: float, step: float) -> tuple[list, list]:
    """The box lattices at the given distinct coordinates per axis: the
    per-axis values of their union lattice (`_axis_union`), and per axis,
    for each coordinate, its entry: the shape of its lattices (the two
    lengths and the number of fine points on the coarse lattice), the fine
    lattice's on-coarse mask, the two lattices' coordinates, and their
    flat-index offsets into the union lattice's row-major product. A
    ground's sweeps, and each base's own box, share one entry."""
    unions = [_axis_union(col, radius, step) for col in coords]
    axes = [U for U, _ in unions]
    strides = np.cumprod([1] + [len(U) for U in axes[:0:-1]])[::-1].tolist()
    entries = []
    for col, (_, at), st in zip(coords, unions, strides):
        entries.append({})
        for c in col:
            coarse, fine, on = _box_axis(c, radius, step)
            ci, fi = at[c]
            entries[-1][c] = ((len(coarse), len(fine), int(on.sum())), on, (coarse, fine),
                              (ci * st, fi * st))
    return axes, entries


def _union_lattice(B: np.ndarray, radius: float, step: float) -> tuple[list, list]:
    """The union lattice of the box lattices at the bases B (`_union_axes`),
    with each base's entries per axis."""
    coords = tuple(tuple(dict.fromkeys(col)) for col in B.T.tolist())
    axes, entries = _union_axes(coords, radius, step)
    return axes, [[entries[k][c] for k, c in enumerate(row)] for row in B.tolist()]


def _box_product(lats: list, part: int) -> np.ndarray:
    """The box candidates of bases whose lattices have one shape, from their
    per-axis entries of `_union_lattice`, as a (bases, candidates, dim)
    array of coordinates (part 2) or of flat-index offsets, to be summed
    (part 3): for each base the coarse lattice, then the fine lattice's
    points not already in it, each in row-major order. A fine point is in
    the coarse lattice exactly when each of its coordinates is on that
    axis's coarse lattice, so the mask is built per axis and expanded in
    the lattice's order."""
    nb, dim = len(lats), len(lats[0])
    coarse, fine = ([np.array([lat[k][part][i] for lat in lats]) for k in range(dim)]
                    for i in (0, 1))
    on = [np.array([lat[k][1] for lat in lats]) for k in range(dim)]
    known = reduce(lambda a, b: (a[:, :, None] & b[:, None, :]).reshape(nb, -1), on)
    return np.concatenate((_lattice(coarse), _lattice(fine)[~known].reshape(nb, -1, dim)), axis=1)


def _box_candidates(x: Point, radius: float, step: float) -> np.ndarray:
    """The candidates of `box_sample` as an (m, dim) array: the coarse
    lattice, then the fine lattice's points not already in it, each in
    row-major order (`_box_product` for one base)."""
    return _box_product(_union_lattice(np.array([x.coords], dtype=float), radius, step)[1], 2)[0]


def _box_blocks(rel: Relation, B: np.ndarray, radius: float, step: float):
    """The box samples of the bases B (rows), in blocks of consecutive bases
    of one lattice shape whose candidates number at most
    `points.BLOCK_ENTRIES` (at least one base per block). Yields each block
    as a slice of the bases, its accepted candidates stacked base after
    base, each base's in candidate order, and their number per base.

    Every base's candidates are cut from one lattice: the product of the
    per-axis unions of the bases' `_box_axis` lattices (`_union_axes`). A
    utility's column form is scored once per point of that lattice where it
    has fewer points than the bases have candidates (and at most
    `_TABLE_POINTS`; never for a single base, whose candidates are all
    distinct): 18,769 points for radial-bowl's 169 bases, against 286,793
    candidates. Each candidate's score is then read against its own base's
    u(x) (`_scored_strict`, which scores the ambiguous ones again with u).
    Otherwise, and for predicates and tables, a block's candidates are
    stacked and each is met against its own base in one
    `strictly_better_rows` call."""
    axes, lats = _union_lattice(B, radius, step)
    shapes = [tuple(a[0] for a in lat) for lat in lats]
    size_of = {shape: math.prod(c for c, _, _ in shape) + math.prod(f for _, f, _ in shape)
               - math.prod(n for _, _, n in shape) for shape in set(shapes)}
    sizes = [size_of[shape] for shape in shapes]
    table = None
    if (rel.kind == "utility" and rel.columns is not None
            and math.prod(map(len, axes)) < min(sum(sizes), _TABLE_POINTS)):
        T = _lattice(axes)
        table = np.broadcast_to(np.asarray(rel.columns(tuple(T.T)), dtype=float), (len(T),))
    start = 0
    for _, run in groupby(shapes):
        stop, size = start + len(list(run)), sizes[start]
        for r in row_blocks(stop - start, size):
            blk = slice(start + r.start, start + r.stop)
            counts = np.full(blk.stop - blk.start, size)
            if table is None:
                Y = _box_product(lats[blk], 2).reshape(-1, B.shape[1])
                mask = strictly_better_rows(rel, B[blk], Y, counts)
                P = Y[mask]
            else:
                # each axis's offsets added as a column: a sum over the short
                # last axis is many times slower
                idx = reduce(np.add, np.moveaxis(_box_product(lats[blk], 3), 2, 0)).ravel()
                mask = _scored_strict(rel, table[idx], B[blk], counts,
                                      lambda i: np.take(T, idx[i], axis=0))
                P = np.take(T, idx[mask], axis=0)
            yield blk, P, np.count_nonzero(mask.reshape(-1, size), axis=1)
        start = stop


def box_sample(rel: Relation, x: Point, radius: float, step: float) -> ContourSample:
    """Contour sample over a grid box centred at x, refined near the base.

    The box has the given radius per axis; within distance 0.1 of the base
    point the lattice step is halved, since membership failures concentrate
    there. Strict preference is evaluated for all of `_box_candidates` at
    once, and the accepted candidates, in that order, become the rows of the
    sample's coordinate array. This is the one-base call of the ground-level
    pass `_box_blocks`.
    """
    ((_, P, _),) = _box_blocks(rel, np.array([x.coords], dtype=float), radius, step)
    return ContourSample(x, P)


@dataclass(frozen=True)
class BoxSampler:
    """`box_sample` with its relation, radius and step fixed: a per-base
    contour sampler, `sampler(x)`, which `vip.bodies_for_ground` runs for a
    whole ground at once (`box_bodies`), as `samples` does for the samples
    of a set of bases."""

    rel: Relation
    radius: float
    step: float

    def __call__(self, x: Point) -> ContourSample:
        return box_sample(self.rel, x, self.radius, self.step)

    def samples(self, X):
        """The box samples of the points of X, read once at the relation's
        dimension (`points.ground_points`), in order, from the ground-level
        pass `_box_blocks`: a block of bases is sampled when its first
        sample is asked for."""
        pts, B = ground_points(X, self.rel.dim)
        if not pts:
            return
        for blk, P, kept in _box_blocks(self.rel, B, self.radius, self.step):
            yield from map(ContourSample, pts[blk], np.split(P, np.cumsum(kept)[:-1]))


def box_bodies(rel: Relation, B: np.ndarray, radius: float, step: float,
               tol: float = DEFAULT_TOL) -> list:
    """`body_from_sample(box_sample(rel, x, radius, step), tol)` for every
    base x, a row of B, in ground-level passes: each block of `_box_blocks`
    goes through the body pass (`_sampled_bodies`) as it is sampled, so
    that no more than one block's samples are held at once. Passing
    `BoxSampler.samples` to `sampled_bodies` instead would hold a block of
    displacements as ContourSamples beside the score table: 4.2 MB traced
    for radial-bowl's ground, against 2.1 MB."""
    bodies = []
    for blk, P, kept in _box_blocks(rel, B, radius, step):
        bodies += _sampled_bodies(P - np.repeat(B[blk], kept, axis=0), kept, tol)
    return bodies


def normal_cone_test(sample: ContourSample, probes, rhs) -> np.ndarray:
    """For each probe x* (a row of `probes`), whether <x*, d> <= rhs holds at
    every sampled displacement d = y - x into the strictly-better set.

    `normal_membership(_many)`, `strict_normal_membership` and
    `plastria.plastria_membership` are this test with three right-hand
    sides: tol (1 + ||x*|| ||d||), -margin ||d|| and gap(x, y) + tol (1 + ||d||).
    `rhs(pn, dn)` returns the thresholds for every sampled point, given the
    probe norms `pn` as a column and the norms `dn` of the displacements.
    Every probe meets every displacement in one product. Inner products and
    norms are summed coordinate by coordinate, so each entry rounds as the
    scalar `dot` and `norm` do. An empty sample accepts every finite probe;
    a probe that is not finite raises ValueError.
    """
    P = np.asarray(probes, dtype=float)
    if P.ndim != 2 or P.shape[1] != sample.base.dim:
        raise ValueError("query dimension mismatch")
    if not np.isfinite(P).all():
        raise ValueError("non-finite probe")
    if sample.is_empty:
        return np.ones(len(P), dtype=bool)
    D = sample.points - np.array(sample.base.coords)
    pn = np.sqrt(rowdot(P, P))[:, None]
    return ~(rowdot(P[:, None], D[None]) > rhs(pn, np.sqrt(rowdot(D, D)))).any(axis=1)


def normal_membership(sample: ContourSample, xstar, tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar makes a nonpositive inner product with every sampled
    displacement into the strictly-better set (scale-aware slack)."""
    return bool(normal_membership_many(sample, [tuple(xstar)], tol)[0])


def normal_membership_many(sample: ContourSample, probes, tol: float = DEFAULT_TOL):
    """normal_membership over an (m, dim) array of probes."""
    return normal_cone_test(sample, probes, lambda pn, dn: tol * (1.0 + pn * dn))


def strict_normal_membership(sample: ContourSample, xstar, margin: float = STRICT_MARGIN) -> bool:
    """Strict-inequality refinement: the inner product must clear a relative
    margin of -margin * ||y - x|| at every sampled point."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return bool(normal_cone_test(sample, [tuple(xstar)],
                                 lambda pn, dn: -margin * dn)[0])


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
        # the 26 nonzero vectors of {-1, 0, 1}^3, normalised
        arr = np.array([v for v in product((-1.0, 0.0, 1.0), repeat=3) if any(v)])
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
        return ConvexBody(cone.dim, (scaled_to(g, 1.0),))
    verts: list[tuple] = []
    seen = set()
    for g in cone.generators:
        u = tuple(round(c, 12) for c in scaled_to(g, 1.0))
        if u not in seen:
            seen.add(u)
            verts.append(u)
    for row in cone.unit_directions(net):
        u = tuple(round(float(c), 12) for c in row)
        if u not in seen:
            seen.add(u)
            verts.append(u)
    return ConvexBody(cone.dim, verts)


def _exceeds(U: np.ndarray, D: np.ndarray, tol: float, nu=None, nd=None) -> np.ndarray:
    """<u, d> > tol (1 + ||u|| ||d||) for the rows u of U and d of D,
    broadcast together: `normal_membership_many`'s rejection in the
    kernel's own float operations, so each entry is its verdict on that
    pair. The norms nu = ||u|| and nd = ||d|| may be passed in, gathered
    from norms computed once per row by the same expression."""
    nu = np.sqrt(rowdot(U, U)) if nu is None else nu
    nd = np.sqrt(rowdot(D, D)) if nd is None else nd
    return rowdot(U, D) > tol * (1.0 + nu * nd)


@lru_cache(maxsize=None)
def _net_angles() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angles of the 2-D unit net's rows, from arctan2, the same angles
    in ascending order, and each row's place in that order."""
    net = unit_net(2)
    theta = np.arctan2(net[:, 1], net[:, 0])
    order = np.argsort(theta, kind="stable")
    place = np.empty(len(theta), dtype=np.intp)
    place[order] = np.arange(len(theta))
    return theta, theta[order], place


def _nearest_directions(D: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive samples, counts[b] > 0 rows of D each, and each row
    of the 2-D unit net: the index in D of the sample's displacement whose
    direction is nearest on the circle, and the angle between the two.

    The displacement angles are sorted once, and then stably by sample,
    which leaves them sorted by (sample, angle). Each net angle is placed
    among its sample's angles, as `searchsorted` would place it, by a count
    per sample of the displacements below it: a histogram of the
    displacements over the intervals between the sorted net angles, summed
    cumulatively. Its two neighbours wrap around within the sample."""
    theta, ordered, place = _net_angles()
    k = len(theta) + 1
    ang = np.arctan2(D[:, 1], D[:, 0])
    by = np.argsort(ang)
    # the number of net angles at or below each displacement angle, read off
    # the places of the net angles among the sorted displacement angles
    above = np.empty(len(ang), dtype=np.intp)
    above[by] = np.cumsum(np.bincount(np.searchsorted(ang[by], ordered),
                                      minlength=len(ang) + 1))[:len(ang)]
    own = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    by = by[np.argsort(own[by], kind="stable")]
    below = np.bincount(own.astype(np.intp) * k + above, minlength=len(counts) * k)
    i = np.cumsum(below.reshape(-1, k), axis=1)[:, place]
    first, n = (np.cumsum(counts) - counts)[:, None], counts[:, None]
    near = by[first + np.stack((np.where(i > 0, i - 1, n - 1), np.where(i < n, i, 0)))]
    gap = np.abs(theta - ang[near])
    gap = np.minimum(gap, 2.0 * math.pi - gap)
    pick = gap[1] < gap[0]
    return np.where(pick, near[1], near[0]), np.where(pick, gap[1], gap[0])


def _direct_fails(fails: np.ndarray, D: np.ndarray, dn: np.ndarray, starts: np.ndarray,
                  counts: np.ndarray, b: np.ndarray, j: np.ndarray, tol: float) -> None:
    """Set fails[b, j], for each pair of a sample b and a net row j, to
    whether `_exceeds` rejects row j at some displacement of sample b (rows
    of D, with norms dn). The pairs meet their samples' displacements in
    flat gathers, in blocks of at most `points.BLOCK_ENTRIES` (row,
    displacement) pairs."""
    net = unit_net(D.shape[1])
    un = np.sqrt(rowdot(net, net))
    lens = counts[b]
    for c in blocks(lens):
        n = lens[c]
        offs = np.cumsum(n) - n
        rows = np.repeat(starts[b[c]] - offs, n) + np.arange(offs[-1] + n[-1])
        js = np.repeat(j[c], n)
        hits = _exceeds(np.take(net, js, axis=0), np.take(D, rows, axis=0), tol, un[js], dn[rows])
        fails[b[c], j[c]] = np.logical_or.reduceat(hits, offs)


def _net_fails(D: np.ndarray, counts, tol: float) -> np.ndarray:
    """For consecutive samples, counts[b] displacement rows of D each, the
    (samples, net rows) mask of the unit-net rows u that some displacement
    d of the sample rejects: `_exceeds`, <u, d> > tol (1 + ||u|| ||d||).

    In 2-D an exact filter settles most pairs, each row met first by its
    sample's displacement nearest in angle (`_nearest_directions`), in one
    pass for a block of samples:
    - u passes if it is more than a right angle plus 1e-9 from every
      displacement, at tol >= 0. The margin covers the rounding of the
      angles, so the exact products a = u_1 d_1 and b = u_2 d_2 have
      a + b < 0 at every d. Rounding is monotone, so fl(a) <= -fl(b), the
      computed <u, d> is at most 0, and 0 is at most the threshold.
    - u fails if it fails against its nearest displacement.
    Only the pairs it leaves (rows near a right angle to some displacement,
    or with a large tol / ||d||) meet the whole sample (`_direct_fails`).
    In 1-D and 3-D every row meets every displacement, in one direct
    product over the stacked rows. Either way a block holds at most
    `points.BLOCK_ENTRIES` (net row, displacement) pairs, or one sample.
    """
    net = unit_net(D.shape[1])
    counts = np.asarray(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    fails = np.zeros((len(counts), len(net)), dtype=bool)
    live = np.flatnonzero(counts)
    if D.shape[1] != 2:
        for c in blocks(counts[live] * len(net)):
            at = starts[live[c]]
            rows = D[at[0]:at[-1] + counts[live[c]][-1], None, :]
            fails[live[c]] = np.logical_or.reduceat(_exceeds(net, rows, tol), at - at[0], axis=0)
        return fails
    un, dn = np.sqrt(rowdot(net, net)), np.sqrt(rowdot(D, D))
    for c in blocks(counts[live] + len(net)):
        at = live[c]
        lo = starts[at[0]]
        near, gap = _nearest_directions(D[lo:starts[at[-1]] + counts[at[-1]]], counts[at])
        near += lo
        first = _exceeds(net, np.take(D, near, axis=0), tol, un, dn[near])
        fails[at] = first
        b, j = np.nonzero(~first & ~((gap > 0.5 * math.pi + _WEDGE_MARGIN) & (tol >= 0)))
        _direct_fails(fails, D, dn, starts, counts, at[b], j, tol)
    return fails


def _largest_gaps(cols: np.ndarray, kept: np.ndarray, n: int) -> np.ndarray:
    """For consecutive sets of net indices, kept[b] ascending indices of
    `cols` each, the largest cyclic gap between consecutive indices of the
    set: n for a single index, 0 for none."""
    ends = np.cumsum(kept)
    live = np.flatnonzero(kept)
    first, last = ends[live] - kept[live], ends[live] - 1
    step = np.empty(len(cols), dtype=np.intp)
    step[1:] = cols[1:] - cols[:-1]
    step[first] = cols[first] + n - cols[last]
    gaps = np.zeros(len(kept), dtype=np.intp)
    if live.size:
        gaps[live] = np.maximum.reduceat(step, first)
    return gaps


def _net_bodies(dim: int, keep: np.ndarray) -> list:
    """The bodies of the unit-net rows kept in each row of `keep` (bodies by
    net rows), in net order. In 1-D and 2-D each non-empty body also
    records the largest cyclic gap between the indices of its rows, which
    `contains_zero` reads."""
    net = unit_net(dim)
    at, cols = np.nonzero(keep)
    kept = np.bincount(at, minlength=len(keep))
    gaps = _largest_gaps(cols, kept, len(net)).tolist() if dim <= 2 else [0] * len(kept)
    bodies = []
    for rows, gap in zip(np.split(np.take(net, cols, axis=0), np.cumsum(kept)[:-1]), gaps):
        body = ConvexBody(dim, rows)
        if gap:
            object.__setattr__(body, "_net_gap", gap)
        bodies.append(body)
    return bodies


def _sampled_bodies(D: np.ndarray, counts, tol: float) -> list:
    """The bodies of `body_from_sample` for consecutive samples, counts[b]
    displacement rows of D each: the unit-net rows that `_net_fails` leaves,
    in net order (`_net_bodies`)."""
    return _net_bodies(D.shape[1], ~_net_fails(D, counts, tol))


def sampled_bodies(samples, tol: float = DEFAULT_TOL) -> list:
    """`body_from_sample(sample, tol)` for each of an iterable of samples of
    one dimension, in ground-level passes: consecutive samples are stacked
    in blocks of at most `points.BLOCK_ENTRIES` displacements and samples
    (at least one sample per block), each block one `_sampled_bodies`
    pass."""
    bodies, block, size = [], [], 0
    for sample in samples:
        block.append(sample.points - np.array(sample.base.coords))
        size += max(1, len(block[-1]))
        if size >= points.BLOCK_ENTRIES:
            bodies += _sampled_bodies(np.concatenate(block), list(map(len, block)), tol)
            block, size = [], 0
    if block:
        bodies += _sampled_bodies(np.concatenate(block), list(map(len, block)), tol)
    return bodies


def body_from_sample(sample: ContourSample, tol: float = DEFAULT_TOL) -> ConvexBody:
    """Unit hull of the sampled normal cone, as the rows u of the unit net
    that pass `normal_membership_many` (<u, d> <= tol (1 + ||u|| ||d||) at
    every sampled displacement d), in net order. An empty sample leaves the
    cone unconstrained, so the body is the unit ball: the whole net.

    Each row's verdict is `_exceeds`, the kernel's float expression (see
    `_net_fails` for the exact 2-D filter in front of it). This is the
    one-sample call of the ground-level pass `_sampled_bodies`.
    """
    return sampled_bodies([sample], tol)[0]


def _net_gap_zero(body: ConvexBody, tol: float) -> bool | None:
    """`body.contains(0, tol)` read off a sampled body's net rows, or None.

    A body of `_net_bodies` in 1-D or 2-D is a set of rows of the unit net
    (n rows, evenly spaced on the circle; the two of the 1-D net a
    half-turn apart), and the largest cyclic gap g between their net
    indices places the origin:
    - 2g < n: the rows leave no gap of a half-turn, so the origin is
      interior, and `_hull_screen` says True wherever tol is at least its
      slack;
    - 2g > n: the rows lie in an arc of (n - g) / n turns, less than a
      half-turn; with c = cos(pi (n - g) / n), the hull residual of the
      origin is at least c / sqrt(1 + c^2) (`_hull_screen`'s bisector
      bound), so the answer is False where that exceeds tol plus the slack.
    Everything else gives None: g = n / 2, a tol below the slack, a tol that
    the bound does not clear, and a body that is not from the net."""
    gap = getattr(body, "_net_gap", None)
    if gap is None:
        return None
    n = len(unit_net(body.dim))
    if 2 * gap < n:
        return True if tol >= _ZERO_SLACK else None
    if 2 * gap > n:
        c = math.cos(math.pi * (n - gap) / n)
        return False if c / math.sqrt(1.0 + c * c) > tol + _ZERO_SLACK else None
    return None


def contains_zero(body: ConvexBody, tol: float = DEFAULT_TOL) -> bool:
    """`body.contains(0, tol)`: the net-gap verdict of a sampled body
    (`_net_gap_zero`) where it gives one, else `ConvexBody.contains`."""
    verdict = _net_gap_zero(body, tol)
    return body.contains((0.0,) * body.dim, tol) if verdict is None else verdict
