"""Finite cone representations and sampled normal-cone membership oracles.

Cones are stored as finite generator lists (with Full/Zero shortcuts). In
1-D and 2-D a cone is its shape and at most two edges, read by exact signs,
and the hull of its unit-sphere slice is built from them; in 3-D from a
fixed unit net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import groupby, product

import numpy as np

from . import points
from .points import (Point, axis_lattice, blocks, centred_lattice, coord_array, dot_signs,
                     ground_array, ground_points, row_blocks, row_norms, rowdot, tol_floor,
                     unit_rows)
from .relations import Relation, strictly_better_mask, strictly_better_rows

DEFAULT_TOL = 1e-9
STRICT_MARGIN = 1e-7

# `Cone.contains_many` accepts a residual up to max(tol, _CONE_FLOOR), and
# leaves to NNLS every residual within _CONE_SLACK of that threshold (the
# closed form and NNLS each round it by a few eps).
_CONE_FLOOR = 1e-10
_CONE_SLACK = 1e-12

# The shapes of a closed convex cone in 1-D and 2-D (`_shapes`): {0}, a
# ray, a pointed wedge (an angle below a half-turn), a half-plane, a line,
# or the whole space. 1-D cones are ZERO, RAY or FULL.
ZERO, RAY, WEDGE, HALF, LINE, FULL = range(6)
# the shape of the polar of a 2-D cone of each shape
_POLAR = np.array([FULL, HALF, WEDGE, RAY, LINE, ZERO])

# Per-axis box lattices kept by `_box_axis`: a 31 x 31 grid of bases with
# one radius and step needs 62.
_BOX_AXES = 256


def _rows(arr: np.ndarray) -> tuple:
    return tuple(map(tuple, arr.tolist()))


@dataclass(frozen=True)
class Cone:
    """A closed convex cone: all of R^n, {0}, or generated by finitely many
    nonzero rays, which every reader takes as the unit rows `units`."""

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
                if not any(g.coords):
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
        # no generator: `__post_init__` refuses it, whatever the dimension
        return cls(gens[0].dim if gens else 0, "generated", gens)

    @cached_property
    def units(self) -> np.ndarray:
        """The generators scaled to unit length by `points.unit_rows`, so
        one whose squares overflow or underflow keeps its direction, as a
        read-only (k, dim) array built on first use."""
        U = unit_rows(np.array([g.coords for g in self.generators]).reshape(-1, self.dim))
        U.flags.writeable = False
        return U

    @cached_property
    def shape(self) -> tuple:
        """In 1-D and 2-D, the cone's shape and edges (`_shapes`)."""
        G = np.array([g.coords for g in self.generators], dtype=float).reshape(-1, self.dim)
        shape, first, last = _shapes(G, [len(G)])
        return (FULL if self.tag == "full" else int(shape[0])), first[0], last[0]

    def contains(self, query, tol: float = DEFAULT_TOL) -> bool:
        """Conic-combination membership; invariant under positive scaling.
        One row of `contains_many`."""
        return bool(self.contains_many([tuple(query)], tol)[0])

    def contains_many(self, queries, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Membership of each row q of an (m, dim) array, as a bool array.

        q is in the cone when ||q|| <= tol, or when the residual of
        q / ||q|| against the cone, its distance to that cone (what NNLS
        minimises over `units`), is at most max(tol, 1e-10); ||q|| and
        q / ||q|| are `points.row_norms` and `points.unit_rows`. A full cone
        holds every q and a zero cone only those with ||q|| <= tol. A row
        that is not finite raises ValueError, whatever the cone.

        In 1-D and 2-D the residual is read off the cone's `shape`
        (`_cone_residuals`). NNLS decides every row in 3-D, and a residual
        within 1e-12 of the threshold (each rounds it by a few eps).
        """
        Q = np.asarray(queries, dtype=float)
        if Q.ndim != 2 or Q.shape[1] != self.dim:
            raise ValueError("query dimension mismatch")
        if not np.isfinite(Q).all():
            raise ValueError("non-finite query")
        out = row_norms(Q) <= tol
        if self.tag != "generated":
            return out | (self.tag == "full")
        live = ~out
        G, Q = self.units, unit_rows(Q[live])
        thr = max(tol, _CONE_FLOOR)
        # in 3-D every residual is left at the threshold, for NNLS
        resid = _cone_residuals(self.shape, Q) if self.dim <= 2 else np.full(len(Q), thr)
        verdict, unsure = resid <= thr, np.abs(resid - thr) <= _CONE_SLACK
        if unsure.any():
            from scipy.optimize import nnls

            verdict[unsure] = [nnls(G.T, q)[1] <= thr for q in Q[unsure]]
        out[live] = verdict
        return out


def _rot(E: np.ndarray) -> np.ndarray:
    """2-D rows turned a right angle counterclockwise, exactly."""
    return np.stack((-E[..., 1], E[..., 0]), axis=-1)


def _cone_residuals(shape: tuple, Q: np.ndarray) -> np.ndarray:
    """The distance from each unit row q of Q to a 1-D or 2-D cone of this
    `Cone.shape`, unit edges f and l: 0 on the full space and inside a wedge
    or half-plane (cross(f, q) >= 0 >= cross(l, q)); else to the nearer edge
    ray e, |cross(e, q)| where <q, e> >= 0, or 1. In 1-D: 0 on a ray, else 1."""
    kind, first, last = shape
    f, l = unit_rows(np.array([first, last]))
    if kind == FULL or Q.shape[1] == 1:
        return np.where((Q[:, 0] * f[0] > 0.0) | (kind == FULL), 0.0, 1.0)
    cf, cl = rowdot(Q, _rot(f)), rowdot(Q, _rot(l))  # cross(f, q), cross(l, q)
    ray = np.minimum(np.where(rowdot(Q, f) >= 0.0, np.abs(cf), 1.0),
                     np.where(rowdot(Q, l) >= 0.0, np.abs(cl), 1.0))
    return np.where((kind in (WEDGE, HALF)) & (cf >= 0.0) & (cl <= 0.0), 0.0, ray)


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
        tol (1 + ||q||), -`points.tol_floor(q, tol)`."""
        if self.is_empty:
            return False
        q = np.asarray(tuple(query), dtype=float)
        if q.shape != (self.dim,) or not all(map(math.isfinite, q.tolist())):
            raise ValueError("query must be a finite point of the body's dimension")
        from scipy.optimize import nnls

        A = np.r_[self.vertices.T, np.ones((1, len(self.vertices)))]
        return nnls(A, np.r_[q, 1.0])[1] <= float(-tol_floor(q, tol))


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
    """One axis of a base's box lattices at coordinate c, as read-only
    arrays: the coarse lattice, the fine lattice c + k h for |k| <= r / h,
    r = min(0.1, radius) and h = min(step / 2, r) (`points.centred_lattice`,
    which mirrors about c: a half-step beyond r still gives c - r, c and
    c + r), and the mask of the fine points on the coarse lattice (float ==,
    through a set). Every base's candidates are cut from these
    (`_box_product`); bases on a grid share their coordinates, so a sweep
    builds each axis once."""
    coarse = axis_lattice(c - radius, c + radius, step)
    reach = min(0.1, radius)
    fine = centred_lattice(c, reach, min(step / 2.0, reach))
    on_coarse = set(coarse)
    arrays = (np.array(coarse, dtype=float), np.array(fine, dtype=float),
              np.array([v in on_coarse for v in fine], dtype=bool))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _box_product(lats: list) -> np.ndarray:
    """The box candidates of bases whose lattices have one shape, from
    their per-axis `_box_axis` triples, as a (bases, candidates, dim) array:
    for each base the coarse lattice, then the fine lattice's points not
    already in it, each in row-major order.
    A fine point is in the coarse lattice exactly when each of its
    coordinates is on that axis's coarse lattice, so the mask is built per
    axis and expanded in the lattice's order."""
    nb, dim = len(lats), len(lats[0])
    coarse, fine, on = ([np.array([lat[k][i] for lat in lats]) for k in range(dim)]
                        for i in range(3))
    known = reduce(lambda a, b: (a[:, :, None] & b[:, None, :]).reshape(nb, -1), on)
    return np.concatenate((_lattice(coarse), _lattice(fine)[~known].reshape(nb, -1, dim)), axis=1)


def _box_candidates(x: Point, radius: float, step: float) -> np.ndarray:
    """The candidates of `box_sample` as an (m, dim) array: the coarse
    lattice, then the fine lattice's points not already in it, each in
    row-major order (`_box_product` of the base's own lattices)."""
    return _box_product([[_box_axis(c, radius, step) for c in x.coords]])[0]


def _box_blocks(rel: Relation, B: np.ndarray, radius: float, step: float):
    """The box samples of the bases B (rows), in blocks of consecutive bases
    of one lattice shape whose candidates number at most
    `points.BLOCK_ENTRIES` (at least one base per block). Yields each block
    as a slice of the bases, its accepted candidates stacked base after
    base, each base's in candidate order, and their number per base.

    Each base's candidates are cut from its own `_box_axis` lattices, read
    once per distinct coordinate per axis (`_box_product`), and a block's
    candidates are stacked and each is met against its own base in one
    `strictly_better_rows` call."""
    rows = B.tolist()
    per_axis = [{c: _box_axis(c, radius, step) for c in dict.fromkeys(col)} for col in B.T.tolist()]
    shape = [{c: (len(coarse), len(fine), int(on.sum())) for c, (coarse, fine, on) in axis.items()}
             for axis in per_axis]
    shapes = [tuple(map(dict.__getitem__, shape, row)) for row in rows]
    size_of = {s: math.prod(c for c, _, _ in s) + math.prod(f for _, f, _ in s)
               - math.prod(n for _, _, n in s) for s in set(shapes)}
    lats = [list(map(dict.__getitem__, per_axis, row)) for row in rows]
    start = 0
    for s, run in groupby(shapes):
        stop, size = start + len(list(run)), size_of[s]
        for r in row_blocks(stop - start, size):
            blk = slice(start + r.start, start + r.stop)
            Y = _box_product(lats[blk]).reshape(-1, B.shape[1])
            mask = strictly_better_rows(rel, B[blk], Y, np.full(blk.stop - blk.start, size))
            yield blk, Y[mask], np.count_nonzero(mask.reshape(-1, size), axis=1)
        start = stop


def box_sample(rel: Relation, x: Point, radius: float, step: float) -> ContourSample:
    """Contour sample over a grid box centred at x, refined near the base.

    The box has the given radius per axis; within distance 0.1 of the base
    point the lattice step is halved, since membership failures concentrate
    there. Strict preference is evaluated for all of `_box_candidates` at
    once, and the accepted candidates, in that order, become the rows of the
    sample's coordinate array. This is the one-base call of the ground-level
    pass `_box_blocks`, cut from the base's own cached axis lattices.
    """
    ((_, P, _),) = _box_blocks(rel, np.array([x.coords], dtype=float), radius, step)
    return ContourSample(x, P)


@dataclass(frozen=True)
class BoxSampler:
    """`box_sample` with its relation, radius and step fixed: a per-base
    contour sampler, `sampler(x)`, whose `samples` samples a set of bases in
    the ground-level passes of `_box_blocks`, as `vip.bodies_for_ground`
    does."""

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


def normal_cone_test(D: np.ndarray, counts, probes, rhs) -> np.ndarray:
    """For consecutive samples, counts[b] rows d = y - x of D each
    (`_displacements`), the (samples, probes) mask of the probes x* (rows of
    `probes`) with <x*, d> <= rhs at every displacement of the sample.

    The weak, strict and Plastria tests and the 3-D bodies are this test
    with three right-hand sides: tol (1 + ||x*|| ||d||) (`_weak`), -margin
    ||d|| and gap(x, y) + tol (1 + ||d||). `rhs(pn, dn)` gives the
    thresholds of a block of whole samples (a one-sample call's block is its
    sample) from the probe norms `pn`, a row, and the block's displacement
    norms `dn`, a column. Each block, at most `points.BLOCK_ENTRIES`
    (displacement, probe) pairs or one sample, is one direct product summed
    coordinate by coordinate, as the scalar `dot` rounds, with the norms of
    `points.row_norms`, which a displacement whose squares overflow does not
    turn to inf. An empty sample accepts every finite probe; a probe that is
    not finite or not of D's dimension raises ValueError.
    """
    P = np.asarray(probes, dtype=float)
    if P.ndim != 2 or P.shape[1] != D.shape[1]:
        raise ValueError("query dimension mismatch")
    if not np.isfinite(P).all():
        raise ValueError("non-finite probe")
    counts = np.asarray(counts, dtype=np.intp)
    starts, live, pn = np.cumsum(counts) - counts, np.flatnonzero(counts), row_norms(P)
    out = np.ones((len(counts), len(P)), dtype=bool)
    for c in blocks(counts[live] * len(P)):
        at = starts[live[c]]
        rows = D[at[0]:at[-1] + counts[live[c]][-1], None, :]
        fails = rowdot(rows, P) > rhs(pn, row_norms(rows))
        out[live[c]] = ~np.logical_or.reduceat(fails, at - at[0], axis=0)
    return out


def _displacements(samples) -> tuple[np.ndarray, list]:
    """The displacements y - x of samples of one dimension, stacked sample
    after sample, and their number per sample: `normal_cone_test`'s D and
    counts."""
    block = [s.points - np.array(s.base.coords) for s in samples]
    return np.concatenate(block), list(map(len, block))


def _weak(tol: float):
    """The right-hand side tol (1 + ||x*|| ||d||) of `normal_membership`."""
    return lambda pn, dn: tol * (1.0 + pn * dn)


def normal_membership(sample: ContourSample, xstar, tol: float = DEFAULT_TOL) -> bool:
    """Whether xstar makes a nonpositive inner product with every sampled
    displacement into the strictly-better set (scale-aware slack)."""
    return bool(normal_membership_many(sample, [tuple(xstar)], tol)[0])


def normal_membership_many(sample: ContourSample, probes, tol: float = DEFAULT_TOL):
    """normal_membership over an (m, dim) array of probes."""
    return normal_cone_test(*_displacements([sample]), probes, _weak(tol))[0]


def strict_normal_membership(sample: ContourSample, xstar, margin: float = STRICT_MARGIN) -> bool:
    """Strict-inequality refinement: the inner product must clear a relative
    margin of -margin * ||y - x|| at every sampled point."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    return bool(normal_cone_test(*_displacements([sample]), [tuple(xstar)],
                                 lambda pn, dn: -margin * dn)[0, 0])


@lru_cache(maxsize=None)
def unit_net(dim: int) -> np.ndarray:
    """Symmetric unit-vector net, the body of the full cone: +-1 in 1-D, the
    axis plus diagonal fan in 3-D. Hulls are out of scope above 3-D."""
    if dim == 1:
        return np.array([[-1.0], [1.0]])
    if dim == 3:
        # the 26 nonzero vectors of {-1, 0, 1}^3, normalised
        arr = np.array([v for v in product((-1.0, 0.0, 1.0), repeat=3) if any(v)])
        return np.unique(np.round(unit_rows(arr), 12), axis=0)
    raise ValueError("unit nets are only built for dimensions 1 and 3")


def _outermost(N: np.ndarray, D: np.ndarray, rows: np.ndarray, group: np.ndarray) -> tuple:
    """The first outermost row of each group, by a pairwise tournament:
    `rows` (indices into D) lists each group's members in set order, groups
    consecutive (`group` non-decreasing), and a member f lies beyond an
    earlier one e where <N[e], f> > 0 exactly. Each round meets a group's
    consecutive candidates in pairs in one `points.dot_signs` call, and a
    pair keeps its later row only where that row lies beyond the earlier
    one; an odd last candidate waits a round. Returns the winning rows and
    their groups."""
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    # each candidate's place in its group: a nonzero one follows a candidate of its group
    pos = np.arange(len(rows)) - np.repeat(starts, np.diff(starts, append=len(rows)))
    rows = rows.copy()
    while pos.any():
        lead = pos % 2 == 0
        a = np.flatnonzero(lead[:-1] & (pos[1:] != 0))
        b = rows[a + 1]
        won = dot_signs(N[rows[a]], D[b]) > 0
        rows[a[won]] = b[won]
        rows, pos = rows[lead], pos[lead] // 2
    return rows, group[starts]


def _shapes(D: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shape of the cone of each of consecutive sets of 1-D or 2-D
    directions, counts[b] rows of D each (zero rows add nothing), and its
    first and last edge, rows of D, counterclockwise (0 on {0} and the full
    space). 1-D reads the signs. In 2-D every placement and choice is an
    exact sign (`points.dot_signs`): each direction e lies left of its set's
    first direction d, right of it, on d's ray or opposite it, by the signs
    of cross(d, e) and <d, e>. One tournament over every set (`_outermost`)
    takes each side's end, its first outermost direction in set order, and
    the first opposite direction. With an opposite direction the cone is
    the plane, a half-plane or the line as both, one or no side is taken;
    otherwise a ray, a wedge from or to d, or, with both sides, a wedge, a
    half-plane or the plane by the sign of cross(right end, left end)."""
    counts = np.asarray(counts, dtype=np.intp)
    n, dim = len(counts), D.shape[1]
    own = np.repeat(np.arange(n), counts)
    live = (D != 0.0).any(axis=1) if dim == 1 else (D[:, 0] != 0.0) | (D[:, 1] != 0.0)
    if not live.all():
        D, own = D[live], own[live]
    k = np.bincount(own, minlength=n)
    shape, first, last = np.full(n, ZERO), np.zeros((n, dim)), np.zeros((n, dim))
    if dim == 1:
        pos = np.bincount(own, D[:, 0] > 0.0, minlength=n) > 0
        neg = np.bincount(own, D[:, 0] < 0.0, minlength=n) > 0
        shape[pos | neg] = RAY
        shape[pos & neg] = FULL
        first[:, 0] = last[:, 0] = np.where(shape == RAY, np.where(pos, 1.0, -1.0), 0.0)
        return shape, first, last
    sets = np.flatnonzero(k)
    d, ns = np.cumsum(k[sets]) - k[sets], len(sets)  # the first direction of each set
    seg = np.repeat(np.arange(ns), k[sets])
    side, along = dot_signs(np.stack((_rot(X := D[d[seg]]), X)), D)
    # the groups: each set's left side, its right side, its opposite
    # directions. Beyond e lies f where cross(e, f) > 0 on the left and < 0
    # on the right; no opposite direction lies beyond another (N = 0 there)
    parts = [np.flatnonzero(m) for m in (side > 0, side < 0, (side == 0) & (along < 0))]
    rows = np.concatenate(parts)
    group = seg[rows] + ns * np.repeat(np.arange(3), list(map(len, parts)))
    won, group = _outermost(_rot(D) * side[:, None], D, rows, group)
    ends = np.tile(d, 3)  # d where a group is empty
    ends[group] = won
    l, r, o = ends.reshape(3, ns)
    has_l, has_r, has_o, turn = l != d, r != d, o != d, np.zeros(ns, dtype=np.int8)
    both = has_l & has_r  # elsewhere cross(r, l) is not read
    turn[both] = dot_signs(_rot(D[r[both]]), D[l[both]])
    only_r = has_r & ~has_l
    kind = np.select([has_o & has_l & has_r, has_o & (has_l | has_r), has_o, ~(has_l | has_r),
                      ~(has_l & has_r), turn > 0, turn == 0], [FULL, HALF, LINE, RAY, WEDGE, WEDGE, HALF],
                     FULL)
    f = np.where(has_o, np.where(only_r, o, d), r)
    e = np.where(has_o, np.where(only_r, d, o), l)
    shape[sets], first[sets], last[sets] = kind, D[f], D[e]
    first[shape == FULL] = last[shape == FULL] = 0.0
    return shape, first, last


def _shape_bodies(shape: np.ndarray, first: np.ndarray, last: np.ndarray) -> list:
    """The unit hulls of 1-D and 2-D cones of these shapes, u and v the unit
    first and last edges: {0} gives no vertex, a ray [u], a wedge [u, v], a
    half-plane [u, u turned counterclockwise, -u], a line [u, -u], the full
    space `unit_net(1)` or the unit axis vectors. Each records whether its
    cone holds a line, and then it holds 0 exactly (`contains_zero`).

    The bodies skip `ConvexBody`'s per-body copy and check: the edges are
    checked to be finite at once, failing with `ConvexBody`'s ValueError
    (the unit rows of finite edges are finite), and the vertices of a ray
    or a wedge are read-only views of one stacked array of u and v."""
    dim, edges = first.shape[1], np.stack((first, last), axis=1)
    if not np.isfinite(edges).all():
        raise ValueError("non-finite coordinate")
    UV = unit_rows(edges)
    full = unit_net(1) if dim == 1 else np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    UV.flags.writeable = full.flags.writeable = False
    bodies = []
    for kind, uv in zip(shape.tolist(), UV):
        rows = (full if kind == FULL else uv[:0] if kind == ZERO else uv[:1] if kind == RAY
                else uv if kind == WEDGE else np.array([uv[0], -uv[0]]) if kind == LINE
                else np.array([uv[0], _rot(uv[0]), -uv[0]]))
        rows.flags.writeable = False
        body = object.__new__(ConvexBody)
        object.__setattr__(body, "dim", dim)
        object.__setattr__(body, "vertices", rows)
        object.__setattr__(body, "_holds_zero", kind in (HALF, LINE, FULL))
        bodies.append(body)
    return bodies


def cone_unit_hull(cone: Cone) -> ConvexBody:
    """Hull of the cone's unit-sphere slice, as a vertex polytope: in 1-D
    and 2-D the body of its `shape` (`_shape_bodies`); in 3-D the unit net
    for a full cone, else `Cone.units` and the net rows the cone holds,
    rounded to 12 decimals, without repeats."""
    if cone.dim <= 2:
        shape, first, last = cone.shape
        return _shape_bodies(np.array([shape]), first[None], last[None])[0]
    net = unit_net(cone.dim)
    if cone.tag == "full":
        return ConvexBody(cone.dim, net)
    if cone.tag == "zero":
        return ConvexBody(cone.dim, ())
    if len(cone.generators) == 1:
        return ConvexBody(cone.dim, cone.units)
    rows = np.concatenate((cone.units, net[cone.contains_many(net)])).tolist()
    return ConvexBody(cone.dim, list(dict.fromkeys(tuple(round(c, 12) for c in u) for u in rows)))


def _sampled_bodies(D: np.ndarray, counts, tol: float) -> list:
    """The bodies of `body_from_sample` for consecutive samples, counts[b]
    displacement rows of D each: in 1-D and 2-D the unit hulls of the exact
    polars of the samples' cones, whatever tol; in 3-D the unit-net rows
    that `normal_cone_test` accepts at tol (`_weak`), in net order."""
    if D.shape[1] <= 2:
        shape, first, last = _shapes(D, counts)
        if D.shape[1] == 1:  # the polar of a ray is the opposite ray
            return _shape_bodies(np.where(shape == RAY, RAY, _POLAR[shape]), -first, -last)
        # from f to l: from l turned counterclockwise to f turned clockwise
        return _shape_bodies(_POLAR[shape], _rot(last), -_rot(first))
    net = unit_net(D.shape[1])
    at, cols = np.nonzero(normal_cone_test(D, counts, net, _weak(tol)))
    kept = np.bincount(at, minlength=len(counts))
    return [ConvexBody(D.shape[1], rows)
            for rows in np.split(np.take(net, cols, axis=0), np.cumsum(kept)[:-1])]


def sampled_bodies(samples, tol: float = DEFAULT_TOL) -> list:
    """`body_from_sample(sample, tol)` for each of an iterable of samples of
    one dimension, in ground-level passes: consecutive samples are stacked
    in blocks of at most `points.BLOCK_ENTRIES` displacements and samples
    (at least one sample per block), each block one `_sampled_bodies`
    pass."""
    bodies, block, size = [], [], 0
    for sample in samples:
        block.append(sample)
        size += max(1, len(sample.points))
        if size >= points.BLOCK_ENTRIES:
            bodies += _sampled_bodies(*_displacements(block), tol)
            block, size = [], 0
    if block:
        bodies += _sampled_bodies(*_displacements(block), tol)
    return bodies


def body_from_sample(sample: ContourSample, tol: float = DEFAULT_TOL) -> ConvexBody:
    """Unit hull of the sampled normal cone, the polar of the cone of the
    displacements d = y - x into the strictly-better set: in 1-D and 2-D
    exact, whatever tol (an empty sample gives the full cone's body); in
    3-D the unit-net rows u with <u, d> <= tol (1 + ||u|| ||d||) at every d
    (`normal_membership_many`), in net order. The one-sample call of the
    ground-level pass `_sampled_bodies`."""
    return sampled_bodies([sample], tol)[0]


def contains_zero(body: ConvexBody, tol: float = DEFAULT_TOL) -> bool:
    """`body.contains(0, tol)` for the Stampacchia zero stage: exactly, at
    tol >= 0, where its cone holds a line for a body of `_shape_bodies`;
    for any other body, `ConvexBody.contains`."""
    holds = getattr(body, "_holds_zero", None)
    if holds is None:
        return body.contains((0.0,) * body.dim, tol)
    return holds and tol >= 0.0
