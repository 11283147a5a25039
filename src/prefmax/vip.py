"""Stampacchia and Minty variational-inequality tests over finite candidate sets.

The Stampacchia side searches a convex body for a witness direction whose
inner products with all feasible displacements are nonnegative; the Minty
side tests a candidate against every cone in the field. Solution "sets" are
grids, so set equality means symmetric difference empty at grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .cones import (
    Cone,
    ContourSample,
    ConvexBody,
    DEFAULT_TOL,
    _sampled_bodies,
    cone_unit_hull,
    contains_zero,
    sample_contour,
    sampled_bodies,
)
from .points import (GroundSet, Point, blocks, check_same_dim, dot_signs, ground_array,
                     ground_neighbours, ground_points, row_blocks, row_norms, rowdot, tol_floor,
                     unit_rows)
from .relations import Relation, maximal_elements, strictly_better_rows

ConeOracle = Callable[[Point], Cone]


@dataclass(frozen=True)
class VipCertificate:
    solution: Point
    kind: str  # "stampacchia" | "minty"
    witness: Point | None
    tol: float


def _passing(W: np.ndarray, D: np.ndarray, floor: np.ndarray, tol: float) -> np.ndarray:
    """Whether <w, d> >= floor at every row d of D, for each row w of W (leading
    axes broadcast); at tol 0 by exact signs (`points.dot_signs`)."""
    if tol == 0.0:
        return ~(dot_signs(W[..., None, :], D) < 0).any(axis=-1)
    return ~(rowdot(W[..., None, :], D) < floor).any(axis=-1)


def _lp_witness(V: np.ndarray, D: np.ndarray, floor: np.ndarray, tol: float) -> np.ndarray | None:
    """Phase-1 LP over the vertex weights lam on the simplex: minimise t
    subject to D V^T lam + t >= floor. The bound t >= -1 keeps the LP
    bounded when X is empty. t* <= 0 gives the candidate V^T lam, with lam
    clipped at 0 and renormalised, which is the witness if it passes
    `_passing`; t* > 0 means no point of the body meets every floor. A
    solve that does not end optimal raises RuntimeError."""
    from scipy.optimize import linprog

    k = len(V)
    res = linprog(np.r_[np.zeros(k), 1.0],
                  A_ub=-np.c_[D @ V.T, np.ones(len(D))], b_ub=-floor,
                  A_eq=np.r_[np.ones(k), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(-1.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"Stampacchia witness LP did not solve: {res.message}")
    if res.fun > 0.0:
        return None
    lam = np.maximum(res.x[:k], 0.0)
    w = V.T @ (lam / lam.sum())
    return w if _passing(w[None], D, floor, tol)[0] else None


def _segment_witness(V: np.ndarray, D: np.ndarray, floor: np.ndarray,
                     tol: float) -> np.ndarray | None:
    """The last stage for a body of two vertices v0, v1: of the t in [0, 1]
    where a + t (b - a) >= floor (a = <v0, d>, b = <v1, d>) at every row d
    of D, the middle one and, in 2-D, the segment's points along the rows
    that cut the ends inside [0, 1], turned a right angle (exactly
    orthogonal to d on an axis, as a one-point interval needs): the first
    that passes `_passing`, or None."""
    a, b = rowdot(V[0], D), rowdot(V[1], D)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = (floor - a) / (b - a)
    up, down = np.where(b > a, cut, -np.inf), np.where(b < a, cut, np.inf)
    t = min(1.0, max(0.0, 0.5 * (float(up.max(initial=0.0)) + float(down.min(initial=1.0)))))
    W, chord = [(1.0 - t) * V[0] + t * V[1]], V[1] - V[0]
    ends = [i for key, i in ((up, up.argmax()), (down, down.argmin())) if 0.0 <= key[i] <= 1.0]
    for d in D[ends] if len(chord) == 2 else ():
        den = chord[0] * d[0] + chord[1] * d[1]  # cross(chord, d turned)
        if den != 0.0:
            W.append((chord[0] * V[0][1] - chord[1] * V[0][0]) / den * np.array([-d[1], d[0]]))
    W = np.array(W)
    ok = np.flatnonzero(_passing(W, D, floor, tol))
    return W[ok[0]] if ok.size else None


_EPS8 = 8.0 * float(np.finfo(float).eps)


def _refuted(S: np.ndarray, V: np.ndarray, D: np.ndarray) -> np.ndarray:
    """For each base of a block, whether its displacement d with the
    largest smallest margin refutes every vertex v by more than the
    rounding of a midpoint's inner product can make up: S[v, d] = floor -
    <v, d> > 8 eps sum_k |v_k| |d_k|. S holds the computed margins (bases by
    vertices by displacements), V the vertices (bases by vertices by
    coordinates) and D the displacements (bases by displacements by
    coordinates), as `_margin_blocks` yields them.

    A midpoint m = (v + w) / 2 is rounded once per coordinate and its
    product once per term, so its computed product is within about
    2.5 eps (S_v + S_w) / 2 of the mean of the vertices' computed products,
    where S_v = sum_k |v_k| |d_k|; with a margin of 8 eps S_v at every vertex
    it stays below the floor (barring underflow), and the sweep would
    reject every midpoint at d. The test is written as a difference, which
    rounds monotonically, so a computed pass is an exact one. The screen
    only refutes: a base it leaves open, near-ties included, is decided by
    the midpoint sweep and the LP.
    """
    at = np.arange(len(S))
    j = S.min(axis=1).argmax(axis=1)
    return (S[at, :, j] > _EPS8 * rowdot(np.abs(V), np.abs(D[at, j])[:, None, :])).all(axis=1)


def _margin_blocks(bodies: list, bases: list, B: np.ndarray, G: np.ndarray, tol: float):
    """Yields (block, V, D, S) for the indices `bases` of the rows of B, in
    that order, in blocks of whole bases (`points.blocks`), a base counting
    one entry per vertex and row of G: the block's indices, its bases'
    vertices V (bases, vertices, dim), the displacements D = G - xhat
    (bases, rows, dim) and the margins S = floor - <v, d> (bases, vertices,
    rows), floor = -tol (1 + ||d||) (`points.tol_floor`).

    A base with fewer vertices than the block's most repeats its last
    vertex: that moves neither its first passing vertex nor the screen's
    verdict. Products are summed coordinate by coordinate, so every entry
    rounds as in a one-base sweep. A vertex fails at d when S > 0, which
    holds exactly when <v, d> < floor.
    """
    for blk in blocks([len(bodies[i].vertices) * len(G) for i in bases]):
        block = bases[blk]
        counts = np.array([len(bodies[i].vertices) for i in block])
        starts = np.cumsum(counts) - counts
        V = np.concatenate([bodies[i].vertices for i in block])[
            starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)]
        D = G - B[block][:, None, :]
        S = rowdot(V[:, :, None, :], D[:, None, :, :])
        np.subtract(tol_floor(D, tol)[:, None, :], S, out=S)
        yield block, V, D, S


def _midpoint_witness(V: np.ndarray, D: np.ndarray, floor: np.ndarray,
                      tol: float) -> np.ndarray | None:
    """The first pairwise vertex midpoint (i, j), i < j, in row-major order
    that passes `_passing`, or None. The midpoints go in consecutive blocks
    of that order, each midpoint counting one entry per displacement
    (`points.row_blocks`), and the sweep stops at the first block with a
    passing midpoint."""
    I, J = np.triu_indices(len(V), 1)
    for blk in row_blocks(len(I), len(D)):
        mids = 0.5 * (V[I[blk]] + V[J[blk]])
        hits = np.flatnonzero(_passing(mids, D, floor, tol))
        if hits.size:
            return mids[hits[0]]
    return None


def _extreme_rows(G: np.ndarray) -> np.ndarray:
    """Indices, in ground order, of the rows of G that maximise <v, y> for
    some nonzero v in {-1, 0, 1}^dim, the first such row on ties: at most
    2 rows in 1-D, 8 in 2-D and 26 in 3-D, a grid's corners among them, and
    none for an empty ground."""
    if not len(G):
        return np.arange(0)
    dirs = np.array([v for v in product((-1.0, 0.0, 1.0), repeat=G.shape[1]) if any(v)])
    return np.unique(rowdot(G[:, None, :], dirs).argmax(axis=0))


def _neighbour_screen(rel: Relation, G: np.ndarray, tol: float) -> tuple:
    """The neighbour screen of a 1-D or 2-D ground G (rows): for every base,
    a row of G, its strictly-better ground neighbours and whether they
    refute it. Returns the mask of refuted bases, the indices into G of the
    strictly-better neighbours stacked base after base, and their number
    per base.

    Each base meets its neighbours on the ground's coordinate lattice
    (`points.ground_neighbours`) in one stacked `strictly_better_rows`
    pass, and its neighbours' body is the unit hull of the exact polar of
    their displacements (`cones._sampled_bodies`), the normal cone of the
    neighbours alone. A larger sample of the strictly-better set only
    narrows that cone, and its unit hull lies beyond this one's along every
    direction of the narrower cone, so a witness w' of the larger body
    scales down to a point lam w', 0 < lam <= 1, of this one, whose products
    are no further below 0 than those of w'. At tol >= 0, where every floor
    is at most 0, a base whose neighbours' body has no Stampacchia witness
    (`_stampacchia`) at the ground's extreme rows (`_extreme_rows`, a grid's
    corners) therefore has none for any sample that holds these neighbours,
    the sampler's and the ground's. At tol < 0 only an empty body, a {0}
    polar, refutes. The bases go in blocks (`points.row_blocks`), a base
    counting 3^dim - 1 entries per extreme row."""
    n = len(G)
    N = ground_neighbours(G)
    H = G[_extreme_rows(G)]
    refuted = np.zeros(n, dtype=bool)
    better = N >= 0
    for blk in row_blocks(n, N.shape[1] * len(H)):
        nb, real = N[blk], better[blk]
        real[real] = strictly_better_rows(rel, G[blk], G[nb[real]], real.sum(axis=1))
        kept = real.sum(axis=1)
        bodies = _sampled_bodies(G[nb[real]] - np.repeat(G[blk], kept, axis=0), kept, tol)
        refuted[blk] = ([w is None for w in _stampacchia(bodies, G[blk], H, tol)] if tol >= 0.0
                        else [body.is_empty for body in bodies])
    return refuted, N[better], better.sum(axis=1)


def _stampacchia(bodies: list, B: np.ndarray, G: np.ndarray, tol: float) -> list:
    """Stampacchia witnesses (coordinate tuples, or None) for the bases
    xhat, the rows of B, with the bodies `bodies`, against the ground rows
    G. Each base gets the witness of the sequential search: zero if its
    body contains it, else its first passing vertex, else its first passing
    midpoint, else the last stage's witness, or None. At tol 0 every test
    is by exact signs (`_passing`): a witness's products are >= 0 exactly.

    The stages are the same in every dimension. They run for all bases at
    once, and each passes on only the bases it leaves open:
    1. Zero: an empty body has no witness, and zero is the witness of a
       body that contains it. `contains_zero` runs once per distinct body
       object (bases on a grid share the bodies of a cone oracle); a 1-D or
       2-D body that the library built holds zero exactly when its cone
       holds a line, and every other body runs `ConvexBody.contains`.
    2. The margins of every vertex at every displacement, in blocks of
       bases (`_margin_blocks`) in order of vertex count, so that little
       is padded. First, unless they are the whole ground, against the
       ground's extreme rows (`_extreme_rows`, at most 3^dim - 1), where
       only the Farkas screen (`_refuted`) is read: a base it refutes there
       has no witness, since each of those margins is the float expression
       of the whole-ground pass at that row. Then, for the bases left,
       against the whole ground: a base's witness is its first passing
       vertex, and only the bases with none meet the screen again.
    3. One base at a time, the midpoint sweep (`_midpoint_witness`).
    4. Last, the interval of a two-vertex body's points that meet every
       floor (`_segment_witness`), or for more vertices one phase-1 LP
       (`_lp_witness`) over the body. Both come after the midpoints: their
       witness is rounded, and at tol 0 a midpoint can meet a floor of
       exactly 0 that their point misses.
    """
    dim = B.shape[1]
    zero = (0.0,) * dim
    found: list = [None] * len(B)
    holds_zero: dict[int, bool] = {}
    open_ = []
    for i, body in enumerate(bodies):
        if body.dim != dim:
            raise ValueError(f"dimension mismatch: {sorted({body.dim, dim})}")
        if body.is_empty:
            continue
        if id(body) not in holds_zero:
            holds_zero[id(body)] = contains_zero(body, tol)
        if holds_zero[id(body)]:
            found[i] = zero
        else:
            open_.append(i)
    open_.sort(key=lambda i: len(bodies[i].vertices))
    E = _extreme_rows(G)
    if len(E) < len(G):
        open_ = [i for block, V, D, S in _margin_blocks(bodies, open_, B, G[E], tol)
                 for i, no in zip(block, _refuted(S, V, D).tolist()) if not no]
    for block, V, D, S in _margin_blocks(bodies, open_, B, G, tol):
        passing = _passing(V, D[:, None], None, tol) if tol == 0.0 else ~(S > 0.0).any(axis=2)
        for b, k in enumerate(passing.argmax(axis=1).tolist()):
            if passing[b, k]:
                found[block[b]] = tuple(V[b, k].tolist())
        live = np.flatnonzero(~passing.any(axis=1))
        for b in (live[~_refuted(S[live], V[live], D[live])] if live.size else live).tolist():
            Vb, floor = bodies[block[b]].vertices, tol_floor(D[b], tol)
            w = _midpoint_witness(Vb, D[b], floor, tol)
            if w is None and len(Vb) > 1:
                last = _segment_witness if len(Vb) == 2 else _lp_witness
                w = last(Vb, D[b], floor, tol)
            if w is not None:
                found[block[b]] = tuple(w.tolist())
    return found


def svip_membership(body: ConvexBody, xhat: Point, X: GroundSet | list,
                    tol: float = DEFAULT_TOL) -> VipCertificate | None:
    """Certificate that xhat solves the Stampacchia problem for this body:
    a witness w in the body with w . (y - xhat) >= -tol (1 + ||y - xhat||)
    for every y in X, or None.

    This is the one-base call of the stages that `svip_solutions` runs for
    a whole ground (`_stampacchia`, the same in every dimension): the zero
    vector, the body's vertices, the Farkas screen, the pairwise vertex
    midpoints (i, j), i < j, in row-major order, and last the segment's
    interval or one phase-1 LP. Where a vertex or midpoint passes, the
    witness is the first that passes, as a one-at-a-time sweep returns.
    """
    w = _stampacchia([body], np.array([xhat.coords], dtype=float), ground_array(X, xhat.dim), tol)[0]
    return None if w is None else VipCertificate(xhat, "stampacchia", Point(w), tol)


# Rounding floor of `certificate_valid`'s hull test, in units of
# 1 + max ||v|| over the body's vertices; see there.
_WITNESS_HULL_FLOOR = 64.0 * float(np.finfo(float).eps)


def certificate_valid(cert: VipCertificate, body: ConvexBody, X, tol: float | None = None) -> bool:
    """Re-validate a Stampacchia certificate: witness inside the body and all
    inequalities satisfied.

    The hull test alone has a rounding floor: its NNLS residual may be up to
    c eps (1 + max ||v||), c = 64, whatever the tolerance. Witnesses are
    vertices, midpoints 0.5 (v + w) rounded once per coordinate, or the
    LP's V^T lam for weights on the simplex, so one that is a convex
    combination in exact arithmetic is only one in floats up to a few
    eps (1 + max ||v||), and NNLS rounds its residual by as much again. Over 6,000 such points of
    random bodies in 2-D and 3-D (2 to 59 vertices, magnitudes 1e-4 to 1e4)
    and the witnesses `svip_membership` returned at tol 0 on 400 more, the
    largest residual was 2.8 eps (1 + max ||v||). c = 64 leaves a factor of
    20 above that and stays far below any distance a tolerance means to
    resolve: a unit body still rejects a point 1e-9 outside. The
    inequalities are checked at `tol` itself, with the floor test that
    `_stampacchia`'s stages run: products summed coordinate by coordinate,
    so each rounds as the scalar `dot`, against `points.tol_floor`.
    """
    tol = cert.tol if tol is None else tol
    check_same_dim(body, cert.solution)
    D = ground_array(X, cert.solution.dim) - np.array(cert.solution.coords, dtype=float)
    if cert.witness is None or body.is_empty:
        return False
    w = np.array([cert.witness.coords])
    V = body.vertices
    floor = _WITNESS_HULL_FLOOR * (1.0 + float(row_norms(V).max()))
    # contains() scales its tolerance by 1 + ||w||; the floor is absolute
    if not body.contains(w[0], max(tol, floor / (1.0 + float(row_norms(w)[0])))):
        return False
    return not (rowdot(w, D) < tol_floor(D, tol)).any()


@dataclass(frozen=True)
class _ConeField:
    """One cone per ground point, as arrays: every unit generator, with the
    ground point of its cone, and the ground points whose cone is all of
    R^n. Zero cones contribute nothing."""

    units: np.ndarray  # (m, dim)
    at: np.ndarray  # (m, dim) the ground point of each generator's cone
    full: np.ndarray  # (f, dim) ground points with a full cone


def _cone_field(cone_oracle: ConeOracle, X, dim: int) -> _ConeField:
    """Call the oracle once per point of the ground X (`points.ground_points`)
    and stack the cones, each generated one as its `Cone.units`. A cone of
    another dimension than the ground's raises ValueError, whatever its
    tag."""
    pts, ground = ground_points(X, dim)
    units, owner, full = [], [], []
    for i, y in enumerate(pts):
        cone = cone_oracle(y)
        if cone.dim != dim:
            raise ValueError(f"dimension mismatch: {sorted({cone.dim, dim})}")
        if cone.tag == "full":
            full.append(i)
        elif cone.tag == "generated":
            units.append(cone.units)
            owner.append(i)
    sizes = np.fromiter(map(len, units), np.intp, len(units))
    return _ConeField(np.concatenate(units) if units else np.empty((0, dim)),
                      ground[np.repeat(np.array(owner, dtype=np.intp), sizes)],
                      ground[np.array(full, dtype=int)])


def _minty_fails(field: _ConeField, C: np.ndarray, tol: float) -> np.ndarray:
    """For each candidate xhat, a row of C: whether <g, xhat - y> > tol (1 +
    ||xhat - y||) for some unit generator g of the cone at some ground
    point y of the field, the ceiling tol (1 + ||xhat - y||) the negated
    `points.tol_floor`. A full cone is probed with the axis fan, whose
    worst case is max_i |d_i|, and with d / ||d|| itself (`points.unit_rows`),
    which is nan and refutes nothing when d = xhat - y = 0.

    The candidates go in blocks (`points.row_blocks`), each tested against
    the whole stacked field in one expression; a candidate counts 4 entries
    per generator and full cone, since a block holds about four arrays of
    that size at once. Each entry is computed from xhat - y as a
    one-candidate test computes it."""
    fails = np.empty(len(C), dtype=bool)
    for blk in row_blocks(len(C), 4 * (len(field.units) + len(field.full))):
        X = C[blk, None, :]
        D = X - field.at
        out = (rowdot(field.units, D) > -tol_floor(D, tol)).any(axis=1)
        F = X - field.full
        ceiling = -tol_floor(F, tol)
        out |= (np.abs(F).max(axis=2) > ceiling).any(axis=1)
        fails[blk] = out | (rowdot(unit_rows(F), F) > ceiling).any(axis=1)
    return fails


def _minty_screen(field: _ConeField) -> _ConeField:
    """The sub-field that `_minty_holds` tests first: for each distinct
    unit generator g, its entry with the least <g, y> (the first in ground
    order on ties), which is where <g, xhat - y> is largest for every
    candidate, and the first and the last full-cone point, of which a
    candidate equals at most one. The entries keep their field order."""
    # by generator, then by <g, y>, then in field order (lexsort is stable)
    order = np.lexsort((rowdot(field.units, field.at), *field.units.T))
    U = field.units[order]
    head = np.ones(len(U), dtype=bool)
    head[1:] = (U[1:] != U[:-1]).any(axis=1)
    heads = np.sort(order[head])
    full = field.full[[0, -1]] if len(field.full) > 1 else field.full
    return _ConeField(field.units[heads], field.at[heads], full)


def _minty_holds(field: _ConeField, C: np.ndarray, tol: float) -> np.ndarray:
    """For each candidate xhat, a row of C: whether <g, xhat - y> <= tol (1 +
    ||xhat - y||) for every unit generator g of the cone at every ground
    point y, with full cones probed as `_minty_fails` probes them.

    The candidates are screened against a few entries of the field first
    (`_minty_screen`), and only those that pass meet the whole field. The
    screen only refutes: each of its entries is one of the field's, tested
    with the same float expression, so a candidate it rejects fails the
    whole field too, and the verdicts are those of the whole field alone.
    A field that the screen would not shrink is tested once."""
    sub = _minty_screen(field)
    live = np.arange(len(C))
    if len(sub.units) + len(sub.full) < len(field.units) + len(field.full):
        live = live[~_minty_fails(sub, C, tol)]
    holds = np.zeros(len(C), dtype=bool)
    holds[live] = ~_minty_fails(field, C[live], tol)
    return holds


def mvip_membership(cone_oracle: ConeOracle, xhat: Point, X: GroundSet | list,
                    tol: float = DEFAULT_TOL) -> bool:
    """Whether xhat solves the Minty problem for the cone field over X.

    Checking generators suffices by cone convexity. Full cones are probed
    with the axis fan plus the direction xhat - y itself, which is the exact
    worst case (a full cone fails precisely when xhat != y). The field is
    built with one oracle call per point of X, and xhat is tested as the
    one-row block of `_minty_holds`, the test `mvip_solutions` runs.
    """
    C = np.array([xhat.coords], dtype=float)
    return bool(_minty_holds(_cone_field(cone_oracle, X, xhat.dim), C, tol)[0])


def mvip_solutions(cone_oracle: ConeOracle, X: GroundSet, tol: float = DEFAULT_TOL) -> list[Point]:
    """The points of X that solve the Minty problem, in ground order. The
    oracle is called once per ground point (`_cone_field`), and every point
    of X is a candidate of `_minty_holds`, the test `mvip_membership` runs
    for one: first against a few entries of the field, then, only those
    that pass, against all of it. X is read once (`points.ground_points`).
    """
    pts, G = ground_points(X)
    if not pts:
        return []
    holds = _minty_holds(_cone_field(cone_oracle, pts, G.shape[1]), G, tol)
    return [x for x, h in zip(pts, holds.tolist()) if h]


def bodies_for_ground(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None, *,
                      tol: float = DEFAULT_TOL, contour_sampler=None):
    """Per-point convex bodies for the Stampacchia sweep, keyed by
    coordinates: from closed-form cones when available, else from sampled
    normal cones.

    Without an oracle, pass a contour_sampler that looks beyond the feasible
    grid: a base point that sees only one strictly-better grid point would
    otherwise get a half-space cone, an artifact of the coarse sample. A
    sampler with a `samples` method (a `BoxSampler`, `Fixture.box_sampler`)
    samples its bases in ground-level passes (`BoxSampler.samples`); any
    other (by default the ground sample `sample_contour`) is called once
    per base. Every sampler's samples go through one body pass, stacked in
    blocks of at most `points.BLOCK_ENTRIES` displacements
    (`cones.sampled_bodies`), each body the unit hull of the sampled normal
    cone (`body_from_sample`). X is read once, at the relation's dimension
    (`points.ground_points`).

    In 1-D and 2-D a base's sample is its sampler's points plus its
    strictly-better ground neighbours, and the neighbour screen
    (`_neighbour_screen`) runs first: a base whose neighbours alone leave
    no Stampacchia witness on X has none for any sample that holds them,
    so it is not sampled, and its body is empty. Every other base is
    sampled, its neighbours are added to its sample, and its body is that
    sample's. 3-D bodies come from the sampler's points alone.
    """
    pts, rows = ground_points(X, rel.dim)
    if cone_oracle is not None:
        hull_cache: dict[tuple, ConvexBody] = {}
        bodies = []
        for x in pts:
            cone = cone_oracle(x)
            key = (cone.tag, cone.generators)
            body = hull_cache.get(key)
            if body is None:
                body = hull_cache[key] = cone_unit_hull(cone)
            bodies.append(body)
        return {x.coords: body for x, body in zip(pts, bodies)}
    n, dim = rows.shape
    bodies, sampled, near = [ConvexBody(dim, ())] * n, np.arange(n), None
    if dim <= 2 and n:
        refuted, better, kept = _neighbour_screen(rel, rows, tol)
        sampled = np.flatnonzero(~refuted)
        near = np.split(rows[better[np.repeat(~refuted, kept)]], np.cumsum(kept[sampled])[:-1])
    sampler = contour_sampler or (lambda x: sample_contour(rel, x, rows))
    bases = [pts[i] for i in sampled.tolist()]
    samples = sampler.samples(bases) if hasattr(sampler, "samples") else map(sampler, bases)
    if near is not None:
        samples = (ContourSample(s.base, np.concatenate((s.points, q))) if len(q) else s
                   for s, q in zip(samples, near))
    found = sampled_bodies(samples, tol)
    for i, body in zip(sampled.tolist(), found):
        bodies[i] = body
    return {x.coords: body for x, body in zip(pts, bodies)}


def svip_solutions(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None, *,
                   tol: float = DEFAULT_TOL, contour_sampler=None,
                   ball_on_empty: bool = False) -> list[Point]:
    """The points of X that solve the Stampacchia problem, in ground order,
    with the bodies of `bodies_for_ground` (from ground-level passes within
    `points.BLOCK_ENTRIES`). Every point of X is decided in the stacked
    stages of `_stampacchia`, whose one-base call is `svip_membership`, so
    a point is returned exactly where `svip_membership` gives it a
    certificate. X is read once (`points.ground_points`), and
    `bodies_for_ground` gets its Points.

    Without an oracle, in 1-D and 2-D, each base is decided on its
    sampler's points plus its strictly-better ground neighbours: the
    neighbour screen refutes most bases before any is sampled, and gives
    them the empty body, which the first stage skips; a base it leaves is
    sampled with its neighbours added. Since a larger sample only narrows
    the normal cone, the screen refutes no base that its sample's body
    would certify, and the listing is the unscreened decision on those
    samples.

    `ball_on_empty` is accepted only as False, because `bench/ops.py`
    still passes it; True raises ValueError.
    """
    if ball_on_empty:
        raise ValueError(f"ball_on_empty={ball_on_empty!r} is not supported: "
                         "the hull of a full cone is already the ball")
    pts, G = ground_points(X)
    if not pts:
        return []
    bodies = bodies_for_ground(rel, pts, cone_oracle, tol=tol, contour_sampler=contour_sampler)
    found = _stampacchia([bodies[x.coords] for x in pts], G, G, tol)
    return [x for x, w in zip(pts, found) if w is not None]


def uniqueness_equivalence(me: list[Point], mv: list[Point]) -> bool:
    """Whether [the maximal set `me` is a singleton] coincides with [it equals
    the Minty solution set `mv`]."""
    return (len(me) == 1) == ({p.coords for p in me} == {p.coords for p in mv})


def uniqueness_check(rel: Relation, cone_oracle: ConeOracle, X: GroundSet,
                     tol: float = DEFAULT_TOL) -> bool:
    """`uniqueness_equivalence` of the maximal and Minty sets, both over X."""
    return uniqueness_equivalence(maximal_elements(rel, X), mvip_solutions(cone_oracle, X, tol))
