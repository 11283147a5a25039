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
    BoxSampler,
    Cone,
    ConvexBody,
    DEFAULT_TOL,
    box_bodies,
    cone_unit_hull,
    contains_zero,
    sample_contour,
    sampled_bodies,
)
from .points import (GroundSet, Point, blocks, check_same_dim, ground_array, ground_points, norm,
                     row_blocks, rowdot)
from .relations import Relation, maximal_elements

ConeOracle = Callable[[Point], Cone]


@dataclass(frozen=True)
class VipCertificate:
    solution: Point
    kind: str  # "stampacchia" | "minty"
    witness: Point | None
    tol: float


def _lp_witness(V: np.ndarray, D: np.ndarray, floor: np.ndarray) -> np.ndarray | None:
    """Phase-1 LP over the vertex weights lam on the simplex: minimise t
    subject to D V^T lam + t >= floor. The bound t >= -1 keeps the LP
    bounded when X is empty. t* <= 0 gives the candidate V^T lam, with lam
    clipped at 0 and renormalised, which is the witness if it meets every
    floor as the other stages test it; t* > 0 means no point of the body
    meets every floor. A solve that does not end optimal raises
    RuntimeError."""
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
    return None if (rowdot(w, D) < floor).any() else w


_EPS8 = 8.0 * float(np.finfo(float).eps)


def _first_passing(fails: np.ndarray) -> int | None:
    """Index of the first row of `fails` (candidates by displacements) with
    no failure."""
    hits = np.flatnonzero(~fails.any(axis=1))
    return int(hits[0]) if hits.size else None


def _refuted(S: np.ndarray, V: np.ndarray, D: np.ndarray) -> np.ndarray:
    """For each base of a block, whether some displacement d refutes every
    vertex v by more than the rounding of a midpoint's inner product can
    make up: S[v, d] = floor - <v, d> > 8 eps sum_k |v_k| |d_k|. S holds the
    computed margins (bases by vertices by displacements), V the vertices
    (bases by vertices by coordinates) and D the displacements (bases by
    displacements by coordinates).

    A midpoint m = (v + w) / 2 is rounded once per coordinate and its
    product once per term, so its computed product is within about
    2.5 eps (S_v + S_w) / 2 of the mean of the vertices' computed products,
    where S_v = sum_k |v_k| |d_k|; with a margin of 8 eps S_v at every vertex
    it stays below the floor (barring underflow), and the sweep would
    reject every midpoint at d. The test is written as a difference, which
    rounds monotonically, so a computed pass is an exact one. Near-ties fall
    through to the sweep.

    Each base is first tested only at its displacement with the largest
    smallest margin, where the slack is computed for its vertices alone;
    that settles a refuted base unless its margins there are within
    rounding. Only a base that it leaves open meets every displacement, so
    the verdicts are those of the test at every displacement.
    """
    at = np.arange(len(S))
    j = S.min(axis=1).argmax(axis=1)
    refuted = (S[at, :, j] > _EPS8 * rowdot(np.abs(V), np.abs(D[at, j])[:, None, :])).all(axis=1)
    rest = np.flatnonzero(~refuted)
    if rest.size:
        slack = _EPS8 * rowdot(np.abs(V[rest])[:, :, None, :], np.abs(D[rest])[:, None, :, :])
        refuted[rest] = (S[rest] > slack).all(axis=1).any(axis=1)
    return refuted


def _vertex_block(Vs: list, B: np.ndarray, G: np.ndarray, tol: float):
    """The vertex sweep and the Farkas screen for a block of bases xhat, the
    rows of B, with the vertex arrays Vs, against the ground rows G. Returns
    each base's first passing vertex (or None) and whether the screen
    refutes it; only bases without a passing vertex meet the screen.

    The vertex arrays are stacked into one (bases, vertices, dim) array, in
    which a base with fewer vertices than the block's most repeats its last
    vertex: that moves neither its first passing vertex nor the screen's
    verdict. Each base's displacements are G - xhat, and products are
    summed coordinate by coordinate, so every entry rounds as in a one-base
    sweep. A vertex fails at d when floor - <v, d> > 0, which holds exactly
    when <v, d> < floor.
    """
    counts = np.array([len(V) for V in Vs])
    starts = np.cumsum(counts) - counts
    V = np.concatenate(Vs)[starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)]
    D = G - B[:, None, :]
    floor = -tol * (1.0 + np.sqrt(rowdot(D, D)))
    S = rowdot(V[:, :, None, :], D[:, None, :, :])
    np.subtract(floor[:, None, :], S, out=S)
    passing = ~(S > 0.0).any(axis=2)
    firsts = [V[b, k] if passing[b, k] else None
              for b, k in enumerate(passing.argmax(axis=1).tolist())]
    live = np.flatnonzero(~passing.any(axis=1))
    refuted = np.zeros(len(Vs), dtype=bool)
    if live.size == len(Vs):
        refuted = _refuted(S, V, D)
    elif live.size:
        refuted[live] = _refuted(S[live], V[live], D[live])
    return firsts, refuted


def _midpoint_witness(V: np.ndarray, D: np.ndarray, floor: np.ndarray) -> np.ndarray | None:
    """The first pairwise vertex midpoint (i, j), i < j, in row-major order
    that meets every floor, or None. The midpoints go in consecutive blocks
    of that order, each midpoint counting one entry per displacement
    (`points.row_blocks`), and the sweep stops at the first block with a
    passing midpoint."""
    I, J = np.triu_indices(len(V), 1)
    for blk in row_blocks(len(I), len(D)):
        mids = 0.5 * (V[I[blk]] + V[J[blk]])
        k = _first_passing(rowdot(mids[:, None, :], D[None, :, :]) < floor)
        if k is not None:
            return mids[k]
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


def _vertex_sweep(bodies: list, bases: list, B: np.ndarray, G: np.ndarray, tol: float):
    """Yields (base, first passing vertex or None, refuted) for each index
    of `bases`, in that order: `_vertex_block` against the ground rows G,
    in blocks of whole bases (`points.blocks`), a base counting one entry
    per vertex and row of G."""
    for blk in blocks([len(bodies[i].vertices) * len(G) for i in bases]):
        block = bases[blk]
        firsts, refuted = _vertex_block([bodies[i].vertices for i in block], B[block], G, tol)
        yield from zip(block, firsts, refuted.tolist())


def _stampacchia(bodies: list, B: np.ndarray, G: np.ndarray, tol: float) -> list:
    """Stampacchia witnesses (coordinate tuples, or None) for the bases
    xhat, the rows of B, with the bodies `bodies`, against the ground rows
    G. Each base gets the witness of the sequential search: zero if its
    body contains it, else its first passing vertex, else its first passing
    midpoint, else the LP's witness, or None.

    The stages are the same in every dimension. They run for all bases at
    once, and each passes on only the bases it leaves open:
    1. Zero: an empty body has no witness, and zero is the witness of a
       body that contains it. `contains_zero` runs once per distinct body
       object (bases on a grid share the bodies of a cone oracle); a
       sampled body's verdict is read off the gaps between its net rows,
       and every other body runs `ConvexBody.contains`.
    2. The vertex sweep and the Farkas screen (`_vertex_block`) in one
       block loop (`_vertex_sweep`) over the bases in order of vertex
       count, so that little is padded: first against the ground's extreme
       rows (`_extreme_rows`, at most 3^dim - 1), unless those are the
       whole ground, then against the whole ground for the bases that run
       neither passes nor refutes. The first run only refutes, since each
       of its entries is the float expression of the second at that row. A
       base's witness is its first passing vertex in the second run, and a
       refuted base has none.
    3. One base at a time, the midpoint sweep (`_midpoint_witness`).
    4. Last, one phase-1 LP (`_lp_witness`), which decides whether any
       point of the body meets every floor. It comes after the midpoints
       because its witness is a rounded convex combination: at tol 0 a
       midpoint can meet a floor of exactly 0 that the LP's point misses
       by rounding.
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
        open_ = [i for i, w, no in _vertex_sweep(bodies, open_, B, G[E], tol)
                 if w is not None or not no]
    for i, w, no in _vertex_sweep(bodies, open_, B, G, tol):
        if w is None and not no:
            V = bodies[i].vertices
            D = G - B[i]
            floor = -tol * (1.0 + np.sqrt(rowdot(D, D)))
            w = _midpoint_witness(V, D, floor)
            if w is None:
                w = _lp_witness(V, D, floor)
        if w is not None:
            found[i] = tuple(w.tolist())
    return found


def svip_membership(body: ConvexBody, xhat: Point, X: GroundSet | list,
                    tol: float = DEFAULT_TOL) -> VipCertificate | None:
    """Certificate that xhat solves the Stampacchia problem for this body:
    a witness w in the body with w . (y - xhat) >= -tol (1 + ||y - xhat||)
    for every y in X, or None.

    This is the one-base call of the stages `svip_solutions` runs for a
    whole ground (`_stampacchia`), the same in every dimension. The witness
    search is a finite sweep: the zero vector first (a trivial solution
    whenever the body contains it), then body vertices, then pairwise
    vertex midpoints (i, j), i < j, in row-major order, each tested as an
    array against all y at once. Last, one phase-1 LP (`_lp_witness`)
    decides whether some point of the body meets every floor; its witness
    must meet every floor as the sweeps test them.

    The vertex products are computed once and used twice: for the vertex
    sweep, and for a Farkas screen (`_refuted`) that returns None, without
    the midpoint sweep or the LP, when one displacement fails every vertex
    by more than a midpoint's rounding can recover. Such a displacement
    fails every point of the body. The midpoints go in blocks within the
    entry budget. Where a vertex or midpoint passes, the witness is the
    first that passes, the same one a one-at-a-time sweep returns.
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
    `_stampacchia`'s stages run: products and norms summed coordinate by
    coordinate, so each rounds as the scalar `dot` and `norm`.
    """
    tol = cert.tol if tol is None else tol
    check_same_dim(body, cert.solution)
    D = ground_array(X, cert.solution.dim) - np.array(cert.solution.coords, dtype=float)
    if cert.witness is None or body.is_empty:
        return False
    w = cert.witness.coords
    V = body.vertices
    floor = _WITNESS_HULL_FLOOR * (1.0 + float(np.sqrt(rowdot(V, V).max())))
    # contains() scales its tolerance by 1 + ||w||; the floor is absolute
    if not body.contains(w, max(tol, floor / (1.0 + norm(w)))):
        return False
    return not (rowdot(np.array(w), D) < -tol * (1.0 + np.sqrt(rowdot(D, D)))).any()


@dataclass(frozen=True)
class _ConeField:
    """One cone per ground point, as arrays: every generator scaled to unit
    length, with the ground point of its cone, and the ground points whose
    cone is all of R^n. Zero cones contribute nothing."""

    units: np.ndarray  # (m, dim)
    at: np.ndarray  # (m, dim) the ground point of each generator's cone
    full: np.ndarray  # (f, dim) ground points with a full cone


def _cone_field(cone_oracle: ConeOracle, X, dim: int) -> _ConeField:
    """Call the oracle once per point of the ground X (`points.ground_points`)
    and stack the cones. A cone of another dimension than the ground's
    raises ValueError, whatever its tag."""
    pts, ground = ground_points(X, dim)
    gens, owner, full = [], [], []
    for i, y in enumerate(pts):
        cone = cone_oracle(y)
        if cone.dim != dim:
            raise ValueError(f"dimension mismatch: {sorted({cone.dim, dim})}")
        if cone.tag == "full":
            full.append(i)
        elif cone.tag == "generated":
            gens.extend(g.coords for g in cone.generators)
            owner.extend([i] * len(cone.generators))
    G = ground_array(gens, dim)
    return _ConeField(G * (1.0 / np.sqrt(rowdot(G, G)))[:, None],
                      ground[np.array(owner, dtype=int)], ground[np.array(full, dtype=int)])


def _minty_fails(field: _ConeField, C: np.ndarray, tol: float) -> np.ndarray:
    """For each candidate xhat, a row of C: whether <g, xhat - y> > tol (1 +
    ||xhat - y||) for some unit generator g of the cone at some ground
    point y of the field. A full cone is probed with the axis fan, whose
    worst case is max_i |d_i|, and with d / ||d|| itself when d = xhat - y
    != 0.

    The candidates go in blocks (`points.row_blocks`), each tested against
    the whole stacked field in one expression; a candidate counts 4 entries
    per generator and full cone, since a block holds about four arrays of
    that size at once. Each entry is computed from xhat - y as a
    one-candidate test computes it."""
    fails = np.empty(len(C), dtype=bool)
    for blk in row_blocks(len(C), 4 * (len(field.units) + len(field.full))):
        X = C[blk, None, :]
        D = X - field.at
        out = (rowdot(field.units, D) > tol * (1.0 + np.sqrt(rowdot(D, D)))).any(axis=1)
        F = X - field.full
        nf = np.sqrt(rowdot(F, F))
        ceiling = tol * (1.0 + nf)
        out |= (np.abs(F).max(axis=2) > ceiling).any(axis=1)
        moved = nf > 0.0
        own = rowdot(F * (1.0 / np.where(moved, nf, 1.0))[..., None], F)
        fails[blk] = out | (moved & (own > ceiling)).any(axis=1)
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
    """The points of X that solve the Minty problem, in ground order.

    The oracle is called once per ground point (n calls, not one per pair).
    The candidates, every point of X, are then tested in blocks
    (`_minty_holds`), with the inequalities of `mvip_membership`: first
    against a few entries of the stacked field (one per distinct generator
    and two full cones), then, only those that pass, against the whole
    field. Each block is one array expression over its candidates and the
    entries, bounded by the entry budget. The screen only refutes, so the
    listing is that of the whole-field test. X is read once
    (`points.ground_points`), and the field gets the points of that read.
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
    `BoxSampler` (`Fixture.box_sampler`) samples the whole ground at once
    (`cones.box_bodies`): every base's box candidates are cut from one
    lattice, whose points a column form scores once, and the bases go in
    blocks of at most `points.BLOCK_ENTRIES` candidates, each block's
    samples turned into bodies before the next is sampled. Any other
    sampler (by default the ground sample `sample_contour`) is called once
    per base, and its samples go through the same body pass, stacked in
    blocks of as many displacements (`cones.sampled_bodies`). A sampled
    body is the rows of the unit net that the membership kernel accepts,
    in net order (`body_from_sample`: an exact angular filter in 2-D, one
    direct product in 1-D and 3-D). The Stampacchia sweep therefore meets
    its candidates, and returns its witnesses, in the same order as a
    point-by-point evaluation would; only a witness becomes a Point. X is
    read once, at the relation's dimension (`points.ground_points`), so any
    iterable of points will do.
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
    elif isinstance(contour_sampler, BoxSampler) and pts:
        bodies = box_bodies(contour_sampler.rel, rows, contour_sampler.radius,
                            contour_sampler.step, tol)
    else:
        sampler = contour_sampler or (lambda x: sample_contour(rel, x, rows))
        bodies = sampled_bodies(map(sampler, pts), tol)
    return {x.coords: body for x, body in zip(pts, bodies)}


def svip_solutions(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None, *,
                   tol: float = DEFAULT_TOL, contour_sampler=None,
                   ball_on_empty: bool = False) -> list[Point]:
    """The points of X that solve the Stampacchia problem, in ground order,
    with the bodies of `bodies_for_ground`.

    The bodies come from ground-level passes too: with a `BoxSampler`,
    the box samples and bodies of a block of bases at a time, within the
    entry budget `points.BLOCK_ENTRIES` (see `bodies_for_ground`). Every
    point of X is then decided in the stacked stages of `_stampacchia`,
    whose one-base call is `svip_membership`, so a point is returned
    exactly where `svip_membership` gives it a certificate. X is read once
    (`points.ground_points`), and `bodies_for_ground` gets its Points. The
    vertex sweep and the Farkas screen run in one block loop
    (`_vertex_sweep`), first against the ground's extreme rows, which
    refute most bases of a grid, then for the bases left against every
    point; only a base that neither decides goes on alone, to the midpoint
    sweep and then the LP. The screen only refutes, so the listing is that
    of the full sweeps.

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
