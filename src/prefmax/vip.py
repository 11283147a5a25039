"""Stampacchia and Minty variational-inequality tests over finite candidate sets.

The Stampacchia side searches a convex body for a witness direction whose
inner products with all feasible displacements are nonnegative; the Minty
side tests a candidate against every cone in the field. Solution "sets" are
grids, so set equality means symmetric difference empty at grid resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import (
    Cone,
    ConvexBody,
    DEFAULT_TOL,
    _rowdot,
    body_from_sample,
    cone_unit_hull,
    sample_contour,
)
from .points import GroundSet, Point, dot, ground_array, norm, sub
from .relations import Relation, maximal_elements

ConeOracle = Callable[[Point], Cone]


@dataclass(frozen=True)
class VipCertificate:
    solution: Point
    kind: str  # "stampacchia" | "minty"
    witness: Point | None
    tol: float


def _passes_all(w, xhat: Point, X, tol: float) -> bool:
    for y in X:
        d = sub(y, xhat)
        if dot(w, d) < -tol * (1.0 + norm(d)):
            return False
    return True


def _lp_witness(V: np.ndarray, D: np.ndarray, floor: np.ndarray) -> tuple | None:
    """Phase-1 LP over the vertex weights lam on the simplex: minimise t
    subject to D V^T lam + t >= floor. The bound t >= -1 keeps the LP
    bounded when X is empty. t* <= 0 gives the witness V^T lam, with lam
    clipped at 0 and renormalised; t* > 0 means no point of the body meets
    every floor. A solve that does not end optimal raises RuntimeError."""
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
    return tuple((V.T @ (lam / lam.sum())).tolist())


# Upper bound on the entries of one block's inner-product matrix in the
# Stampacchia midpoint sweep (at least one midpoint per block).
_SWEEP_ENTRIES = 1 << 16


def _first_passing(fails: np.ndarray) -> int | None:
    """Index of the first row of `fails` (candidates by displacements) with
    no failure."""
    hits = np.flatnonzero(~fails.any(axis=1))
    return int(hits[0]) if hits.size else None


def _refuted(M: np.ndarray, V: np.ndarray, D: np.ndarray, floor: np.ndarray) -> bool:
    """Whether some displacement d refutes every vertex by more than the
    rounding of a midpoint's inner product can make up: floor - M[v, d] >
    8 eps sum_k |v_k| |d_k| for every vertex v. M holds the computed
    products <v, d> (vertices by displacements).

    A midpoint m = (v + w) / 2 is rounded once per coordinate and its
    product once per term, so its computed product is within about
    2.5 eps (S_v + S_w) / 2 of the mean of the vertices' computed products,
    where S_v = sum_k |v_k| |d_k|; with a margin of 8 eps S_v at every vertex
    it stays below the floor (barring underflow), and the sweep would
    reject every midpoint at d. The test is written as a difference, which
    rounds monotonically, so a computed pass is an exact one. Near-ties fall
    through to the sweep.
    """
    slack = (8.0 * np.finfo(float).eps) * _rowdot(np.abs(V)[:, None, :], np.abs(D)[None, :, :])
    return bool(((floor - M) > slack).all(axis=0).any())


def svip_membership(body: ConvexBody, xhat: Point, X: GroundSet | list,
                    tol: float = DEFAULT_TOL) -> VipCertificate | None:
    """Certificate that xhat solves the Stampacchia problem for this body.

    The witness search is a finite sweep: the zero vector first (a trivial
    solution whenever the body contains it), then body vertices, then
    pairwise vertex midpoints (i, j), i < j, in row-major order. Vertices
    and midpoints are tested as arrays, w . (y - xhat) >= -tol (1 + ||y -
    xhat||) over all y at once. In dimension 3 one phase-1 LP (`_lp_witness`)
    replaces the enumeration: it decides whether some point of the body
    meets every floor, and its witness is re-checked at `tol`.

    In dimensions 1 and 2 the vertex products M are computed once and used
    twice: for the vertex sweep, and for a Farkas screen (`_refuted`) that
    returns None, without the midpoint sweep, when one displacement fails
    every vertex by more than a midpoint's rounding can recover. Such a
    displacement fails every point of the body, and every midpoint the sweep
    would compute. Otherwise the midpoints go in consecutive blocks of their
    order, so memory stays O(|V| |X|) and the sweep still stops at the
    first block with a passing candidate. The witness is the first
    candidate that passes, the same one a one-at-a-time sweep returns, and
    None comes exactly where that sweep finds no witness.
    """
    if body.is_empty:
        return None
    zero = (0.0,) * xhat.dim
    if body.contains(zero, tol):
        return VipCertificate(xhat, "stampacchia", Point(zero), tol)
    V = body.vertices
    D = ground_array(X, xhat.dim) - np.array(xhat.coords)
    floor = -tol * (1.0 + np.sqrt(_rowdot(D, D)))
    if body.dim >= 3:
        w = _lp_witness(V, D, floor)
        if w is not None and _passes_all(w, xhat, X, tol):
            return VipCertificate(xhat, "stampacchia", Point(w), tol)
        return None
    M = _rowdot(V[:, None, :], D[None, :, :])
    k = _first_passing(M < floor)
    if k is not None:
        return VipCertificate(xhat, "stampacchia", Point(tuple(V[k].tolist())), tol)
    if _refuted(M, V, D, floor):
        return None
    I, J = np.triu_indices(len(V), 1)
    block = max(1, _SWEEP_ENTRIES // max(1, len(D)))
    for s in range(0, len(I), block):
        mids = 0.5 * (V[I[s:s + block]] + V[J[s:s + block]])
        k = _first_passing(_rowdot(mids[:, None, :], D[None, :, :]) < floor)
        if k is not None:
            return VipCertificate(xhat, "stampacchia", Point(tuple(mids[k].tolist())), tol)
    return None


# Rounding floor of `certificate_valid`'s hull test, in units of
# 1 + max ||v|| over the body's vertices; see there.
_WITNESS_HULL_FLOOR = 64.0 * float(np.finfo(float).eps)


def certificate_valid(cert: VipCertificate, body: ConvexBody, X, tol: float | None = None) -> bool:
    """Re-validate a Stampacchia certificate: witness inside the body and all
    inequalities satisfied.

    The hull test alone has a rounding floor: its NNLS residual may be up to
    c eps (1 + max ||v||), c = 64, whatever the tolerance. Witnesses are
    vertices, midpoints 0.5 (v + w) rounded once per coordinate, or in 3-D
    V^T lam for weights on the simplex, so one that is a convex combination
    in exact arithmetic is only one in floats up to a few eps (1 + max ||v||),
    and NNLS rounds its residual by as much again. Over 6,000 such points of
    random bodies in 2-D and 3-D (2 to 59 vertices, magnitudes 1e-4 to 1e4)
    and the witnesses `svip_membership` returned at tol 0 on 400 more, the
    largest residual was 2.8 eps (1 + max ||v||). c = 64 leaves a factor of
    20 above that and stays far below any distance a tolerance means to
    resolve: a unit body still rejects a point 1e-9 outside. The
    inequalities are checked at `tol` itself.
    """
    tol = cert.tol if tol is None else tol
    if cert.witness is None or body.is_empty:
        return False
    w = cert.witness.coords
    V = body.vertices
    floor = _WITNESS_HULL_FLOOR * (1.0 + float(np.sqrt(_rowdot(V, V).max())))
    # contains() scales its tolerance by 1 + ||w||; the floor is absolute
    if not body.contains(w, max(tol, floor / (1.0 + norm(w)))):
        return False
    return _passes_all(w, cert.solution, X, tol)


@dataclass(frozen=True)
class _ConeField:
    """One cone per ground point, as arrays: the ground coordinates, every
    generator scaled to unit length with the row of its ground point, and
    the rows whose cone is all of R^n. Zero cones contribute nothing."""

    ground: np.ndarray  # (n, dim)
    units: np.ndarray  # (m, dim)
    owner: np.ndarray  # (m,) row in `ground`
    full: np.ndarray  # rows with a full cone


def _cone_field(cone_oracle: ConeOracle, X, dim: int) -> _ConeField:
    """Call the oracle once per ground point and stack the cones."""
    if not isinstance(X, GroundSet):
        X = list(X)
    gens, owner, full = [], [], []
    for i, y in enumerate(X):
        cone = cone_oracle(y)
        if cone.tag == "full":
            full.append(i)
        elif cone.tag == "generated":
            gens.extend(g.coords for g in cone.generators)
            owner.extend([i] * len(cone.generators))
    G = np.array(gens, dtype=float).reshape(-1, dim)
    return _ConeField(ground_array(X, dim), G * (1.0 / np.sqrt(_rowdot(G, G)))[:, None],
                      np.array(owner, dtype=int), np.array(full, dtype=int))


def _minty_holds(field: _ConeField, xhat: tuple, tol: float) -> bool:
    """<g, xhat - y> <= tol (1 + ||xhat - y||) for every unit generator g of
    every cone in the field. A full cone is probed with the axis fan, whose
    worst case is max_i |d_i|, and with d / ||d|| itself when d != 0."""
    D = np.array(xhat, dtype=float) - field.ground
    nd = np.sqrt(_rowdot(D, D))
    ceiling = tol * (1.0 + nd)
    if np.any(_rowdot(field.units, D[field.owner]) > ceiling[field.owner]):
        return False
    F, c, nf = D[field.full], ceiling[field.full], nd[field.full]
    if np.any(np.abs(F).max(axis=1) > c):
        return False
    moved = nf > 0.0
    F, c = F[moved], c[moved]
    return not np.any(_rowdot(F * (1.0 / nf[moved])[:, None], F) > c)


def mvip_membership(cone_oracle: ConeOracle, xhat: Point, X: GroundSet | list,
                    tol: float = DEFAULT_TOL) -> bool:
    """Whether xhat solves the Minty problem for the cone field over X.

    Checking generators suffices by cone convexity. Full cones are probed
    with the axis fan plus the direction xhat - y itself, which is the exact
    worst case (a full cone fails precisely when xhat != y). The field is
    built with one oracle call per point of X.
    """
    return _minty_holds(_cone_field(cone_oracle, X, xhat.dim), xhat.coords, tol)


def mvip_solutions(cone_oracle: ConeOracle, X: GroundSet, tol: float = DEFAULT_TOL) -> list[Point]:
    """The points of X that solve the Minty problem, in ground order.

    The oracle is called once per ground point (n calls, not one per pair);
    each candidate is then tested against the whole stacked field in one
    array expression, with the same inequalities as `mvip_membership`.
    """
    pts = list(X)
    if not pts:
        return []
    field = _cone_field(cone_oracle, X if isinstance(X, GroundSet) else pts, pts[0].dim)
    return [x for x in pts if _minty_holds(field, x.coords, tol)]


def bodies_for_ground(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None, *,
                      tol: float = DEFAULT_TOL, contour_sampler=None):
    """Per-point convex bodies for the Stampacchia sweep, from closed-form
    cones when available, else from sampled normal cones.

    Without an oracle, pass a contour_sampler that looks beyond the feasible
    grid: a base point that sees only one strictly-better grid point would
    otherwise get a half-space cone, an artifact of the coarse sample.
    Samples and bodies stay coordinate arrays: a sample is one
    `strictly_better_mask` call over its candidates, and its body is the
    rows of the unit net that the membership kernel accepts, in net order
    (`body_from_sample`: an exact angular filter in 1-D and 2-D, the
    screened kernel in 3-D). The Stampacchia sweep therefore meets
    its candidates, and returns its witnesses, in the same order as a
    point-by-point evaluation would; only a witness becomes a Point.
    """
    bodies = {}
    hull_cache: dict[tuple, ConvexBody] = {}
    sampler = contour_sampler or (lambda x: sample_contour(rel, x, X))
    for x in X:
        if cone_oracle is not None:
            cone = cone_oracle(x)
            key = (cone.tag, cone.generators)
            body = hull_cache.get(key)
            if body is None:
                body = hull_cache[key] = cone_unit_hull(cone)
        else:
            body = body_from_sample(sampler(x), tol)
        bodies[x.coords] = body
    return bodies


def svip_solutions(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None, *,
                   tol: float = DEFAULT_TOL, contour_sampler=None,
                   ball_on_empty: bool = False) -> list[Point]:
    """The points of X that solve the Stampacchia problem, in ground order,
    with the bodies of `bodies_for_ground`.

    `ball_on_empty` stays only because `bench/ops.py` still passes it as
    False. It chose a hull variant that gave an empty strictly-better set
    the ball, but such a set's normal cone is full, and the hull of a full
    cone is already the ball; the variant changed no body and was removed,
    so True raises ValueError.
    """
    if ball_on_empty:
        raise ValueError(f"ball_on_empty={ball_on_empty!r} is not supported: "
                         "the hull of a full cone is already the ball")
    bodies = bodies_for_ground(rel, X, cone_oracle, tol=tol, contour_sampler=contour_sampler)
    return [x for x in X if svip_membership(bodies[x.coords], x, X, tol) is not None]


def uniqueness_check(rel: Relation, cone_oracle: ConeOracle, X: GroundSet,
                     tol: float = DEFAULT_TOL, me_ground: GroundSet | None = None) -> bool:
    """Whether [the maximal set is a singleton] coincides with [the maximal
    set equals the Minty solution set], both enumerated over X.

    For relations whose natural domain is unbounded, me_ground supplies an
    enlarged grid so that the window's edge points are not spuriously
    maximal; the result is reported within X.
    """
    window = {p.coords for p in X}
    if me_ground is not None:
        me = [p for p in maximal_elements(rel, me_ground) if p.coords in window]
    else:
        me = maximal_elements(rel, X)
    mv = mvip_solutions(cone_oracle, X, tol)
    singleton = len(me) == 1
    equal = {p.coords for p in me} == {p.coords for p in mv}
    return singleton == equal
