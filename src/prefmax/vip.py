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
    body_from_sample,
    cone_unit_hull,
    sample_contour,
)
from .points import GroundSet, Point, dot, norm, sub
from .relations import PropertyReport, Relation, maximal_elements

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


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


def _subgradient_search(body: ConvexBody, xhat: Point, X, tol: float,
                        iters: int = 10_000) -> Point | None:
    """Projected subgradient descent on the max-violation function over the
    simplex of vertex weights. Used in dimension 3, where vertex/midpoint
    enumeration is not attempted."""
    V = np.array([v.coords for v in body.vertices], dtype=float)
    D = np.array([sub(y, xhat) for y in X], dtype=float)
    slack = tol * (1.0 + np.linalg.norm(D, axis=1))
    w = np.full(V.shape[0], 1.0 / V.shape[0])
    best_w, best_phi = w.copy(), np.inf
    for k in range(1, iters + 1):
        margins = D @ (V.T @ w)
        viol = -margins - slack
        i = int(np.argmax(viol))
        phi = float(viol[i])
        if phi < best_phi:
            best_phi, best_w = phi, w.copy()
        if phi <= 0.0:
            break
        g = -(V @ D[i])
        w = _project_simplex(w - (0.5 / np.sqrt(k)) * g / (np.linalg.norm(g) + 1e-12))
    if best_phi <= tol:
        return Point(tuple(V.T @ best_w))
    return None


# Upper bound on the entries of one block's inner-product matrix in the
# Stampacchia midpoint sweep (at least one midpoint per block).
_SWEEP_ENTRIES = 1 << 16


def _rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sum over the last axis of A * B (broadcast), coordinate by coordinate
    from the left, so that each entry rounds exactly as the scalar `dot`."""
    out = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        out = out + A[..., k] * B[..., k]
    return out


def _first_passing(W: np.ndarray, D: np.ndarray, floor: np.ndarray) -> int | None:
    """Index of the first row w of W with no row d of D where w . d < floor[d]."""
    fails = _rowdot(W[:, None, :], D[None, :, :]) < floor
    hits = np.flatnonzero(~fails.any(axis=1))
    return int(hits[0]) if hits.size else None


def svip_membership(body: ConvexBody, xhat: Point, X: GroundSet | list,
                    tol: float = DEFAULT_TOL) -> VipCertificate | None:
    """Certificate that xhat solves the Stampacchia problem for this body.

    The witness search is a finite sweep: the zero vector first (a trivial
    solution whenever the body contains it), then body vertices, then
    pairwise vertex midpoints (i, j), i < j, in row-major order; in
    dimension 3 a projected-subgradient feasibility search replaces the
    enumeration. Vertices and midpoints are tested as arrays,
    w . (y - xhat) >= -tol (1 + ||y - xhat||) over all y at once; the
    midpoints go in consecutive blocks of that order, so memory stays
    O(|V| |X|) and the sweep still stops at the first block with a passing
    candidate. The witness is the first candidate that passes, the same one
    a one-at-a-time sweep returns.
    """
    if body.is_empty:
        return None
    zero = (0.0,) * xhat.dim
    if body.contains(zero, tol):
        return VipCertificate(xhat, "stampacchia", Point(zero), tol)
    if body.dim >= 3:
        w = _subgradient_search(body, xhat, X, tol)
        if w is not None:
            return VipCertificate(xhat, "stampacchia", w, tol)
        return None
    V = np.array([v.coords for v in body.vertices])
    D = np.array([tuple(y) for y in X], dtype=float).reshape(-1, xhat.dim) - np.array(xhat.coords)
    floor = -tol * (1.0 + np.sqrt(_rowdot(D, D)))
    k = _first_passing(V, D, floor)
    if k is not None:
        return VipCertificate(xhat, "stampacchia", body.vertices[k], tol)
    I, J = np.triu_indices(len(V), 1)
    block = max(1, _SWEEP_ENTRIES // max(1, len(D)))
    for s in range(0, len(I), block):
        mids = 0.5 * (V[I[s:s + block]] + V[J[s:s + block]])
        k = _first_passing(mids, D, floor)
        if k is not None:
            return VipCertificate(xhat, "stampacchia", Point(tuple(mids[k].tolist())), tol)
    return None


def certificate_valid(cert: VipCertificate, body: ConvexBody, X, tol: float | None = None) -> bool:
    """Re-validate a Stampacchia certificate: witness inside the body and all
    inequalities satisfied."""
    tol = cert.tol if tol is None else tol
    if cert.witness is None or not body.contains(cert.witness.coords, tol):
        return False
    return _passes_all(cert.witness.coords, cert.solution, X, tol)


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
    pts = list(X)
    gens, owner, full = [], [], []
    for i, y in enumerate(pts):
        cone = cone_oracle(y)
        if cone.tag == "full":
            full.append(i)
        elif cone.tag == "generated":
            gens.extend(g.coords for g in cone.generators)
            owner.extend([i] * len(cone.generators))
    G = np.array(gens, dtype=float).reshape(-1, dim)
    ground = np.array([y.coords for y in pts], dtype=float).reshape(-1, dim)
    return _ConeField(ground, G * (1.0 / np.sqrt(_rowdot(G, G)))[:, None],
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
    field = _cone_field(cone_oracle, pts, pts[0].dim)
    return [x for x in pts if _minty_holds(field, x.coords, tol)]


def bodies_for_ground(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None,
                      ball_on_empty: bool = False, tol: float = DEFAULT_TOL,
                      contour_sampler=None):
    """Per-point convex bodies for the Stampacchia sweep, from closed-form
    cones when available, else from sampled normal cones.

    Without an oracle, pass a contour_sampler that looks beyond the feasible
    grid: a base point that sees only one strictly-better grid point would
    otherwise get a half-space cone, an artifact of the coarse sample.
    A sample is evaluated as arrays (one `strictly_better_mask` call over its
    candidates, then the whole unit net against the displacement matrix in
    `body_from_sample`); vertices keep the unit net's order, so the
    Stampacchia sweep meets its candidates, and returns its witnesses, in
    the same order as a point-by-point evaluation would.
    """
    bodies = {}
    hull_cache: dict[tuple, ConvexBody] = {}
    sampler = contour_sampler or (lambda x: sample_contour(rel, x, X))
    for x in X:
        if cone_oracle is not None:
            cone = cone_oracle(x)
            key = (cone.tag, cone.generators, cone.tag == "full")
            body = hull_cache.get(key)
            if body is None:
                body = cone_unit_hull(cone, ball_on_empty=ball_on_empty,
                                      contour_empty=cone.tag == "full")
                hull_cache[key] = body
        else:
            body = body_from_sample(sampler(x), tol)
        bodies[x.coords] = body
    return bodies


def svip_solutions(rel: Relation, X: GroundSet, cone_oracle: ConeOracle | None = None,
                   ball_on_empty: bool = False, tol: float = DEFAULT_TOL,
                   contour_sampler=None) -> list[Point]:
    bodies = bodies_for_ground(rel, X, cone_oracle, ball_on_empty, tol, contour_sampler)
    out = []
    for x in X:
        if svip_membership(bodies[x.coords], x, X, tol) is not None:
            out.append(x)
    return out


def svip_inclusion_check(rel: Relation, X: GroundSet, tol: float = DEFAULT_TOL,
                         cone_oracle: ConeOracle | None = None,
                         ball_on_empty: bool = False,
                         contour_sampler=None) -> PropertyReport:
    """Whether every Stampacchia solution is a maximal element of X.

    Callers assert lower semicontinuity of the relation where they expect the
    inclusion to hold; the counterexample fixture is expected to fail it.
    """
    svip = svip_solutions(rel, X, cone_oracle, ball_on_empty, tol, contour_sampler)
    me = {p.coords for p in maximal_elements(rel, X)}
    violators = [p for p in svip if p.coords not in me]
    if violators:
        return PropertyReport("svip_subset_maximal", False, (violators[0],),
                              detail=f"{len(violators)} of {len(svip)} solutions not maximal")
    return PropertyReport("svip_subset_maximal", True,
                          detail=f"{len(svip)} solutions, all maximal")


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
