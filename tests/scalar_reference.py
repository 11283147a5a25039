"""Scalar reference implementations of the array kernels in prefmax.

These are the per-pair Python loops that `box_sample`, `sample_contour`, the
2-D Stampacchia vertex/midpoint sweep and the Minty field test replaced.
They build a Point per lattice candidate, call `strictly_prefers` per pair
and the cone oracle per (xhat, y) pair. The differential tests hold the
array versions to these, result for result.
"""

from __future__ import annotations

from prefmax import ContourSample, GroundSet, Point, VipCertificate, strictly_prefers
from prefmax.points import dot, norm, scale, sub


def sample_contour_ref(rel, x: Point, ground) -> ContourSample:
    return ContourSample(x, tuple(y for y in ground if strictly_prefers(rel, y, x)))


def box_sample_ref(rel, x: Point, radius: float, step: float) -> ContourSample:
    coarse = GroundSet.grid([(c - radius, c + radius, step) for c in x.coords])
    fine_r = min(0.1, radius)
    fine = GroundSet.grid([(c - fine_r, c + fine_r, step / 2.0) for c in x.coords])
    seen = set()
    pts = []
    for y in list(coarse) + list(fine):
        if y.coords in seen:
            continue
        seen.add(y.coords)
        if strictly_prefers(rel, y, x):
            pts.append(y)
    return ContourSample(x, tuple(pts))


def _passes_all(w, xhat: Point, X, tol: float) -> bool:
    for y in X:
        d = sub(y, xhat)
        if dot(w, d) < -tol * (1.0 + norm(d)):
            return False
    return True


def svip_sweep_ref(body, xhat: Point, X, tol: float) -> VipCertificate | None:
    """The 1-D/2-D witness search: zero vector, vertices, then midpoints."""
    if body.is_empty:
        return None
    zero = (0.0,) * xhat.dim
    if body.contains(zero, tol):
        return VipCertificate(xhat, "stampacchia", Point(zero), tol)
    for v in body.vertices:
        if _passes_all(v, xhat, X, tol):
            return VipCertificate(xhat, "stampacchia", v, tol)
    n = len(body.vertices)
    for i in range(n):
        vi = body.vertices[i]
        for j in range(i + 1, n):
            mid = tuple(0.5 * (a + b) for a, b in zip(vi, body.vertices[j]))
            if _passes_all(mid, xhat, X, tol):
                return VipCertificate(xhat, "stampacchia", Point(mid), tol)
    return None


def _axis_fan(dim: int) -> list[tuple[float, ...]]:
    fan = []
    for i in range(dim):
        for s in (1.0, -1.0):
            v = [0.0] * dim
            v[i] = s
            fan.append(tuple(v))
    return fan


def mvip_membership_ref(cone_oracle, xhat: Point, X, tol: float) -> bool:
    for y in X:
        d = sub(xhat, y)
        nd = norm(d)
        cone = cone_oracle(y)
        if cone.tag == "zero":
            continue
        if cone.tag == "full":
            dirs = _axis_fan(xhat.dim)
            if nd > 0.0:
                dirs.append(scale(d, 1.0 / nd))
        else:
            dirs = [scale(g, 1.0 / norm(g)) for g in cone.generators]
        for g in dirs:
            if dot(g, d) > tol * (1.0 + nd):
                return False
    return True


def mvip_solutions_ref(cone_oracle, X, tol: float) -> list[Point]:
    return [x for x in X if mvip_membership_ref(cone_oracle, x, X, tol)]
