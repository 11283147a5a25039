"""Independent numpy references for the grid workloads.

Nothing here calls into prefmax's relation, cone or VIP layers: each
relation is restated in closed form over a coordinate array, and each
library sweep is recomputed from the resulting boolean preference matrix
R (R[i, j] means point i is weakly preferred to point j). Results are masks
over the ground order, or (verdict, witness indices) for property checks,
in the library's lexicographic witness order.
"""

from __future__ import annotations

import math

import numpy as np

EQ_TOL = 1e-9  # the fixtures' equality tolerance
VIP_TOL = 1e-9  # the sweeps' default tolerance

UTILITY_BACKED = ("vee-peak", "twin-plateau", "radial-bowl")


def utility(rel: str, X: np.ndarray) -> np.ndarray:
    """Closed-form utilities of the utility-backed fixtures, elementwise in
    the same floating-point operations as their definitions."""
    if rel == "vee-peak":
        return -np.abs(X[:, 0] - 0.7)
    if rel == "twin-plateau":
        return -np.maximum(np.abs(X[:, 0]) - 1.0, 0.0)
    if rel == "radial-bowl":
        return -np.array([math.hypot(x - 1.0, y - 2.0) for x, y in X])
    raise ValueError(f"{rel!r} is not utility-backed")


def _eq(a, b):
    return np.abs(a - b) <= EQ_TOL


def rule_matrix(rel: str, X: np.ndarray) -> np.ndarray:
    """R for the predicate fixtures, broadcast over all pairs."""
    x = X[:, None, :]
    y = X[None, :, :]
    if rel == "kinked-threshold":
        both_zero = _eq(x[..., 0], 0.0) & _eq(y[..., 0], 0.0)
        return both_zero | ((x[..., 0] >= y[..., 0] - EQ_TOL) & ~_eq(y[..., 0], 0.0))
    if rel == "band-threshold":
        excluded = _eq(x[..., 0], 3.5) & _eq(y[..., 0], 2.0)
        ok = (y[..., 0] / 2.0 + 2.0 <= x[..., 0] + EQ_TOL) & (x[..., 0] <= 4.0 + EQ_TOL)
        return ok & ~excluded
    if rel == "favored-one":
        return _eq(y[..., 0], x[..., 0]) | _eq(y[..., 0], 1.0)
    if rel == "halfline-plane":
        return _eq(x[..., 1], 0.0) & _eq(y[..., 1], 0.0) & (x[..., 0] >= y[..., 0] - EQ_TOL)
    raise ValueError(f"{rel!r} has no closed-form rule here")


def preference_matrix(rel: str, X: np.ndarray, table=None) -> np.ndarray:
    if table is not None:
        return np.asarray(table, dtype=bool)
    if rel in UTILITY_BACKED:
        u = utility(rel, X)
        return u[:, None] >= u[None, :]
    return rule_matrix(rel, X)


def maximal_mask(R: np.ndarray) -> np.ndarray:
    strictly = R & ~R.T  # strictly[j, i]: j strictly beats i
    return ~strictly.any(axis=0)


def maxima_mask(R: np.ndarray) -> np.ndarray:
    return R.all(axis=1)


def complete_check(R: np.ndarray):
    bad = np.triu(~R & ~R.T)
    if not bad.any():
        return True, None
    i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return False, (int(i), int(j))


def transitive_check(R: np.ndarray):
    Ri = R.astype(np.int64)
    if not ((Ri @ Ri > 0) & ~R).any():
        return True, None
    for i in range(R.shape[0]):
        bad = R[i][:, None] & R & ~R[i][None, :]  # bad[y, z]
        if bad.any():
            y, z = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return False, (i, int(y), int(z))
    raise AssertionError("matmul and the witness scan disagree")


def fip_check(R: np.ndarray):
    common = np.logical_and.accumulate(R, axis=1).any(axis=0)  # per prefix
    if common.all():
        return True, None
    k = int(np.argmin(common))
    return False, tuple(range(k + 1))


def cone_field(rel: str, X: np.ndarray):
    """Closed-form normal cones at each point: a tag array ('full', 'zero',
    'gen') and, for 'gen', a list of unit generator arrays."""
    n, dim = X.shape
    tags = np.full(n, "gen", dtype=object)
    gens = [None] * n
    for i, p in enumerate(X):
        if rel == "vee-peak":
            if abs(p[0] - 0.7) <= EQ_TOL:
                tags[i] = "full"
            else:
                gens[i] = [np.array([-1.0 if p[0] < 0.7 else 1.0])]
        elif rel == "twin-plateau":
            if p[0] > 1.0 + EQ_TOL:
                gens[i] = [np.array([1.0])]
            elif p[0] < -1.0 - EQ_TOL:
                gens[i] = [np.array([-1.0])]
            else:
                tags[i] = "full"
        elif rel == "radial-bowl":
            d = np.array([p[0] - 1.0, p[1] - 2.0])
            nd = math.sqrt(d[0] * d[0] + d[1] * d[1])
            if nd == 0.0:
                tags[i] = "full"
            else:
                gens[i] = [d * (1.0 / nd)]
        elif rel == "kinked-threshold":
            if abs(p[0]) <= EQ_TOL:
                tags[i] = "full"
            else:
                gens[i] = [np.array([-1.0])]
        elif rel == "favored-one":
            tags[i] = "zero" if abs(p[0] - 1.0) <= EQ_TOL else "full"
        elif rel == "halfline-plane":
            if abs(p[1]) > EQ_TOL:
                tags[i] = "full"
            else:
                gens[i] = [np.array([-1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0])]
        else:
            raise ValueError(f"no closed-form cones for {rel!r}")
    return tags, gens


def _pair_norms(D: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(D * D, axis=-1))


def mvip_mask(rel: str, X: np.ndarray) -> np.ndarray:
    """The Minty condition: x solves it when no cone point y has a
    generator g with <g, x - y> > tol (1 + |x - y|); a full cone at y
    rejects every x != y. One cone point at a time, to keep memory O(n)."""
    tags, gens = cone_field(rel, X)
    ok = np.ones(X.shape[0], dtype=bool)
    for j in range(X.shape[0]):
        if tags[j] == "zero":
            continue
        D = X - X[j]  # x - y for every candidate x
        slack = VIP_TOL * (1.0 + _pair_norms(D))
        if tags[j] == "full":
            ok &= ~(_pair_norms(D) > slack)
        else:
            for g in gens[j]:
                ok &= ~(D @ g > slack)
    return ok


def svip_mask(rel: str, X: np.ndarray) -> np.ndarray:
    """Stampacchia solutions for the closed-form cone hulls: a full cone's
    hull (or a cone holding a line) contains the zero witness, a zero cone
    has an empty hull, and a ray's hull is its unit generator g, which
    certifies x iff <g, y - x> >= -tol (1 + |y - x|) for every y."""
    tags, gens = cone_field(rel, X)
    out = np.zeros(X.shape[0], dtype=bool)
    for i in range(X.shape[0]):
        if tags[i] == "full":
            out[i] = True
        elif tags[i] == "gen":
            g = gens[i]
            if len(g) == 1:
                D = X - X[i]
                out[i] = bool(np.all(D @ g[0] >= -VIP_TOL * (1.0 + _pair_norms(D))))
            elif any(np.allclose(a, -b) for a in g for b in g):
                out[i] = True
            else:
                raise ValueError("reference covers rays and cones holding a line only")
    return out


def uniqueness(me: np.ndarray, mv: np.ndarray) -> bool:
    return bool((me.sum() == 1) == np.array_equal(me, mv))


def quasi_fejer(xs: np.ndarray, thetas: np.ndarray, ref: np.ndarray, L: float,
                slack: float = 1e-10) -> bool:
    """The quasi-Fejer inequality along a trace: rows are iterates, thetas
    the step taken from each (nan where none was taken). Squared distances
    are summed directly rather than squared from a norm, so 1e-12 is added
    to the library's relative slack to absorb the different rounding."""
    d2 = np.sum((xs - ref) ** 2, axis=1)
    taken = ~np.isnan(thetas[:-1])
    budget = thetas[:-1] ** 2 * L * L
    ok = d2[1:] <= d2[:-1] + budget + slack * (1.0 + d2[:-1]) + 1e-12
    return bool(np.all(ok[taken]))
