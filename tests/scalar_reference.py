"""Scalar reference implementations of the array kernels in prefmax.

These are the per-pair Python loops that the relation sweeps, `box_sample`,
`sample_contour`, the normal-cone membership kernel, the 2-D Stampacchia
vertex/midpoint sweep and the Minty field test replaced, and the NNLS solves
that the closed-form cone membership test replaced in 1-D and 2-D. Relations are
evaluated one pair at a time through `scalar_holds`, which for predicate
fixtures uses the scalar rules the fixtures were first written with;
samples build a Point per lattice candidate; membership tests meet one
sampled point at a time with the original tuple helpers (defined below); the
Minty test calls the cone oracle per (xhat, y) pair. The descent loop, its
fixture oracle, its diagnostics and the trace writer are the original ones:
Points and a TraceRow per iterate, a distance recomputed wherever one is
needed (`dist_ref`, restated to rescale a difference whose squares sum
below the least normal float or to inf, with `fejer_residual_ref` and the
Fejer check factoring d'^2 - d^2 where a squared distance overflows), and
trace files written row by row; `emit_trace_columns_ref` is the
writer that came between, with `csv.writer` and `json.dumps` over the
columns, and `load_trace_json_ref` the loader that checked a trace file row
by row (restated to reject a termination, a lipschitz, or a theta,
distance, gap or residual value that `emit_trace` never writes);
`scaled_to_ref` is `points.scaled_to` before its 1-D and 2-D arithmetic
was written out coordinate by coordinate, with its rescaling of a u whose
squares sum to a subnormal, 0.0 or inf, and the cone references
(`cone_residual_ref`, `cone_contains_ref`, `cone_unit_hull_ref`,
`mvip_membership_ref`) scale generators and queries with it, as the
library's cones do through `points.unit_rows`; `quasi_fejer_check_ref`
compares a pair whose distance is inf after scaling its rows and the
reference by a power of two. Every float sum here folds from the int 0
(`reduce(operator.add, ..., 0)`), as the library's do, so that the
references hold under Python 3.12's compensated `sum`;
`contour_is_grid_convex_ref` and
`resolution_ref` are the grid-convexity rule and its slack as they were
read off Points and a `GroundSet`, before `check_property` read them off
rows and contour masks. `stampacchia_unscreened_ref`
and `minty_holds_unscreened_ref` are the Stampacchia stages and the Minty
field test before their screens (every open base or candidate meets the
whole ground or field; the Stampacchia one reads the library's margin
blocks and one-displacement Farkas screen, and both read their floors from
`points.tol_floor`). The normal-cone, gap-relaxed, Stampacchia and Minty
references, `resolution_ref`, the hull threshold of `body_contains_ref` and
the bound and stop tests of `run_descent_ref` take every length from
`length_ref`, as the library takes it from `points.row_norms`, so a
displacement, query or cone element whose squares overflow or underflow
keeps its length. `FIXTURE_CONES_REF` holds the fixtures' cone
oracles as they first were, with a new Cone per call. The differential tests
hold the array versions and the tuple descent loop to these, result for
result and witness for witness, row for row. The module also holds test
helpers with no library counterpart: `complete_equivalence_check`,
`trace_from_rows`, `trace_records` and `random_tabular_relation`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, product, repeat

import numpy as np
from scipy.optimize import nnls

from prefmax import (ContourSample, ConvexBody, Point, PropertyReport, Relation, VipCertificate,
                     holds, normal_membership_many, sample_contour)
from prefmax.cones import DEFAULT_TOL, Cone, contains_zero, unit_net
from prefmax.descent import DescentTrace, OracleNormViolation, TraceRow
from prefmax.harness import SCHEMA_VERSION, TRACE_COLUMNS
from prefmax.points import axis_lattice, dot_signs, row_blocks, rowdot, tol_floor, unit_rows
from prefmax.vip import (_lp_witness, _margin_blocks, _midpoint_witness, _refuted,
                         _segment_witness)

# ------------------------------------------------------ tuple helpers


def dot(a, b) -> float:
    return reduce(operator.add, map(operator.mul, a, b), 0)


def sub(a, b) -> tuple[float, ...]:
    return tuple(x - y for x, y in zip(a, b))


def scale(a, s: float) -> tuple[float, ...]:
    return tuple(x * s for x in a)


def norm(a) -> float:
    return math.sqrt(dot(a, a))


def length_ref(t) -> float:
    """||t|| as `norm` gives it, except where the squares of t sum to less
    than the least normal float or to inf while the largest |coordinate| m
    is finite and nonzero: there m ||t / m||."""
    q = dot(t, t)
    m = max(map(abs, t))
    if (q < sys.float_info.min or q == math.inf) and 0.0 < m < math.inf:
        return m * norm(tuple(c / m for c in t))
    return math.sqrt(q)


def dist_ref(a, b) -> float:
    """`length_ref(a - b)`."""
    return length_ref(sub(a, b))


def _square_overflows(d: float) -> bool:
    return d * d == math.inf and d < math.inf


def fejer_residual_ref(d: float, d_next: float, theta: float, L: float) -> float:
    """d_next^2 - d^2 - theta^2 L^2, left to right; where a finite d or
    d_next has a square that overflows, d_next^2 - d^2 is
    (d_next - d)(d_next + d), the sum halved and the product doubled."""
    if _square_overflows(d) or _square_overflows(d_next):
        return (d_next - d) * (0.5 * d_next + 0.5 * d) * 2.0 - theta * theta * L * L
    return d_next * d_next - d * d - theta * theta * L * L


def scaled_to_ref(u, length: float) -> tuple[float, ...]:
    """u times length / ||u||, by the `map` and `sum` expressions in every
    dimension; where those squares sum to less than the least normal float
    (0.0 or a subnormal) or to inf while every coordinate is finite and one
    is nonzero, the same expressions on u / max |u|."""
    u = tuple(u)
    m = max(map(abs, u), default=0.0)
    q = dot(u, u)
    if (q < sys.float_info.min or q == math.inf) and 0.0 < m < math.inf:
        u = tuple(c / m for c in u)
    return tuple(map(operator.mul, u, repeat(length / math.sqrt(dot(u, u)))))


# ------------------------------------------------- scalar fixture rules

_EQ_TOL = 1e-9


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= _EQ_TOL


def band_threshold_rule(x, y):
    if _eq(x[0], 3.5) and _eq(y[0], 2.0):
        return False
    return y[0] / 2.0 + 2.0 <= x[0] + _EQ_TOL and x[0] <= 4.0 + _EQ_TOL


def favored_one_rule(x, y):
    return _eq(y[0], x[0]) or _eq(y[0], 1.0)


def kinked_threshold_rule(x, y):
    if _eq(x[0], 0.0) and _eq(y[0], 0.0):
        return True
    return x[0] >= y[0] - _EQ_TOL and not _eq(y[0], 0.0)


def mutual_zero_rule(x, y):
    return all(_eq(c, 0.0) for c in x) and all(_eq(c, 0.0) for c in y)


def line_rule(x, y):
    return _eq(x[1], 0.0) and _eq(y[1], 0.0) and x[0] >= y[0] - _EQ_TOL


SCALAR_RULES = {
    "band-threshold": band_threshold_rule,
    "favored-one": favored_one_rule,
    "kinked-threshold": kinked_threshold_rule,
    "mutual-zero": mutual_zero_rule,
    "halfline-plane": line_rule,
    "segment-line": line_rule,
}


def scalar_holds(rel, rule=None):
    """holds(x, y) on Points for `rel`, one pair per call: the scalar `rule`
    (by default the fixture's, from SCALAR_RULES) on coordinate tuples, two
    utility calls, or one read of the table as nested lists."""
    if rel.kind == "predicate":
        rule = rule or SCALAR_RULES[rel.name]
        return lambda x, y: bool(rule(x.coords, y.coords))
    if rel.kind == "utility":
        u = rel.utility
        return lambda x, y: u(x.coords) >= u(y.coords)
    index = {p.coords: i for i, p in enumerate(rel.table_ground)}
    table = rel.table.tolist()
    return lambda x, y: table[index[x.coords]][index[y.coords]]


def strictly_prefers_ref(h, y: Point, x: Point) -> bool:
    return h(y, x) and not h(x, y)


# ------------------------------------------------------ relation sweeps


def strictly_better_mask_ref(h, x: Point, candidates) -> list[bool]:
    return [strictly_prefers_ref(h, Point(tuple(y)), x) for y in candidates]


def contour_ref(h, x: Point, ground, which: str) -> list[Point]:
    preds = {
        "U": lambda y: h(y, x),
        "Us": lambda y: strictly_prefers_ref(h, y, x),
        "L": lambda y: h(x, y),
        "Ls": lambda y: strictly_prefers_ref(h, x, y),
    }
    return [y for y in ground if preds[which](y)]


def maximal_elements_ref(h, ground) -> list[Point]:
    return [x for x in ground if not any(strictly_prefers_ref(h, y, x) for y in ground)]


def maxima_ref(h, ground) -> list[Point]:
    return [x for x in ground if all(h(x, y) for y in ground)]


def check_property_ref(h, ground, prop: str, m: int | None = None) -> PropertyReport:
    pts = list(ground)
    if prop == "reflexive":
        for x in pts:
            if not h(x, x):
                return PropertyReport(prop, False, (x,))
        return PropertyReport(prop, True)
    if prop == "complete":
        for i, x in enumerate(pts):
            for y in pts[i:]:
                if not h(x, y) and not h(y, x):
                    return PropertyReport(prop, False, (x, y))
        return PropertyReport(prop, True)
    if prop == "transitive":
        for x in pts:
            xy = [y for y in pts if h(x, y)]
            for y in xy:
                for z in pts:
                    if h(y, z) and not h(x, z):
                        return PropertyReport(prop, False, (x, y, z))
        return PropertyReport(prop, True)
    if prop == "mfip":
        for combo in combinations(pts, m):
            if not any(all(h(x, xi) for xi in combo) for x in pts):
                return PropertyReport(prop, False, combo, m=m)
        return PropertyReport(prop, True, m=m)
    if prop == "fip":
        common = set(p.coords for p in pts)
        taken = []
        for x in pts:
            taken.append(x)
            common &= {y.coords for y in pts if h(y, x)}
            if not common:
                return PropertyReport(prop, False, tuple(taken))
        return PropertyReport(prop, True)
    which = "U" if prop == "convex_upper" else "Us"
    slack = resolution_ref(ground) / 2.0
    for x in pts:
        bad = contour_is_grid_convex_ref(contour_ref(h, x, ground, which), ground, slack)
        if bad is not None:
            return PropertyReport(prop, False, (x,) + bad)
    return PropertyReport(prop, True)


def resolution_ref(ground) -> float:
    """Smallest positive spacing: a grid's smallest axis step, else the
    smallest positive distance over every pair of points (`dist_ref`)."""
    if ground.axes is not None:
        return min(step for _, _, step in ground.axes)
    res = math.inf
    for i, p in enumerate(ground.points):
        for q in ground.points[i + 1:]:
            d = dist_ref(p, q)
            if 0 < d < res:
                res = d
    return res


def contour_is_grid_convex_ref(points: list[Point], ground, slack: float):
    """None if convex at grid resolution, else a witness (p, q, gap point):
    the contour and the points outside it as Points, the 1-D interval
    through `min` and `max`, and every pair of the contour in turn."""
    member = {p.coords for p in points}
    outside = [g for g in ground if g.coords not in member]
    if not outside or len(points) < 2:
        return None
    if ground.dim == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        for g in outside:
            if lo - slack <= g[0] <= hi + slack:
                p = min(points, key=lambda q: q[0])
                q = max(points, key=lambda q: q[0])
                return (p, q, g)
        return None
    out = np.array([g.coords for g in outside])
    for i, p in enumerate(points):
        pa = np.array(p.coords)
        for q in points[i + 1:]:
            qa = np.array(q.coords)
            d = qa - pa
            dd = float(d @ d)
            if dd == 0.0:
                continue
            t = np.clip((out - pa) @ d / dd, 0.0, 1.0)
            proj = pa + t[:, None] * d
            dist = np.linalg.norm(out - proj, axis=1)
            bad = np.nonzero(dist <= slack)[0]
            if bad.size:
                return (p, q, outside[int(bad[0])])
    return None


def audit_gap_flags_ref(gap, h, ground):
    """Every pair (x, y) of the ground in order, the gap called once per
    pair; a warning at the first offending pair on each side."""
    pts = list(ground)
    downgrades = {}
    for x, y in product(pts, pts):
        fxy = gap(x.coords, y.coords)
        if gap.negative_iff_better and "negative_iff_better" not in downgrades:
            if (fxy < 0.0) != strictly_prefers_ref(h, y, x):
                downgrades["negative_iff_better"] = False
                warnings.warn(f"gap sign (negative side) disagrees with the relation at ({x}, {y})")
        if gap.positive_iff_worse and "positive_iff_worse" not in downgrades:
            if (fxy > 0.0) != strictly_prefers_ref(h, x, y):
                downgrades["positive_iff_worse"] = False
                warnings.warn(f"gap sign (positive side) disagrees with the relation at ({x}, {y})")
    return replace(gap, **downgrades) if downgrades else gap


def zero_maximality_check_ref(gap, h, ground, tol: float = 1e-9) -> PropertyReport:
    audited = audit_gap_flags_ref(gap, h, ground)
    if not (audited.negative_iff_better and audited.positive_iff_worse):
        failed = [n for n in ("negative_iff_better", "positive_iff_worse")
                  if not getattr(audited, n)]
        return PropertyReport("zero_maximality_precondition", False,
                              detail=f"sign flags failed the audit: {', '.join(failed)}")
    maximal = {p.coords for p in maximal_elements_ref(h, ground)}
    zero = (0.0,) * ground.dim
    for x in ground:
        sample = sample_contour_ref(h, x, ground)
        member = plastria_membership_ref(gap, sample, zero, tol)
        if member != (x.coords in maximal):
            return PropertyReport("zero_maximality", False, (x,),
                                  detail=f"membership={member}, maximal={x.coords in maximal}")
    return PropertyReport("zero_maximality", True)


# ------------------------------------------------------ contour samples


def sample_contour_ref(h, x: Point, ground) -> ContourSample:
    return ContourSample(x, tuple(y for y in ground if strictly_prefers_ref(h, y, x)))


def fine_axis_ref(c: float, radius: float, step: float) -> list[float]:
    """A box axis's fine lattice, grown outwards from c: c, then c -/+ k h,
    h = min(step / 2, r) and r = min(0.1, radius), for k = 1, 2, ... while
    k h stays within r (with `axis_lattice`'s slack of 1e-9 h), each
    rounded to 12 decimals; c = -0.0 gives 0.0, as the lattice's sums
    c + 0 h do."""
    r = min(0.1, radius)
    h = min(step / 2.0, r)
    out, k = [round(c, 12) + 0.0], 1
    while k * h <= r + h * 1e-9:
        out = [round(c - k * h, 12)] + out + [round(c + k * h, 12)]
        k += 1
    return out


def box_candidates(x: Point, radius: float, step: float) -> list[tuple]:
    """The coarse box lattice, then the fine points not already in it, as
    coordinate tuples de-duplicated with `dict.fromkeys`."""
    coarse = [axis_lattice(c - radius, c + radius, step) for c in x.coords]
    fine = [fine_axis_ref(c, radius, step) for c in x.coords]
    return list(dict.fromkeys(chain(product(*coarse), product(*fine))))


def box_sample_ref(h, x: Point, radius: float, step: float) -> ContourSample:
    """The tuple lattice path `box_sample` once took for utilities, for every
    backing: one `h` comparison per candidate, both ways round."""
    pts = [y for y in box_candidates(x, radius, step) if strictly_prefers_ref(h, Point(y), x)]
    return ContourSample(x, tuple(pts))


def _product_array(axes, dim: int) -> np.ndarray:
    return np.array(list(product(*axes)), dtype=float).reshape(-1, dim)


def box_candidates_isin_ref(x: Point, radius: float, step: float) -> np.ndarray:
    """`box_sample`'s candidate array, each lattice built with
    `itertools.product` and every axis with its own `axis_lattice` or
    `fine_axis_ref` call,
    with the fine points on the coarse lattice found by `np.isin`, column
    by column."""
    coarse = [axis_lattice(c - radius, c + radius, step) for c in x.coords]
    F = _product_array([fine_axis_ref(c, radius, step) for c in x.coords], x.dim)
    known = np.ones(len(F), dtype=bool)
    for k, axis in enumerate(coarse):
        known &= np.isin(F[:, k], axis)
    return np.concatenate([_product_array(coarse, x.dim), F[~known]])


def cone_residual_ref(cone, query) -> float:
    """The NNLS residual of q / ||q|| against the unit generators of a
    generated cone, q and each generator scaled to unit length by
    `scaled_to_ref`: the distance from q / ||q|| to the cone."""
    qhat = np.asarray(scaled_to_ref(map(float, query), 1.0))
    G = np.array([scaled_to_ref(g, 1.0) for g in cone.generators]).T
    return nnls(G, qhat)[1]


def cone_contains_ref(cone, query, tol: float = DEFAULT_TOL) -> bool:
    """`Cone.contains` as one NNLS solve: `cone_residual_ref` against
    max(tol, 1e-10), for a q with `length_ref(q)` above tol."""
    q = tuple(map(float, query))
    if length_ref(q) <= tol:
        return True
    if cone.tag == "full":
        return True
    if cone.tag == "zero":
        return False
    return cone_residual_ref(cone, q) <= max(tol, 1e-10)


def unit_net3_ref() -> np.ndarray:
    """The 3-D unit net as nested loops build it: the six axis vectors, then
    every vector of {1, -1, 0}^3 with two or three nonzero coordinates,
    normalised, rounded to 12 decimals and sorted by `np.unique`."""
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
                if sum(1 for c in v if c != 0.0) >= 2:
                    base.append(list(v))
    arr = np.array(base)
    arr /= np.linalg.norm(arr, axis=1)[:, None]
    return np.unique(np.round(arr, 12), axis=0)


def probe_fan(dim: int) -> np.ndarray:
    """Probe directions: +-1 in 1-D, the unit vectors at whole degrees in
    2-D, and the 3-D unit net."""
    if dim == 2:
        ang = np.arange(360) * math.pi / 180.0
        return np.c_[np.cos(ang), np.sin(ang)]
    return unit_net(dim)


def cone_unit_hull_ref(cone) -> ConvexBody:
    """`cone_unit_hull` in 3-D, with the net rows tested one
    `cone_contains_ref` call at a time, and each generator scaled by
    `scaled_to_ref`. (In 1-D and 2-D the hull is read off the cone's
    shape; `tests/exact_reference.py` holds its reference.)"""
    net = unit_net(cone.dim)
    if cone.tag == "full":
        return ConvexBody(cone.dim, net)
    if cone.tag == "zero":
        return ConvexBody(cone.dim, ())
    units = [scaled_to_ref(g, 1.0) for g in cone.generators]
    if len(units) == 1:
        return ConvexBody(cone.dim, units)
    verts = []
    rows = [tuple(round(c, 12) for c in u) for u in units]
    rows += [tuple(round(float(c), 12) for c in row) for row in net
             if cone_contains_ref(cone, tuple(row))]
    for u in rows:
        if u not in verts:
            verts.append(u)
    return ConvexBody(cone.dim, verts)


def hull_residual_ref(body, query) -> float:
    """The NNLS residual of [V^T; 1] lam = [q; 1] over lam >= 0."""
    V = body.vertices
    A = np.r_[V.T, np.ones((1, V.shape[0]))]
    return nnls(A, np.r_[np.asarray(tuple(query), dtype=float), 1.0])[1]


def body_contains_ref(body, query, tol: float) -> bool:
    """`ConvexBody.contains` as one NNLS solve."""
    if body.is_empty:
        return False
    q = np.asarray(tuple(query), dtype=float)
    return hull_residual_ref(body, q) <= tol * (1.0 + length_ref(q.tolist()))


def normal_membership_ref(sample, xstar, tol: float) -> bool:
    xs = tuple(xstar)
    if len(xs) != sample.base.dim:
        raise ValueError("query dimension mismatch")
    if sample.is_empty:
        return True
    nxs = length_ref(xs)
    for y in sample.points.tolist():
        d = sub(y, sample.base)
        if dot(xs, d) > tol * (1.0 + nxs * length_ref(d)):
            return False
    return True


def complete_equivalence_check(rel, x: Point, probes, ground, tol: float = 1e-9) -> bool:
    """For a complete relation, membership in the sampled normal cone must
    coincide with: every ground point on the strictly-positive side of the
    probe is weakly worse than x. The cone side is `normal_membership_many`
    on x's contour sample; the other side is checked pair by pair."""
    P = np.array([tuple(p) for p in probes], dtype=float).reshape(-1, x.dim)
    lhs = normal_membership_many(sample_contour(rel, x, ground), P, tol)
    worse = [(y, holds(rel, x, y)) for y in ground]
    rhs = [all(w for y, w in worse if dot(p, sub(y, x)) > 0.0) for p in P.tolist()]
    return lhs.tolist() == rhs


def strict_normal_membership_ref(sample, xstar, margin: float) -> bool:
    if margin <= 0:
        raise ValueError("margin must be positive")
    xs = tuple(xstar)
    if len(xs) != sample.base.dim:
        raise ValueError("query dimension mismatch")
    if sample.is_empty:
        return True
    for y in sample.points.tolist():
        d = sub(y, sample.base)
        if dot(xs, d) > -margin * length_ref(d):
            return False
    return True


def plastria_membership_ref(gap, sample, xstar, tol: float) -> bool:
    xs = tuple(xstar)
    if len(xs) != sample.base.dim:
        raise ValueError("query dimension mismatch")
    if sample.is_empty:
        return True
    x = sample.base.coords
    for y in sample.points.tolist():
        d = sub(y, x)
        if dot(xs, d) > gap(x, tuple(y)) + tol * (1.0 + length_ref(d)):
            return False
    return True


def _passes_all(w, xhat: Point, X, tol: float) -> bool:
    """Whether <w, y - xhat> >= -tol (1 + ||y - xhat||) at every y of X, each
    difference in floats; at tol 0 the products are summed exactly, in
    `fractions.Fraction`."""
    for y in X:
        d = sub(y, xhat)
        if tol == 0.0:
            if sum(Fraction(a) * Fraction(b) for a, b in zip(w, d)) < 0:
                return False
        elif dot(w, d) < -tol * (1.0 + length_ref(d)):
            return False
    return True


def _segment_ref(vertices, xhat: Point, X, tol: float):
    """`vip._segment_witness`, one row of X at a time: the middle point of
    the interval of t where (1 - t) v0 + t v1 meets every floor, clipped to
    [0, 1], then in 2-D the points of the segment along the two rows that
    cut its ends, where they cut it in [0, 1], turned a right angle; the
    first that `_passes_all`, or None."""
    v0, v1 = vertices
    ends, up, down = [None, None], -math.inf, math.inf
    for i, y in enumerate(X):
        d = sub(y, xhat)
        a, b = dot(v0, d), dot(v1, d)
        if a == b:
            continue
        cut = (-tol * (1.0 + length_ref(d)) - a) / (b - a)
        if b > a and (ends[0] is None or cut > up):
            ends[0], up = (d, cut), cut
        elif b < a and (ends[1] is None or cut < down):
            ends[1], down = (d, cut), cut
    t = min(1.0, max(0.0, 0.5 * (max(up, 0.0) + min(down, 1.0))))
    points = [tuple((1.0 - t) * p + t * q for p, q in zip(v0, v1))]
    chord = sub(v1, v0)
    for d, cut in (e for e in ends if e is not None and len(v0) == 2 and 0.0 <= e[1] <= 1.0):
        den = chord[0] * d[0] + chord[1] * d[1]
        if den != 0.0:
            s = (chord[0] * v0[1] - chord[1] * v0[0]) / den
            points.append((s * -d[1], s * d[0]))
    return next((w for w in points if _passes_all(w, xhat, X, tol)), None)


def svip_sweep_ref(body, xhat: Point, X, tol: float) -> VipCertificate | None:
    """The witness search: the zero vector where `cones.contains_zero`
    holds (a library body's exact shape, NNLS for any other body), the
    vertices, the midpoints, then for a body of two vertices the segment
    stage (`_segment_ref`), each point tested by `_passes_all`."""
    if body.is_empty:
        return None
    zero = (0.0,) * xhat.dim
    if contains_zero(body, tol):
        return VipCertificate(xhat, "stampacchia", Point(zero), tol)
    vertices = [Point(tuple(v)) for v in body.vertices.tolist()]
    for v in vertices:
        if _passes_all(v, xhat, X, tol):
            return VipCertificate(xhat, "stampacchia", v, tol)
    n = len(vertices)
    for i in range(n):
        vi = vertices[i]
        for j in range(i + 1, n):
            mid = tuple(0.5 * (a + b) for a, b in zip(vi, vertices[j]))
            if _passes_all(mid, xhat, X, tol):
                return VipCertificate(xhat, "stampacchia", Point(mid), tol)
    if n == 2:
        w = _segment_ref([v.coords for v in vertices], xhat, X, tol)
        if w is not None:
            return VipCertificate(xhat, "stampacchia", Point(w), tol)
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
        nd = length_ref(d)
        cone = cone_oracle(y)
        if cone.tag == "zero":
            continue
        if cone.tag == "full":
            dirs = _axis_fan(xhat.dim)
            if nd > 0.0:
                dirs.append(scaled_to_ref(d, 1.0))
        else:
            dirs = [scaled_to_ref(g, 1.0) for g in cone.generators]
        for g in dirs:
            if dot(g, d) > tol * (1.0 + nd):
                return False
    return True


def mvip_solutions_ref(cone_oracle, X, tol: float) -> list[Point]:
    return [x for x in X if mvip_membership_ref(cone_oracle, x, X, tol)]


def stampacchia_unscreened_ref(bodies: list, B: np.ndarray, G: np.ndarray, tol: float) -> list:
    """`vip._stampacchia` before its screen against the ground's extreme
    rows: after the zero test, every open base meets the vertex sweep
    against the whole ground, in blocks of whole bases (`_margin_blocks`),
    a base with no passing vertex meets the Farkas screen, and a base the
    screen leaves open goes on alone to the midpoint sweep and the LP. The
    stages are the library's own."""
    zero = (0.0,) * B.shape[1]
    found: list = [None] * len(B)
    holds_zero: dict[int, bool] = {}
    open_ = []
    for i, body in enumerate(bodies):
        if body.is_empty:
            continue
        if id(body) not in holds_zero:
            holds_zero[id(body)] = contains_zero(body, tol)
        if holds_zero[id(body)]:
            found[i] = zero
        else:
            open_.append(i)
    open_.sort(key=lambda i: len(bodies[i].vertices))
    for block, V, D, S in _margin_blocks(bodies, open_, B, G, tol):
        for b, i in enumerate(block):
            if tol == 0.0:
                fails = (dot_signs(V[b][:, None, :], D[b][None]) < 0).any(axis=1)
            else:
                fails = (S[b] > 0.0).any(axis=1)
            if not fails.all():
                found[i] = tuple(V[b, int(np.argmin(fails))].tolist())
            elif not _refuted(S[b:b + 1], V[b:b + 1], D[b:b + 1])[0]:
                Vi, floor = bodies[i].vertices, tol_floor(D[b], tol)
                w = _midpoint_witness(Vi, D[b], floor, tol)
                if w is None and len(Vi) > 1:
                    w = (_segment_witness if len(Vi) == 2 else _lp_witness)(Vi, D[b], floor, tol)
                if w is not None:
                    found[i] = tuple(w.tolist())
    return found


def minty_holds_unscreened_ref(field, C: np.ndarray, tol: float) -> np.ndarray:
    """`vip._minty_holds` before its screen: every candidate, a row of C,
    meets the whole stacked field, in blocks of candidates."""
    holds = np.empty(len(C), dtype=bool)
    for blk in row_blocks(len(C), 4 * (len(field.units) + len(field.full))):
        X = C[blk, None, :]
        D = X - field.at
        fails = (rowdot(field.units, D) > -tol_floor(D, tol)).any(axis=1)
        F = X - field.full
        ceiling = -tol_floor(F, tol)
        fails |= (np.abs(F).max(axis=2) > ceiling).any(axis=1)
        holds[blk] = ~(fails | (rowdot(unit_rows(F), F) > ceiling).any(axis=1))
    return holds


def _line_cone_ref(p: Point) -> Cone:
    if not _eq(p[1], 0.0):
        return Cone.full(2)
    return Cone.generated(((-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))


def _vee_cone_ref(p: Point) -> Cone:
    if _eq(p[0], 0.7):
        return Cone.full(1)
    return Cone.ray((-1.0,)) if p[0] < 0.7 else Cone.ray((1.0,))


def _plateau_cone_ref(p: Point) -> Cone:
    if p[0] > 1.0 + _EQ_TOL:
        return Cone.ray((1.0,))
    if p[0] < -1.0 - _EQ_TOL:
        return Cone.ray((-1.0,))
    return Cone.full(1)


# Each fixture's cone oracle as it first was: a new Cone on every call.
FIXTURE_CONES_REF = {
    "favored-one": lambda p: Cone.zero(1) if _eq(p[0], 1.0) else Cone.full(1),
    "kinked-threshold": lambda p: Cone.full(1) if _eq(p[0], 0.0) else Cone.ray((-1.0,)),
    "vee-peak": _vee_cone_ref,
    "mutual-zero": lambda p: Cone.full(2),
    "twin-plateau": _plateau_cone_ref,
    "halfline-plane": _line_cone_ref,
    "segment-line": _line_cone_ref,
}


# ------------------------------------------------------------- descent


def _radial_direction_ref(p: Point):
    d = sub(p, (1.0, 2.0))
    return None if norm(d) == 0.0 else d


ORIGINAL_DIRECTIONS = {"radial-bowl": _radial_direction_ref}


def descent_oracle_ref(fixture):
    """The original `Fixture.descent_oracle`: a Point in, L / ||d|| taken per
    coordinate. Radial-bowl uses its original direction; the other fixtures'
    directions only read coordinates, so they take Points as they are."""
    L = fixture.gap.lipschitz
    direction = ORIGINAL_DIRECTIONS.get(fixture.name, fixture.descent_direction)

    def oracle(x: Point) -> tuple:
        d = direction(x)
        if d is None:
            return (0.0,) * x.dim
        nd = norm(d)
        return tuple(c * (L / nd) for c in d)

    return oracle


def theta_ref(schedule, k: int) -> float | None:
    """The original `StepSchedule.theta`: the step for iteration k
    (1-indexed); None when an explicit list runs out."""
    if schedule.kind == "harmonic":
        return schedule.theta0 / k
    if schedule.kind == "list":
        return schedule.values[k - 1] if k <= len(schedule.values) else None
    return schedule.theta0


def run_descent_ref(oracle, x1: Point, schedule, config, reference=None,
                    gap=None) -> DescentTrace:
    schedule.validate()
    L = config.lipschitz
    rows = []

    def diag(x: Point):
        d = dist_ref(x, reference) if reference is not None else None
        g = gap(x.coords, reference.coords) if (gap is not None and reference is not None) else None
        return d, g

    x = x1
    if reference is not None and reference.dim != x.dim:
        raise ValueError(f"reference has {reference.dim} coordinates, the start {x.dim}")
    termination = "maxIters"
    for k in range(1, config.max_iters + 1):
        xs = tuple(oracle(x))
        if len(xs) != x.dim:
            Point(xs)
            raise ValueError(f"oracle output has {len(xs)} coordinates at iteration {k}, "
                             f"the iterate {x.dim}")
        nxs = length_ref(xs)
        if nxs > L * (1.0 + 1e-12):
            raise OracleNormViolation(
                f"oracle output norm {nxs} exceeds the declared bound {L} at iteration {k}")
        d, g = diag(x)
        if nxs == 0.0:
            rows.append(TraceRow(k, x, Point(xs), None, d, g, None))
            termination = "zeroSubgradient"
            break
        if config.eps > 0.0 and nxs <= config.eps:
            rows.append(TraceRow(k, x, Point(xs), None, d, g, None))
            termination = "normBelowEps"
            break
        theta = theta_ref(schedule, k)
        if theta is None:
            rows.append(TraceRow(k, x, Point(xs), None, d, g, None))
            termination = "maxIters"
            break
        x_next = Point(sub(x, scale(xs, theta)))
        residual = None
        if reference is not None:
            residual = fejer_residual_ref(d, dist_ref(x_next, reference), theta, L)
        rows.append(TraceRow(k, x, Point(xs), theta, d, g, residual))
        x = x_next
    else:
        d, g = diag(x)
        rows.append(TraceRow(config.max_iters + 1, x, None, None, d, g, None))
    return trace_from_rows(rows, termination, reference=reference, lipschitz=L)


def trace_from_rows(rows, termination: str, reference=None, lipschitz=None) -> DescentTrace:
    """The trace whose rows are the TraceRows `rows`, numbered 1..n, through
    the column constructor."""
    return DescentTrace(tuple(r.x.coords for r in rows),
                        tuple(None if r.xstar is None else r.xstar.coords for r in rows),
                        tuple(r.theta for r in rows), tuple(r.dist for r in rows),
                        tuple(r.gap for r in rows), tuple(r.fejer_residual for r in rows),
                        termination, reference=reference, lipschitz=lipschitz)


def trace_records(trace: DescentTrace):
    """(k, x, xstar, theta, dist, gap, residual) per row, read off the columns."""
    return zip(range(1, len(trace) + 1), trace.xs, trace.xstars, trace.thetas, trace.dists,
               trace.gaps, trace.residuals)


def distances_ref(trace: DescentTrace) -> list[float]:
    if trace.reference is None:
        raise ValueError("trace has no reference point")
    return [dist_ref(r.x, trace.reference) for r in trace.rows]


def quasi_fejer_check_ref(trace: DescentTrace, reference: Point, L: float,
                          slack: float = 1e-10) -> bool:
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        if prev.theta is None:
            continue
        d_prev = dist_ref(prev.x, reference)
        d_next = dist_ref(nxt.x, reference)
        if math.isinf(d_prev) or math.isinf(d_next):
            # differences that overflow: the rows and the reference scaled by
            # 2^-e, 2^e at or above their largest |coordinate|, then compared
            # in units of the larger distance m 2^e
            e = math.frexp(max(map(abs, chain(prev.x, nxt.x, reference))))[1]
            r = [math.ldexp(c, -e) for c in reference]
            d_prev, d_next = (dist_ref([math.ldexp(c, -e) for c in x], r) for x in (prev.x, nxt.x))
            m = max(d_prev, d_next)
            p, q = d_prev / m, d_next / m
            b, s = math.ldexp(prev.theta * L / m, -e), math.ldexp(1.0 / m, -e)
            if (q - p) * (q + p) > b * b + slack * (s * s + p * p):
                return False
            continue
        if _square_overflows(d_prev) or _square_overflows(d_next):
            # in units of the larger distance m
            m = max(d_prev, d_next)
            p, q, b = d_prev / m, d_next / m, prev.theta * L / m
            if (q - p) * (q + p) > b * b + slack * (1.0 / m / m + p * p):
                return False
            continue
        budget = prev.theta * prev.theta * L * L
        if d_next * d_next > d_prev * d_prev + budget + slack * (1.0 + d_prev * d_prev):
            return False
    return True


def reconstruction_residuals_ref(trace: DescentTrace) -> list[float]:
    out = []
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        if prev.theta is None or prev.xstar is None:
            continue
        predicted = sub(prev.x, scale(prev.xstar, prev.theta))
        out.append(norm(sub(nxt.x, predicted)) / (1.0 + norm(prev.x)))
    return out


def emit_trace_ref(trace: DescentTrace, fmt: str, path: str) -> str:
    """The original `emit_trace`, which wrote a trace row by row from its
    TraceRows and Points."""
    def fmt_value(value):
        return "" if value is None else repr(value)

    def fmt_point(p):
        return "" if p is None else ";".join(repr(c) for c in p.coords)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in trace.rows:
            writer.writerow([r.k, fmt_point(r.x), fmt_point(r.xstar), fmt_value(r.theta),
                             fmt_value(r.dist), fmt_value(r.gap), fmt_value(r.fejer_residual)])
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "termination": trace.termination,
            "reference": list(trace.reference.coords) if trace.reference else None,
            "lipschitz": trace.lipschitz,
            "rows": [
                {
                    "k": r.k,
                    "x": list(r.x.coords),
                    "xstar": list(r.xstar.coords) if r.xstar else None,
                    "theta": r.theta,
                    "dist_to_ref": r.dist,
                    "gap_to_ref": r.gap,
                    "fejer_residual": r.fejer_residual,
                }
                for r in trace.rows
            ],
        }
        text = json.dumps(payload, indent=1)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected csv or json")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def emit_trace_columns_ref(trace: DescentTrace, fmt: str, path: str) -> str:
    """The columnar `emit_trace` that `emit_trace_ref` gave way to: the same
    fields read off the columns (`trace_records`), one `csv.writer` call per
    row, and `json.dumps(payload, indent=1)` over a list of row dicts."""
    def fmt_value(value):
        return "" if value is None else repr(value)

    def fmt_coords(coords):
        return "" if coords is None else ";".join(map(repr, coords))

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for k, x, xstar, theta, d, g, r in trace_records(trace):
            writer.writerow([k, fmt_coords(x), fmt_coords(xstar), fmt_value(theta),
                             fmt_value(d), fmt_value(g), fmt_value(r)])
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "termination": trace.termination,
            "reference": list(trace.reference.coords) if trace.reference else None,
            "lipschitz": trace.lipschitz,
            "rows": [
                {
                    "k": k,
                    "x": list(x),
                    "xstar": list(xstar) if xstar is not None else None,
                    "theta": theta,
                    "dist_to_ref": d,
                    "gap_to_ref": g,
                    "fejer_residual": r,
                }
                for k, x, xstar, theta, d, g, r in trace_records(trace)
            ],
        }
        text = json.dumps(payload, indent=1)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected csv or json")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def load_trace_json_ref(path: str) -> DescentTrace:
    """The row-by-row `load_trace_json` that reading by columns replaced:
    each row checked and converted in turn, the first fault raised."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON trace: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON trace: the top level is not an object")
    for key in ("schema", "termination", "reference", "lipschitz", "rows"):
        if key not in payload:
            raise ValueError(f"{path}: trace has no {key!r} key")
    if payload["schema"] != SCHEMA_VERSION:
        raise ValueError(f"{path}: trace schema {payload['schema']!r}, expected {SCHEMA_VERSION}")
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: trace has no rows")
    records = []
    for k, r in enumerate(rows, 1):
        if not isinstance(r, dict):
            raise ValueError(f"{path}: row {k} is not an object")
        for key in TRACE_COLUMNS:
            if key not in r:
                raise ValueError(f"{path}: row {k} has no {key!r} key")
        if r["k"] != k:
            raise ValueError(f"{path}: row {k} has k = {r['k']!r}; "
                             f"rows must be numbered 1..{len(rows)}")
        x, xstar = _point_coords(path, f"row {k}'s x", r["x"]), r["xstar"]
        xstar = None if xstar is None else _point_coords(path, f"row {k}'s xstar", xstar)
        dim = len(records[0][0]) if records else len(x)
        if len(x) != dim or (xstar is not None and len(xstar) != dim):
            raise ValueError(f"{path}: row {k} has an x or xstar of another dimension "
                             f"than row 1's x ({dim})")
        records.append((x, xstar, r["theta"], r["dist_to_ref"], r["gap_to_ref"],
                        r["fejer_residual"]))
    ref = payload["reference"]
    if ref is not None:
        try:
            n = len(tuple(ref))
        except TypeError as exc:
            raise ValueError(f"{path}: the reference is not a list of floats: {exc}") from exc
        if n != len(records[0][0]):
            raise ValueError(f"{path}: the reference has {n} coordinates, "
                             f"the rows {len(records[0][0])}")
        ref = Point(_point_coords(path, "the reference", ref))
    termination, lipschitz = payload["termination"], payload["lipschitz"]
    if termination not in ("zeroSubgradient", "maxIters", "normBelowEps"):
        raise ValueError(f"{path}: trace termination {termination!r} is not one of "
                         f"zeroSubgradient, maxIters, normBelowEps")
    if lipschitz is not None and not (_json_number(lipschitz) and math.isfinite(lipschitz)
                                      and lipschitz > 0):
        raise ValueError(f"{path}: trace lipschitz {lipschitz!r} is neither null nor a "
                         f"finite positive number")
    for j, name in enumerate(("theta", "dist_to_ref", "gap_to_ref", "fejer_residual"), 2):
        for k, record in enumerate(records, 1):
            if record[j] is not None and not _json_number(record[j]):
                raise ValueError(f"{path}: row {k}'s {name} {record[j]!r} is neither null "
                                 f"nor a number")
    return DescentTrace(*zip(*records), termination, reference=ref, lipschitz=lipschitz)


def _json_number(value) -> bool:
    """A float (nan and infinities included), or an int that is not a bool
    and no larger in magnitude than the largest float."""
    if isinstance(value, float):
        return True
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _point_coords(path: str, what: str, value) -> tuple[float, ...]:
    """A Point's coordinates made from `value`; a value a Point cannot take
    (not a list, a string in it, an int too large for a float, an empty
    list) raises ValueError naming the file. A non-finite coordinate raises
    the ValueError a Point gives."""
    try:
        coords = tuple(value)
        if not coords:
            raise ValueError(f"{path}: {what} has no coordinates")
        return Point(coords).coords
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {what} is not a list of floats: {exc}") from exc


# ------------------------------------------------------ random relations


def random_tabular_relation(rng: np.random.Generator, n: int, style: str = "uniform",
                            dim: int = 1) -> Relation:
    """A random relation on n integer points, for property fuzzing.

    styles: "uniform" raw random matrix, "closure" transitive closure of a
    random matrix, "utility" complete preorder from random scores with ties.
    """
    ground = [Point(tuple(float(i) if d == 0 else 0.0 for d in range(dim))) for i in range(n)]
    if style == "utility":
        scores = rng.integers(0, max(2, n // 2), size=n)
        mat = [[scores[i] >= scores[j] for j in range(n)] for i in range(n)]
    else:
        mat = (rng.random((n, n)) < rng.uniform(0.2, 0.8)).tolist()
        if style == "closure":
            m = np.array(mat, dtype=bool)
            for _ in range(n):
                m = m | (m @ m)
            mat = m.tolist()
    return Relation.from_table(f"random-{style}", ground, mat)
