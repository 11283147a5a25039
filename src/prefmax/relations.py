"""Binary preference relations, contour sets, and brute-force property checks.

A relation is evaluated through `holds(rel, x, y)` meaning "x is at least as
good as y". Everything here is exhaustive over finite ground sets; witnesses
are the first failure in lexicographic ground order, so reports are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .points import GroundSet, Point, check_same_dim, dot, norm, sub

PROPERTIES = (
    "reflexive",
    "complete",
    "transitive",
    "mfip",
    "fip",
    "convex_upper",
    "convex_strict_upper",
)


@dataclass(frozen=True)
class Relation:
    """A preference relation on R^n.

    One of three backings:
      * predicate  -- a deterministic closed-form rule on coordinate pairs;
      * utility    -- x is weakly preferred to y iff u(x) >= u(y);
      * tabular    -- a boolean matrix over an explicit finite ground set.
    """

    name: str
    dim: int
    kind: str  # "predicate" | "utility" | "tabular"
    predicate: Callable[[tuple, tuple], bool] | None = None
    utility: Callable[[tuple], float] | None = None
    table_ground: tuple[Point, ...] | None = None
    table: tuple[tuple[bool, ...], ...] | None = None
    _table_index: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_predicate(cls, name: str, dim: int, rule) -> "Relation":
        return cls(name=name, dim=dim, kind="predicate", predicate=rule)

    @classmethod
    def from_utility(cls, name: str, dim: int, u) -> "Relation":
        return cls(name=name, dim=dim, kind="utility", utility=u)

    @classmethod
    def from_table(cls, name: str, ground, matrix) -> "Relation":
        ground = tuple(ground)
        dim = check_same_dim(*ground)
        matrix = tuple(tuple(bool(v) for v in row) for row in matrix)
        if len(matrix) != len(ground) or any(len(row) != len(ground) for row in matrix):
            raise ValueError("tabular matrix must be square with side |ground|")
        return cls(name=name, dim=dim, kind="tabular", table_ground=ground, table=matrix,
                   _table_index={p.coords: i for i, p in enumerate(ground)})

    def _lookup(self, coords: tuple) -> int:
        try:
            return self._table_index[coords]
        except KeyError:
            raise ValueError(f"point {Point(coords)} is not in the tabular ground set") from None


def holds(rel: Relation, x: Point, y: Point) -> bool:
    """Whether x is weakly preferred to y."""
    if x.dim != rel.dim or y.dim != rel.dim:
        raise ValueError(f"dimension mismatch: relation is {rel.dim}-dimensional")
    if rel.kind == "predicate":
        return bool(rel.predicate(x.coords, y.coords))
    if rel.kind == "utility":
        return rel.utility(x.coords) >= rel.utility(y.coords)
    return rel.table[rel._lookup(x.coords)][rel._lookup(y.coords)]


def strictly_prefers(rel: Relation, y: Point, x: Point) -> bool:
    """Whether y is strictly preferred to x (y weakly beats x but not back)."""
    return holds(rel, y, x) and not holds(rel, x, y)


def strictly_better_mask(rel: Relation, x: Point, candidates) -> list[bool]:
    """`strictly_prefers(rel, y, x)` for every coordinate tuple y in
    `candidates`, without building a Point per candidate.

    A utility is called once per candidate and compared as u(y) > u(x), which
    equals "u(y) >= u(x) and not u(x) >= u(y)" for floats, NaN included; a
    predicate sees the raw tuples; a table is indexed by coordinates.
    """
    candidates = list(candidates)
    if not candidates:
        return []
    if x.dim != rel.dim or set(map(len, candidates)) != {rel.dim}:
        raise ValueError(f"dimension mismatch: relation is {rel.dim}-dimensional")
    xc = x.coords
    if rel.kind == "utility":
        u = rel.utility
        ux = u(xc)
        return [u(y) > ux for y in candidates]
    if rel.kind == "predicate":
        rule = rel.predicate
        return [bool(rule(y, xc)) and not rule(xc, y) for y in candidates]
    i = rel._lookup(xc)
    rows = [rel._lookup(y) for y in candidates]
    return [rel.table[j][i] and not rel.table[i][j] for j in rows]


def contour(rel: Relation, x: Point, ground: GroundSet, which: str) -> list[Point]:
    """Ground points in the selected contour set of x.

    which: "U" weakly better, "Us" strictly better, "L" weakly worse,
    "Ls" strictly worse.
    """
    if x.dim != ground.dim:
        raise ValueError("dimension mismatch between point and ground set")
    preds = {
        "U": lambda y: holds(rel, y, x),
        "Us": lambda y: strictly_prefers(rel, y, x),
        "L": lambda y: holds(rel, x, y),
        "Ls": lambda y: strictly_prefers(rel, x, y),
    }
    try:
        pred = preds[which]
    except KeyError:
        raise ValueError(f"unknown contour selector {which!r}") from None
    return [y for y in ground if pred(y)]


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    holds: bool
    witness: tuple[Point, ...] | None = None
    m: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _segment_gap(g: Point, p: Point, q: Point) -> float:
    """Distance from g to the segment [p, q]."""
    d = sub(q, p)
    dd = dot(d, d)
    if dd == 0.0:
        return norm(sub(g, p))
    t = max(0.0, min(1.0, dot(sub(g, p), d) / dd))
    proj = tuple(pc + t * dc for pc, dc in zip(p, d))
    return norm(sub(g, proj))


def _contour_is_grid_convex(points: list[Point], ground: GroundSet, slack: float) -> tuple[Point, ...] | None:
    """None if convex at grid resolution, else a witness (p, q, gap point).

    Convexity on a grid: for every pair in the contour, every ground point
    within `slack` of the segment between them is also in the contour.
    """
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


def check_property(rel: Relation, ground: GroundSet, prop: str, m: int | None = None) -> PropertyReport:
    """Exhaustive verdict for a relation property over a finite ground set."""
    pts = list(ground)
    if prop == "reflexive":
        for x in pts:
            if not holds(rel, x, x):
                return PropertyReport(prop, False, (x,))
        return PropertyReport(prop, True)

    if prop == "complete":
        for i, x in enumerate(pts):
            for y in pts[i:]:
                if not holds(rel, x, y) and not holds(rel, y, x):
                    return PropertyReport(prop, False, (x, y))
        return PropertyReport(prop, True)

    if prop == "transitive":
        for x in pts:
            xy = [y for y in pts if holds(rel, x, y)]
            for y in xy:
                for z in pts:
                    if holds(rel, y, z) and not holds(rel, x, z):
                        return PropertyReport(prop, False, (x, y, z))
        return PropertyReport(prop, True)

    if prop == "mfip":
        if m is None or m < 1:
            raise ValueError("mfip requires a positive m")
        if m > len(pts):
            raise ValueError("exhaustive m-FIP needs m <= |ground|")
        for combo in combinations(pts, m):
            if not any(all(holds(rel, x, xi) for xi in combo) for x in pts):
                return PropertyReport(prop, False, combo, m=m)
        return PropertyReport(prop, True, m=m)

    if prop == "fip":
        # Over a finite ground the full family is the binding one; walk the
        # upper contours in ground order and report the first empty prefix.
        common = set(p.coords for p in pts)
        taken = []
        for x in pts:
            taken.append(x)
            common &= {y.coords for y in pts if holds(rel, y, x)}
            if not common:
                return PropertyReport(prop, False, tuple(taken))
        return PropertyReport(prop, True)

    if prop in ("convex_upper", "convex_strict_upper"):
        which = "U" if prop == "convex_upper" else "Us"
        slack = ground.resolution() / 2.0
        for x in pts:
            cont = contour(rel, x, ground, which)
            bad = _contour_is_grid_convex(cont, ground, slack)
            if bad is not None:
                return PropertyReport(prop, False, (x,) + bad)
        return PropertyReport(prop, True)

    raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")


def maximal_elements(rel: Relation, ground: GroundSet) -> list[Point]:
    """Points with no strictly better point in the ground set (O(n^2) sweep)."""
    out = []
    for x in ground:
        if not any(strictly_prefers(rel, y, x) for y in ground):
            out.append(x)
    return out


def maxima(rel: Relation, ground: GroundSet) -> list[Point]:
    """Points weakly preferred to every ground point."""
    out = []
    for x in ground:
        if all(holds(rel, x, y) for y in ground):
            out.append(x)
    return out


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
