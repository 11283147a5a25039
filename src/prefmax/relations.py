"""Binary preference relations, contour sets, and brute-force property checks.

A relation is evaluated through `holds(rel, x, y)` meaning "x is at least as
good as y". Every query here, from one pair to a property check, goes
through one evaluator over blocks of coordinate rows, which is exact for
each backing (see `_holds`). Everything is exhaustive over finite ground
sets; witnesses are the first failure in lexicographic ground order, so
reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable

import numpy as np

from . import points
from .points import GroundSet, Point, ground_array, ground_points, ground_spacing, row_blocks

PROPERTIES = (
    "reflexive",
    "complete",
    "transitive",
    "mfip",
    "fip",
    "convex_upper",
    "convex_strict_upper",
)

# Ulp bound of a utility's column form: columns(y) may differ from u(y) by
# at most K * spacing(|columns(y)|), or by at most K floats (see
# `strictly_better_rows`).
K = 4


@dataclass(frozen=True, eq=False)
class Relation:
    """A preference relation on R^n.

    One of three backings:
      * predicate  -- a deterministic closed-form rule on coordinate columns
        (see `_holds` for the contract);
      * utility    -- x is weakly preferred to y iff u(x) >= u(y); an
        optional column form scores coordinate columns within K ulps of u
        (see `strictly_better_rows`);
      * tabular    -- a read-only boolean matrix over an explicit finite
        ground set, `table_ground`, a GroundSet.

    Relations compare and hash by identity.
    """

    name: str
    dim: int
    kind: str  # "predicate" | "utility" | "tabular"
    predicate: Callable[[tuple, tuple], np.ndarray] | None = None
    utility: Callable[[tuple], float] | None = None
    columns: Callable[[tuple], np.ndarray] | None = None
    table_ground: GroundSet | None = None
    table: np.ndarray | None = None

    @classmethod
    def from_predicate(cls, name: str, dim: int, rule) -> "Relation":
        return cls(name=name, dim=dim, kind="predicate", predicate=rule)

    @classmethod
    def from_utility(cls, name: str, dim: int, u, columns=None) -> "Relation":
        return cls(name=name, dim=dim, kind="utility", utility=u, columns=columns)

    @classmethod
    def from_table(cls, name: str, ground, matrix) -> "Relation":
        ground = GroundSet.explicit(ground)
        if len(matrix) != len(ground) or any(len(row) != len(ground) for row in matrix):
            raise ValueError("tabular matrix must be square with side |ground|")
        table = np.array(matrix, dtype=bool)
        table.flags.writeable = False
        return cls(name=name, dim=ground.dim, kind="tabular", table_ground=ground, table=table)


# ------------------------------------------------------------------ evaluator


def _operand(rel: Relation, rows) -> np.ndarray:
    """What the evaluator reads of each row, one entry per row along axis 0:
    the utility score, the table index, or the coordinates (predicates).

    rows: a GroundSet, a sequence of Points or coordinate tuples, or an
    (m, dim) array (`points.ground_array`). The utility is called once per
    row, on a coordinate tuple.
    """
    Y = ground_array(rows, rel.dim)
    if rel.kind == "predicate":
        return Y
    rows = map(tuple, Y.tolist())
    if rel.kind == "utility":
        u = rel.utility
        return np.array([u(r) for r in rows], dtype=float)
    positions = rel.table_ground.positions
    try:
        return np.array([positions[r] for r in rows], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"point {Point(exc.args[0])} is not in the tabular ground set") from None


def _holds(rel: Relation, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """holds(rel, A_i, B_j) for the rows of operands a and b (see `_operand`),
    broadcast together along their leading axes: `_holds(rel, a[:, None],
    b[None])` is the matrix W[i, j], and two operands of one length give
    holds row by row.

    Each backing is exact: utility scores compare as u(x) >= u(y), a table
    is read at the indices, and a predicate gets x and y as tuples of
    coordinate columns (x[0], x[1], ... are float arrays that broadcast
    against y's) and returns a boolean array, combined with `&`, `|` and `~`.
    A rule written for scalars (`and`, `or`, `if`) fails on these arrays.
    """
    if rel.kind == "utility":
        return a >= b
    if rel.kind == "tabular":
        return rel.table[a, b]
    x = tuple(a[..., k] for k in range(rel.dim))
    y = tuple(b[..., k] for k in range(rel.dim))
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    return np.broadcast_to(np.asarray(rel.predicate(x, y), dtype=bool), shape)


def _strict(rel: Relation, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """strictly_prefers(rel, A_i, B_j), broadcast as `_holds`. Utility scores
    compare as u(x) > u(y), which equals "u(x) >= u(y) and not u(y) >= u(x)"
    for floats, NaN included."""
    if rel.kind == "utility":
        return a > b
    return _holds(rel, a, b) & ~_holds(rel, b, a)


def _matrix(rel: Relation, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W[i, j] = holds(rel, A_i, B_j), evaluated in row blocks."""
    W = np.empty((len(a), len(b)), dtype=bool)
    for blk in row_blocks(len(a), len(b)):
        W[blk] = _holds(rel, a[blk, None], b[None])
    return W


def preference_matrix(rel: Relation, ground, cols=None) -> np.ndarray:
    """The boolean matrix W[i, j] = holds(rel, ground[i], cols[j]), built in
    row blocks; `cols` defaults to the ground itself, giving n x n. Both are
    rows as `_operand` takes them: GroundSets, Points or (m, dim) arrays,
    each read once. Nothing is kept between calls."""
    a = _operand(rel, ground)
    return _matrix(rel, a, a if cols is None else _operand(rel, cols))


def holds(rel: Relation, x: Point, y: Point) -> bool:
    """Whether x is weakly preferred to y: a 1 x 1 call of the evaluator."""
    return bool(_holds(rel, _operand(rel, [x.coords]), _operand(rel, [y.coords]))[0])


def strictly_prefers(rel: Relation, y: Point, x: Point) -> bool:
    """Whether y is strictly preferred to x (y weakly beats x but not back)."""
    return bool(_strict(rel, _operand(rel, [y.coords]), _operand(rel, [x.coords]))[0])


def strictly_better_mask(rel: Relation, x: Point, candidates) -> np.ndarray:
    """`strictly_prefers(rel, y, x)` for every row y of `candidates` (a
    GroundSet, coordinate tuples or an (m, dim) array), as a boolean array,
    without building a Point per candidate: the one-base call of
    `strictly_better_rows`. Empty candidates give an empty mask."""
    return strictly_better_rows(rel, np.array([x.coords], dtype=float), candidates,
                                [len(candidates)])


def strictly_better_rows(rel: Relation, B: np.ndarray, candidates, counts) -> np.ndarray:
    """`strictly_prefers(rel, y, x)` for consecutive segments of candidate
    rows (a GroundSet, coordinate tuples or an (m, dim) array): the first
    counts[0] rows against the base row B[0], the next counts[1] against
    B[1], and so on. A predicate meets every candidate as a column beside its
    own base's, a table is indexed by coordinates, and a utility is called
    once per base and, without a column form, once per candidate.

    A column form scores all candidates at once, and each score s is read
    against its own base's trust band u(x) -/+ w, w = 4K spacing(|u(x)|);
    every candidate inside the band or with a non-finite s is scored again
    by u, so that every bit equals the scalar one. Given the contract that
    s is at most K ulps from u(y) (|s - u(y)| <= K spacing(|s|), or at most
    K floats apart), s above the band puts u(y) above u(x) and s below it
    puts u(y) below: s clears u(x) by more than 2K spacing(|u(x)|) after the
    rounding of u(x) -/+ w, which is more than K floats, and more than
    K spacing(|s|) wherever |s| <= 2 |u(x)|; where |s| > 2 |u(x)| the
    distance exceeds |s| / 2, far above K spacing(|s|). A non-finite u(x)
    gives a nan band, which trusts no score."""
    if not len(candidates):
        return np.zeros(0, dtype=bool)
    base = _operand(rel, B)
    if rel.kind != "utility" or rel.columns is None:
        return _strict(rel, _operand(rel, candidates),
                       base if len(base) == 1 else np.repeat(base, counts, axis=0))
    Y = ground_array(candidates, rel.dim)
    s = np.broadcast_to(np.asarray(rel.columns(tuple(Y.T)), dtype=float), (len(Y),))
    with np.errstate(invalid="ignore", over="ignore"):
        w = 4 * K * np.spacing(np.abs(base))
        lo, hi = base - w, base + w
        if len(base) > 1:
            lo, hi = np.repeat(lo, counts), np.repeat(hi, counts)
        mask = s > hi
        redo = np.flatnonzero(~(mask | (s < lo)) | ~np.isfinite(s))
    if redo.size:
        at = base[np.searchsorted(np.cumsum(counts), redo, side="right")]
        u = rel.utility
        mask[redo] = [u(y) > b for y, b in zip(map(tuple, Y[redo].tolist()), at.tolist())]
    return mask


def contour(rel: Relation, x: Point, ground: GroundSet, which: str) -> list[Point]:
    """Ground points in the selected contour set of x.

    which: "U" weakly better, "Us" strictly better, "L" weakly worse,
    "Ls" strictly worse.
    """
    if which not in ("U", "Us", "L", "Ls"):
        raise ValueError(f"unknown contour selector {which!r}")
    pts, rows = ground_points(ground, rel.dim)
    g, p = _operand(rel, rows), _operand(rel, [x.coords])
    test = _strict if which.endswith("s") else _holds
    mask = test(rel, g, p) if which.startswith("U") else test(rel, p, g)
    return [pts[i] for i in np.flatnonzero(mask)]


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    holds: bool
    witness: tuple[Point, ...] | None = None
    m: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _contour_is_grid_convex(rows: np.ndarray, mask: np.ndarray, slack: float) -> tuple[int, ...] | None:
    """None if the contour of the ground rows at `mask` is convex at grid
    resolution, else the row indices (p, q, gap point) of a witness.

    Convexity on a grid: for every pair in the contour, every ground point
    within `slack` of the segment between them is also in the contour. In
    1-D the pair is the contour's first lowest and first highest row.
    """
    inside, outside = np.flatnonzero(mask), np.flatnonzero(~mask)
    if not outside.size or inside.size < 2:
        return None
    if rows.shape[1] == 1:
        x = rows[inside, 0]
        p, q = int(inside[x.argmin()]), int(inside[x.argmax()])
        lo, hi = rows[p, 0], rows[q, 0]
        gap = np.flatnonzero((lo - slack <= rows[outside, 0]) & (rows[outside, 0] <= hi + slack))
        return (p, q, int(outside[gap[0]])) if gap.size else None
    P, out = rows[inside], rows[outside]
    for i, pa in enumerate(P):
        for j, qa in enumerate(P[i + 1:], i + 1):
            d = qa - pa
            dd = float(d @ d)
            if dd == 0.0:
                continue
            t = np.clip((out - pa) @ d / dd, 0.0, 1.0)
            proj = pa + t[:, None] * d
            dist = np.linalg.norm(out - proj, axis=1)
            bad = np.nonzero(dist <= slack)[0]
            if bad.size:
                return (int(inside[i]), int(inside[j]), int(outside[bad[0]]))
    return None


def _first(mask: np.ndarray):
    """Row-major index of the first True entry of mask, or None."""
    hits = np.flatnonzero(mask)
    return np.unravel_index(int(hits[0]), mask.shape) if hits.size else None


def check_property(rel: Relation, ground: GroundSet, prop: str, m: int | None = None) -> PropertyReport:
    """Exhaustive verdict for a relation property over a finite ground set.

    Each property is read off blocks of the preference matrix; its witness
    is the first failure in the order of the per-pair definition (ground
    order, then the later arguments in ground order).
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    pts, rows = ground_points(ground, rel.dim)
    n = len(pts)
    if prop == "mfip":
        if m is None or m < 1:
            raise ValueError("mfip requires a positive m")
        if m > n:
            raise ValueError("exhaustive m-FIP needs m <= |ground|")
    g = _operand(rel, rows)

    if prop == "reflexive":
        hit = _first(~_holds(rel, g, g))
        return PropertyReport(prop, True) if hit is None else PropertyReport(prop, False, (pts[hit[0]],))

    if prop == "complete":
        # pairs (x, y) with y at or after x, neither weakly preferred
        for blk in row_blocks(n, n):
            bad = ~_holds(rel, g[blk, None], g[None]) & ~_holds(rel, g[None], g[blk, None])
            hit = _first(np.triu(bad, blk.start))
            if hit is not None:
                return PropertyReport(prop, False, (pts[blk.start + hit[0]], pts[hit[1]]))
        return PropertyReport(prop, True)

    if prop == "transitive":
        # x beats y, y beats z, x does not beat z: row x of W @ W against W
        W = _matrix(rel, g, g)
        for blk in row_blocks(n, n):
            bad = np.flatnonzero((np.matmul(W[blk], W) & ~W[blk]).any(axis=1))
            if bad.size:
                x = W[blk.start + bad[0]]
                for yb in row_blocks(n, n):
                    hit = _first(x[yb, None] & W[yb] & ~x[None])
                    if hit is not None:
                        return PropertyReport(prop, False, (pts[blk.start + bad[0]],
                                                            pts[yb.start + hit[0]], pts[hit[1]]))
        return PropertyReport(prop, True)

    if prop == "mfip":
        # combinations in lexicographic order, in chunks: a combination fails
        # when no ground point weakly beats all of its members
        W = _matrix(rel, g, g)
        combos = combinations(range(n), m)
        per = max(1, points.BLOCK_ENTRIES // (n * m))
        while chunk := list(islice(combos, per)):
            C = np.array(chunk, dtype=np.intp)
            miss = np.flatnonzero(~W[:, C].all(axis=2).any(axis=0))
            if miss.size:
                return PropertyReport(prop, False, tuple(pts[i] for i in C[miss[0]]), m=m)
        return PropertyReport(prop, True, m=m)

    if prop == "fip":
        # Over a finite ground the full family is the binding one: the upper
        # contours of the first k + 1 ground points share a point while some
        # y is weakly preferred to each of them, so the first empty prefix
        # ends at the largest count, over y, of leading points y beats.
        reach = np.empty(n, dtype=np.intp)
        for blk in row_blocks(n, n):
            fails = ~_holds(rel, g[blk, None], g[None])
            reach[blk] = np.where(fails.any(axis=1), fails.argmax(axis=1), n)
        k = int(reach.max()) if n else n
        return PropertyReport(prop, True) if k == n else PropertyReport(prop, False, tuple(pts[:k + 1]))

    # convex_upper, convex_strict_upper
    test = _holds if prop == "convex_upper" else _strict
    slack = ground_spacing(pts, rows) / 2.0
    for blk in row_blocks(n, n):
        for r, row in enumerate(test(rel, g[None], g[blk, None])):
            bad = _contour_is_grid_convex(rows, row, slack)
            if bad is not None:
                return PropertyReport(prop, False, tuple(pts[i] for i in (blk.start + r, *bad)))
    return PropertyReport(prop, True)


def maximal_elements(rel: Relation, ground: GroundSet) -> list[Point]:
    """Points with no strictly better point in the ground set, from row
    blocks of the strict preference matrix."""
    pts, rows = ground_points(ground, rel.dim)
    g = _operand(rel, rows)
    dominated = np.zeros(len(pts), dtype=bool)
    for blk in row_blocks(len(pts), len(pts)):
        dominated[blk] = _strict(rel, g[None], g[blk, None]).any(axis=1)
    return [pts[i] for i in np.flatnonzero(~dominated)]


def maxima(rel: Relation, ground: GroundSet) -> list[Point]:
    """Points weakly preferred to every ground point."""
    pts, rows = ground_points(ground, rel.dim)
    g = _operand(rel, rows)
    top = np.zeros(len(pts), dtype=bool)
    for blk in row_blocks(len(pts), len(pts)):
        top[blk] = _holds(rel, g[blk, None], g[None]).all(axis=1)
    return [pts[i] for i in np.flatnonzero(top)]
