"""Points in R^n and finite ground sets (explicit lists or axis-aligned grids)."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

# Default grid steps by dimension (1-D fine, 2-D coarser per axis).
DEFAULT_STEP = {1: 0.01, 2: 0.05}

# Lattice coordinates are rounded to this many decimals so that generated
# grids have stable, hashable coordinates (grids are generated, not measured).
_LATTICE_DECIMALS = 12

# Entry budget of one block of the stacked array passes (relation sweeps and
# gap tables, box samples and sampled bodies, the Stampacchia and Minty
# sweeps): the entries of the arrays a block computes on, as each pass counts
# them, with at least one row per block, so that a pass's temporaries stay
# O(block) however large the ground is. At 2^15 entries (256 KB of floats)
# a block still spreads numpy's fixed cost per call over many rows, while
# the working memory stays near that of a one-point pass. `row_blocks` and
# `blocks` read it at call time.
BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class Point:
    """An immutable point of R^n, hashable so it can index sets and dicts."""

    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", float_coords(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return "P(" + ", ".join(repr(c) for c in self.coords) + ")"


def pt(*coords: float) -> Point:
    return Point(tuple(coords))


def float_coords(coords: tuple) -> tuple[float, ...]:
    """`coords` as a tuple of floats, as a Point holds them. Raises
    ValueError without a coordinate or with a non-finite one."""
    if len(coords) < 1:
        raise ValueError("point needs at least one coordinate")
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"non-finite coordinate in {coords}")
    return tuple(map(float, coords))


def norm(a) -> float:
    return math.sqrt(sum(map(operator.mul, a, a)))


def scaled_to(u, length: float) -> tuple[float, ...]:
    """u times length / ||u||, ||u|| as `norm` gives it: the vector of norm
    `length` along u. A u whose norm is 0.0 raises ZeroDivisionError. In
    1-D and 2-D the arithmetic is written out coordinate by coordinate and
    gives the same numbers as the `map` and `sum` expressions of dimension 3
    and up (`sum` starts from the int 0, and 0 + a*a == a*a)."""
    u = tuple(u)
    if len(u) == 2:
        a, b = u
        s = length / math.sqrt(a * a + b * b)
        return (a * s, b * s)
    if len(u) == 1:
        a = u[0]
        return (a * (length / math.sqrt(a * a)),)
    return tuple(map(operator.mul, u, repeat(length / math.sqrt(sum(map(operator.mul, u, u))))))


def rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sum over the last axis of A * B (broadcast), coordinate by coordinate
    from the left, so that each entry rounds exactly as the scalar `dot`.
    The sum accumulates in the first product's array."""
    out = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        out += A[..., k] * B[..., k]
    return out


def check_same_dim(*items) -> int:
    dims = {it.dim for it in items}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def ground_array(X, dim: int) -> np.ndarray:
    """The rows of X as an (m, dim) float array: a GroundSet supplies its
    cached array, an array is taken as it is (as floats), and Points or
    coordinate tuples are stacked. Rows of any other dimension raise
    ValueError."""
    if isinstance(X, GroundSet):
        arr = X.array()
    elif isinstance(X, np.ndarray):
        arr = np.asarray(X, dtype=float)
    else:
        rows = [tuple(r) for r in X]
        same = set(map(len, rows)) <= {dim}
        arr = np.array(rows, dtype=float).reshape(len(rows), dim) if same else None
    if arr is None or arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected rows of {dim} coordinates")
    return arr


def ground_points(X, dim: int | None = None) -> tuple:
    """The Points of a ground X, as a sequence, and its rows as an (n, dim)
    array (`ground_array`). A GroundSet is its own sequence, with its cached
    array, so a caller can pass on what it read at no cost; any other
    iterable of Points is read once into a list. `dim` defaults to the
    first point's."""
    if isinstance(X, GroundSet):
        pts, rows = X, X
    else:
        pts = list(X)
        rows = [p.coords for p in pts]
    return pts, ground_array(rows, (pts[0].dim if pts else 0) if dim is None else dim)


def coord_array(rows, dim: int) -> np.ndarray:
    """`ground_array(rows, dim)` as a read-only copy whose coordinates are
    checked to be finite, failing with ValueError as `Point` does for one
    point."""
    arr = np.array(ground_array(rows, dim))
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate")
    arr.flags.writeable = False
    return arr


def ground_spacing(pts, rows: np.ndarray) -> float:
    """The smallest positive spacing of a ground read by `ground_points`:
    a grid's smallest axis step, else the smallest positive distance
    between two of its rows, each the square root of the squared
    differences summed coordinate by coordinate (`rowdot`); inf for fewer
    than two rows."""
    if isinstance(pts, GroundSet) and pts.axes is not None:
        return min(step for _, _, step in pts.axes)
    res = math.inf
    with np.errstate(over="ignore"):
        for blk in row_blocks(len(rows), len(rows) * rows.shape[1]):
            T = rows[blk, None] - rows[None]
            d = np.sqrt(rowdot(T, T))
            d = d[d > 0.0]
            if d.size:
                res = min(res, float(d.min()))
    return res


def row_blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices of range(n) with at most BLOCK_ENTRIES // width
    rows each (at least one): the blocks of a pass over rows of `width`
    entries."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    return [slice(s, min(n, s + step)) for s in range(0, n, step)]


def blocks(sizes):
    """Consecutive slices of range(len(sizes)) whose sizes sum to at most
    BLOCK_ENTRIES, with at least one item each: the blocks of a pass over
    items of uneven sizes."""
    ends = np.cumsum(sizes)
    s = 0
    while s < len(ends):
        e = int(np.searchsorted(ends, (ends[s - 1] if s else 0) + BLOCK_ENTRIES, side="right"))
        e = max(e, s + 1)
        yield slice(s, e)
        s = e


def axis_lattice(lo: float, hi: float, step: float) -> list[float]:
    """Coordinates lo + i * step inside [lo, hi], rounded to the lattice
    decimals; grids and box samples take their coordinates from here."""
    for what, value in (("bound", lo), ("bound", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"grid {what} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty axis range [{lo}, {hi}]")
    n = int(math.floor((hi - lo) / step + 0.5))
    # hi may fall off-lattice; enumerate only lattice points inside [lo, hi].
    while lo + n * step > hi + step * 1e-9:
        n -= 1
    return [round(lo + i * step, _LATTICE_DECIMALS) for i in range(n + 1)]


@dataclass(frozen=True)
class GroundSet:
    """A finite, ordered set of distinct points of common dimension."""

    points: tuple[Point, ...]
    axes: tuple[tuple[float, float, float], ...] | None = None  # (lo, hi, step) per axis

    def __post_init__(self):
        if not self.points:
            raise ValueError("ground set must be non-empty")
        check_same_dim(*self.points)
        if len({p.coords for p in self.points}) != len(self.points):
            raise ValueError("ground set points must be distinct")

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __contains__(self, p: Point) -> bool:
        return p.coords in self._index()

    def _index(self) -> frozenset:
        idx = getattr(self, "_idx", None)
        if idx is None:
            idx = frozenset(p.coords for p in self.points)
            object.__setattr__(self, "_idx", idx)
        return idx

    def array(self) -> np.ndarray:
        """The coordinates as a read-only (n, dim) float array, built once."""
        arr = getattr(self, "_arr", None)
        if arr is None:
            arr = np.array([p.coords for p in self.points], dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, "_arr", arr)
        return arr

    @classmethod
    def explicit(cls, points) -> "GroundSet":
        return cls(tuple(points))

    @classmethod
    def grid(cls, axes) -> "GroundSet":
        """Axis-aligned lattice from per-axis (lo, hi, step) clauses.

        A clause may omit the step ((lo, hi)), in which case the default for
        the grid's dimension applies.
        """
        axes = [tuple(a) for a in axes]
        dim = len(axes)
        full = []
        for a in axes:
            if len(a) == 2:
                a = (a[0], a[1], DEFAULT_STEP.get(dim, 0.05))
            if len(a) != 3:
                raise ValueError(f"axis clause must be (lo, hi[, step]), got {a}")
            full.append((float(a[0]), float(a[1]), float(a[2])))
        lattices = [axis_lattice(lo, hi, step) for lo, hi, step in full]
        points = tuple(Point(c) for c in product(*lattices))
        return cls(points, axes=tuple(full))

    def extended(self, margin: float) -> "GroundSet":
        """Grid enlarged by `margin` on every axis, keeping the step."""
        if self.axes is None:
            raise ValueError("only grid-sourced ground sets can be extended")
        return GroundSet.grid([(lo - margin, hi + margin, step) for lo, hi, step in self.axes])


def parse_grid_spec(spec: str) -> GroundSet:
    """Parse 'lo:hi:step[,lo:hi:step...]' (one clause per dimension)."""
    axes = []
    for clause in spec.split(","):
        parts = clause.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad grid clause {clause!r}; expected lo:hi:step")
        axes.append(tuple(float(p) for p in parts))
    return GroundSet.grid(axes)
