"""Points in R^n and finite ground sets (explicit lists or axis-aligned grids)."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
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

_INF = math.inf
_TINY = sys.float_info.min  # the least normal float


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


def scaled_to(u, length: float) -> tuple[float, ...]:
    """u times length / ||u||: the vector of norm `length` along u, ||u||
    the square root of the squares added left to right from the int 0, as
    Python 3.11's `sum` adds floats (3.12's compensates). A u whose norm is
    0.0 raises ZeroDivisionError. In 1-D and 2-D the arithmetic is written
    out coordinate by coordinate and gives the same numbers as the `map`
    and left-fold expressions of dimension 3 and up (0 + a*a == a*a). Only
    where the
    squares sum to less than the least normal float (0.0 or a subnormal,
    which keeps few digits) or to inf while every coordinate is finite and
    one is nonzero, u is first divided by its largest magnitude m: u / m
    has the same direction, and its squares sum to between 1 and dim. Every
    other u keeps the floats of the one expression, so a zero u raises, one
    with an infinite coordinate is scaled by 0.0, and one with a nan
    coordinate comes out nan."""
    u = tuple(u)
    if len(u) == 2:
        a, b = u
        q = a * a + b * b
        if _TINY <= q < _INF:
            s = length / math.sqrt(q)
            return (a * s, b * s)
    elif len(u) == 1:
        a = u[0]
        q = a * a
        if _TINY <= q < _INF:
            return (a * (length / math.sqrt(q)),)
    else:
        q = reduce(operator.add, map(operator.mul, u, u), 0)
        if _TINY <= q < _INF:
            return tuple(map(operator.mul, u, repeat(length / math.sqrt(q))))
    m = max(map(abs, u), default=0.0)
    if 0.0 < m < _INF and not math.isnan(q):
        return scaled_to(tuple(c / m for c in u), length)
    return tuple(map(operator.mul, u, repeat(length / math.sqrt(q))))


def rowdot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sum over the last axis of A * B (broadcast), coordinate by coordinate
    from the left, so that each entry rounds exactly as the scalar `dot`.
    The sum accumulates in the first product's array."""
    out = A[..., 0] * B[..., 0]
    for k in range(1, A.shape[-1]):
        out += A[..., k] * B[..., k]
    return out


_EPS = sys.float_info.epsilon
_SAFE_LO, _SAFE_HI = 2.0 ** -450, 2.0 ** 450  # factors `_two_product` splits exactly


def _two_product(a, b):
    """fl(a b) and its error, exactly (Dekker, with Veltkamp's 2^27 + 1)."""
    x = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return x, al * bl - (((x - ah * bh) - al * bh) - ah * bl)


@np.errstate(over="ignore", invalid="ignore")
def dot_signs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The exact sign (-1, 0 or 1, as int8) of <a, b> for the rows of A and B
    along the last axis, broadcast; cross(a, b) is <(a_0, -a_1), (b_1, b_0)>.
    A float filter settles each `rowdot` that clears (dim + 1) eps
    sum_k |a_k b_k| (Shewchuk, DCG 1997). In 2-D the rest compare the two
    products exactly: rounding is monotone, so fl(p) > fl(q) means p > q,
    and where they round alike their rounding errors decide
    (`_two_product`). Factors outside [2^-450, 2^450], and other
    dimensions, go to `fractions.Fraction`."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=float), np.asarray(B, dtype=float))
    shape, dim = A.shape[:-1], A.shape[-1]
    A, B = A.reshape(-1, dim), B.reshape(-1, dim)
    s = rowdot(A, B)
    bound = (dim + 1) * _EPS * rowdot(np.abs(A), np.abs(B))
    out = np.sign(s).astype(np.int8)
    unsure = ~((np.abs(s) > bound) & (bound >= 2.0 ** -960))
    if unsure.any():
        Au, Bu = A[unsure], B[unsure]
        mags = np.abs(np.concatenate((Au, Bu), axis=1))
        fast = ((mags == 0.0) | ((mags >= _SAFE_LO) & (mags <= _SAFE_HI))).all(axis=1) & (dim == 2)
        sign = np.zeros(len(Au), dtype=np.int8)
        if fast.any():
            p, ep = _two_product(Au[fast, 0], Bu[fast, 0])
            q, eq = _two_product(-Au[fast, 1], Bu[fast, 1])
            sign[fast] = np.sign(np.where(p != q, p - q, ep - eq))
        if not fast.all():  # rare: fractions is not imported at start-up
            from fractions import Fraction

            sign[~fast] = [(t > 0) - (t < 0) for t in (
                sum(map(operator.mul, map(Fraction, a), map(Fraction, b)))
                for a, b in zip(Au[~fast].tolist(), Bu[~fast].tolist()))]
        out[unsure] = sign
    return out.reshape(shape)


def _rescaled(A: np.ndarray, Q: np.ndarray) -> tuple:
    """The rows of A that `scaled_to` first divides by their largest
    |coordinate| m, given their sums of squares Q (`rowdot`): those with Q
    below the least normal float or inf and m finite and nonzero (none if
    those rows are zero). Returns their indices and their m."""
    odd = ((Q < _TINY) | (Q == _INF)).nonzero()[0]
    if not (odd.size and np.count_nonzero(Z := A[odd])):
        return odd[:0], None
    m = np.abs(Z).max(axis=1)
    keep = (0.0 < m) & (m < _INF)
    return odd[keep], m[keep]


@np.errstate(over="ignore", invalid="ignore")
def row_norms(A: np.ndarray) -> np.ndarray:
    """||a|| for every row a of an array A, its rows running along the last
    axis, as `scaled_to` computes it: the squares summed coordinate by
    coordinate (`rowdot`) and a correctly rounded square root, or m ||a / m||
    where `scaled_to` rescales a (`_rescaled`). The result has A's shape
    without its last axis. Overflow and nan stay silent."""
    R = A.reshape(-1, A.shape[-1])
    Q = rowdot(R, R)
    out = np.sqrt(Q)
    odd, m = _rescaled(R, Q)
    if odd.size:
        out[odd] = m * row_norms(R[odd] / m[:, None])
    return out.reshape(A.shape[:-1])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def unit_rows(A: np.ndarray) -> np.ndarray:
    """The rows of an array A, along its last axis, scaled to unit length,
    each finite nonzero row with the floats of `scaled_to(row, 1.0)`; a zero
    or non-finite row comes out nan or zero, silently."""
    R = A.reshape(-1, A.shape[-1])
    Q = rowdot(R, R)
    out = R * (1.0 / np.sqrt(Q))[:, None]
    odd, m = _rescaled(R, Q)
    if odd.size:
        out[odd] = unit_rows(R[odd] / m[:, None])
    return out.reshape(A.shape)


def tol_floor(D: np.ndarray, tol: float) -> np.ndarray:
    """-tol (1 + ||d||) for every row d of D, ||d|| from `row_norms`: the
    floor that a product <w, d> of the Stampacchia inequality, or a gap of
    the zero probe, fails below; negated, the ceiling of the Minty one.
    Where the squares of d overflow, ||d|| is still its length, not inf."""
    return -tol * (1.0 + row_norms(D))


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


def ground_neighbours(rows: np.ndarray) -> np.ndarray:
    """The neighbours of each row of a ground's (n, dim) array on the
    ground's own per-axis coordinate lattice, as an (n, 3^dim - 1) array of
    row indices: on each axis a neighbour has the row's own coordinate or
    the next distinct coordinate of the ground below or above it, the
    offsets in the order of `itertools.product` over (-1, 0, 1) per axis,
    the row itself left out, and -1 where the ground has no such row. A
    grid's neighbours are its points one step away along each axis and
    diagonal. Rows are matched by their per-axis ranks, packed into one
    int key each and looked up in the sorted keys."""
    n, dim = rows.shape
    offsets = np.array([o for o in product((-1, 0, 1), repeat=dim) if any(o)], dtype=np.int64)
    if not n:
        return np.empty((0, len(offsets)), dtype=np.int64)
    key, stride = np.zeros(n, dtype=np.int64), 1
    for k in range(dim - 1, -1, -1):
        col = rows[:, k]
        vals = np.sort(col)
        vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
        # ranks shifted by one, and one spare rank on each side, so that no
        # offset wraps onto another rank
        key += (np.searchsorted(vals, col) + 1) * stride
        offsets[:, k] *= stride
        stride *= len(vals) + 2
    order = np.argsort(key, kind="stable")
    keys = key[order]
    want = key[:, None] + offsets.sum(axis=1)
    at = np.minimum(np.searchsorted(keys, want), n - 1)
    return np.where(keys[at] == want, order[at], -1)


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
    between two of its rows (`row_norms`); inf for fewer than two rows."""
    if isinstance(pts, GroundSet) and pts.axes is not None:
        return min(step for _, _, step in pts.axes)
    res = math.inf
    with np.errstate(over="ignore"):
        for blk in row_blocks(len(rows), len(rows) * rows.shape[1]):
            d = row_norms(rows[blk, None] - rows[None])
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


def centred_lattice(c: float, reach: float, step: float) -> list[float]:
    """Coordinates c + k * step for |k| <= reach / step (with the slack of
    `axis_lattice`'s upper end), rounded to the lattice decimals: c itself
    (k = 0) and as many points on each side of it, whatever reach and step
    are; c alone where reach is not positive."""
    n = int(math.floor(reach / step + 1e-9)) if reach > 0 else 0
    return [round(c + k * step, _LATTICE_DECIMALS) for k in range(-n, n + 1)]


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
