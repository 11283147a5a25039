"""Points in R^n and finite ground sets (explicit lists or axis-aligned grids)."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

# Absolute per-coordinate tolerance for treating two generated points as equal.
COORD_ATOL = 1e-12

# Default grid steps by dimension (1-D fine, 2-D coarser per axis).
DEFAULT_STEP = {1: 0.01, 2: 0.05}

# Lattice coordinates are rounded to this many decimals so that generated
# grids have stable, hashable coordinates (grids are generated, not measured).
_LATTICE_DECIMALS = 12


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


def dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def sub(a, b) -> tuple[float, ...]:
    return tuple(x - y for x, y in zip(a, b))


def scale(a, s: float) -> tuple[float, ...]:
    return tuple(x * s for x in a)


def norm(a) -> float:
    return math.sqrt(sum(map(operator.mul, a, a)))


def dist(a, b) -> float:
    """||a - b||, summed coordinate by coordinate from the first."""
    t = list(map(operator.sub, a, b))
    return math.sqrt(sum(map(operator.mul, t, t)))


def points_close(a: Point, b: Point, atol: float = COORD_ATOL) -> bool:
    if a.dim != b.dim:
        return False
    return all(abs(x - y) <= atol for x, y in zip(a, b))


def check_same_dim(*items) -> int:
    dims = {it.dim for it in items}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def coord_array(rows, dim: int) -> np.ndarray:
    """Rows of coordinates (Points, tuples or an array) as a read-only
    (m, dim) float array. Shape and finiteness are checked once for the whole
    array, and fail with ValueError as `Point` does for one point."""
    if isinstance(rows, np.ndarray):
        arr = np.array(rows, dtype=float)
    else:
        rows = [tuple(r) for r in rows]
        arr = np.array(rows, dtype=float) if rows else np.empty((0, dim))
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected rows of {dim} coordinates")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate")
    arr.flags.writeable = False
    return arr


def ground_array(X, dim: int) -> np.ndarray:
    """Coordinates of the points of X as an (n, dim) array; a GroundSet
    supplies its cached array."""
    if isinstance(X, GroundSet):
        return X.array()
    return np.array([tuple(y) for y in X], dtype=float).reshape(-1, dim)


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

    def resolution(self) -> float:
        """Smallest positive spacing; half of this is the segment-membership slack."""
        if self.axes is not None:
            return min(step for _, _, step in self.axes)
        res = math.inf
        for i, p in enumerate(self.points):
            for q in self.points[i + 1:]:
                d = dist(p, q)
                if 0 < d < res:
                    res = d
        return res

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
