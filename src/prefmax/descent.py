"""Subgradient-style descent through the gap-relaxed normal cone.

Each step moves against a cone element of norm at most L with diminishing
steps (divergent sum, summable squares). The trace records every iterate and
enough diagnostics to re-check the quasi-Fejer inequality after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, count, repeat
from math import isfinite, sqrt
from operator import add, mul, sub, truediv
from typing import Callable, Iterator

import numpy as np

from .plastria import GapFunction
from .points import Point, float_coords, row_norms


# The ways a run ends, as `DescentTrace.termination` names them.
TERMINATIONS = ("zeroSubgradient", "maxIters", "normBelowEps")


class ScheduleValidationError(ValueError):
    pass


class OracleNormViolation(RuntimeError):
    pass


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes theta_k, k >= 1.

    kinds: "harmonic" (theta0 / k; divergent sum, squares below
    theta0^2 * pi^2 / 6), "list" (an explicit positive prefix of a schedule
    the caller already knows to be admissible), "constant" (always rejected:
    its squares sum diverges).
    """

    kind: str
    theta0: float = 1.0
    values: tuple[float, ...] = ()

    @classmethod
    def harmonic(cls, theta0: float = 1.0) -> "StepSchedule":
        return cls("harmonic", theta0=theta0)

    @classmethod
    def explicit(cls, values) -> "StepSchedule":
        return cls("list", values=tuple(float(v) for v in values))

    @classmethod
    def constant(cls, theta: float) -> "StepSchedule":
        return cls("constant", theta0=theta)

    def validate(self) -> None:
        if self.kind == "harmonic":
            if not isfinite(self.theta0):
                raise ScheduleValidationError(
                    f"harmonic schedule needs a finite theta0, got {self.theta0!r}")
            if self.theta0 <= 0:
                raise ScheduleValidationError("harmonic schedule needs theta0 > 0")
            return
        if self.kind == "list":
            if not self.values:
                raise ScheduleValidationError("explicit schedule is empty")
            for k, v in enumerate(self.values, 1):
                if not isfinite(v):
                    raise ScheduleValidationError(
                        f"explicit schedule has a non-finite step {v!r} at k = {k}")
            if any(v <= 0 for v in self.values):
                raise ScheduleValidationError("explicit schedule has a nonpositive step")
            return
        if self.kind == "constant":
            raise ScheduleValidationError(
                "constant steps are inadmissible: the sum of squares diverges")
        raise ScheduleValidationError(f"unknown schedule kind {self.kind!r}")

    def steps(self) -> Iterator[float | None]:
        """The steps theta_1, theta_2, ... without end: theta0 / k, or the
        listed values and then None."""
        if self.kind == "harmonic":
            return map(truediv, repeat(self.theta0), count(1))
        if self.kind == "list":
            return chain(self.values, repeat(None))
        return repeat(self.theta0)

    def prefix(self, n: int) -> np.ndarray:
        """theta_1, ..., theta_n as a float array, the first n values of
        `steps()`: theta0 / arange(1, n + 1) for a harmonic schedule, each
        entry the correctly rounded quotient that theta0 / k is, and the
        first n listed values of an explicit one (n at most their number)."""
        if self.kind == "harmonic":
            return self.theta0 / np.arange(1.0, n + 1.0)
        return np.array(self.values[:n], dtype=float)


@dataclass(frozen=True)
class DescentConfig:
    lipschitz: float
    max_iters: int = 10_000
    eps: float = 0.0  # 0 means: stop only on an exact zero cone element

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not isfinite(self.lipschitz):
            raise ValueError(f"lipschitz must be finite, got {self.lipschitz!r}")
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz bound must be positive")
        if not isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {self.eps!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")


@dataclass(frozen=True)
class TraceRow:
    k: int
    x: Point
    xstar: Point | None
    theta: float | None
    dist: float | None = None
    gap: float | None = None
    fejer_residual: float | None = None


@dataclass(frozen=True)
class DescentTrace:
    """A descent run kept as parallel columns; entry i of each is row k = i + 1.

    xs holds the iterates' coordinate tuples and xstars the cone elements'
    (None on the row after a spent budget); thetas the step taken (None where
    the run stopped); dists, gaps and residuals the distance and gap to the
    reference and the quasi-Fejer residual d_{k+1}^2 - d_k^2 - theta_k^2 L^2
    (None without a reference). `rows` builds Points and TraceRows from the
    columns on first access. `array` is xs as a read-only (n, dim) float
    array: the one `run_descent` stacked, or, for a trace built from its
    columns, stacked from xs on first access; it takes no part in eq, repr,
    hash or `rows`, and `dataclasses.replace` leaves it to be rebuilt.
    """

    xs: tuple[tuple[float, ...], ...]
    xstars: tuple[tuple[float, ...] | None, ...]
    thetas: tuple[float | None, ...]
    dists: tuple[float | None, ...]
    gaps: tuple[float | None, ...]
    residuals: tuple[float | None, ...]
    termination: str  # one of TERMINATIONS
    reference: Point | None = None
    lipschitz: float | None = None
    _array: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.xs)
        if any(len(c) != n for c in (self.xstars, self.thetas, self.dists, self.gaps,
                                     self.residuals)):
            raise ValueError("trace columns differ in length")

    @cached_property
    def rows(self) -> tuple[TraceRow, ...]:
        return tuple(
            TraceRow(k, Point(x), None if xstar is None else Point(xstar), theta, d, g, r)
            for k, x, xstar, theta, d, g, r in zip(count(1), self.xs, self.xstars, self.thetas,
                                                   self.dists, self.gaps, self.residuals))

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            object.__setattr__(self, "_array", _iterate_array(self.xs))
        return self._array

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def final_point(self) -> Point:
        return Point(self.xs[-1])


def _bounded_norm(xstar: tuple, bound: float, L: float, k: int) -> float:
    """||x*|| by `points.row_norms`; OracleNormViolation above the bound."""
    if (nxs := float(row_norms(np.array(xstar)))) > bound:
        raise OracleNormViolation(
            f"oracle output norm {nxs} exceeds the declared bound {L} at iteration {k}")
    return nxs


def run_descent(oracle: Callable[[tuple], tuple], x1: Point, schedule: StepSchedule,
                config: DescentConfig, reference: Point | None = None,
                gap: GapFunction | None = None) -> DescentTrace:
    """Iterate x_{k+1} = x_k - theta_k * x_k^* until the oracle returns zero,
    the cone element's norm drops to eps, or the iteration budget runs out.

    The oracle receives the iterate's coordinates as a tuple of floats and
    must return a cone element of norm at most L; violations are hard
    errors, not clamped, since the step-square budget depends on the bound.
    Its output is read once per step and converted with `float`. An output
    with another number of coordinates than the iterate raises ValueError
    at that step (after the coordinate checks of a Point made from it), and
    so does a reference of another dimension than x1, before the first
    step. A non-finite iterate or oracle output raises ValueError, as
    `Point` does, the iterate checked first. The loop carries only x, x*
    and theta_k (from `schedule.steps()`). Each step is screened by one
    number: a finite sum of x_{k+1}'s coordinates means every coordinate of
    x_{k+1} is finite, and so of x* (an infinite one exceeds the bound, a
    nan one makes x_{k+1} nan). Only where that sum is not finite are the
    coordinates checked one by one. For a 1-D or 2-D iterate this
    arithmetic (the conversion, ||x*||, x_{k+1} and its screen) is written
    out coordinate by coordinate; it gives the floats that the `map` and
    left-fold expressions of dimension 3 and up give, since the fold starts
    from the int 0 and 0 + a*a == a*a. The fold is `reduce(add, ..., 0)`,
    not `sum`, whose floats Python 3.12 compensates. An ||x*|| above the
    bound or at most eps is read again by `points.row_norms` before it
    raises or stops the run (`_bounded_norm`). After the loop the
    iterates are stacked once into the trace's `array`, and the theta
    column is the schedule's `prefix`. One array pass over them gives the
    distance and Fejer residual columns (`_fejer_columns`), bit for bit as
    the scalar `sqrt(sum(t*t ...))` over x - ref and `d'*d' - d*d -
    theta*theta*L*L` wherever the squares neither overflow nor underflow
    (see `_distance_column`), and one `GapFunction.column` pass the gaps
    (`_column`, as the iterates are tuples already): a gap that raises
    raises there, after every oracle call, not at its iterate's step.
    """
    schedule.validate()
    L = config.lipschitz
    bound = L * (1.0 + 1e-12)
    eps = config.eps
    ref = tuple(reference) if reference is not None else None
    xs, xstars = [], []
    x = tuple(x1)
    dim = len(x)
    if ref is not None and len(ref) != dim:
        raise ValueError(f"reference has {len(ref)} coordinates, the start {dim}")
    termination = "maxIters"
    for k, theta in zip(range(1, config.max_iters + 1), schedule.steps()):
        out = tuple(oracle(x))
        if len(out) != dim:
            float_coords(out)
            raise ValueError(f"oracle output has {len(out)} coordinates at iteration {k}, "
                             f"the iterate {dim}")
        if dim == 2:
            a, b = float(out[0]), float(out[1])
            xstar = (a, b)
            nxs = sqrt(a * a + b * b)
        elif dim == 1:
            a = float(out[0])
            xstar = (a,)
            nxs = sqrt(a * a)
        else:
            xstar = tuple(map(float, out))
            nxs = sqrt(reduce(add, map(mul, xstar, xstar), 0))
        if (nxs <= eps or nxs > bound) and (nxs := _bounded_norm(xstar, bound, L, k)) <= eps:
            termination = "zeroSubgradient" if nxs == 0.0 else "normBelowEps"
        elif theta is None:
            termination = "maxIters"
        else:
            if dim == 2:
                n0, n1 = x[0] - a * theta, x[1] - b * theta
                x_next = (n0, n1)
                finite = isfinite(n0 + n1)
            elif dim == 1:
                n0 = x[0] - a * theta
                x_next = (n0,)
                finite = isfinite(n0)
            else:
                x_next = tuple(map(sub, x, map(mul, xstar, repeat(theta))))
                finite = isfinite(reduce(add, x_next, 0))
            if not finite:
                _check_step(x, out, theta)
            xs.append(x)
            xstars.append(xstar)
            x = x_next
            continue
        xstar = float_coords(out)
        break
    else:
        xstar = None
    xs.append(x)
    xstars.append(xstar)
    n = len(xs)
    X = _iterate_array(xs, dim)
    T = schedule.prefix(n - 1)
    if ref is None:
        dists = gaps = residuals = (None,) * n
    else:
        dists, residuals = _fejer_columns(X, T, ref, L)
        gaps = (None,) * n if gap is None else tuple(gap._column(xs, ref))
    trace = DescentTrace(tuple(xs), tuple(xstars), (*T.tolist(), None), dists, gaps, residuals,
                         termination, reference=reference, lipschitz=L)
    object.__setattr__(trace, "_array", X)
    return trace


def _iterate_array(xs, dim: int | None = None) -> np.ndarray:
    """The iterates xs as a read-only (n, dim) float array, `dim` the
    first iterate's by default. Iterates of different dimensions raise
    ValueError."""
    if dim is None:
        dim = len(xs[0]) if xs else 0
        if set(map(len, xs)) - {dim}:
            raise ValueError("iterates differ in dimension")
    X = np.fromiter(chain.from_iterable(xs), float, len(xs) * dim).reshape(len(xs), dim)
    X.flags.writeable = False
    return X


def _distance_column(X: np.ndarray, ref: tuple) -> np.ndarray:
    """||x - ref|| for every row x of the iterate array X: `points.row_norms`
    of x - ref, which is `math.sqrt(sum(t * t ...))` wherever the squares
    sum to a normal float. A difference that overflows gives inf without a
    warning, as Python floats do. Iterates of another dimension than the
    reference raise ValueError."""
    dim = len(ref)
    if not len(X):
        return np.empty(0)
    if X.shape[1] != dim:
        raise ValueError(f"iterates and the {dim}-dimensional reference differ in dimension")
    with np.errstate(over="ignore"):
        return row_norms(X - np.array(ref, dtype=float))


def _overflowing(D: np.ndarray) -> np.ndarray:
    """The indices k of the pairs of consecutive distances D[k], D[k + 1]
    of which one is finite and has a square that overflows."""
    over = (D * D == math.inf) & (D < math.inf)
    return np.flatnonzero(over[:-1] | over[1:])


def _fejer_columns(X: np.ndarray, T: np.ndarray, ref: tuple, L: float) -> tuple[tuple, tuple]:
    """The dists and residuals columns of a run's trace from its iterate
    array X and the steps T it took. Every row but the last took a step,
    and its residual d_{k+1}^2 - d_k^2 - theta_k^2 L^2 is evaluated left to
    right, as the scalar expression is. Where a squared distance overflows
    (`_overflowing`), d_{k+1}^2 - d_k^2 is (d_{k+1} - d_k)(d_{k+1} + d_k),
    with the sum halved and the product doubled, which moves no float but
    keeps the sum of two distances near the largest float finite."""
    D = _distance_column(X, ref)
    with np.errstate(over="ignore", invalid="ignore"):
        R = D[1:] * D[1:] - D[:-1] * D[:-1] - T * T * L * L
        far = _overflowing(D)
        if far.size:
            prev, nxt = D[far], D[far + 1]
            R[far] = (nxt - prev) * (0.5 * nxt + 0.5 * prev) * 2.0 - T[far] * T[far] * L * L
    return tuple(D.tolist()), (*R.tolist(), None)


def _check_step(x: tuple, out: tuple, theta: float) -> None:
    """The coordinate checks of one step, for a step its norms cannot vouch
    for: the iterate x - theta x* first, then the oracle output, each
    computed from the output as the oracle returned it, so that a ValueError
    shows the values as a Point made from them would."""
    float_coords(tuple(map(sub, x, map(mul, out, repeat(theta)))))
    float_coords(out)


def quasi_fejer_check(trace: DescentTrace, reference: Point, L: float,
                      slack: float = 1e-10) -> bool:
    """The quasi-Fejer inequality, recomputed along the trace: each squared
    distance to the reference may grow by at most theta_k^2 L^2 plus a
    relative slack. The reference must be a maximal point the caller trusts
    to lie in every iterate's strictly-better set. Distances are recomputed
    in one array pass (`_distance_column`) over the trace's iterate array
    (`DescentTrace.array`: the one the run stacked, or one stacked from xs
    on first use), not read from the trace's dists. Iterates of different
    dimensions, or of another dimension than the reference, raise
    ValueError. A row without a step reads its theta as nan, and a nan
    budget fails no comparison, so such a row decides nothing. Where a
    squared distance overflows (`_overflowing`), the pair is compared in
    units of the larger distance m, with d'^2 - d^2 as (d' - d)(d' + d);
    where a distance is inf, so is m, and the pair's rows and reference are
    first scaled by 2^-e, 2^e at or above their largest |coordinate|."""
    X = trace.array
    D = _distance_column(X, tuple(reference))
    T = np.fromiter(trace.thetas, float, max(len(trace) - 1, 0))
    prev, nxt = D[:-1], D[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        grown = nxt * nxt > prev * prev + T * T * L * L + slack * (1.0 + prev * prev)
        far = _overflowing(D)
        if far.size:
            m = np.maximum(prev[far], nxt[far])
            p, q, b = prev[far] / m, nxt[far] / m, T[far] * L / m
            grown[far] = (q - p) * (q + p) > b * b + slack * (1.0 / m / m + p * p)
        lost = np.flatnonzero(np.isinf(prev) | np.isinf(nxt))
        if lost.size:
            ref, pair = np.array(tuple(reference), dtype=float), np.stack((X[lost], X[lost + 1]))
            e = -np.frexp(np.maximum(np.abs(pair).max(axis=(0, 2)), np.abs(ref).max()))[1]
            p, q = (row_norms(np.ldexp(R, e[:, None]) - np.ldexp(ref, e[:, None])) for R in pair)
            m = np.maximum(p, q)
            p, q, b, s = p / m, q / m, np.ldexp(T[lost] * L / m, e), np.ldexp(1.0 / m, e)
            grown[lost] = (q - p) * (q + p) > b * b + slack * (s * s + p * p)
    return not grown.any()


def gap_convergence_stat(trace: DescentTrace, gap: GapFunction, reference: Point) -> float:
    """Max |f(x_k, reference)| over the last 5 percent of the iterates."""
    if not trace.xs:
        raise ValueError("empty trace")
    tail = max(1, math.ceil(0.05 * len(trace.xs)))
    return max(map(abs, gap.column(trace.xs[-tail:], reference.coords)))
