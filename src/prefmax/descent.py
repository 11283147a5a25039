"""Subgradient-style descent through the gap-relaxed normal cone.

Each step moves against a cone element of norm at most L with diminishing
steps (divergent sum, summable squares). The trace records every iterate and
enough diagnostics to re-check the quasi-Fejer inequality after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from operator import mul, sub
from typing import Callable

from .plastria import GapFunction
from .points import Point, float_coords


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
            if self.theta0 <= 0:
                raise ScheduleValidationError("harmonic schedule needs theta0 > 0")
            return
        if self.kind == "list":
            if not self.values:
                raise ScheduleValidationError("explicit schedule is empty")
            if any(v <= 0 for v in self.values):
                raise ScheduleValidationError("explicit schedule has a nonpositive step")
            return
        if self.kind == "constant":
            raise ScheduleValidationError(
                "constant steps are inadmissible: the sum of squares diverges")
        raise ScheduleValidationError(f"unknown schedule kind {self.kind!r}")

    def theta(self, k: int) -> float | None:
        """Step for iteration k (1-indexed); None when an explicit list runs out."""
        if self.kind == "harmonic":
            return self.theta0 / k
        if self.kind == "list":
            return self.values[k - 1] if k <= len(self.values) else None
        return self.theta0

    def partial_sums(self, horizon: int) -> tuple[float, float]:
        """(sum theta_k, sum theta_k^2) over k = 1..horizon."""
        s = s2 = 0.0
        for k in range(1, horizon + 1):
            t = self.theta(k)
            if t is None:
                break
            s += t
            s2 += t * t
        return s, s2


@dataclass(frozen=True)
class DescentConfig:
    lipschitz: float
    max_iters: int = 10_000
    eps: float = 0.0  # 0 means: stop only on an exact zero cone element

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.lipschitz <= 0:
            raise ValueError("Lipschitz bound must be positive")
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
    columns on first access.
    """

    xs: tuple[tuple[float, ...], ...]
    xstars: tuple[tuple[float, ...] | None, ...]
    thetas: tuple[float | None, ...]
    dists: tuple[float | None, ...]
    gaps: tuple[float | None, ...]
    residuals: tuple[float | None, ...]
    termination: str  # "zeroSubgradient" | "maxIters" | "normBelowEps"
    reference: Point | None = None
    lipschitz: float | None = None

    def __post_init__(self):
        n = len(self.xs)
        if any(len(c) != n for c in (self.xstars, self.thetas, self.dists, self.gaps,
                                     self.residuals)):
            raise ValueError("trace columns differ in length")

    @classmethod
    def from_rows(cls, rows, termination: str, reference: Point | None = None,
                  lipschitz: float | None = None) -> "DescentTrace":
        """The trace of TraceRows numbered k = 1..n."""
        rows = tuple(rows)
        for k, r in enumerate(rows, 1):
            if r.k != k:
                raise ValueError(f"row {k} has k = {r.k!r}; trace rows are numbered 1..n")
        return cls(tuple(r.x.coords for r in rows),
                   tuple(None if r.xstar is None else r.xstar.coords for r in rows),
                   tuple(r.theta for r in rows), tuple(r.dist for r in rows),
                   tuple(r.gap for r in rows), tuple(r.fejer_residual for r in rows),
                   termination, reference=reference, lipschitz=lipschitz)

    def records(self):
        """(k, x, xstar, theta, dist, gap, residual) per row, read off the columns."""
        return zip(count(1), self.xs, self.xstars, self.thetas, self.dists, self.gaps,
                   self.residuals)

    @cached_property
    def rows(self) -> tuple[TraceRow, ...]:
        return tuple(
            TraceRow(k, Point(x), None if xstar is None else Point(xstar), theta, d, g, r)
            for k, x, xstar, theta, d, g, r in self.records())

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def final_point(self) -> Point:
        return Point(self.xs[-1])

    def distances(self) -> list[float]:
        if self.reference is None:
            raise ValueError("trace has no reference point")
        ref = tuple(self.reference)
        return [_dist(x, ref) for x in self.xs]


def _norm(a) -> float:
    return math.sqrt(sum(map(mul, a, a)))


def _dist(a, b) -> float:
    """||a - b||, summed coordinate by coordinate from the first."""
    t = list(map(sub, a, b))
    return math.sqrt(sum(map(mul, t, t)))


def run_descent(oracle: Callable[[tuple], tuple], x1: Point, schedule: StepSchedule,
                config: DescentConfig, reference: Point | None = None,
                gap: GapFunction | None = None) -> DescentTrace:
    """Iterate x_{k+1} = x_k - theta_k * x_k^* until the oracle returns zero,
    the cone element's norm drops to eps, or the iteration budget runs out.

    The oracle receives the iterate's coordinates as a tuple of floats and
    must return a cone element of norm at most L; violations are hard
    errors, not clamped, since the step-square budget depends on the bound.
    A non-finite iterate or oracle output raises ValueError, as `Point`
    does, the iterate checked first; both are stored as float tuples. Each
    iterate's distance to the reference is computed once: the distance of
    x_{k+1} found for row k's Fejer residual is row k+1's.
    """
    schedule.validate()
    L = config.lipschitz
    bound = L * (1.0 + 1e-12)
    eps = config.eps
    theta_of = schedule.theta
    ref = tuple(reference) if reference is not None else None
    with_gap = gap is not None and ref is not None
    rows: list[tuple] = []  # (x, xstar, theta, dist, gap, residual) per row
    x = tuple(x1)
    d = _dist(x, ref) if ref is not None else None
    termination = "maxIters"
    for k in range(1, config.max_iters + 1):
        xstar = tuple(oracle(x))
        nxs = _norm(xstar)
        if nxs > bound:
            raise OracleNormViolation(
                f"oracle output norm {nxs} exceeds the declared bound {L} at iteration {k}")
        g = gap(x, ref) if with_gap else None
        if nxs == 0.0:
            termination = "zeroSubgradient"
        elif eps > 0.0 and nxs <= eps:
            termination = "normBelowEps"
        elif (theta := theta_of(k)) is None:
            termination = "maxIters"
        else:
            x_next = float_coords(tuple(map(sub, x, map(mul, xstar, repeat(theta)))))
            d_next = residual = None
            if ref is not None:
                d_next = _dist(x_next, ref)
                residual = d_next * d_next - d * d - theta * theta * L * L
            rows.append((x, float_coords(xstar), theta, d, g, residual))
            x, d = x_next, d_next
            continue
        rows.append((x, float_coords(xstar), None, d, g, None))
        break
    else:
        g = gap(x, ref) if with_gap else None
        rows.append((x, None, None, d, g, None))
    return DescentTrace(*zip(*rows), termination, reference=reference, lipschitz=L)


def quasi_fejer_check(trace: DescentTrace, reference: Point, L: float,
                      slack: float = 1e-10) -> bool:
    """The quasi-Fejer inequality, recomputed along the trace: each squared
    distance to the reference may grow by at most theta_k^2 L^2 plus a
    relative slack. The reference must be a maximal point the caller trusts
    to lie in every iterate's strictly-better set. Distances are recomputed
    from the iterates, once per iterate, not read from the trace."""
    ref = tuple(reference)
    xs = trace.xs
    d_prev = None
    for theta, x, x_next in zip(trace.thetas, xs, xs[1:]):
        if theta is None:
            d_prev = None
            continue
        if d_prev is None:
            d_prev = _dist(x, ref)
        d_next = _dist(x_next, ref)
        budget = theta * theta * L * L
        if d_next * d_next > d_prev * d_prev + budget + slack * (1.0 + d_prev * d_prev):
            return False
        d_prev = d_next
    return True


def gap_convergence_stat(trace: DescentTrace, gap: GapFunction, reference: Point) -> float:
    """Max |f(x_k, reference)| over the last 5 percent of the iterates."""
    if not trace.xs:
        raise ValueError("empty trace")
    tail = max(1, math.ceil(0.05 * len(trace.xs)))
    return max(abs(gap(x, reference.coords)) for x in trace.xs[-tail:])


def reconstruction_residuals(trace: DescentTrace) -> list[float]:
    """Relative residuals of x_{k+1} = x_k - theta_k x_k^* along the trace."""
    out = []
    xs = trace.xs
    for theta, xstar, x, x_next in zip(trace.thetas, trace.xstars, xs, xs[1:]):
        if theta is None or xstar is None:
            continue
        predicted = map(sub, x, map(mul, xstar, repeat(theta)))
        out.append(_dist(x_next, predicted) / (1.0 + _norm(x)))
    return out
