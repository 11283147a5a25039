"""Subgradient-style descent through the gap-relaxed normal cone.

Each step moves against a cone element of norm at most L with diminishing
steps (divergent sum, summable squares). The trace records every iterate and
enough diagnostics to re-check the quasi-Fejer inequality after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
from typing import Callable

from .plastria import GapFunction
from .points import Point


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
    rows: tuple[TraceRow, ...]
    termination: str  # "zeroSubgradient" | "maxIters" | "normBelowEps"
    reference: Point | None = None
    lipschitz: float | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def final_point(self) -> Point:
        return self.rows[-1].x

    def distances(self) -> list[float]:
        if self.reference is None:
            raise ValueError("trace has no reference point")
        ref = tuple(self.reference)
        return [_dist(r.x, ref) for r in self.rows]


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
    A non-finite oracle output or iterate raises ValueError, as `Point`
    does. Each iterate's distance to the reference is computed once: the
    distance of x_{k+1} found for row k's Fejer residual is row k+1's.
    """
    schedule.validate()
    L = config.lipschitz
    bound = L * (1.0 + 1e-12)
    eps = config.eps
    theta_of = schedule.theta
    ref = tuple(reference) if reference is not None else None
    with_gap = gap is not None and ref is not None
    rows: list[TraceRow] = []
    point, x = x1, tuple(x1)
    d = _dist(x, ref) if ref is not None else None
    termination = "maxIters"
    for k in range(1, config.max_iters + 1):
        xs = tuple(oracle(x))
        nxs = _norm(xs)
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
            point_next = Point(tuple(map(sub, x, map(mul, xs, repeat(theta)))))
            x_next = point_next.coords
            d_next = residual = None
            if ref is not None:
                d_next = _dist(x_next, ref)
                residual = d_next * d_next - d * d - theta * theta * L * L
            rows.append(TraceRow(k, point, Point(xs), theta, d, g, residual))
            point, x, d = point_next, x_next, d_next
            continue
        rows.append(TraceRow(k, point, Point(xs), None, d, g, None))
        break
    else:
        g = gap(x, ref) if with_gap else None
        rows.append(TraceRow(config.max_iters + 1, point, None, None, d, g, None))
    return DescentTrace(tuple(rows), termination, reference=reference, lipschitz=L)


def quasi_fejer_check(trace: DescentTrace, reference: Point, L: float,
                      slack: float = 1e-10) -> bool:
    """The quasi-Fejer inequality, recomputed along the trace: each squared
    distance to the reference may grow by at most theta_k^2 L^2 plus a
    relative slack. The reference must be a maximal point the caller trusts
    to lie in every iterate's strictly-better set. Distances are recomputed
    from the iterates, once per iterate, not read from the trace."""
    ref = tuple(reference)
    d_prev = None
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        if prev.theta is None:
            d_prev = None
            continue
        if d_prev is None:
            d_prev = _dist(prev.x, ref)
        d_next = _dist(nxt.x, ref)
        budget = prev.theta * prev.theta * L * L
        if d_next * d_next > d_prev * d_prev + budget + slack * (1.0 + d_prev * d_prev):
            return False
        d_prev = d_next
    return True


def gap_convergence_stat(trace: DescentTrace, gap: GapFunction, reference: Point) -> float:
    """Max |f(x_k, reference)| over the last 5 percent of the iterates."""
    if not trace.rows:
        raise ValueError("empty trace")
    tail = max(1, math.ceil(0.05 * len(trace.rows)))
    return max(abs(gap(r.x.coords, reference.coords)) for r in trace.rows[-tail:])


def reconstruction_residuals(trace: DescentTrace) -> list[float]:
    """Relative residuals of x_{k+1} = x_k - theta_k x_k^* along the trace."""
    out = []
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        if prev.theta is None or prev.xstar is None:
            continue
        predicted = map(sub, prev.x, map(mul, prev.xstar, repeat(prev.theta)))
        out.append(_dist(nxt.x, predicted) / (1.0 + _norm(prev.x)))
    return out
