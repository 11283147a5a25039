#!/usr/bin/env python3
"""Descent demo on the radial fixture: run, check diagnostics, emit a trace.

Usage: python scripts/radial_descent_demo.py [trace.csv]
"""

import sys
import time

from prefmax import (
    descend_fixture,
    emit_trace,
    gap_convergence_stat,
    get_fixture,
    quasi_fejer_check,
)


def main() -> int:
    fixture = get_fixture("radial-bowl")
    target = fixture.reference
    start = time.perf_counter()
    trace = descend_fixture("radial-bowl", (0.0, 0.0), theta0=1.0, max_iters=10_000)
    runtime = time.perf_counter() - start

    dists = trace.distances()
    print(f"start (0, 0), target {tuple(target.coords)}")
    print(f"termination: {trace.termination} after {len(trace) - 1} steps "
          f"({runtime * 1000:.0f} ms)")
    print(f"final point: {tuple(trace.final_point.coords)}")
    print(f"final distance: {dists[-1]:.3e}")
    print(f"quasi-Fejer inequality holds: {quasi_fejer_check(trace, target, L=1.0)}")
    print(f"max |gap| over last 5% of iterates: "
          f"{gap_convergence_stat(trace, fixture.gap, target):.3e}")

    out = sys.argv[1] if len(sys.argv) > 1 else "radial_trace.csv"
    emit_trace(trace, "json" if out.endswith(".json") else "csv", out)
    print(f"trace written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
