"""prefmax benchmark: one closed-loop run of one workload.

    python3 bench/run.py --workload suites --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; prefmax is imported from its
`src/` directory. A run starts WORKERS worker processes one after another
(worker.py), each for an equal share of `--seconds`, so one process runs at
a time, with one client. Each worker times its own set-up, checks every
op's output against a reference computed before timing, runs one untimed
warm-up pass and then timed passes, and puts its times on the nominal
host's speed (hostspeed.py). `setup_s` and `wall_s` (the sum of a worker's
op latencies) are medians over the workers; `op_s.p50`/`op_s.p90` are
quantiles of all timed latencies of the run. The first worker also runs
the known-defect ops once, untimed. With `--trace 1` a single traced
worker reports per-layer numbers instead (see metrics.py). The last line
of standard output is the result as JSON; a fuller record goes to
bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import workloads  # noqa: E402
from worker import THREAD_VARS  # noqa: E402  (pins the thread pools in this process too)

WORKERS = 2
SETUP_PROBES = 3  # fresh-interpreter set-ups per run; the workers' count toward them
RUN_BUDGET_S = 150.0  # the workers stop adding passes past this, to end within 180 s


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(workload: str, seed: int, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_BUDGET_S + 25)
    if proc.returncode != 0:
        fail(f"worker failed:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(result["prefmax"]).startswith(SRC + os.sep):
        fail(f"worker imported prefmax from {result['prefmax']}, not from {SRC}")
    return result


def environment() -> dict:
    return {
        "processes": f"1 at a time ({WORKERS} workers per run, one after another)",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "platform": platform.platform(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "prefmax", "__init__.py")):
        fail(f"no prefmax sources under {SRC}; run from a prefmax checkout")
    known = workloads.WORKLOADS + workloads.GRID_WORKLOADS
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}; expected one of {known}")
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        runs = [start_worker(args.workload, args.seed, "--trace", "1", "--defects")]
    else:
        runs = []
        for i in range(WORKERS):
            budget = (RUN_BUDGET_S - (time.perf_counter() - started)) / (WORKERS - i)
            runs.append(start_worker(args.workload, args.seed, "--seconds",
                                     str(args.seconds / WORKERS), "--budget-s", str(budget),
                                     *(["--defects"] if i == 0 else [])))
    # a traced worker's set-up is not timed cleanly, so it does not count
    probes = [r["setup"] for r in runs if not args.trace]
    probes += [start_worker(args.workload, args.seed, "--setup-only")["setup"]
               for _ in range(SETUP_PROBES - len(probes))]

    op_latencies = [t for r in runs for t in r["latencies_s"]]
    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    defects = runs[0]["known_defects"]
    if args.trace:
        layer = dict(runs[0]["layer"])
        layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layer["setup.registry_s"] = statistics.median(p["registry_s"] for p in probes)
        layer["cli.known_defects"] = float(sum(d["reproduces"] for d in defects))
        catalogue = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        values = {name: layer[name] for name in catalogue}
    else:
        deciles = statistics.quantiles(op_latencies, n=10, method="inclusive")
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(sum(r["op_s"]) for r in runs),
            "op_s.p50": deciles[4],
            "op_s.p90": deciles[8],
            "pass_ratio": 1.0 - len(failures) / attempted,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        catalogue = {name: unit for name, unit, *_ in metrics.END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "ops_per_pass": len(runs[0]["labels"]),
        "op_s.samples": len(op_latencies),
        "setup_probes": probes,
        "workers": [{k: r[k] for k in ("setup", "raw_wall_s", "pass_wall_s", "pass_host_scale",
                                       "peak_rss_mb", "worker_s")}
                    | {"wall_s": sum(r["op_s"]), "op_s": dict(zip(r["labels"], r["op_s"]))}
                    for r in runs],
        "failures": failures,
        "known_defects": defects,
        "absent": runs[0].get("absent", []),
        "metrics": values,
        "run_s": time.perf_counter() - started,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in catalogue.items():
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print(f"{'op_s.samples':40s} {len(op_latencies)}  (timed ops over {len(runs)} workers; "
          f"{record['ops_per_pass']} ops per pass)")
    for f in failures[:record["ops_per_pass"]]:
        print(f"FAILED op {f['id']}: {f['op']}: {f['detail']}")
    for d in defects:
        state = f"still fails: {d['detail']}" if d["reproduces"] else (
            "now passes; move it back into the timed op list (workloads.KNOWN_DEFECTS)")
        print(f"KNOWN DEFECT op {d['id']}: {d['op']}: {state} [{d['reason']}]")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalogue.items()},
    }))


if __name__ == "__main__":
    main()
