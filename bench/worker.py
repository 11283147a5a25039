"""One worker process of a benchmark run (run.py starts several, one at a time).

A worker times its own set-up (`import prefmax`, the first `get_fixture`
with the registry build and self-test, and building the workload's ground
sets and tables), computes every op's reference output, runs one untimed
warm-up pass, then repeats timed passes until `--seconds` have passed and
at least MIN_PASSES passes were made. Each pass's latencies are put on the
nominal host's speed with a kernel timed after every op (hostspeed.py), and
each op's latency is its median over the passes. Every
op's output is checked, in the warm-up pass too. With `--trace 1` it
instead times one untraced and one traced pass and adds per-layer numbers
(see metrics.py). With `--defects` it also runs the workload's known-defect
ops once, untimed. With `--setup-only` it stops after the set-up. The last
line of standard output is the worker's result as JSON.

    python3 bench/worker.py --workload descent --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_out")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (standard library only at import time)

MIN_PASSES = 3  # each op's median then drops one disturbed pass


def run_pass(ops, ctx, refs, failures, tracer=None, kernel_times=None) -> list[float]:
    """Run every op once, in order; returns per-op latencies and appends
    (op, message) to `failures` for each op that raised or mismatched. With
    `kernel_times` given, the host-speed kernel is timed right after each op."""
    from hostspeed import time_kernel
    from ops import check, run_op

    latencies = []
    for op in ops:
        # each op starts with no garbage pending, so the collections inside
        # it follow from its own allocations alone
        gc.collect()
        if tracer is not None:
            tracer.op = op["id"]
        start = time.perf_counter()
        try:
            output = run_op(op, ctx)
            error = None
        except Exception as exc:  # the op failed; record it and go on
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if kernel_times is not None:
            kernel_times.append(time_kernel())
        if error is None:
            try:
                error = check(op, output, refs[op["id"]]) or None
            except Exception:
                error = "output check raised: " + traceback.format_exc(limit=2)
        if error is not None:
            failures.append((op, error))
        del output
    return latencies


def timed_passes(op_list, ctx, refs, failures, seconds, budget_s, started):
    """Timed passes until `seconds` have passed and MIN_PASSES passes were
    made, or until another pass would take the worker past `budget_s`.
    Returns the raw latencies of each pass and each pass's host scale."""
    import hostspeed

    passes, scales = [], []
    timed_start = time.perf_counter()
    while True:
        kernel_times: list = []
        passes.append(run_pass(op_list, ctx, refs, failures, kernel_times=kernel_times))
        scales.append(hostspeed.scale(kernel_times))
        now = time.perf_counter()
        if now - timed_start >= seconds and len(passes) >= MIN_PASSES:
            return passes, scales
        if now - started + sum(passes[-1]) > budget_s:
            return passes, scales


def traced_pass(tracer, op_list, ctx, refs, failures, setup_counts):
    """One untraced pass, then one traced pass; returns the untraced
    latencies and the per-layer numbers."""
    import metrics
    import prefmax
    from ops import invoke_cli

    untraced = run_pass(op_list, ctx, refs, failures)
    ctx.call_cli = tracer.span("cli.main", invoke_cli)
    tracer.install(fixtures=prefmax.fixtures.registry().values(),
                   extra_oracles=ctx.extra_oracles)
    first_span = len(tracer.spans)
    traced = run_pass(op_list, ctx, refs, failures, tracer)
    tracer.uninstall()
    ctx.call_cli = invoke_cli
    # the pass alone, except the fixtures layer, whose registry build and
    # self-test happen in the traced "setup" op
    pass_counts = {k: v - setup_counts.get(k, 0) for k, v in tracer.counts.items()}
    layer = metrics.layer_metrics(tracer.spans, pass_counts, ops={op["id"] for op in op_list})
    layer.update({k: v for k, v in metrics.layer_metrics(tracer.spans, tracer.counts).items()
                  if k.startswith("fixtures.")})
    layer["trace.overhead_s"] = sum(traced) - sum(untraced)
    layer["trace.spans"] = float(len(tracer.spans) - first_span)
    return untraced, layer


def known_defects(defect_ops, ctx, refs) -> list[dict]:
    """Run and check each known-defect op once, untimed; they do not count
    in `attempted` or `failed`, so the result says whether they still fail."""
    from ops import label

    out = []
    for op in defect_ops:
        failures: list = []
        run_pass([op], ctx, refs, failures)
        out.append({"id": op["id"], "op": label(op), "reason": workloads.defect_reason(op),
                    "reproduces": bool(failures),
                    "detail": failures[0][1] if failures else ""})
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.GRID_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget-s", type=float, default=150.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    started = time.perf_counter()

    # set-up, as a user's fresh interpreter pays it; generating the op list
    # is benchmark data and is not timed
    t0 = time.perf_counter()
    import prefmax
    t1 = time.perf_counter()
    if not args.trace:
        prefmax.get_fixture("vee-peak")
    t2 = time.perf_counter()
    spec = workloads.generate(args.workload, args.seed)
    t3 = time.perf_counter()
    built = workloads.materialize(spec)
    t4 = time.perf_counter()
    result = {"setup": {"import_s": t1 - t0, "registry_s": t2 - t1, "inputs_s": t4 - t3,
                        "setup_s": (t2 - t0) + (t4 - t3)},
              "prefmax": prefmax.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return

    import ops as ops_mod
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    layer = {}
    if tracer is not None:
        # the first registry build, traced as the "setup" op
        tracer.op = "setup"
        tracer.install()
        prefmax.get_fixture("vee-peak")
        tracer.uninstall()
        setup_counts = dict(tracer.counts)
        import baseline
        layer.update(baseline.run())

    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    ctx = ops_mod.Context(spec, built, tmpdir)
    cache: dict = {}
    defect_ops = spec["known_defects"] if args.defects else []
    refs = {op["id"]: ops_mod.reference(op, ctx, cache) for op in spec["ops"] + defect_ops}
    del cache

    op_list = spec["ops"]
    failures: list = []  # the warm-up's outputs are checked and count too
    run_pass(op_list, ctx, refs, failures)
    # Move everything built so far (modules, inputs, references, caches the
    # warm-up filled) out of the collector's view: a full collection then
    # scans only what the ops allocate, not the 50k+ objects of numpy, scipy
    # and the references.
    gc.collect()
    gc.freeze()

    if tracer is None:
        passes, scales = timed_passes(op_list, ctx, refs, failures, args.seconds,
                                      args.budget_s, started)
    else:
        untraced, traced_layer = traced_pass(tracer, op_list, ctx, refs, failures, setup_counts)
        passes, scales = [untraced], [1.0]
        layer.update(traced_layer)
        stem = f"{args.workload}-seed{args.seed}-trace1"
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
        result["absent"] = sorted(set(tracer.absent))
    result["known_defects"] = known_defects(defect_ops, ctx, refs)
    shutil.rmtree(tmpdir, ignore_errors=True)

    label = ops_mod.label
    scaled = [[f * t for t in p] for f, p in zip(scales, passes)]
    result.update({
        "labels": [label(op) for op in op_list],
        "op_s": [statistics.median(lat) for lat in zip(*scaled)],
        "latencies_s": [t for p in scaled for t in p],
        "raw_wall_s": sum(statistics.median(lat) for lat in zip(*passes)),
        "pass_wall_s": [sum(p) for p in passes],
        "pass_host_scale": scales,
        "attempted": sum(map(len, passes)) + (2 if tracer is not None else 1) * len(op_list),
        "failures": [{"id": op["id"], "op": label(op), "detail": msg} for op, msg in failures],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
        "worker_s": time.perf_counter() - started,
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
