"""One benchmark run inside the pinned child process.

run.py starts this script with the environment pinned (NSL_WORKERS = nproc,
BLAS threads = 1, PYTHONPATH = the checkout's src) and reads the JSON it
writes to --result. The run is a closed loop with one client: passes over
the workload's task list run back to back for about --seconds (at least two),
each task building fresh spaces as one CLI call would. Each pass records its
wall time and the process's CPU time. A warm-up pass at the smoke size first
pays the one-time import and first-call costs.

With --trace 1 the run repeats three passes: untraced at NSL_WORKERS,
untraced at a single worker, and traced. All of them must print byte-identical
values (the worker-determinism check); their medians give pass.wall_s,
parallel.speedup and trace.overhead_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import nsl
import reference
import spans
import workloads


def run_pass(workload: str, ctx: workloads.Context, refs: dict | None, seed: int,
             tracer: spans.Tracer | None = None, index: int = 0) -> dict:
    """One pass over the task list; values are checked against refs.

    A task fails on an exception or on a mismatch with its reference.
    """
    ctx.setup_s = ctx.setup_cpu_s = 0.0
    values, failures, task_wall = {}, {}, 0.0
    task_list = workloads.tasks(workload, ctx)
    start, cpu = time.perf_counter(), time.process_time()
    for task, thunk in task_list:
        if tracer is not None:
            tracer.begin_task(task, index)
        t0 = time.perf_counter()
        try:
            got = workloads.run_task(thunk)
        except Exception:  # a failed task is counted, and the run goes on
            failures[task] = traceback.format_exc()
            continue
        finally:
            task_wall += time.perf_counter() - t0
            if tracer is not None:
                tracer.end_task()
        values[task] = got
        if tracer is not None:
            tracer.count("gradients.hajlasz_minimal.warnings", got["hajlasz_warnings"])
        if refs is not None:
            diff = reference.mismatches(task, refs[task], got, seed)
            if diff:
                failures[task] = "; ".join(diff[:5])
    return {
        "attempted": len(task_list),
        "pass_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu,
        "setup_s": ctx.setup_s,
        "setup_cpu_s": ctx.setup_cpu_s,
        "task_s": task_wall,
        "values": values,
        "failures": failures,
    }


def another(start: float, seconds: float, walls: list[float], least: int) -> bool:
    """Whether to start another pass (or cycle of passes) in a run of `seconds`.

    A pass starts only if a pass of the median length so far ends in time, so
    that a run lasts about `seconds` however long its passes are; the first
    `least` always run.
    """
    if len(walls) < least:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def timed_passes(workload, ctx, refs, seed, seconds) -> tuple[list[dict], float]:
    """At least two passes in `seconds`, and the peak RSS in MiB after the first.

    The peak is read after one pass so that it does not depend on how many
    passes fit into the time: freed memory is not always returned to the OS.
    """
    start = time.perf_counter()
    passes = [run_pass(workload, ctx, refs, seed)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while another(start, seconds, [p["pass_s"] for p in passes], 2):
        passes.append(run_pass(workload, ctx, refs, seed))
    return passes, peak_mb


def canonical(values: dict) -> str:
    """Values as text, every float by repr: equal text means byte-identical."""
    return json.dumps(values, sort_keys=True)


def limit_errors(values: dict) -> dict:
    """|limit - oracle| / oracle of each sweep task that ran."""
    return {
        f"{task}_rel_err": abs(values[task]["limit"] - oracle) / oracle
        for task, oracle in workloads.ORACLES.items() if task in values
    }


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nsl_workers": os.environ.get("NSL_WORKERS"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", required=True, choices=tuple(workloads.SIZES))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    src = Path(nsl.__file__).resolve().parent
    if not src.is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
        sys.exit(f"nsl imported from {src}, not from the checkout")
    refs = reference.load()[args.size]

    warm = workloads.prepare("smoke", args.seed, args.workdir / "warmup")
    run_pass(args.workload, warm, None, args.seed)

    ctx = workloads.prepare(args.size, args.seed, args.workdir / "run")
    result = {"env": environment(args.seed), "size": args.size}
    if not args.trace:
        result["passes"], result["peak_rss_mb"] = timed_passes(
            args.workload, ctx, refs, args.seed, args.seconds)
        result["rel_err"] = limit_errors(result["passes"][0]["values"])
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return

    # Cycles of three passes (untraced at NSL_WORKERS, untraced at one worker,
    # traced) until the time is up, so that the speed-up and the tracing
    # overhead compare passes made side by side.
    workers = os.environ["NSL_WORKERS"]
    tracer = spans.Tracer()
    at_n, at_1, traced = [], [], []
    start = time.perf_counter()
    cycles: list[float] = []
    while another(start, args.seconds, cycles, 1):
        began = time.perf_counter()
        at_n.append(run_pass(args.workload, ctx, refs, args.seed))
        os.environ["NSL_WORKERS"] = "1"
        try:
            at_1.append(run_pass(args.workload, ctx, refs, args.seed))
        finally:
            os.environ["NSL_WORKERS"] = workers
        tracer.install(workloads)
        try:
            traced.append(run_pass(args.workload, ctx, refs, args.seed, tracer, len(traced)))
        finally:
            tracer.uninstall()
        cycles.append(time.perf_counter() - began)

    def median_pass(passes):
        return float(np.median([p["pass_s"] for p in passes]))

    extra = {
        "pass.wall_s": median_pass(at_n),
        "parallel.speedup": median_pass(at_1) / median_pass(at_n),
        "trace.overhead_frac": median_pass(traced) / median_pass(at_n) - 1.0,
    }
    result["passes"] = [*at_n, *at_1, *traced]
    result["deterministic"] = len({canonical(p["values"]) for p in result["passes"]}) == 1
    result["layers"] = tracer.layer_metrics(
        {k: p["task_s"] for k, p in enumerate(traced)}, extra)
    if args.trace_out is not None:
        tracer.write(args.trace_out)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
