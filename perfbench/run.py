"""nsl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep|oneshot|verify|all \\
        [--seed 0] [--seconds 30] [--trace 0|1] [--size full|smoke]

Run from anywhere inside a checkout; nsl is imported from the checkout's
src/, never from an installed copy. Each workload runs in its own child
process (perfbench/child.py) with the environment pinned: NSL_WORKERS = the
number of usable CPUs, and BLAS/OpenMP threads = 1 so that numpy's matmuls
add no threads on top of nsl's own workers. peak_rss_mb is that child's
ru_maxrss after its first timed pass.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics (pass_cpu_s, setup_s, peak_rss_mb: CPU seconds, not wall
seconds, for the times); with --trace 1 it has the per-layer metrics of the
traced run. The lines above it are a readable table of the same numbers plus
the wall times, failed_frac, the sweep limits' errors against their oracles,
and the pinned environment. Spans and full results are written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "oneshot", "verify")
CHILD_TIMEOUT_S = 170


def units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def pinned_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.update({
        "NSL_WORKERS": str(nproc),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": str(ROOT / "src"),
    })
    return env


def run_child(args, workload: str, nproc: int) -> dict:
    out = ROOT / ".perfbench"
    work = out / f"work-{os.getpid()}-{workload}"
    result_path = work / "result.json"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size,
           "--workdir", str(work), "--result", str(result_path)]
    if args.trace:
        cmd += ["--trace-out", str(out / f"trace-{workload}-seed{args.seed}.json")]
    try:
        # stdout of the child goes to stderr: our stdout ends with the result line
        proc = subprocess.run(cmd, env=pinned_env(nproc), stdout=sys.stderr,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {workload} child exited with {proc.returncode}")
        child = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} child exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return child


def summarize(args, workload: str, child: dict, nproc: int) -> tuple[dict, list[str]]:
    passes = child["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    correct = failed == 0 and child.get("deterministic", True)
    env = {**child["env"], "nproc": nproc, "commit": git_commit(), "size": args.size}
    lines = [f"== {workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
             f"passes {len(passes)}",
             "   env " + " ".join(f"{k}={v}" for k, v in env.items())]
    for p in passes:
        for task, why in p["failures"].items():
            lines.append(f"   FAILED {task}: " + why.strip().replace("\n", "\n          "))
    if args.trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit}
                   for name, unit in units("per_layer").items()}
        lines.append(f"   deterministic across 1 and {nproc} workers: {child['deterministic']}")
    else:
        values = {
            "pass_cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(p["setup_cpu_s"] for p in passes),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units("end_to_end").items()}
    shown = dict(metrics)
    if not args.trace:
        shown["pass_wall_s"] = {"value": statistics.median(p["pass_s"] for p in passes),
                                "unit": "s"}
        shown["setup_wall_s"] = {"value": statistics.median(p["setup_s"] for p in passes),
                                 "unit": "s"}
    shown["failed_frac"] = {"value": failed / max(attempted, 1),
                            "unit": f"of {attempted} tasks"}
    for name, value in child.get("rel_err", {}).items():
        shown[name] = {"value": value, "unit": "ratio"}
    for name, m in shown.items():
        lines.append(f"   {name:<44} {m['value']:<24.6g} {m['unit']}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "workload": workload, "env": env, "table": shown,
              "passes": [{k: p[k] for k in ("pass_s", "cpu_s", "setup_s", "setup_cpu_s", "task_s")}
                         for p in passes]}
    out = ROOT / ".perfbench" / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "nsl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nsl sources at {ROOT / 'src' / 'nsl'}")
    nproc = len(os.sched_getaffinity(0))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in chosen:
        child = run_child(args, workload, nproc)
        results[workload], lines = summarize(args, workload, child, nproc)
        print("\n".join(lines), flush=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))


if __name__ == "__main__":
    main()
