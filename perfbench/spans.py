"""Span recorder for the traced run, attached to nsl from the outside.

``Tracer.install`` rebinds every public function of the nsl modules, the
``ball_masses`` method and the harness's field step to a wrapper that records
a span: name, start, end, parent span, task id and pass index. A function is
rebound in its defining module and in every nsl module that imported it by
name (``nsl.verify.scale_energies``, ``nsl.energies.map_blocks``, ...), so
calls made inside nsl are seen as well as the harness's own. Spans stay in
memory and are written out when the run ends. nsl itself is not modified.

Only the main thread records spans. The block callables that ``map_blocks``
hands to its worker threads are timed instead, which gives busy time per
block. A few wrappers also count work where it happens: kernel cache hits,
bytes written, ball pairs, sweep points, solver iterations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("constants", "energies", "expr", "gradients", "kernels", "parallel", "space",
           "sweeps", "verify")
# parallel.py has no __all__; these are its entry points.
EXTRA = {"parallel": ("map_blocks", "block_reduce")}
VERIFY_CHECKS = {
    "check_annuli_bound": "annuli",
    "check_mean_comparison": "mean",
    "check_fubini_identity": "fubini",
    "check_hks": "hks",
    "check_mollifier": "mollifier",
    "check_upper_gradient_scale": "upper_gradient",
    "check_nguyen_averaging": "nguyen_avg",
    "check_hajlasz_bound": "hajlasz",
    "two_sided_report": "two_sided",
}

NAME, START, END, PARENT, TASK, PASS = range(6)


def _ball_pairs(tracer, a, result, idx) -> None:
    """Sum over centres of |B(x, t)|^2: the pairs the per-centre ball loop visits."""
    counts = np.count_nonzero(a["space"].dist <= a["spec"].t, axis=1).astype(np.int64)
    tracer.count("energies.ball_pairs", int(np.sum(counts**2)))


def _sweep_points(tracer, a, result, idx) -> None:
    tracer.count("sweeps.points", len(result.grid))
    tracer.count("sweeps.mesh_guard_warnings", sum("mesh guard" in w for w in result.warnings))


# Counters read at the layer boundaries, keyed by span name. A hook gets the
# call's bound arguments; an AFTER hook also gets the result and span index.
BEFORE = {
    "kernels.kernel_matrix": lambda tracer, a: tracer.count(
        "kernels.kernel_matrix.hits", ("kernel", a["spec"].key) in a["space"]._cache),
}
AFTER = {
    "space.build_space": lambda tracer, a, space, idx: tracer.task_spaces.append(space),
    "space.load_space": lambda tracer, a, space, idx: tracer.task_spaces.append(space),
    "space.save_space": lambda tracer, a, result, idx: tracer.count(
        "space.file_bytes", os.path.getsize(a["path"])),
    "energies.scale_s_by_balls": _ball_pairs,
    "energies.g_scale": _ball_pairs,
    "energies.gagliardo_p": lambda tracer, a, result, idx: tracer.pair_spans.append(
        (idx, a["space"].n ** 2)),
    "energies.nguyen_a": lambda tracer, a, result, idx: tracer.pair_spans.append(
        (idx, a["space"].n ** 2)),
    "sweeps.bbm_sweep": _sweep_points,
    "sweeps.nguyen_sweep": _sweep_points,
    "sweeps.extrapolate": lambda tracer, a, estimate, idx: tracer.count(
        "sweeps.quadratic_fallbacks", estimate.model == "quadratic"),
    "gradients.hajlasz_minimal": lambda tracer, a, result, idx: (
        tracer.count("gradients.hajlasz_minimal.iterations", result.iterations),
        tracer.count("gradients.hajlasz_minimal.converged", result.converged)),
    "verify.run_suite": lambda tracer, a, reports, idx: tracer.count(
        "verify.records", sum(len(r.records) for r in reports)),
}


def cache_bytes(obj) -> int:
    """Bytes of the numpy arrays held in a space's cache, read-only."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(cache_bytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(cache_bytes(v) for v in obj)
    return 0


class Tracer:
    """In-memory spans and counters for calls into nsl."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pair_spans: list[tuple[int, int]] = []  # (span index, n^2) of pair sums
        self.task: str | None = None
        self.pass_index = -1
        self.task_spaces: list = []
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin_task(self, task: str, pass_index: int) -> None:
        self.task, self.pass_index = task, pass_index
        self.task_spaces = []

    def end_task(self) -> None:
        """Record the largest space cache held at task end."""
        held = max((cache_bytes(sp._cache) for sp in self.task_spaces), default=0)
        counts = self.counts[self.pass_index]
        counts["space.cache_bytes"] = max(counts["space.cache_bytes"], held)
        self.task_spaces = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.pass_index][name] += value

    @contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._main:
            yield None
            return
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.task, self.pass_index]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    # -- attaching to nsl ------------------------------------------------------

    def wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                if rec is None or not (before or after):
                    return fn(*args, **kwargs)
                idx = len(tracer.spans) - 1
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    before(tracer, bound.arguments)
                result = fn(*args, **kwargs)
            if after:
                after(tracer, bound.arguments, result, idx)
            return result

        return wrapper

    def _traced_map_blocks(self, original):
        tracer = self
        get_workers = importlib.import_module("nsl.parallel").get_workers

        @functools.wraps(original)
        def map_blocks(n, fn, workers=None):
            with tracer.span("parallel.map_blocks") as rec:
                if rec is None:
                    return original(n, fn, workers)
                busy: list[float] = []

                def timed(a: int, b: int):
                    start = time.perf_counter()
                    try:
                        return fn(a, b)
                    finally:
                        busy.append(time.perf_counter() - start)

                out = original(n, timed, workers)
            blocks = len(busy)
            used = min(get_workers() if workers is None else workers, blocks)
            tracer.count("parallel.blocks", blocks)
            tracer.count("parallel.block_busy_s", sum(busy))
            tracer.count("parallel.capacity_s", (rec[END] - rec[START]) * used)
            return out

        return map_blocks

    def install(self, harness_module) -> None:
        """Rebind nsl's public functions (and the harness's field step)."""
        import nsl

        modules = [importlib.import_module(f"nsl.{m}") for m in MODULES]
        everywhere = [nsl, *modules, importlib.import_module("nsl.cli")]
        for short, mod in zip(MODULES, modules):
            names = [n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))]
            for attr in (*names, *EXTRA.get(short, ())):
                original = getattr(mod, attr)
                if original.__module__ != mod.__name__:
                    continue
                if short == "parallel" and attr == "map_blocks":
                    wrapped = self._traced_map_blocks(original)
                else:
                    wrapped = self.wrap(f"{short}.{attr}", original)
                for holder in everywhere:
                    if getattr(holder, attr, None) is original:
                        self._rebind(holder, attr, wrapped)
        space_cls = importlib.import_module("nsl.space").MetricMeasureSpace
        self._rebind(space_cls, "ball_masses", self.wrap("space.ball_masses",
                                                         space_cls.ball_masses))
        self._rebind(harness_module, "make_field",
                     self.wrap("expr.field", harness_module.make_field))

    def _rebind(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore = []

    # -- summaries ------------------------------------------------------------------

    def _per_pass(self) -> dict[int, dict]:
        """Inclusive time, self time and calls per span name, for each pass."""
        out: dict[int, dict] = defaultdict(
            lambda: {"incl": defaultdict(float), "self": defaultdict(float),
                     "calls": defaultdict(int), "top": 0.0}
        )
        child_time = defaultdict(float)
        kernel_time = defaultdict(float)  # kernel builds inside a pair sum
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
                if rec[NAME] == "kernels.kernel_matrix":
                    kernel_time[rec[PARENT]] += rec[END] - rec[START]
        for idx, rec in enumerate(self.spans):
            agg = out[rec[PASS]]
            dur = rec[END] - rec[START]
            agg["calls"][rec[NAME]] += 1
            agg["self"][rec[NAME]] += dur - child_time[idx]
            if rec[PARENT] < 0:
                agg["top"] += dur
            if not self._nested_in_same(idx):
                agg["incl"][rec[NAME]] += dur
        for idx, n2 in self.pair_spans:
            rec = self.spans[idx]
            agg = out[rec[PASS]]
            agg["pair_count"] = agg.get("pair_count", 0) + n2
            agg["pair_s"] = agg.get("pair_s", 0.0) + rec[END] - rec[START] - kernel_time[idx]
        return out

    def _nested_in_same(self, idx: int) -> bool:
        name, parent = self.spans[idx][NAME], self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_metrics(self, task_wall: dict[int, float], extra: dict[str, float]) -> dict:
        """Per-layer metrics: the median over traced passes of each per-pass value.

        task_wall maps a pass index to the wall time of its tasks; extra holds
        values measured outside the traced passes (speed-up, overhead).
        """
        per_pass = self._per_pass()
        rows = []
        for index, wall in task_wall.items():
            agg, c = per_pass[index], self.counts[index]
            incl, calls = agg["incl"], agg["calls"]
            row = {
                "space.build_s": incl["space.build_space"],
                "space.save_s": incl["space.save_space"],
                "space.load_s": incl["space.load_space"],
                "space.file_mb": c["space.file_bytes"] / 2**20,
                "space.ball_masses_s": incl["space.ball_masses"],
                "space.ball_masses.calls": calls["space.ball_masses"],
                "space.doubling_constant_s": incl["space.doubling_constant"],
                "space.cache_mb": c["space.cache_bytes"] / 2**20,
                "kernels.kernel_matrix_s": incl["kernels.kernel_matrix"],
                "kernels.kernel_matrix.calls": calls["kernels.kernel_matrix"],
                "kernels.kernel_matrix.hit_ratio":
                    c["kernels.kernel_matrix.hits"] / max(calls["kernels.kernel_matrix"], 1),
                "kernels.kernel_comparability_s": incl["kernels.kernel_comparability"],
                "energies.gagliardo_p_s": incl["energies.gagliardo_p"],
                "energies.gagliardo_p.calls": calls["energies.gagliardo_p"],
                "energies.nguyen_a_s": incl["energies.nguyen_a"],
                "energies.nguyen_a.calls": calls["energies.nguyen_a"],
                "energies.pairs_per_s":
                    agg.get("pair_count", 0) / agg["pair_s"] if agg.get("pair_s") else 0.0,
                "energies.scale_energies_s": incl["energies.scale_energies"],
                "energies.scale_energies.calls": calls["energies.scale_energies"],
                "energies.scale_s_by_balls_s": incl["energies.scale_s_by_balls"],
                "energies.ball_pairs": c["energies.ball_pairs"],
                "energies.mollify_s": incl["energies.mollify"],
                "energies.g_scale_s": incl["energies.g_scale"],
                "parallel.blocks": c["parallel.blocks"],
                "parallel.block_busy_s": c["parallel.block_busy_s"],
                "parallel.utilization":
                    c["parallel.block_busy_s"] / c["parallel.capacity_s"]
                    if c["parallel.capacity_s"] else 0.0,
                "sweeps.bbm_sweep_s": incl["sweeps.bbm_sweep"],
                "sweeps.nguyen_sweep_s": incl["sweeps.nguyen_sweep"],
                "sweeps.extrapolate_s": incl["sweeps.extrapolate"],
                "sweeps.points": c["sweeps.points"],
                "sweeps.quadratic_fallbacks": c["sweeps.quadratic_fallbacks"],
                "sweeps.mesh_guard_warnings": c["sweeps.mesh_guard_warnings"],
                "gradients.hajlasz_minimal_s": incl["gradients.hajlasz_minimal"],
                "gradients.hajlasz_minimal.calls": calls["gradients.hajlasz_minimal"],
                "gradients.hajlasz_minimal.iterations": c["gradients.hajlasz_minimal.iterations"],
                # 1 when the solver did not run: no call failed to converge.
                "gradients.hajlasz_minimal.converged_frac":
                    c["gradients.hajlasz_minimal.converged"] / calls["gradients.hajlasz_minimal"]
                    if calls["gradients.hajlasz_minimal"] else 1.0,
                "gradients.hajlasz_minimal.warnings": c["gradients.hajlasz_minimal.warnings"],
                "gradients.cheeger_surrogate_s": incl["gradients.cheeger_surrogate"],
                **{f"verify.check_{short}_s": incl[f"verify.{fn}"]
                   for fn, short in VERIFY_CHECKS.items()},
                "verify.records": c["verify.records"],
                "constants.gauge_distance_matrix_s": incl["constants.gauge_distance_matrix"],
                "expr.field_s": incl["expr.field"],
                "trace.coverage": agg["top"] / wall,
            }
            rows.append(row)
        metrics = {name: statistics.median(float(r[name]) for r in rows) for name in rows[0]}
        metrics.update(extra)
        return metrics

    def write(self, path: Path) -> None:
        """Spans plus inclusive and self time per name, summed over traced passes."""
        per_pass = self._per_pass()
        names = sorted({rec[NAME] for rec in self.spans})
        table = {
            name: {
                "calls": sum(p["calls"][name] for p in per_pass.values()),
                "incl_s": sum(p["incl"][name] for p in per_pass.values()),
                "self_s": sum(p["self"][name] for p in per_pass.values()),
            }
            for name in names
        }
        doc = {
            "fields": ["name", "start", "end", "parent", "task", "pass"],
            "by_name": table,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
