"""The benchmark's workloads: task lists, seeded inputs and problem sizes.

A task drives the public nsl API in the order the CLI does: spec or space
file -> space -> field -> energy, sweep or verify -> the files the CLI would
write. It returns the values the CLI would print (energy reprs, sweep values
and limit, verify statuses with lhs/rhs), which the reference check compares.

Every call into nsl goes through the defining module's attribute
(``nsl.space.build_space``, not a name bound here at import time), so the
traced run sees these calls once ``spans.Tracer`` has rebound the attribute.

The seed sets two inputs. The field phase phi is k/8 of a turn, k drawn from
the seed: on every circle and torus used here a shift by k/8 of a turn maps
grid points to grid points, so each seed gives a different field whose
energies equal the seed-0 ones up to rounding. The CSV field of the
``torus2d:8x8`` Hajlasz task is drawn uniformly from [-1, 1].
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nsl.cli
import nsl.energies
import nsl.expr
import nsl.fields
import nsl.kernels
import nsl.space
import nsl.sweeps
import nsl.verify

WORKLOADS = ("sweep", "oneshot", "verify")

# The acceptance-suite grids (tests/test_acceptance.py).
S_GRID = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)
DELTA_GRID = (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)

# Oracles of the sweep limits: 1 for u = x on the interval (BBM with the
# ahlfors:1 kernel, Nguyen), pi/2 for sin on the circle with rho1.
ORACLES = {"bbm_interval": 1.0, "nguyen_interval": 1.0, "bbm_circle": math.pi / 2.0}

# Circles and tori with a phase field have a multiple of 8 points per axis,
# so that every seed's phase maps grid points to grid points.
SIZES = {
    "full": {
        "interval": "interval:2048",
        "circle_sweep": "circle:1024",
        "torus_energy": "torus2d:64x64",
        "sierpinski": "sierpinski:6",
        "gauge": "gauge_grid:32:square",
        "circle_energy": "circle:2048",
        "circle_verify": "circle:256",
        "torus_verify": "torus2d:24x24",
        "torus_hajlasz": "torus2d:8x8",
    },
    # Every task on tiny spaces: the harness's own tests and the warm-up
    # pass run this size in about a second.
    "smoke": {
        "interval": "interval:64",
        "circle_sweep": "circle:64",
        "torus_energy": "torus2d:8x8",
        "sierpinski": "sierpinski:2",
        "gauge": "gauge_grid:6:square",
        "circle_energy": "circle:64",
        "circle_verify": "circle:32",
        "torus_verify": "torus2d:16x16",
        "torus_hajlasz": "torus2d:4x4",
    },
}


@dataclass(frozen=True)
class Inputs:
    """What the seed decides."""

    phase: int  # phi = phase/8 of a turn
    csv_values: np.ndarray

    @staticmethod
    def from_seed(seed: int, csv_points: int) -> "Inputs":
        rng = np.random.default_rng(seed)
        phase = int(rng.integers(8))
        return Inputs(phase, rng.uniform(-1.0, 1.0, csv_points))

    @property
    def circle_field(self) -> str:
        return f"sin(x + 2*pi*{self.phase}/8)"

    @property
    def torus_field(self) -> str:
        return f"sin(2*pi*(x + {self.phase}/8))"


@dataclass
class Context:
    """Per-run state a task needs: sizes, inputs, output directory, clocks."""

    specs: dict
    inputs: Inputs
    workdir: Path
    csv_path: Path
    setup_s: float = 0.0
    setup_cpu_s: float = 0.0

    def out(self, name: str) -> Path:
        return self.workdir / name

    @contextmanager
    def setup(self):
        """Wall and CPU time spent producing spaces and fields (part of the pass)."""
        start, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - start
            self.setup_cpu_s += time.process_time() - cpu


def prepare(size: str, seed: int, workdir: Path) -> Context:
    """Make the run's inputs; the CSV field file is the user's input, not work."""
    specs = SIZES[size]
    torus = nsl.cli.parse_space_spec(specs["torus_hajlasz"])
    inputs = Inputs.from_seed(seed, torus.nx * torus.ny)
    workdir.mkdir(parents=True, exist_ok=True)
    csv_path = workdir / "field.csv"
    nsl.fields.ScalarField(inputs.csv_values).to_csv(csv_path)
    return Context(specs, inputs, workdir, csv_path)


def build(spec: str):
    return nsl.space.build_space(nsl.cli.parse_space_spec(spec))


def make_field(space, expression: str | None, csv_path: Path | None = None):
    """The CLI's field step: an expression over coordinates, or a CSV file."""
    if expression is None:
        u = nsl.fields.ScalarField.from_csv(csv_path)
        if len(u) != space.n:
            raise ValueError(f"field file has {len(u)} values for {space.n} points")
        return u
    tree = nsl.expr.parse_field_expr(expression)
    return nsl.fields.ScalarField(tree.evaluate(space.coords), provenance="expression")


# -- the three task kinds -------------------------------------------------------


def sweep_task(ctx: Context, name: str, spec: str, expression: str, kernel: str,
               mode: str, grid) -> dict:
    """nsl sweep --mode MODE --space SPEC --field EXPR --kernel K --out-csv --out-json"""
    with ctx.setup():
        space = build(spec)
        u = make_field(space, expression)
    kspec = nsl.kernels.KernelSpec.parse(kernel)
    run = nsl.sweeps.bbm_sweep if mode == "bbm" else nsl.sweeps.nguyen_sweep
    result = run(space, u, 2.0, kspec, grid)
    estimate = nsl.sweeps.extrapolate(result)
    nsl.sweeps.write_sweep_csv(result, ctx.out(f"{name}.csv"))
    nsl.sweeps.write_sweep_json(result, estimate, ctx.out(f"{name}.json"))
    return {
        "values": list(result.values),
        "limit": estimate.limit,
        "model": estimate.model,
        "mesh_guard_warnings": sum("mesh guard" in w for w in result.warnings),
    }


def energy_task(ctx: Context, name: str, spec: str, expression: str, functional: str,
                kernel: str, **params) -> dict:
    """nsl gen --spec SPEC --out F; nsl energy --space F --field EXPR --functional ..."""
    path = ctx.out(f"{name}.space")
    with ctx.setup():
        nsl.space.save_space(build(spec), path)
        space = nsl.space.load_space(path)
        u = make_field(space, expression)
    kspec = nsl.kernels.KernelSpec.parse(kernel)
    espec = nsl.fields.EnergySpec(p=2.0, kernel=kspec, **params)
    if functional == "gagliardo":
        value = nsl.energies.gagliardo_p(space, u, espec)
    elif functional == "nguyen":
        value = nsl.energies.nguyen_a(space, u, espec)
    else:
        value = getattr(nsl.energies.scale_energies(space, u, espec), functional)
    return {"value": value}


def verify_task(ctx: Context, name: str, spec: str, expression: str | None,
                suite: str) -> dict:
    """nsl verify --suite SUITE --space SPEC (--field EXPR | --field-csv F) --out-json"""
    with ctx.setup():
        space = build(spec)
        u = make_field(space, expression, ctx.csv_path)
    kspec = nsl.kernels.KernelSpec.parse("rho1")
    refine_field = None
    if expression is not None:
        tree = nsl.expr.parse_field_expr(expression)
        refine_field = lambda sp: nsl.fields.ScalarField(  # noqa: E731
            tree.evaluate(sp.coords), provenance="expression"
        )
    kwargs = {"refine_field": refine_field}
    if suite == "all":
        kwargs["informational"] = ("two-sided",)
    else:
        kwargs["checks"] = tuple(suite.split(","))
    reports = nsl.verify.run_suite(space, u, 2.0, kspec, **kwargs)
    nsl.verify.render_text(reports)
    nsl.verify.reports_to_json(reports, ctx.out(f"{name}.json"))
    return {
        "reports": [
            [
                rep.name,
                "SKIP" if not rep.applicable else ("PASS" if rep.passed else "FAIL"),
                [[rec.lhs, rec.rhs, bool(rec.ok)] for rec in rep.records],
            ]
            for rep in reports
        ]
    }


def tasks(workload: str, ctx: Context) -> list[tuple[str, Callable[[], dict]]]:
    """(task id, thunk) pairs of one pass over a workload."""
    sp, inp = ctx.specs, ctx.inputs
    if workload == "sweep":
        return [
            ("bbm_interval", lambda: sweep_task(
                ctx, "bbm_interval", sp["interval"], "x", "ahlfors:1", "bbm", S_GRID)),
            ("nguyen_interval", lambda: sweep_task(
                ctx, "nguyen_interval", sp["interval"], "x", "ahlfors:1", "nguyen", DELTA_GRID)),
            ("bbm_circle", lambda: sweep_task(
                ctx, "bbm_circle", sp["circle_sweep"], inp.circle_field, "rho1", "bbm", S_GRID)),
        ]
    if workload == "oneshot":
        return [
            ("torus_gauge", lambda: energy_task(
                ctx, "torus_gauge", sp["torus_energy"], inp.torus_field, "gagliardo",
                "gauge-ahlfors:2", s=0.7)),
            ("sierpinski_rho1", lambda: energy_task(
                ctx, "sierpinski_rho1", sp["sierpinski"], "x", "gagliardo", "rho1", s=0.7)),
            ("gauge_grid_nguyen", lambda: energy_task(
                ctx, "gauge_grid_nguyen", sp["gauge"], "x*y", "nguyen", "rho1", delta=0.1)),
            ("circle_k", lambda: energy_task(
                ctx, "circle_k", sp["circle_energy"], inp.circle_field, "k", "rho1",
                t=math.pi / 8.0)),
        ]
    if workload == "verify":
        return [
            ("circle_all", lambda: verify_task(
                ctx, "circle_all", sp["circle_verify"], inp.circle_field, "all")),
            ("torus_a07", lambda: verify_task(
                ctx, "torus_a07", sp["torus_verify"], inp.torus_field,
                "annuli,mean,hks,mollifier,upper-gradient")),
            ("torus_hajlasz_csv", lambda: verify_task(
                ctx, "torus_hajlasz_csv", sp["torus_hajlasz"], None, "hajlasz")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_task(thunk: Callable[[], dict]) -> dict:
    """Run one task; its values carry the count of Hajlasz solver warnings.

    The count keeps the known iteration cap visible: hajlasz_minimal warns
    each time it stops without meeting its stopping rule.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = thunk()
    values["hajlasz_warnings"] = sum(
        issubclass(w.category, RuntimeWarning) and str(w.message).startswith("hajlasz_minimal")
        for w in caught
    )
    return values
