"""Parameter sweeps (s up to 1, delta down to 0, t down to 0) and limit fits.

A sweep samples one energy family over a grid; extrapolate fits the values
in the small parameter h (h = 1-s, delta, or t) on the window of smallest h
and reports the intercept as the limit estimate.

The mesh guard: on a finite space the fractional singularity is resolved
only down to the mesh scale, so the s-sweep stops tracking the continuum
once (1-s) * log2(diameter / min_distance) < 1. Beyond that crossover the
sweep still evaluates, but a warning is attached to the result.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .energies import gagliardo_values, nguyen_a_values, scale_s_by_balls
from .fields import EnergySpec
from .kernels import KernelSpec
from .space import MetricMeasureSpace

__all__ = [
    "SweepResult",
    "LimitEstimate",
    "bbm_sweep",
    "nguyen_sweep",
    "ks_sweep",
    "extrapolate",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_sweep_json",
]

FIT_WINDOW = 5
QUADRATIC_FALLBACK = 0.01


@dataclass(frozen=True)
class SweepResult:
    """Sampled energy curve over a parameter grid."""

    parameter: str  # "s", "delta", or "t"
    grid: tuple[float, ...]
    values: tuple[float, ...]
    spec: dict
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.parameter not in ("s", "delta", "t"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")
        diffs = np.diff(self.grid)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep grid must be strictly monotone")
        vals = np.asarray(self.values)
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("sweep values must be finite and >= 0")

    def small_parameter(self) -> np.ndarray:
        g = np.asarray(self.grid)
        return 1.0 - g if self.parameter == "s" else g


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated limit with fit diagnostics."""

    limit: float
    model: str
    residual: float
    window: tuple[float, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.residual < 0 or not math.isfinite(self.limit):
            raise ValueError("limit must be finite and residual >= 0")

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "model": self.model,
            "residual": self.residual,
            "window": list(self.window),
            "notes": list(self.notes),
        }


def _grid(values: Sequence[float], name: str) -> list[float]:
    grid = [float(v) for v in values]
    if not grid:  # nothing to extrapolate
        raise ValueError(f"{name} grid is empty")
    return grid


def _spec_echo(space: MetricMeasureSpace, p: float, kernel: KernelSpec) -> dict:
    return {"space": space.name, "p": p, "kernel": kernel.key}


def bbm_sweep(
    space: MetricMeasureSpace,
    u,
    p: float,
    kernel: KernelSpec,
    s_grid: Sequence[float],
) -> SweepResult:
    """(1-s) times the fractional energy over an increasing s grid."""
    grid = _grid(s_grid, "s")
    if any(not 0.0 < s < 1.0 for s in grid):
        raise ValueError("s grid must lie in (0, 1)")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("s grid must be strictly increasing")
    warnings: list[str] = []
    h_min, diam = space.min_distance, space.diameter
    if h_min > 0 and diam > h_min:
        crossover = (1.0 - max(grid)) * math.log2(diam / h_min)
        if crossover < 1.0:
            warnings.append(
                f"mesh guard: (1-s)*log2(D/h_min) = {crossover:.3f} < 1 at s = {max(grid):g}; "
                "the discrete sum no longer tracks the continuum limit at this mesh"
            )
    energies = gagliardo_values(space, u, [EnergySpec(p=p, s=s, kernel=kernel) for s in grid])
    values = [(1.0 - s) * e for s, e in zip(grid, energies)]
    return SweepResult("s", tuple(grid), tuple(values), _spec_echo(space, p, kernel), tuple(warnings))


def nguyen_sweep(
    space: MetricMeasureSpace,
    u,
    p: float,
    kernel: KernelSpec,
    delta_grid: Sequence[float],
) -> SweepResult:
    """Threshold functional over a decreasing delta grid."""
    grid = _grid(delta_grid, "delta")
    if any(d <= 0 for d in grid):
        raise ValueError("delta grid must be positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must decrease toward 0")
    values = nguyen_a_values(space, u, [EnergySpec(p=p, delta=d, kernel=kernel) for d in grid])
    return SweepResult("delta", tuple(grid), tuple(values), _spec_echo(space, p, kernel))


def ks_sweep(
    space: MetricMeasureSpace,
    u,
    p: float,
    t_grid: Sequence[float],
) -> SweepResult:
    """S_t / t^p over a t grid above the mesh scale.

    Scales at or below the minimum positive distance are rejected (balls are
    singletons, so S_t vanishes vacuously); scales beyond the diameter are
    allowed and simply saturate.
    """
    grid = _grid(t_grid, "t")
    h_min = space.min_distance
    for t in grid:
        if t <= h_min:
            raise ValueError(
                f"t = {t:g} is at or below the minimum positive distance {h_min:g}; "
                "balls are singletons and S_t is vacuously 0"
            )
    diffs = np.diff(grid)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("t grid must be strictly monotone")
    values = [scale_s_by_balls(space, u, EnergySpec(p=p, t=t)) / t**p for t in grid]
    return SweepResult("t", tuple(grid), tuple(values), _spec_echo(space, p, KernelSpec()))


def _polyfit(h: np.ndarray, v: np.ndarray, degree: int) -> tuple[float, float]:
    coeffs = np.polyfit(h, v, degree)
    fitted = np.polyval(coeffs, h)
    return float(coeffs[-1]), float(np.max(np.abs(fitted - v)))


def extrapolate(sweep: SweepResult) -> LimitEstimate:
    """Fit value = a + b*h on the window of smallest h; quadratic fallback.

    The window is the FIT_WINDOW smallest small-parameter points (all points
    if fewer). When the linear residual exceeds 1% of the fitted limit the
    model falls back to a + b*h + c*h^2.
    """
    h = sweep.small_parameter()
    v = np.asarray(sweep.values)
    if h.size < 3:
        raise ValueError(f"extrapolation needs at least 3 grid points, got {h.size}")
    order = np.argsort(h, kind="stable")[:FIT_WINDOW]
    hw, vw = h[order], v[order]

    notes = list(sweep.warnings)
    steps = np.diff(vw)
    if np.any(steps > 0) and np.any(steps < 0):
        notes.append("sweep is non-monotone over the fit window")

    limit, residual = _polyfit(hw, vw, 1)
    model = "linear"
    if residual > QUADRATIC_FALLBACK * max(abs(limit), 1e-300):
        limit, residual = _polyfit(hw, vw, 2)
        model = "quadratic"
    return LimitEstimate(limit, model, residual, tuple(hw.tolist()), tuple(notes))


# -- serialization --------------------------------------------------------------


def write_sweep_csv(sweep: SweepResult, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([sweep.parameter, "value"])
        for g, v in zip(sweep.grid, sweep.values):
            writer.writerow([repr(g), repr(v)])


def read_sweep_csv(path: str | Path) -> SweepResult:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if len(header) != 2 or header[0] not in ("s", "delta", "t"):
            raise ValueError(f"{path}: expected header '<parameter>,value', got {header}")
        grid, values = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
            grid.append(float(row[0]))
            values.append(float(row[1]))
    return SweepResult(header[0], tuple(grid), tuple(values), {})


def write_sweep_json(
    sweep: SweepResult, estimate: LimitEstimate | None, path: str | Path
) -> None:
    doc = {
        "parameter": sweep.parameter,
        "grid": list(sweep.grid),
        "values": list(sweep.values),
        "spec": sweep.spec,
        "warnings": list(sweep.warnings),
        "estimate": None if estimate is None else estimate.to_dict(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")
