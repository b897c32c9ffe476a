"""Scalar fields on a space and the parameter bundle for energies."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kernels import KernelSpec

__all__ = ["ScalarField", "EnergySpec", "PiecewiseLinearMap"]


@dataclass(frozen=True)
class ScalarField:
    """One real value per point, with a provenance tag."""

    values: np.ndarray
    provenance: str = "expression"

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"field values must be one-dimensional, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.nonzero(~np.isfinite(arr))[0][0])
            raise ValueError(f"non-finite field value at point {bad}: {arr[bad]!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.values.shape[0]

    @staticmethod
    def from_csv(path: str | Path) -> "ScalarField":
        """One value per line, point order = space order."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        vals = []
        for i, line in enumerate(lines):
            text = line.strip()
            if not text:
                continue
            try:
                vals.append(float(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{i + 1}: not a number: {text!r}") from exc
        return ScalarField(np.asarray(vals), provenance="file")

    def to_csv(self, path: str | Path) -> None:
        text = "\n".join(repr(v) for v in self.values.tolist())
        Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def as_values(u, n: int) -> np.ndarray:
    """Field values as an (n,) array, validating the length."""
    arr = u.values if isinstance(u, ScalarField) else np.ascontiguousarray(u, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"field has {arr.shape[0]} values for a space of {n} points")
    return arr


@dataclass(frozen=True)
class EnergySpec:
    """Parameters of the pairwise energies.

    p is the integrability exponent; s the fractional order; delta the
    threshold of the Nguyen functional; t the ball scale of the K/H/S
    energies and the regularization; r a truncation cutoff.
    """

    p: float = 2.0
    s: float | None = None
    delta: float | None = None
    t: float | None = None
    r: float | None = None
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self) -> None:
        # written as "not x > bound" so that NaN fails every check
        if not self.p >= 1:
            raise ValueError(f"exponent p must be >= 1, got {self.p}")
        if self.s is not None and not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order s must be in (0,1), got {self.s}")
        if self.delta is not None and not self.delta > 0:
            raise ValueError(f"threshold delta must be > 0, got {self.delta}")
        if self.t is not None and not self.t > 0:
            raise ValueError(f"scale t must be > 0, got {self.t}")
        if self.r is not None and not self.r > 0:
            raise ValueError(f"cutoff r must be > 0, got {self.r}")


class PiecewiseLinearMap:
    """1-Lipschitz piecewise-linear map with values in [0, r].

    Defined by breakpoints (x_k, y_k) with x strictly increasing; constant
    continuation outside the breakpoint range (slope 0 is 1-Lipschitz).
    """

    def __init__(self, breakpoints, r: float) -> None:
        pts = np.asarray(breakpoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("breakpoints must be an (m, 2) array with m >= 2")
        x, y = pts[:, 0], pts[:, 1]
        if np.any(np.diff(x) <= 0):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        if np.any(y < -1e-12) or np.any(y > r + 1e-12):
            raise ValueError(f"breakpoint values must lie in [0, {r}]")
        slopes = np.diff(y) / np.diff(x)
        worst = float(np.max(np.abs(slopes)))
        if worst > 1.0 + 1e-9:
            k = int(np.argmax(np.abs(slopes)))
            raise ValueError(
                f"map is not 1-Lipschitz: slope {slopes[k]!r} on segment {k} "
                f"({x[k]!r} to {x[k + 1]!r})"
            )
        self.x = x
        self.y = y
        self.r = float(r)

    @staticmethod
    def clipped_identity(r: float, lo: float = 0.0) -> "PiecewiseLinearMap":
        """The identity clipped to [0, r] (shifted to start at lo)."""
        return PiecewiseLinearMap([(lo, 0.0), (lo + r, r)], r)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return np.interp(values, self.x, self.y)
