"""Doubling kernels: two-point weights comparable to mu(B(x, d(x,y))).

The menu: rho1 = mu(B(x,d)), rho2 = mu(B(y,d)), their sum, geometric mean,
the harmonic combination (rho1+rho2)/(rho1*rho2), the Ahlfors kernel d^N,
and the gauge-Ahlfors kernel d_K^N built from the Minkowski gauge of a
convex body (evaluated with the space's translate convention on tori).

Kernels are undefined on the diagonal; matrix entries there are NaN and all
pair sums mask them out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import ConvexBody, parse_body
from .parallel import row_blocks

KERNEL_KINDS = ("rho1", "rho2", "sum", "geom", "harm", "ahlfors", "gauge-ahlfors")

__all__ = ["KernelSpec", "kernel_matrix", "kernel_comparability"]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: one of the ball-measure combinations or d^N."""

    kind: str = "rho1"
    exponent: float = 1.0
    body: ConvexBody | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.kind in ("ahlfors", "gauge-ahlfors") and not 0.0 < self.exponent < np.inf:
            raise ValueError(f"kernel exponent must be positive and finite, got {self.exponent}")
        if self.kind == "gauge-ahlfors" and self.body is None:
            object.__setattr__(self, "body", ConvexBody("ball", dim=2))

    @property
    def key(self) -> str:
        if self.kind == "ahlfors":
            return f"ahlfors:{self.exponent:g}"
        if self.kind == "gauge-ahlfors":
            return f"gauge-ahlfors:{self.exponent:g}:{self.body.tag}"
        return self.kind

    @staticmethod
    def parse(text: str, body: ConvexBody | None = None) -> "KernelSpec":
        parts = text.strip().split(":")
        kind = parts[0]
        if kind in ("rho1", "rho2", "sum", "geom", "harm"):
            return KernelSpec(kind)
        if kind in ("ahlfors", "gauge-ahlfors"):
            if len(parts) < 2:
                raise ValueError(f"kernel {kind} needs an exponent, e.g. {kind}:2")
            exponent = float(parts[1])
            if kind == "ahlfors":
                return KernelSpec("ahlfors", exponent)
            if len(parts) > 2:
                body = parse_body(":".join(parts[2:]))
            return KernelSpec("gauge-ahlfors", exponent, body)
        raise ValueError(f"unknown kernel tag {text!r}")


def _rho1_matrix(space) -> np.ndarray:
    return space.ball_mass_rows(0, space.n, space.dist)


def _gauge_pow_matrix(space, body: ConvexBody, exponent: float) -> np.ndarray:
    if space.coords is None:
        raise ValueError("gauge-ahlfors kernel needs point coordinates")
    coords = space.coords
    if coords.shape[1] != body.dim:
        raise ValueError(
            f"body dimension {body.dim} does not match space dimension {coords.shape[1]}"
        )
    periodic = space.metric.get("type") == "torus"

    def rows(a: int, b: int) -> np.ndarray:
        delta = coords[a:b, None, :] - coords[None, :, :]
        if not periodic:
            return body.gauge(delta)
        best = None
        for sx in (-1.0, 0.0, 1.0):
            for sy in (-1.0, 0.0, 1.0):
                g = body.gauge(delta + np.array([sx, sy]))
                best = g if best is None else np.minimum(best, g)
        return best

    out = np.empty((space.n, space.n))
    for a, b in row_blocks(space.n):
        out[a:b] = rows(a, b)
    return np.power(out, exponent, out=out)


def kernel_matrix(space, spec: KernelSpec) -> np.ndarray:
    """Full kernel matrix, cached on the space; diagonal entries are NaN."""

    def build() -> np.ndarray:
        if spec.kind == "rho1":
            mat = _rho1_matrix(space)
        elif spec.kind == "ahlfors":
            mat = space.dist**spec.exponent
        elif spec.kind == "gauge-ahlfors":
            mat = _gauge_pow_matrix(space, spec.body, spec.exponent)
        else:
            r1 = kernel_matrix(space, KernelSpec("rho1"))
            if spec.kind == "rho2":
                mat = r1.T.copy()
            elif spec.kind == "sum":
                mat = r1 + r1.T
            elif spec.kind == "geom":
                mat = np.sqrt(r1 * r1.T)
            else:  # harm
                mat = (r1 + r1.T) / (r1 * r1.T)
        np.fill_diagonal(mat, np.nan)
        mat.setflags(write=False)
        return mat

    return space.cache(("kernel", spec.key), build)


def kernel_comparability(space, spec: KernelSpec):
    """Measured two-sided comparability of rho against mu(B(x, d(x,y))).

    Returns a DoublingReport carrying c_rho_hat = max(sup rho/rho1,
    sup rho1/rho) over off-diagonal pairs, with the measured doubling
    constant alongside.
    """
    from .space import doubling_constant

    if space.n < 2:
        raise ValueError("kernel comparability needs at least one off-diagonal pair")
    # both kernels have a NaN diagonal, which the nan-reductions skip
    ratio = kernel_matrix(space, spec) / kernel_matrix(space, KernelSpec("rho1"))
    inverse = 1.0 / ratio
    hi = float(np.nanmax(ratio))
    lo = float(np.nanmax(inverse))
    flat = np.nanargmax(ratio) if hi >= lo else np.nanargmax(inverse)
    x, y = np.unravel_index(flat, ratio.shape)
    base = doubling_constant(space)
    base.c_rho_hat = max(hi, lo)
    base.kernel = spec.key
    base.rho_witness = (int(x), int(y))
    return base
