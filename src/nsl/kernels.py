"""Doubling kernels: two-point weights comparable to mu(B(x, d(x,y))).

The menu: rho1 = mu(B(x,d)), rho2 = mu(B(y,d)), their sum, geometric mean,
the harmonic combination (rho1+rho2)/(rho1*rho2), the Ahlfors kernel d^N,
and the gauge-Ahlfors kernel d_K^N built from the Minkowski gauge of a
convex body: of the nearest of the 9 translates on a torus, of the geodesic
angle on a circle.

On a circle or a torus every kernel, and on a gauge grid gauge-ahlfors,
depends only on the signed index offset of a pair, as the distance does, and
takes the distance's form: one read-only signed-offset table (_kernel_table),
NaN at offset 0, whose lattice windows are the kernel's rows. rho1's table is
row 0's level sums at each offset's level; a combination kernel combines
rho1's table with itself, as rho1 is symmetric in the offset there; d^N's is
the distance table to the N. offset_lattice names where the energies read
every pair from row 0: circle and torus with any kernel (equal weights, no
ball cut at an end), and the interval with the Ahlfors kernel or none.

kernel_matrix is the table's windows where there is one; else rho1 counted
from each row's integer distance levels (space._level_sums) with any weights
and no per-row search or sort, d^N, gauges pair by pair
(constants.gauge_distance_matrix), or the cached rho1 matrix combined with
its transpose.

kernel_blocks is the one reader of row blocks of d and rho. It picks its
source from the space and the kernel alone: lattice-table windows (every
kernel on circle and torus, gauge-ahlfors on the gauge grid), the levels the
rows share (rho1, ahlfors or no kernel on the gasket, the gauge grids and the
interval), else slices of the cached kernel matrix.

Kernels are undefined on the diagonal; matrix entries there are NaN and all
pair sums mask them out.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .constants import ConvexBody, gauge_distance_matrix, parse_body
from .parallel import row_blocks
from .space import SpaceSpec, _lattice_offsets, _lattice_reader, _level_sums, doubling_constant

KERNEL_KINDS = ("rho1", "rho2", "sum", "geom", "harm", "ahlfors", "gauge-ahlfors")

__all__ = ["KernelSpec", "kernel_matrix", "kernel_blocks", "offset_lattice", "kernel_comparability"]


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
    def parse(text: str) -> "KernelSpec":
        kind, *fields = text.strip().split(":")
        if kind in ("rho1", "rho2", "sum", "geom", "harm") and not fields:
            return KernelSpec(kind)
        if kind == "ahlfors" and len(fields) == 1:
            return KernelSpec(kind, float(fields[0]))
        if kind == "gauge-ahlfors" and fields:  # the body takes the rest of the text
            body = parse_body(":".join(fields[1:])) if len(fields) > 1 else None
            return KernelSpec(kind, float(fields[0]), body)
        raise ValueError(f"bad kernel tag {text!r}; expected rho1, rho2, sum, geom, harm, "
                         "ahlfors:N or gauge-ahlfors:N[:BODY]")


def _gauge_pow_table(space, body: ConvexBody, exponent: float) -> np.ndarray | None:
    """The gauge-Ahlfors kernel at each signed index offset (_lattice_offsets) of a circle,
    torus or gauge grid: _kernel_table's table before offset 0 is set; None on other spaces."""
    coords = space.coords
    if coords is None:
        raise ValueError("gauge-ahlfors kernel needs point coordinates")
    if coords.shape[1] != body.dim:
        raise ValueError(f"body dimension {body.dim} does not match space dimension "
                         f"{coords.shape[1]}")
    spec = SpaceSpec.from_metric(space.metric)
    gen, shape = (None, None) if spec is None else (spec.generator, spec.shape)
    if gen == "circle":  # the gauge of the geodesic angle, each distance a 1-vector
        out = body.gauge(space._table[:, None])
    elif gen in ("torus2d", "gauge_grid"):
        k = np.stack(_lattice_offsets(shape), axis=-1)
        shifts = [(0, 0)]
        if gen == "torus2d":  # the nearest of the 9 translates of the wrapped offset
            k %= shape
            shifts = itertools.product((-1, 0, 1), repeat=2)
        gauges = (body.gauge((k + np.multiply(s, shape)) / shape) for s in shifts)
        out = functools.reduce(np.minimum, gauges)
    else:
        return None
    return np.power(out, exponent, out=out)


def _combine(kind: str, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """A ball-mass combination kernel from matching entries of rho1 and rho2."""
    if kind == "rho2":
        return r2.copy()
    if kind == "sum":
        return r1 + r2
    if kind == "geom":
        return np.sqrt(r1 * r2)
    return (r1 + r2) / (r1 * r2)  # harm


def _level_masses(levels, m: int, weights: np.ndarray) -> np.ndarray:
    """mu(B(x, d(x, y))) of the points x < m, read-only, NaN where y is x: each row block's
    level sums (_level_sums) taken at y's level, one block of codes held at a time."""
    masses, sums = np.empty((m, len(weights))), _level_sums(levels, m, weights)
    for a, b in row_blocks(m):  # the sums at the slots, each block's arrays freed after it
        # every slot is in range; "clip" writes to out without the buffered copy of "raise"
        np.take(*sums(a, b), out=masses[a:b], mode="clip")
    np.fill_diagonal(masses, np.nan)
    masses.setflags(write=False)
    return masses


def _kernel_table(space, spec: KernelSpec) -> np.ndarray | None:
    """The kernel at each signed index offset of a circle or torus, or of a gauge grid for
    gauge-ahlfors, cached on the space, read-only, NaN at offset 0: its windows (_lattice_reader)
    are the kernel's rows, as space._table's are dist's. None on other spaces and kernels."""
    lattice = space.index_lattice()
    if spec.kind != "gauge-ahlfors" and (lattice is None or not lattice[1]):
        return None

    def build() -> np.ndarray | None:
        if spec.kind == "gauge-ahlfors":
            table = _gauge_pow_table(space, spec.body, spec.exponent)  # None off the lattices
        elif spec.kind == "rho1":  # row 0's mass at or below each level, at each offset's level
            levels, values = space._level_rows()
            upto, _ = _level_sums(levels, 1, space.weights)(0, 1)
            table = upto[0, np.searchsorted(values, space._table)]
        elif spec.kind == "ahlfors":
            table = space._table ** spec.exponent
        else:  # rho2 is rho1 at the opposite offset, the same entry
            rho1 = _kernel_table(space, KernelSpec("rho1"))
            table = _combine(spec.kind, rho1, rho1)
        if table is not None:
            table[tuple(m // 2 for m in table.shape)] = np.nan  # offset 0, the diagonal
            table.setflags(write=False)
        return table

    return space.cache(("kernel_table", spec.key), build)


def _kernel_rows(space, spec: KernelSpec) -> np.ndarray:
    """The kernel matrix, read-only, NaN on the diagonal, by the module docstring's branches."""
    table = _kernel_table(space, spec)
    if table is not None:
        out = _lattice_reader(table)(0, space.n)
    elif spec.kind == "rho1":
        return _level_masses(space._level_rows()[0], space.n, space.weights)
    elif spec.kind == "ahlfors":
        out = space.dist_rows(0, space.n) ** spec.exponent
    elif spec.kind == "gauge-ahlfors":  # off the lattices, pair by pair
        out = gauge_distance_matrix(spec.body, space.coords, space.coords)
        np.power(out, spec.exponent, out=out)
    else:
        rho1 = kernel_matrix(space, KernelSpec("rho1"))
        out = _combine(spec.kind, rho1, rho1.T)
    np.fill_diagonal(out, np.nan)
    out.setflags(write=False)
    return out


def kernel_matrix(space, spec: KernelSpec) -> np.ndarray:
    """Full kernel matrix, cached on the space; diagonal entries are NaN."""
    return space.cache(("kernel", spec.key), lambda: _kernel_rows(space, spec))


def kernel_blocks(space, spec: KernelSpec | None):
    """The one reader of row blocks of d and rho, by the source the module docstring names:
    blocks(a, b) gives read(psi) = psi(d, rho) with d and rho rows a..b of space.dist and
    kernel_matrix(space, spec), bitwise, NaN diagonal included (rho None if spec is)."""
    table = None if spec is None else _kernel_table(space, spec)
    if table is not None:
        rows = _lattice_reader(table)
        return lambda a, b: _reader(space.dist_rows(a, b), rows(a, b))
    levels = _level_blocks(space, spec)
    if levels is not None:
        return levels
    rho = None if spec is None else kernel_matrix(space, spec)
    return lambda a, b: _reader(space.dist_rows(a, b), None if rho is None else rho[a:b])


def _reader(d: np.ndarray | None, rho: np.ndarray | None):
    """read(psi) = psi(d, rho) of one row block."""
    return lambda psi: psi(d, rho)


def _level_blocks(space, spec: KernelSpec | None):
    """kernel_blocks' reader from the distance levels that the rows share
    (space._level_rows), or None where each row has its own levels or the kernel is no
    function of (row, level).

    With no kernel or rho = level**N (ahlfors), psi is evaluated once per level and
    gathered by each pair's code. rho1 is the row's mass at or below the level
    (_level_sums): psi is evaluated on that (b - a) x levels table and gathered by each
    pair's slot. Level 0 is the diagonal, where rho is NaN. Every d and rho is bitwise
    the matrix entry, so every psi is too.
    """
    if spec is not None and spec.kind not in ("rho1", "ahlfors"):
        return None
    levels, values = space._level_rows()
    if values is None:
        return None
    if spec is None or spec.kind == "ahlfors":
        rho = None if spec is None else np.append(np.nan, values[1:] ** spec.exponent)

        def by_level(a: int, b: int):
            codes = levels(a, b)
            return lambda psi: np.take(psi(values, rho), codes, mode="clip")

        return by_level
    sums = _level_sums(levels, space._index_rows(), space.weights)

    def by_row_level(a: int, b: int):
        upto, slots = sums(a, b)  # every slot is in range: "clip" skips take's buffered copy
        upto[:, 0] = np.nan
        d = values[:upto.shape[1]]
        return lambda psi: np.take(np.broadcast_to(psi(d, upto), upto.shape), slots, mode="clip")

    return by_row_level


def offset_lattice(space, spec: KernelSpec | None) -> tuple[tuple[int, ...], bool] | None:
    """(shape, wrapped) of the index lattice where d and rho depend only on the offset; else None.

    That is space.index_lattice() where the kernel, or its absence (spec None), follows the
    distance.
    """
    lattice = space.index_lattice()
    # every kernel on a wrapped lattice; the interval cuts balls at its ends
    if lattice is None or not (lattice[1] or spec is None or spec.kind == "ahlfors"):
        return None
    return lattice


def kernel_comparability(space, spec: KernelSpec):
    """Measured two-sided comparability of rho against mu(B(x, d(x,y))).

    Returns a DoublingReport carrying c_rho_hat = max(sup rho/rho1,
    sup rho1/rho) over off-diagonal pairs, with its first row-major witness
    and the measured doubling constant alongside. The ratios are taken a row
    block at a time (kernel_blocks). On circle and torus every row of both
    kernels is a permutation of row 0, so row 0 alone gives the supremum and
    the first witness (0, y).
    """
    base = doubling_constant(space)  # which rejects a space of fewer than two points
    rho, rho1 = kernel_blocks(space, spec), kernel_blocks(space, KernelSpec("rho1"))

    def extremes(a: int, b: int) -> list[tuple[float, int, int]]:  # of the ratio, its inverse
        kernel, block = rho(a, b)(lambda d, r: r), []
        ratio = kernel / (kernel if spec.kind == "rho1" else rho1(a, b)(lambda d, r: r))
        for r in (ratio, 1.0 / ratio):  # both kernels have a NaN diagonal, which nanargmax skips
            x, y = divmod(int(np.nanargmax(r)), space.n)
            block.append((float(r[x, y]), a + x, y))
        return block

    sides = [extremes(a, b) for a, b in row_blocks(space._index_rows())]
    # max keeps the first block of equal maxima, and so the first witness in row-major order
    (hi, *hi_at), (lo, *lo_at) = (max(side, key=lambda t: t[0]) for side in zip(*sides))
    base.c_rho_hat = max(hi, lo)
    base.kernel = spec.key
    base.rho_witness = tuple(hi_at if hi >= lo else lo_at)
    return base
