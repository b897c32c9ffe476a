"""Doubling kernels: two-point weights comparable to mu(B(x, d(x,y))).

The menu: rho1 = mu(B(x,d)), rho2 = mu(B(y,d)), their sum, geometric mean,
the harmonic combination (rho1+rho2)/(rho1*rho2), the Ahlfors kernel d^N,
and the gauge-Ahlfors kernel d_K^N built from the Minkowski gauge of a
convex body: of the nearest of the 9 translates on a torus, of the geodesic
angle on a circle. On a circle, a torus or a gauge grid it is a function of
the signed integer index offset of a pair, so it is evaluated once per offset
into a lattice table, and the n x n matrix or its row 0 is read from that
table; other spaces take all pairs from constants.gauge_distance_matrix.

offset_lattice names the generator lattices on which a kernel, like the
distance, depends only on the index offset of a pair, so that the energies
can read every pair's entry from row 0, which kernel_row builds without the
matrix: every kernel on the circle and the torus (equal weights, no ball cut
at an end, gauges of the geodesic angle or the nearest translate of the
wrapped offset), and the Ahlfors kernel alone on the interval.

One builder, _kernel_rows, with one branch per kernel kind, serves both
kernel_matrix (all rows) and kernel_row (row 0), so the two agree bitwise; on
circle and torus the matrix is the lattice windows of row 0. rho1 is counted
from each row's integer distance levels (space._level_sums) on every space
and with any weights, with no per-row search or sort. A combination kernel
needs rho1's transpose: rho1's row 0 again on circle and torus, else the
cached rho1 matrix, or for row 0 alone rho1's column 0 by row blocks.

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
from .space import SpaceSpec, _lattice_offsets, _lattice_rows, _level_sums, doubling_constant

KERNEL_KINDS = ("rho1", "rho2", "sum", "geom", "harm", "ahlfors", "gauge-ahlfors")

__all__ = ["KernelSpec", "kernel_matrix", "kernel_row", "kernel_blocks", "offset_lattice",
           "kernel_comparability"]


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
    torus or gauge grid, whose rows are the lattice windows of this table (_lattice_rows);
    None on other spaces."""
    coords = space.coords
    if coords is None:
        raise ValueError("gauge-ahlfors kernel needs point coordinates")
    if coords.shape[1] != body.dim:
        raise ValueError(f"body dimension {body.dim} does not match space dimension "
                         f"{coords.shape[1]}")
    spec = SpaceSpec.from_metric(space.metric)
    gen, shape = (None, None) if spec is None else (spec.generator, spec.shape)
    if gen == "circle":  # the gauge of the geodesic angle, each distance a 1-vector
        out = body.gauge(space.dist_rows(0, 1)[0, np.abs(_lattice_offsets(shape)[0]), None])
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


def _wrapped_offsets(shape: tuple[int, ...]) -> np.ndarray:
    """The position in row 0 of a wrapped lattice of each signed index offset (_lattice_offsets):
    row 0 indexed by it is the lattice table of a kernel that depends only on the wrapped
    offset."""
    return np.ravel_multi_index([k % m for k, m in zip(_lattice_offsets(shape), shape)], shape)


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


def _kernel_rows(space, spec: KernelSpec, rows: int) -> np.ndarray:
    """Rows 0..rows of the kernel matrix (rows is space.n or 1), read-only, NaN on the diagonal.

    On a circle or a torus, whose rows all permute row 0, the matrix is the lattice
    windows of kernel_row. rho1 is counted from the level sums (_level_masses). A
    combination kernel combines rho1 with its transpose: on circle and torus
    kernel_row's row 0 in both orientations, as the distances there are symmetric in
    the offset, bitwise; elsewhere the cached rho1 matrix, or for row 0 alone its column 0
    read a row block at a time (kernel_blocks).
    """
    lattice, rho1 = space.index_lattice(), KernelSpec("rho1")
    wrapped = lattice is not None and lattice[1]
    if wrapped and rows > 1:
        out = _lattice_rows(kernel_row(space, spec)[_wrapped_offsets(lattice[0])], 0, rows)
    elif spec.kind == "rho1":
        return _level_masses(space._level_rows()[0], rows, space.weights)
    elif spec.kind == "ahlfors":
        out = space.dist_rows(0, rows) ** spec.exponent
    elif spec.kind == "gauge-ahlfors":
        table = _gauge_pow_table(space, spec.body, spec.exponent)
        if table is not None:
            out = _lattice_rows(table, 0, rows)
        else:  # off the lattices, pair by pair
            out = gauge_distance_matrix(spec.body, space.coords[:rows], space.coords)
            np.power(out, spec.exponent, out=out)
    elif wrapped or rows > 1:  # rho1 and its transpose, on circle and torus row 0 twice
        r1 = kernel_row(space, rho1)[None] if wrapped else kernel_matrix(space, rho1)
        out = _combine(spec.kind, r1, r1 if wrapped else r1.T)
    else:  # row 0 alone: rho1's row 0 and its column 0, a row block at a time
        blocks = kernel_blocks(space, rho1)
        column = [blocks(a, b)(lambda d, r: r)[:, :1] for a, b in row_blocks(space.n)]
        out = _combine(spec.kind, blocks(0, 1)(lambda d, r: r), np.concatenate(column).T)
    np.fill_diagonal(out, np.nan)
    out.setflags(write=False)
    return out


def kernel_matrix(space, spec: KernelSpec) -> np.ndarray:
    """Full kernel matrix, cached on the space; diagonal entries are NaN."""
    return space.cache(("kernel", spec.key), lambda: _kernel_rows(space, spec, space.n))


def kernel_row(space, spec: KernelSpec) -> np.ndarray:
    """Row 0 of kernel_matrix(space, spec), bitwise, without the matrix; cached on the space.
    Entry 0 is NaN."""
    return space.cache(("kernel_row", spec.key), lambda: _kernel_rows(space, spec, 1)[0])


def kernel_blocks(space, spec: KernelSpec | None):
    """The one reader of row blocks of d and rho, by the source the module docstring names:
    blocks(a, b) gives read(psi) = psi(d, rho) with d and rho rows a..b of space.dist and
    kernel_matrix(space, spec), bitwise, NaN diagonal included (rho None if spec is)."""
    lattice, table = space.index_lattice(), None
    if spec is not None and lattice is not None and lattice[1]:
        table = kernel_row(space, spec)[_wrapped_offsets(lattice[0])]
    elif spec is not None and spec.kind == "gauge-ahlfors":
        table = _gauge_pow_table(space, spec.body, spec.exponent)  # None off the gauge grid
        if table is not None:
            table[tuple(m // 2 for m in table.shape)] = np.nan  # offset 0, the diagonal
    if table is not None:
        return lambda a, b: _reader(space.dist_rows(a, b), _lattice_rows(table, a, b))
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


def offset_lattice(space, spec: KernelSpec) -> tuple[tuple[int, ...], bool] | None:
    """(shape, wrapped) of the index lattice where d and rho depend only on the offset; else None.

    That is space.index_lattice() where the kernel follows the distance.
    """
    lattice = space.index_lattice()
    # every kernel on a wrapped lattice; the interval cuts balls at its ends
    return lattice if lattice is not None and (lattice[1] or spec.kind == "ahlfors") else None


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
