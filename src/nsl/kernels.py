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
kernel_matrix (all rows) and kernel_row (row 0), so the two agree bitwise;
kernel_blocks reads row blocks of either, on circle and torus from row 0 alone.
rho1 is gathered once, on its first request (space.pair_ball_masses), by
counting each row's integer distance levels on every space and with any
weights. No kernel runs a per-row search or sorts a row twice. The pair sums
read neither matrix where the rows share their levels (energies._level_psi):
there rho1 and ahlfors come per row block from the levels.

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
from .space import SpaceSpec, _lattice_offsets, _lattice_rows, doubling_constant

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


def _gauge_pow_rows(space, body: ConvexBody, exponent: float, rows: int) -> np.ndarray:
    """Rows 0..rows of the gauge-Ahlfors kernel matrix: on a circle, torus or gauge grid the
    rows of its lattice table (space._lattice_rows), evaluated once per signed index offset;
    elsewhere pair by pair."""
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
    else:  # off the lattices, pair by pair
        out = gauge_distance_matrix(body, coords[:rows], coords)
        return np.power(out, exponent, out=out)
    return _lattice_rows(np.power(out, exponent, out=out), 0, rows)


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


def _kernel_rows(space, spec: KernelSpec, rows: int) -> np.ndarray:
    """Rows 0..rows of the kernel matrix (rows is space.n or 1), read-only, NaN on the diagonal.

    rho1 is the space's gather of mu(B(x, d(x, y))) (space.pair_ball_masses); on a circle
    or a torus, which gather row 0 alone, the matrix is the lattice windows of that row. A
    combination kernel combines rho1's cached matrix with its transpose, or rho1's
    row 0 with its column 0, mu(B(y, d(y, 0))): on a wrapped lattice row 0 itself, as the
    distances there are symmetric in the offset, bitwise.
    """
    whole = rows == space.n
    if spec.kind == "rho1":
        masses = space.pair_ball_masses()
        if rows <= len(masses):
            return masses[:rows]
        out = _lattice_rows(masses[0, _wrapped_offsets(space.index_lattice()[0])], 0, rows)
    elif spec.kind == "ahlfors":
        out = (space.dist if whole else space.dist_rows(0, rows)) ** spec.exponent
    elif spec.kind == "gauge-ahlfors":
        out = _gauge_pow_rows(space, spec.body, spec.exponent, rows)
    elif whole:
        r1 = kernel_matrix(space, KernelSpec("rho1"))
        out = _combine(spec.kind, r1, r1.T)
    else:
        masses = space.pair_ball_masses()
        column = masses[:1] if len(masses) == 1 else masses[:, :1].T
        out = _combine(spec.kind, masses[:1], column)
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


def kernel_blocks(space, spec: KernelSpec):
    """A reader of row blocks of kernel_matrix(space, spec), bitwise: rows(a, b) gives rows
    a..b of the matrix and rows a..b of its transpose.

    On circle and torus, where the kernel depends only on the wrapped index
    offset and is symmetric (every gauge body is origin-symmetric), the two are
    one lattice window (_lattice_rows) of kernel_row's offset table, and no
    matrix is built; elsewhere they are slices of the cached matrix.
    """
    lattice = space.index_lattice()
    if lattice is None or not lattice[1]:
        rho = kernel_matrix(space, spec)
        return lambda a, b: (rho[a:b], rho.T[a:b])
    table = kernel_row(space, spec)[_wrapped_offsets(lattice[0])]

    def rows(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        block = _lattice_rows(table, a, b)
        return block, block

    return rows


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
    sides = []  # per block: (max, x, y) of the ratio, then of its inverse
    for a, b in row_blocks(space._index_rows()):
        ratio, block = rho(a, b)[0] / rho1(a, b)[0], []
        for r in (ratio, 1.0 / ratio):  # both kernels have a NaN diagonal, which nanargmax skips
            x, y = divmod(int(np.nanargmax(r)), space.n)
            block.append((float(r[x, y]), a + x, y))
        sides.append(block)
    # max keeps the first block of equal maxima, and so the first witness in row-major order
    (hi, *hi_at), (lo, *lo_at) = (max(side, key=lambda t: t[0]) for side in zip(*sides))
    base.c_rho_hat = max(hi, lo)
    base.kernel = spec.key
    base.rho_witness = tuple(hi_at if hi >= lo else lo_at)
    return base
