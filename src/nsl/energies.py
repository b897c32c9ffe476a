"""Pairwise nonlocal energies on a fixed space and field.

Every double integral over X x X is a sum over ordered pairs weighted by
w(x) w(y); the diagonal contributes zero. Every pairwise energy is a term
(phi, psi) of one reducer, _pair_sum:

  sum_{x != y} phi(|u(x)-u(y)|) w(x) w(y) psi(d(x,y), rho(x,y)),

with phi the pair part (gap^p, or gap > delta) and psi the class part
(1/(d^{ps} rho), [d <= t]/rho, delta^p/(rho d^p) [d <= r], [d <= t]). H_t
folds 1/sqrt(mu(B(x,t))) into the point weights and takes psi = [d <= t].

The invariants; README's pair-sum and ball-sum passages give each route's
method, cost and measured error.

- Two layouts. Where d and rho depend only on a pair's index offset k
  (kernels.offset_lattice) the offset layout sums S_k = sum_x phi w w over
  the pairs at offset k, by FFT for phi = _square and by sliding windows
  otherwise, and returns sum_k S_k psi_k with psi read on row 0 of
  kernels.kernel_blocks. Elsewhere the row layout forms each fixed row block
  a row tile at a time (parallel.tiles), reads psi through
  kernels.kernel_blocks, sums each row whole and then the block's rows in
  order.
- Ball sums (S_t, every g_t, mollify, verify's ball-mean check) sum inside
  each ball. At p = 2 with no cap the pairs of B = B(x',t) total
  2 mu(B) sum_B w v^2 - 2 (sum_B w v)^2 with v = u - u(x'). On circle and
  torus every ball is x' + O_t, so those sums run over the offsets O_t, a
  block of offsets and a column tile of centers at a time, each center
  reduced over the block's offsets in order (_ball_sums); elsewhere over row
  blocks of centers. Other p and capped totals are the row sums of
  (m @ Phi) * m over the union of a row block's balls.
- The row layout's gap, w w, phi and psi and the ball windows hold one tile
  of at most parallel.TILE entries, whatever n is, with gap, w w and v in
  buffers reused across a worker's tiles; the offset layout's window blocks
  still span all n points. No n x n distance or kernel matrix is built where
  the space has a closed form.
- Values depend on the fixed blocks alone, not on the worker count or the
  tiles. Terms that share a phi object share its pair part, so a sweep is
  one pass and each sweep value is bitwise its one-point call.
- Constant fields and singleton balls give exactly 0, an overflow inf.

Scale quantities at ball radius t (closed balls throughout):

  K_t  = sum_{0 < d <= t} |u(x)-u(y)|^p / rho(x,y) w(x) w(y)
  H_t  = sum_{0 < d <= t} |u(x)-u(y)|^p / sqrt(mu(B(x,t)) mu(B(y,t))) w w
  S_t  = sum_{x'} w(x') mu(B(x',t))^-2 sum_{x,y in B(x',t)} |u(x)-u(y)|^p w w

k_energy, h_energy and scale_s_by_balls compute one each; scale_energies is
their bundle. scale_s_by_pairs integrates over the center first, against
f_t(x,y) = sum_{x' in B(x,t) ^ B(y,t)} w(x') mu(B(x',t))^-2; the two routes
agree to 1e-10 relative. g_scale is the ball-average gradient surrogate g_t
in the three normalizations the estimates use: "plain" (p-th power, 1/t^p
inside the average), "truncated" (first power of min(|u(x)-u(y)|, r) / t) and
"composed" (first power of |phi(u(x)) - phi(u(y))| / t for a 1-Lipschitz phi
with values in [0, r]).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import EnergySpec, PiecewiseLinearMap, ScalarField, as_values
from .kernels import KernelSpec, _reader, kernel_blocks, offset_lattice
from .parallel import block_reduce, map_blocks, row_blocks, tiles
from .space import MetricMeasureSpace

__all__ = [
    "ScaleEnergies",
    "gagliardo_p",
    "gagliardo_values",
    "nguyen_a",
    "nguyen_a_values",
    "nguyen_b",
    "k_energy",
    "h_energy",
    "scale_energies",
    "scale_s_by_balls",
    "scale_s_by_pairs",
    "mollify",
    "g_scale",
]


@dataclass(frozen=True)
class ScaleEnergies:
    """The three ball-scale energies at a fixed t."""

    k: float
    h: float
    s: float

    def __post_init__(self) -> None:
        for name, val in (("k", self.k), ("h", self.h), ("s", self.s)):
            if val < 0 or not np.isfinite(val):
                raise ValueError(f"scale energy {name} must be finite and >= 0, got {val}")


class _Scratch(threading.local):
    """One worker's tile buffers, reused by its later tiles: take(i, shape) is buffer i as an
    array of that shape, regrown only when a tile needs more."""

    def __init__(self) -> None:
        self.flat: dict[int, np.ndarray] = {}

    def take(self, i: int, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if i not in self.flat or self.flat[i].size < size:
            self.flat[i] = np.empty(size)
        return self.flat[i][:size].reshape(shape)


def _row_pair_sum(space: MetricMeasureSpace, vals: np.ndarray, terms, blocks, w) -> np.ndarray:
    """The pair sums of terms by row blocks, each formed a row tile at a time (tiles);
    blocks(a, b) gives a reader of each psi's entries on rows a..b (kernels.kernel_blocks).

    Each row is summed whole, then a block's rows in order, so no value depends on the
    tile height. Terms that share one phi object share its pair part phi(gap) w w, live
    for one phi at a time. gap and w w take the worker's scratch buffers; the last phi's
    pair part is written over w w, and each phi's last term over its pair part.
    """
    groups: dict = {}
    for i, (phi, _) in enumerate(terms):
        groups.setdefault(phi, []).append(i)
    last = next(reversed(groups), None)
    n, scratch = space.n, _Scratch()

    def rows(a: int, b: int) -> np.ndarray:
        sums = np.empty((len(terms), b - a))
        for t0, t1 in tiles(a, b, n):
            gap = np.subtract.outer(vals[t0:t1], vals, out=scratch.take(0, (t1 - t0, n)))
            np.abs(gap, out=gap)
            ww = np.multiply.outer(w[t0:t1], w, out=scratch.take(1, (t1 - t0, n)))
            psi_rows = blocks(t0, t1)
            for phi, members in groups.items():
                pair = np.multiply(phi(gap), ww, out=ww if phi is last else None)
                for i in members:
                    # the diagonal divides by d = 0 or by a NaN kernel entry; it is zeroed
                    with np.errstate(divide="ignore", invalid="ignore"):
                        term = np.multiply(pair, psi_rows(terms[i][1]),
                                           out=pair if i == members[-1] else None)
                    term.reshape(-1)[t0::n + 1] = 0.0  # entry (x, x) of each row x
                    np.add.reduce(term, axis=1, out=sums[i, t0 - a:t1 - a])
        return np.add.reduce(sums, axis=1)

    return block_reduce(n, rows)


def _square(gap: np.ndarray) -> np.ndarray:
    """gap^2: the one phi object whose S_k _offset_pair_sum forms by FFT."""
    return gap**2


def _square_by_fft(vals, w, shape, wrapped: bool) -> np.ndarray | None:
    """S_k of gap^2 at every offset k of the lattice at once, or None if sum w v^2 overflows.

    With v = u - mean(u) and corr(a, b)_k = sum_x a(x) b(x+k),
    S = corr(w v^2, w) + corr(w, w v^2) - 2 corr(w v, w v): circular on circle
    and torus, zero-padded to twice the shape on the interval.
    """
    v = vals - np.clip(np.mean(vals), vals.min(), vals.max())  # a constant field is exactly 0
    wv = w * v
    with np.errstate(over="ignore"):  # the windows report the overflow
        wv2 = wv * v
    if not np.isfinite(np.sum(wv2)):
        return None
    size, axes = shape if wrapped else tuple(2 * k for k in shape), tuple(range(len(shape)))
    fw, fq, fv = (np.fft.rfftn(a.reshape(shape), size, axes) for a in (w, wv2, wv))
    return np.fft.irfftn(2.0 * ((fw.conj() * fq).real - (fv.conj() * fv).real), size, axes)


def _offset_pair_sum(vals, terms, shape, wrapped: bool, w) -> np.ndarray:
    """The pair sums of terms (phi, psi_k) by index offset: sum_k S_k psi_k per term.

    S_k is formed once per phi object, over every offset where some term has
    psi_k != 0; each term sums over its own such offsets only. _square takes
    the FFT; every other phi takes sliding windows.
    """
    live = np.array([psi_row != 0 for _, psi_row in terms])
    live[:, 0] = False  # offset 0 is the diagonal
    offsets = np.flatnonzero(live.any(axis=0))
    out = np.zeros(len(terms))
    if offsets.size == 0:
        return out
    phis = list(dict.fromkeys(phi for phi, _ in terms))
    sums = {}
    if _square in phis:
        full = _square_by_fft(vals, w, shape, wrapped)
        if full is not None:
            sums[_square] = full[np.unravel_index(offsets, shape)]
    phis = [phi for phi in phis if phi not in sums]
    if phis:
        sums.update(zip(phis, _window_sums(vals, w, phis, offsets, shape, wrapped)))
    for i, (phi, psi_row) in enumerate(terms):
        own = live[i, offsets]
        out[i] = np.sum(sums[phi][own] * psi_row[offsets[own]])
    return (1.0 if wrapped else 2.0) * out


_SUM_GROUP = 64  # a multiple of einsum's SIMD step: 8 doubles (128-bit) to 32 (512-bit)


def _window_sums(vals, w, phis, offsets, shape, wrapped: bool) -> np.ndarray:
    """S_k per phi at offsets, from sliding windows over a wrapped or zero-weight-padded
    copy of u and w; each block forms its gaps and pair weights once for every phi.

    A block of contiguous offsets k0..k1 on a 1-D lattice reads rows k0..k1 of a
    sliding-window view, no copy (_offset_rows): all n columns on the circle, and
    on the interval the first n - k0 columns, rounded up to _SUM_GROUP (at most
    n). Column x pairs with x + k, which for x >= n - k0 lies in the zero-weight
    padding at every offset of the block, so the dropped columns add exact
    zeros. einsum sums a row in SIMD steps from column 0, and a width that ends
    on a step boundary takes the same rounding steps as the full row, so S_k
    keeps its bits. A block whose offsets skip (the circle with a cutoff:
    1..R and n-R..n-1) and every torus block gather their rows.
    """
    n = vals.size
    u_ext, w_ext = _extend(vals, shape, wrapped), _extend(w, shape, wrapped)

    def block(a: int, b: int) -> np.ndarray:
        live = offsets[a:b]
        h = shape[0] if wrapped else min(n, -(-(n - live[0]) // _SUM_GROUP) * _SUM_GROUP)
        u_rows = _offset_rows(u_ext, shape, live, 0, h)
        m = u_rows.shape[1]  # the points of lattice rows 0..h
        gap = np.abs(u_rows - vals[:m])
        pw = _offset_rows(w_ext, shape, live, 0, h) * w[:m]
        return np.stack([np.einsum("ij,ij->i", phi(gap), pw) for phi in phis])

    return np.concatenate(map_blocks(offsets.size, block), axis=1)


def _extend(a: np.ndarray, shape, wrapped: bool) -> np.ndarray:
    """a on the lattice, tiled twice along each axis when wrapped, else zero-padded to twice
    its shape, so x + k for x on the lattice and an offset k lands inside."""
    grid = a.reshape(shape)
    if wrapped:
        return np.tile(grid, (2,) * len(shape))
    return np.pad(grid, [(0, k) for k in shape])  # zero weight beyond the end


def _offset_rows(ext: np.ndarray, shape, live: np.ndarray, r0: int, h: int) -> np.ndarray:
    """Row j holds ext at x + live[j] for the points x of lattice rows r0..r0+h (_extend): a
    sliding-window view, no copy, if live is a run of offsets on a 1-D lattice, else
    gathered."""
    if len(shape) == 1 and live[-1] - live[0] == live.size - 1:
        return sliding_window_view(ext[r0:], h)[live[0]:live[-1] + 1]
    window = sliding_window_view(ext[r0:], (h, *shape[1:]))
    return window[np.unravel_index(live, shape)].reshape(live.size, -1)


def _ball_sums(space, t: float, arrays, windows, rows) -> np.ndarray:
    """Per center x, sums over the ball B(x, t), the centers along the last axis.

    On a wrapped lattice (circle, torus) every ball is B(x, t) = x + O_t, with O_t the
    offsets k, 0 included, with d_k <= t on row 0, which is exact: every pair at offset
    k carries bitwise the same d. There each block of offsets k_j is read a column tile
    at a time, whole lattice rows of at least two centers (tiles): windows(read, cols)
    gets a reader read(i) of the tile of arrays[i] (_offset_rows), row j holding it at
    x + k_j for the centers x in cols, and returns their sums. A column is reduced over
    the block's offsets in order inside one tile, so the sums do not depend on the tile
    width; the blocks' sums are added in a fixed order (block_reduce), so they do not
    depend on the worker count. Elsewhere rows(a, b) returns the sums of centers a..b
    from their distance rows.
    """
    lattice = space.index_lattice()
    if lattice is None or not lattice[1]:
        return np.concatenate(map_blocks(space.n, rows), axis=-1)
    shape, offsets = lattice[0], np.flatnonzero(space.dist_rows(0, 1)[0] <= t)
    ext, unit = [_extend(a, shape, True) for a in arrays], space.n // shape[0]

    def block(a: int, b: int) -> np.ndarray:
        live, out = offsets[a:b], None
        # a tile of one column would reduce it by another route, in other bits
        for r0, r1 in tiles(0, shape[0], (b - a) * unit, least=-(-2 // unit)):
            cols = slice(r0 * unit, r1 * unit)
            sums = windows(lambda i: _offset_rows(ext[i], shape, live, r0, r1 - r0), cols)
            if out is None:
                out = np.empty((*sums.shape[:-1], space.n))
            out[..., cols] = sums
        return out

    return block_reduce(offsets.size, block)


def _pair_sum(space: MetricMeasureSpace, vals: np.ndarray, terms, kernel: KernelSpec | None,
              w: np.ndarray | None = None) -> np.ndarray:
    """sum_{x != y} phi(|u(x)-u(y)|) w(x) w(y) psi(d(x,y), rho(x,y)) per term (phi, psi).

    rho is the kernel matrix, or None with kernel None; w defaults to the point
    weights. phi maps an array of gaps to the pair parts and psi arrays of
    distances and kernel entries to the class parts; psi may be inf or NaN on
    the diagonal, which never enters the sum.
    """
    w = space.weights if w is None else w
    lattice, blocks = offset_lattice(space, kernel), kernel_blocks(space, kernel)
    if lattice is None:
        return _row_pair_sum(space, vals, terms, blocks, w)
    row = blocks(0, 1)  # every pair at offset k carries row 0's entry at k
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = [(phi, row(psi)[0]) for phi, psi in terms]
    return _offset_pair_sum(vals, rows, *lattice, w)


def _one_pass(space: MetricMeasureSpace, u, specs, terms) -> list[float]:
    """One pair sum per spec and term, from one pass; the specs share their kernel."""
    if not specs:
        return []
    kernel = specs[0].kernel
    if any(spec.kernel.key != kernel.key for spec in specs):
        raise ValueError("energies summed in one pass must share their kernel")
    return [float(v) for v in _pair_sum(space, as_values(u, space.n), terms, kernel)]


def _gap_power(p: float):
    return _square if p == 2 else (lambda gap: gap**p)


def gagliardo_values(space: MetricMeasureSpace, u, specs) -> list[float]:
    """gagliardo_p at each spec from one pair pass: specs with one p share gap^p and S_k."""
    if any(spec.s is None for spec in specs):
        raise ValueError("gagliardo_p needs the fractional order s")
    phis = {p: _gap_power(p) for p in {spec.p for spec in specs}}
    return _one_pass(space, u, specs, [
        (phis[spec.p], lambda d, rho, ps=spec.p * spec.s: 1.0 / (d**ps * rho)) for spec in specs
    ])


def gagliardo_p(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """p-th power of the fractional seminorm with kernel d^{ps} rho."""
    return gagliardo_values(space, u, [spec])[0]


def _nguyen_term(spec: EnergySpec, radius: float):
    if spec.delta is None:
        raise ValueError("the threshold functional needs delta")
    delta, p = spec.delta, spec.p
    return (lambda gap: gap > delta,
            lambda d, rho: np.where(d <= radius, delta**p / (rho * d**p), 0.0))


def nguyen_a_values(space: MetricMeasureSpace, u, specs) -> list[float]:
    """nguyen_a at each spec from one pair pass: each block's gaps and weights are formed once."""
    return _one_pass(space, u, specs, [_nguyen_term(spec, np.inf) for spec in specs])


def nguyen_a(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """Threshold functional: delta^p-weighted sum over {|u(x)-u(y)| > delta}."""
    return nguyen_a_values(space, u, [spec])[0]


def nguyen_b(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """Threshold functional restricted to pairs with d(x,y) <= r."""
    if spec.r is None:
        raise ValueError("nguyen_b needs the radius r")
    return _one_pass(space, u, [spec], [_nguyen_term(spec, spec.r)])[0]


def _ball_product_totals(space, t: float, vals, p: float, cap: float, scale: float) -> np.ndarray:
    """_ball_pair_totals as the row sums of (m @ Phi) * m per row block of centers."""
    def rows(a: int, b: int) -> np.ndarray:
        inside = space.dist_rows(a, b) <= t
        cols = np.flatnonzero(inside.any(axis=0))
        inside, sub = inside[:, cols], vals[cols]
        m, out = inside * space.weights[cols], np.zeros(b - a)
        for c, e in row_blocks(cols.size):
            phi = (np.minimum(np.abs(sub[:, None] - sub[c:e]), cap) / scale) ** p
            over = np.isinf(phi)  # an inf pair part: inf for the balls that hold it, no 0 * inf
            if over.any():
                phi[over] = 0.0
                out[((inside @ over) & inside[:, c:e]).any(axis=1)] = np.inf
            out += np.einsum("ij,ij->i", np.where(inside[:, c:e], m @ phi, 0.0), m[:, c:e])
        return out

    return np.concatenate(map_blocks(space.n, rows))


def _ball_pair_totals(space, t: float, vals, p: float, cap: float = np.inf,
                      scale: float = 1.0) -> np.ndarray:
    """Per center x', sum_{x,y in B(x',t)} (min(|u(x)-u(y)|, cap) / scale)^p w(x) w(y)."""
    if p != 2 or cap != np.inf:
        return _ball_product_totals(space, t, vals, p, cap, scale)

    scratch = _Scratch()

    def windows(read, cols) -> np.ndarray:  # v is squared in place, in the worker's buffer
        u_rows, w_rows = read(0), read(1)
        v = np.subtract(u_rows, vals[cols], out=scratch.take(0, u_rows.shape))
        first = np.einsum("kx,kx->x", w_rows, v)
        return np.stack([first, np.einsum("kx,kx->x", w_rows, np.multiply(v, v, out=v))])

    def rows(a: int, b: int) -> np.ndarray:
        v = np.where(space.dist_rows(a, b) <= t, vals - vals[a:b, None], 0.0)
        return np.stack([v @ space.weights, (v * v) @ space.weights])

    first, second = _ball_sums(space, t, (vals, space.weights), windows, rows)
    with np.errstate(invalid="ignore"):  # inf - inf where the squares overflow
        totals = 2.0 * space.ball_masses(t) * second - 2.0 * first**2
    return np.maximum(np.where(np.isnan(totals), np.inf, totals), 0.0) / scale**2


def _radius(spec: EnergySpec) -> float:
    if spec.t is None:
        raise ValueError("scale energies need the ball radius t")
    return spec.t


def k_energy(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """K_t: pairs within distance t, weighted by the kernel."""
    t = _radius(spec)
    term = (_gap_power(spec.p), lambda d, rho: np.where(d <= t, 1.0 / rho, 0.0))
    return _one_pass(space, u, [spec], [term])[0]


def h_energy(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """H_t: pairs within distance t, each point weighted by w(x)/sqrt(mu(B(x,t)))."""
    t = _radius(spec)
    w = space.weights / np.sqrt(space.ball_masses(t))
    term = (_gap_power(spec.p), lambda d, rho: d <= t)
    return float(_pair_sum(space, as_values(u, space.n), [term], None, w)[0])


def scale_s_by_balls(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """S_t by the direct route: pair sum inside each ball, then over centers."""
    t = _radius(spec)
    totals = _ball_pair_totals(space, t, as_values(u, space.n), spec.p)
    return float(np.sum(space.weights * totals / space.ball_masses(t) ** 2))


def scale_s_by_pairs(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """S_t by integrating over the center first: pair sum against f_t."""
    t = _radius(spec)
    member = np.concatenate(map_blocks(space.n, lambda a, b: space.dist_rows(a, b) <= t))
    root = (np.sqrt(space.weights) / space.ball_masses(t))[:, None] * member
    del member
    f = root.T @ root  # one product, so no row of f depends on how the rows are tiled
    term = (_gap_power(spec.p), lambda d, f: f)
    sums = _row_pair_sum(space, as_values(u, space.n), [term],
                         lambda a, b: _reader(None, f[a:b]), space.weights)
    return float(sums[0])


def scale_energies(space: MetricMeasureSpace, u, spec: EnergySpec) -> ScaleEnergies:
    """K_t, H_t, S_t at the scale spec.t (closed balls throughout)."""
    return ScaleEnergies(
        k_energy(space, u, spec), h_energy(space, u, spec), scale_s_by_balls(space, u, spec)
    )


def mollify(space: MetricMeasureSpace, u, t: float) -> ScalarField:
    """Ball average over closed B(x, t): linear, constant-preserving."""
    if not t > 0:  # NaN fails too
        raise ValueError(f"regularization scale t must be > 0, got {t}")
    vals = as_values(u, space.n)
    if t < space.min_distance:
        # every closed ball is a singleton: the average is the value itself
        return ScalarField(vals.copy(), provenance="op:mollify")
    m = space.ball_masses(t)
    uw = vals * space.weights
    out = _ball_sums(space, t, (uw,), lambda read, cols: read(0).sum(axis=0),
                     lambda a, b: (space.dist_rows(a, b) <= t) @ uw) / m
    return ScalarField(out, provenance="op:mollify")


def g_scale(
    space: MetricMeasureSpace,
    u,
    spec: EnergySpec,
    mode: str = "plain",
    phi: PiecewiseLinearMap | None = None,
) -> ScalarField:
    """Ball-average gradient surrogate at scale t.

    mode "plain" averages |u(x)-u(y)|^p / t^p (the p-th power form);
    "truncated" averages inf{|u(x)-u(y)|, r} / t; "composed" averages
    |phi(u(x)) - phi(u(y))| / t for a 1-Lipschitz phi with range in [0, r].
    """
    t = _radius(spec)
    vals = as_values(u, space.n)
    if mode == "plain":
        totals = _ball_pair_totals(space, t, vals, spec.p, scale=t)
    elif mode == "truncated":
        totals = _ball_pair_totals(space, t, vals, 1, np.inf if spec.r is None else spec.r, t)
    elif mode == "composed":
        if phi is None:
            raise ValueError("composed mode needs a piecewise-linear map phi")
        totals = _ball_pair_totals(space, t, phi(vals), 1, scale=t)
    else:
        raise ValueError(f"unknown g_scale mode {mode!r}")
    return ScalarField(totals / space.ball_masses(t) ** 2, provenance=f"op:g_scale:{mode}")
