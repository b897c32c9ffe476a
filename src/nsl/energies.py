"""Pairwise nonlocal energies on a fixed space and field.

Every double integral over X x X becomes a sum over ordered pairs weighted by
w(x)w(y); diagonal pairs contribute zero (the numerator vanishes identically
there). Every pairwise energy here goes through one reducer, _pair_sum, and
each is one pair (phi, psi): the pair sum is

  sum_{x != y} phi(|u(x)-u(y)|) w(x) w(y) psi(d(x,y), rho(x,y)),

with phi the pair part (gap^p, or the threshold gap > delta) and psi the
class part (1/(d^{ps} rho), [d <= t]/rho, delta^p/(rho d^p) [d <= r],
[d <= t]).

The reducer has two layouts. The row-block one forms phi * ww * psi on blocks
of rows; it serves graphs, Sierpinski gaskets, gauge grids and matrix files
(hand-made or relabelled spaces), and the interval with a ball-mass kernel.
Its blocks read psi through kernels.kernel_blocks, which picks the source of d
and rho from the space and the kernel alone: where the rows share their
distance levels (space._level_rows: the gasket, gauge grids, the interval)
and the kernel is rho1, ahlfors or none, psi is evaluated once per level, or
per (row, level) for rho1 from the block's level sums, and gathered by each
pair's code, with no n x n kernel matrix; gauge-ahlfors on a gauge grid reads
windows of its gauge table; other kernels and matrix spaces read the cached
kernel matrix. Every value is bitwise the kernel matrix's. The offset
layout serves lattices whose pair distance and kernel depend only on the
index offset k of the pair: the circle and the torus with every kernel, and
the interval with the ahlfors kernel only (ball-mass kernels are cut at the
ends of the interval). kernels.offset_lattice makes that choice from the space's
closed-form metric tag, never from its grid, next to the code that builds
each kernel. A term with no kernel, whose psi reads d alone, takes the offset
layout on every index lattice. H_t is one: its weight 1/sqrt(mu(B(x,t))
mu(B(y,t))) is folded into the point weights, w(x)/sqrt(mu(B(x,t))), which
the reducer takes in place of w. The offset layout forms
S_k = sum_x phi(|u(x+k)-u(x)|) w(x) w(x+k) from sliding windows over a copy
of u and w, wrapped on circle and torus, zero-weight-padded on the interval
(where S_k holds one orientation of each pair, so it counts twice), and
returns sum_k S_k psi(d_k, rho_k), with psi read on row 0 of
kernels.kernel_blocks (the windows of the distance's and the kernel's lattice
tables on circle and torus, the shared distance levels on the interval), so
no n x n distance or kernel matrix is built. Row 0 is exact: the distances,
gauges and ball masses of these lattices are computed from integer index
offsets and equal weights, so every pair at offset k carries the bitwise same
d and rho. Offsets with psi_k = 0 (pairs beyond t or r) are skipped.

At p = 2 the offset layout instead forms every S_k at once as
autocorrelations (Wiener-Khinchin): with v = u - mean(u) and corr(a, b)_k =
sum_x a(x) b(x+k), S = corr(w v^2, w) + corr(w, w v^2) - 2 corr(w v, w v), by
one rfftn/irfftn of the lattice's shape on circle and torus and of twice its
shape on the interval (zero-padded). The reducer knows such a term by its phi
object, _square, which _gap_power(2) returns. The expansion cancels where the
gaps are small next to v: S_k carries an absolute error of about eps sum w^2
v^2, so for a smooth field, whose S_k grows like k^2, the relative error is
about eps (n/k)^2 at small k (measured: 4e-11 on interval:4096 with u = x),
and about eps for a rough field. A constant field gives exactly 0 (the mean
is clipped to the field's range), and a field whose sum w v^2 overflows takes
the windows, which report inf. Every other phi takes the windows; each block
forms its gaps and one pair weight w(x) w(x+k) once, and each phi costs one
einsum of phi(gap) against that weight.

A generator space builds its distance matrix only on the first read of the
whole of space.dist. Row-block readers here (the row layout's d, and the ball
sums and mollify off circle and torus) take space.dist_rows(a, b), which is a
copy of the lattice table's windows, or the gasket's hop rows times 2^-L,
until then; the offset layout, and the
ball sums and mollify on circle and torus, read row 0 the same way.

The reducer takes a list of terms (phi, psi) and returns one sum per term,
so a sweep is one pass: inside each block the gaps |u(x)-u(y)| and the
gathered weights are formed once, and terms that share one phi object share
its pair part. On the offset layout that is S_k, so an s-sweep forms S_k once
and each s costs one dot product over the offsets; S_k runs over every offset
where some term has psi_k != 0, and each term sums over its own offsets only.
On the row layout it is phi(gap) w w, one phi at a time, and each psi is
still evaluated per term. gagliardo_values and nguyen_a_values are the
one-pass forms of gagliardo_p and nguyen_a; every energy here is a one-term
call, so a sweep value is bitwise its one-point call.

Row and offset blocks are fixed and their partials combined in a fixed
order, so the result is bit-identical for any worker count (see parallel.py).

Scale quantities at ball radius t:

  K_t  = sum_{0 < d <= t} |u(x)-u(y)|^p / rho(x,y) w(x) w(y)
  H_t  = sum_{0 < d <= t} |u(x)-u(y)|^p / sqrt(mu(B(x,t)) mu(B(y,t))) w w
  S_t  = sum_{x'} w(x') mu(B(x',t))^-2 sum_{x,y in B(x',t)} |u(x)-u(y)|^p w w

k_energy, h_energy and scale_s_by_balls compute one each, so a caller pays
only for what it reads; scale_energies is their bundle. _ball_pair_totals sums
the pairs inside each ball, for S_t, every g_t below and verify's ball-mean
check. At p = 2 with no cap that sum over B = B(x',t) is
2 mu(B) sum_B w v^2 - 2 (sum_B w v)^2 with v = u - u(x'), whose cancellation
is about |B| roundings. On circle and torus every ball is the same set of
index offsets, B(x',t) = x' + O_t, so the two sums run over O_t a block of
offsets at a time, as sliding windows over the tiled u and w reduced over k
(_ball_sums): O(n |B|) work where n distance rows of a block of centers cost
O(n^2), and mollify takes the same windows for sum_B w u. They add the ball
in another order than the rows' matrix-vector products, so values move in the
last bits. Elsewhere the sums take a row block of centers at once. Other p and capped totals are the row sums of (m @ Phi) * m, with m
the block's ball indicators times w over the union U of its balls and Phi the
pair parts over U x U, 128 columns at a time. Constant fields and singleton
balls give exactly 0, and a total that overflows inf.

S_t has a second, algebraically equal route that integrates over the center
first: S_t = sum_{x,y} |u(x)-u(y)|^p f_t(x,y) w w with
f_t(x,y) = sum_{x' in B(x,t) ^ B(y,t)} w(x') mu(B(x',t))^-2, one row-layout
term whose psi is f_t, formed a row block at a time from the ball indicator.
Both are exposed; they must agree to 1e-10 relative.

The ball-average gradient surrogate g_t comes in the three normalizations
the estimates actually use: "plain" (p-th power with 1/t^p inside the
average), "truncated" (first power of inf{|u(x)-u(y)|, r} over t), and
"composed" (first power of |phi(u(x)) - phi(u(y))| over t for a 1-Lipschitz
phi with values in [0, r]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import EnergySpec, PiecewiseLinearMap, ScalarField, as_values
from .kernels import KernelSpec, _reader, kernel_blocks, offset_lattice
from .parallel import block_reduce, map_blocks, row_blocks
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


def _row_pair_sum(space: MetricMeasureSpace, vals: np.ndarray, terms, blocks, w) -> np.ndarray:
    """The pair sums of terms by row blocks; blocks(a, b) gives a reader of each psi's
    entries on rows a..b (kernels.kernel_blocks).

    Terms that share one phi object share its pair part phi(gap) w w, which
    is live for one phi at a time. The last phi's pair part is written over
    w w, and each phi's last term over its pair part, so a one-term block
    allocates no block of its own past gap, w w, phi(gap) and psi.
    """
    groups: dict = {}
    for i, (phi, _) in enumerate(terms):
        groups.setdefault(phi, []).append(i)
    last = next(reversed(groups), None)

    def rows(a: int, b: int) -> np.ndarray:
        gap = np.subtract.outer(vals[a:b], vals)
        np.abs(gap, out=gap)
        ww = np.multiply.outer(w[a:b], w)
        psi_rows = blocks(a, b)
        out = np.empty(len(terms))
        for phi, members in groups.items():
            pair = np.multiply(phi(gap), ww, out=ww if phi is last else None)
            for i in members:
                # the diagonal divides by d = 0 or by a NaN kernel entry; it is zeroed
                with np.errstate(divide="ignore", invalid="ignore"):
                    term = np.multiply(pair, psi_rows(terms[i][1]),
                                       out=pair if i == members[-1] else None)
                term[np.arange(b - a), np.arange(a, b)] = 0.0
                out[i] = np.sum(term)
        return out

    return block_reduce(space.n, rows)


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
        m = n if wrapped else min(n, -(-(n - live[0]) // _SUM_GROUP) * _SUM_GROUP)
        u_rows = _offset_rows(u_ext, shape, live, m)
        m = u_rows.shape[1]  # n where the rows were gathered
        gap = np.abs(u_rows - vals[:m])
        pw = _offset_rows(w_ext, shape, live, m) * w[:m]
        return np.stack([np.einsum("ij,ij->i", phi(gap), pw) for phi in phis])

    return np.concatenate(map_blocks(offsets.size, block), axis=1)


def _extend(a: np.ndarray, shape, wrapped: bool) -> np.ndarray:
    """a on the lattice, tiled twice along each axis when wrapped, else zero-padded to twice
    its shape, so x + k for x on the lattice and an offset k lands inside."""
    grid = a.reshape(shape)
    if wrapped:
        return np.tile(grid, (2,) * len(shape))
    return np.pad(grid, [(0, k) for k in shape])  # zero weight beyond the end


def _offset_rows(ext: np.ndarray, shape, live: np.ndarray, m: int) -> np.ndarray:
    """Row j holds ext at x + live[j] for the points x of the lattice (_extend): the first m
    columns of a sliding-window view, no copy, if live is a run of offsets on a 1-D
    lattice, else all n columns gathered."""
    if len(shape) == 1 and live[-1] - live[0] == live.size - 1:
        return sliding_window_view(ext, m)[live[0]:live[-1] + 1]
    return sliding_window_view(ext, shape)[np.unravel_index(live, shape)].reshape(live.size, -1)


def _ball_sums(space, t: float, arrays, windows, rows) -> np.ndarray:
    """Per center x, sums over the ball B(x, t), the centers along the last axis.

    On a wrapped lattice (circle, torus) every ball is B(x, t) = x + O_t, with O_t the
    offsets k, 0 included, with d_k <= t on row 0, which is exact: every pair at offset
    k carries bitwise the same d. There windows gets, per block of offsets k_j, a reader
    read(i) of the rows of arrays[i] (_offset_rows), row j holding it at x + k_j, and
    returns the block's sums per center; the blocks' sums are added in a fixed order
    (block_reduce), so the bits do not depend on the worker count. Elsewhere rows(a, b)
    returns the sums of centers a..b from their distance rows.
    """
    lattice = space.index_lattice()
    if lattice is None or not lattice[1]:
        return np.concatenate(map_blocks(space.n, rows), axis=-1)
    shape, offsets = lattice[0], np.flatnonzero(space.dist_rows(0, 1)[0] <= t)
    ext = [_extend(a, shape, True) for a in arrays]
    return block_reduce(offsets.size, lambda a, b: windows(
        lambda i: _offset_rows(ext[i], shape, offsets[a:b], space.n)))


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

    def windows(read) -> np.ndarray:  # v is squared in place: two n-wide blocks are live
        v, w_rows = read(0) - vals, read(1)
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
    weighted = (space.weights / space.ball_masses(t) ** 2)[:, None] * member
    term = (_gap_power(spec.p), lambda d, f: f)
    sums = _row_pair_sum(space, as_values(u, space.n), [term],
                         lambda a, b: _reader(None, member[:, a:b].T @ weighted), space.weights)
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
    out = _ball_sums(space, t, (uw,), lambda read: read(0).sum(axis=0),
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
