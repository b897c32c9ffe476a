"""Pairwise nonlocal energies on a fixed space and field.

Every double integral over X x X becomes a sum over ordered pairs weighted by
w(x)w(y); diagonal pairs contribute zero (the numerator vanishes identically
there). The Gagliardo, threshold (Nguyen) and K/H energies all go through one
reducer, _pair_sum, and each is one pair (phi, psi): the pair sum is

  sum_{x != y} phi(|u(x)-u(y)|) w(x) w(y) psi(d(x,y), rho(x,y)),

with phi the pair part (gap^p, or the threshold gap > delta) and psi the
class part (1/(d^{ps} rho), [d <= t]/rho, delta^p/(rho d^p) [d <= r]).

The reducer has two layouts. The row-block one evaluates phi * ww * psi pair
by pair on blocks of rows; it serves every matrix space (graphs, Sierpinski,
hand-made or relabelled files) and gauge grids. The offset one serves
lattices whose pair distance and kernel depend only on the index offset k of
the pair: the circle and the torus with every kernel, and the interval with
the ahlfors kernel only (ball-mass kernels are cut at the ends of the
interval). kernels.offset_lattice makes that choice from the space's
closed-form metric tag, never from its grid, next to the code that builds
each kernel. H_t, whose weight 1/sqrt(mu(B(x,t)) mu(B(y,t))) is not a
function of (d, rho), takes the route of the rho1 kernel: on circle and torus
every ball at radius t has the bitwise same mass, so the weight too depends
only on k. The offset layout forms
S_k = sum_x phi(|u(x+k)-u(x)|) w(x) w(x+k) from sliding windows over a copy
of u and w, wrapped on circle and torus, zero-weight-padded on the interval
(where S_k holds one orientation of each pair, so it counts twice), and
returns sum_k S_k psi(d_k, rho_k), with d_k from row 0 of the distance matrix
and rho_k from kernels.kernel_row, so no n x n kernel matrix is built. Row 0
is exact: the distances and ball masses of these lattices are computed from
integer index offsets and equal weights, so every pair at offset k carries
the bitwise same d and rho. The exception is gauge-ahlfors on the torus,
whose offset table is keyed on float coordinate differences that can split
one index offset into keys an ulp apart; there the two layouts agree to
rounding. Offsets with psi_k = 0 (pairs beyond t or r) are skipped.

Row and offset blocks are fixed and their partials combined in a fixed
order, so the result is bit-identical for any worker count (see parallel.py).

Scale quantities at ball radius t:

  K_t  = sum_{0 < d <= t} |u(x)-u(y)|^p / rho(x,y) w(x) w(y)
  H_t  = sum_{0 < d <= t} |u(x)-u(y)|^p / sqrt(mu(B(x,t)) mu(B(y,t))) w w
  S_t  = sum_{x'} w(x') mu(B(x',t))^-2 sum_{x,y in B(x',t)} |u(x)-u(y)|^p w w

k_energy, h_energy and scale_s_by_balls compute one each, so a caller pays
only for what it reads; scale_energies is their bundle. The pair sum inside
each ball, for S_t, for every g_t below and for verify's ball-mean check, has
one helper, _ball_pair_totals, with two routes. At p = 2 with no truncation
the sum over B = B(x',t) is 2 mu(B) sum_B w v^2 - 2 (sum_B w v)^2 with
v = u - u(x'), taken for a row block of centers at once; every other case
loops over the centers and sums the ball's pairs term by term. Centering on
each ball's own center bounds the cancellation by about |B| roundings and
keeps constant fields and singleton balls at exactly 0.

S_t has a second, algebraically equal route that integrates over the center
first: S_t = sum_{x,y} |u(x)-u(y)|^p f_t(x,y) w w with
f_t(x,y) = sum_{x' in B(x,t) ^ B(y,t)} w(x') mu(B(x',t))^-2. Both are
exposed; they must agree to 1e-10 relative.

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
from .kernels import KernelSpec, kernel_matrix, kernel_row, offset_lattice
from .parallel import block_reduce, map_blocks
from .space import MetricMeasureSpace

__all__ = [
    "ScaleEnergies",
    "gagliardo_p",
    "nguyen_a",
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


def _row_pair_sum(space: MetricMeasureSpace, vals: np.ndarray, phi, psi, rho_rows) -> float:
    """The pair sum by row blocks; rho_rows(a, b) gives the rho entries of rows a..b."""
    w = space.weights

    def rows(a: int, b: int) -> float:
        gap = np.abs(vals[a:b, None] - vals[None, :])
        # the diagonal divides by d = 0 or by a NaN kernel entry; it is zeroed
        with np.errstate(divide="ignore", invalid="ignore"):
            term = phi(gap) * (w[a:b, None] * w[None, :]) * psi(space.dist[a:b], rho_rows(a, b))
        term[np.arange(b - a), np.arange(a, b)] = 0.0
        return float(np.sum(term))

    return float(block_reduce(space.n, rows))


def _offset_pair_sum(space, vals, phi, psi_row, shape, wrapped: bool) -> float:
    """The pair sum by index offset: sum_k S_k psi_k over the offsets k with psi_k != 0."""
    n, w = space.n, space.weights
    offsets = np.flatnonzero(psi_row[1:]) + 1  # offset 0 is the diagonal
    if offsets.size == 0:
        return 0.0

    def extend(a: np.ndarray) -> np.ndarray:
        grid = a.reshape(shape)
        if wrapped:
            return np.tile(grid, (2,) * len(shape))
        return np.pad(grid, [(0, k) for k in shape])  # zero weight beyond the end

    u_win = sliding_window_view(extend(vals), shape)
    w_win = sliding_window_view(extend(w), shape)

    def block(a: int, b: int) -> np.ndarray:
        at = np.unravel_index(offsets[a:b], shape)
        gap = u_win[at].reshape(b - a, n)
        gap -= vals
        np.abs(gap, out=gap)
        return (phi(gap) * w_win[at].reshape(b - a, n)) @ w

    sums = np.concatenate(map_blocks(offsets.size, block))
    return (1.0 if wrapped else 2.0) * float(np.sum(sums * psi_row[offsets]))


def _pair_sum(space: MetricMeasureSpace, vals: np.ndarray, phi, psi, kernel: KernelSpec) -> float:
    """sum_{x != y} phi(|u(x)-u(y)|) w(x) w(y) psi(d(x,y), rho(x,y)), rho the kernel matrix.

    phi maps an array of gaps to the pair parts and psi arrays of distances
    and kernel entries to the class parts; psi may be inf or NaN on the
    diagonal, which never enters the sum.
    """
    lattice = offset_lattice(space, kernel)
    if lattice is None:
        rho = kernel_matrix(space, kernel)
        return _row_pair_sum(space, vals, phi, psi, lambda a, b: rho[a:b])
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_row = psi(space.dist[0], kernel_row(space, kernel))
    return _offset_pair_sum(space, vals, phi, psi_row, *lattice)


def gagliardo_p(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """p-th power of the fractional seminorm with kernel d^{ps} rho."""
    if spec.s is None:
        raise ValueError("gagliardo_p needs the fractional order s")
    p, ps = spec.p, spec.p * spec.s
    return _pair_sum(
        space, as_values(u, space.n), lambda gap: gap**p, lambda d, rho: 1.0 / (d**ps * rho),
        spec.kernel,
    )


def _nguyen(space: MetricMeasureSpace, u, spec: EnergySpec, radius: float) -> float:
    if spec.delta is None:
        raise ValueError("the threshold functional needs delta")
    delta, p = spec.delta, spec.p
    return _pair_sum(
        space,
        as_values(u, space.n),
        lambda gap: gap > delta,
        lambda d, rho: np.where(d <= radius, delta**p / (rho * d**p), 0.0),
        spec.kernel,
    )


def nguyen_a(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """Threshold functional: delta^p-weighted sum over {|u(x)-u(y)| > delta}."""
    return _nguyen(space, u, spec, np.inf)


def nguyen_b(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """Threshold functional restricted to pairs with d(x,y) <= r."""
    if spec.r is None:
        raise ValueError("nguyen_b needs the radius r")
    return _nguyen(space, u, spec, spec.r)


def _ball_loop_totals(space, t: float, vals, p: float, cap: float, scale: float) -> np.ndarray:
    """_ball_pair_totals term by term, one center at a time."""
    w = space.weights

    def rows(a: int, b: int) -> np.ndarray:
        out = np.empty(b - a)
        for i, center in enumerate(range(a, b)):
            members = np.nonzero(space.dist[center] <= t)[0]
            sub, ww = vals[members], w[members]
            numer = (np.minimum(np.abs(sub[:, None] - sub[None, :]), cap) / scale) ** p
            out[i] = float(np.sum(numer * (ww[:, None] * ww[None, :])))
        return out

    return np.concatenate(map_blocks(space.n, rows))


def _ball_pair_totals(
    space, t: float, vals, p: float, cap: float = np.inf, scale: float = 1.0
) -> np.ndarray:
    """sum_{x,y in B(x',t)} (min(|u(x)-u(y)|, cap) / scale)^p w(x) w(y), per center x'.

    At p = 2 with no cap it takes two sums over each ball; otherwise it loops.
    """
    if p != 2 or cap != np.inf:
        return _ball_loop_totals(space, t, vals, p, cap, scale)
    w = space.weights

    def rows(a: int, b: int) -> np.ndarray:
        v = np.where(space.dist[a:b] <= t, vals - vals[a:b, None], 0.0)
        return np.stack([v @ w, (v * v) @ w], 1)

    first, second = np.concatenate(map_blocks(space.n, rows)).T
    return np.maximum(2.0 * space.ball_masses(t) * second - 2.0 * first**2, 0.0) / scale**2


def _radius(spec: EnergySpec) -> float:
    if spec.t is None:
        raise ValueError("scale energies need the ball radius t")
    return spec.t


def k_energy(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """K_t: pairs within distance t, weighted by the kernel."""
    p, t = spec.p, _radius(spec)
    return _pair_sum(
        space, as_values(u, space.n), lambda gap: gap**p,
        lambda d, rho: np.where(d <= t, 1.0 / rho, 0.0), spec.kernel,
    )


def h_energy(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """H_t: pairs within distance t, weighted by the ball masses at t."""
    p, t = spec.p, _radius(spec)
    vals, m = as_values(u, space.n), space.ball_masses(t)
    # the ball-mass lattices of rho1: there every ball at radius t has the same mass
    lattice = offset_lattice(space, KernelSpec("rho1"))
    if lattice is None:
        return _row_pair_sum(space, vals, lambda gap: gap**p, lambda d, mass: (d <= t) / mass,
                             lambda a, b: np.sqrt(m[a:b, None] * m[None, :]))
    psi_row = (space.dist[0] <= t) / np.sqrt(m[0] * m)
    return _offset_pair_sum(space, vals, lambda gap: gap**p, psi_row, *lattice)


def scale_s_by_balls(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """S_t by the direct route: pair sum inside each ball, then over centers."""
    t = _radius(spec)
    totals = _ball_pair_totals(space, t, as_values(u, space.n), spec.p)
    return float(np.sum(space.weights * totals / space.ball_masses(t) ** 2))


def scale_s_by_pairs(space: MetricMeasureSpace, u, spec: EnergySpec) -> float:
    """S_t by integrating over the center first: pair sum against f_t."""
    t = _radius(spec)
    vals = as_values(u, space.n)
    m = space.ball_masses(t)
    member = (space.dist <= t).astype(np.float64)
    center_weight = space.weights / m**2
    f = member.T @ (center_weight[:, None] * member)
    gap = np.abs(vals[:, None] - vals[None, :]) ** spec.p
    ww = space.weights[:, None] * space.weights[None, :]
    return float(np.sum(gap * f * ww))


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

    def rows(a: int, b: int) -> np.ndarray:
        inside = space.dist[a:b] <= t
        return inside @ uw / m[a:b]

    out = np.concatenate(map_blocks(space.n, rows))
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
