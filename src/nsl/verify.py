"""Inequality and identity checks with measured proof constants.

Every check assembles its constant from the measured doubling diagnostics
(c_d_hat, c_rho_hat) rather than asserting an abstract bound, and each
report records the assembled constant so a failure is attributable. c_rho_hat
compares a kernel with rho1(x, y) = mu(B(x, d(x, y))), so rho1's own is 1 and
is not measured: check_hks, which pins its kernel to rho1, records 1.0. Each
checked instance is one VerificationReport.add(params, lhs, rhs) record,
which passes when lhs <= rhs up to IDENTITY_RTOL relative; only the ball-mean
check (both sides, EXACT_RTOL), the two identities, the two-sided window, the
mollifier drift flag and the degenerate Hajlasz and two-sided cases pass
their own `ok`.
The identities (layer-cake for the fractional energy, threshold averaging)
are linear in the pairs: each row tile of a fixed row block integrates the
step function of its own pairs in closed form, and the tiles, then the
blocks (block_reduce), are summed in order, so they must hold to 1e-9
relative with no quadrature error. The annuli tails are per-row sums over
the same blocks, so no check holds a whole pair array. The fixed
bounds are HAJLASZ_BUDGET, TWO_SIDED_WINDOW and MOLLIFIER_ALLOWANCE.

Checks that need geometry the space does not carry (geodesic chains on a
matrix-only space, mesh refinement of a generator-less space) return a
report marked not applicable instead of failing; so do suite checks whose
scales all lie at or below the mesh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Sequence

import numpy as np

from .energies import (ScaleEnergies, _ball_pair_totals, _pair_sum, g_scale, gagliardo_p,
                       h_energy, k_energy, mollify, scale_s_by_balls)
from .fields import EnergySpec, ScalarField, as_values
from .gradients import cheeger_surrogate, hajlasz_minimal, path_integral
from .kernels import KernelSpec, kernel_blocks, kernel_comparability
from .parallel import block_reduce, map_blocks, tiles
from .space import (MetricMeasureSpace, SpaceError, SpaceSpec, _adjacency, build_space,
                    doubling_constant)
from .sweeps import bbm_sweep, extrapolate, nguyen_sweep

IDENTITY_RTOL = 1e-9
EXACT_RTOL = 1e-12
HAJLASZ_BUDGET = 100.0
TWO_SIDED_WINDOW = (0.05, 20.0)
MOLLIFIER_ALLOWANCE = 1.05  # discreteness: the error may rise 5% per grid step
# the suite's checks by name, in run_suite's default order
CHECKS = ("annuli", "mean", "fubini", "hks", "mollifier", "upper-gradient", "nguyen-avg",
          "hajlasz", "two-sided")
# checks that a constant field skips: check name -> (report name, note)
CONSTANT_FIELD_SKIPS = {
    "nguyen-avg": ("threshold-averaging", "constant field: 0 = 0"),
    "hajlasz": ("hajlasz-vs-cheeger", "constant field excluded"),
    "two-sided": ("two-sided-limits", "constant field excluded"),
}

__all__ = [
    "CHECKS",
    "CheckRecord",
    "VerificationReport",
    "check_annuli_bound",
    "check_mean_comparison",
    "check_fubini_identity",
    "check_hks",
    "check_mollifier",
    "check_upper_gradient_scale",
    "check_nguyen_averaging",
    "check_hajlasz_bound",
    "two_sided_report",
    "run_suite",
    "render_text",
    "reports_to_json",
]


@dataclass(frozen=True)
class CheckRecord:
    """One verified instance: lhs <= rhs (or |lhs - rhs| small for identities)."""

    params: dict
    lhs: float
    rhs: float
    ok: bool
    note: str = ""

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass
class VerificationReport:
    name: str
    records: list[CheckRecord] = dc_field(default_factory=list)
    constants: dict = dc_field(default_factory=dict)
    applicable: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records) if self.applicable else True

    def add(self, params: dict, lhs, rhs, ok: bool | None = None, note: str = "") -> None:
        """Record one instance; unless `ok` is given it passes when lhs <= rhs."""
        ok = _leq(lhs, rhs) if ok is None else ok
        self.records.append(CheckRecord(params, lhs, rhs, ok, note))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "applicable": self.applicable,
            "note": self.note,
            "constants": self.constants,
            "records": [
                {
                    "params": r.params,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "slack": r.slack,
                    "ok": r.ok,
                    "note": r.note,
                }
                for r in self.records
            ],
        }


def _leq(lhs, rhs, rtol: float = IDENTITY_RTOL) -> bool:
    """lhs <= rhs up to rtol relative, at every entry of array arguments."""
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0e-300)
    return bool(np.all(lhs <= rhs + rtol * scale))


def _close(a: float, b: float, rtol: float = IDENTITY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0e-300)


# -- annuli tail bound -----------------------------------------------------------


def check_annuli_bound(
    space: MetricMeasureSpace, kernel: KernelSpec, p: float, r_grid: Sequence[float]
) -> VerificationReport:
    """Tail sum over {d >= r} of w / (rho d^p) against C / r^p.

    The dyadic-annuli chain gives C = c_rho_hat * c_d_hat^2 * 2^p/(2^p - 1)
    from the measured constants.
    """
    radii = [float(r) for r in r_grid]
    for r in radii:
        if not r > 0:  # NaN fails too
            raise ValueError(f"annuli radius must be > 0, got {r}")
    c_d = doubling_constant(space).c_d_hat
    c_rho = kernel_comparability(space, kernel).c_rho_hat
    big_c = c_rho * c_d**2 * 2.0**p / (2.0**p - 1.0)
    blocks, w = kernel_blocks(space, kernel), space.weights
    report = VerificationReport(
        "annuli-tail-bound", constants={"c_d_hat": c_d, "c_rho_hat": c_rho, "C": big_c}
    )

    def rows(a: int, b: int) -> np.ndarray:
        read = blocks(a, b)
        d = read(lambda d, rho: d)
        # NaN on the diagonal, which r > 0 always excludes
        terms = w / read(lambda d, rho: rho * d**p)
        return np.array([np.sum(np.where(d >= r, terms, 0.0), axis=1) for r in radii])

    for r, tail in zip(radii, np.hstack(map_blocks(space.n, rows))):  # one row per radius
        note = f"sup_x r^p * tail(x) at x = {int(np.argmax(tail))}"
        report.add({"r": r, "p": p}, float(np.max(tail) * r**p), big_c, note=note)
    return report


# -- ball mean comparison ----------------------------------------------------------


def check_mean_comparison(
    space: MetricMeasureSpace, u, p: float, t_grid: Sequence[float]
) -> VerificationReport:
    """mu(B) int_B |u - u_B|^p <= int_{BxB} |u(x)-u(y)|^p <= 2^p mu(B) int_B |u - u_B|^p.

    Exact discrete inequalities (Jensen and the elementary power bound),
    checked at every ball center to 1e-12 relative. Each ball's field is
    taken relative to its center, v = u - u(x'), which changes none of the
    three sides; a constant ball then has v = 0 and all three are exactly 0,
    where the mean of u itself would leave a rounding residue that the pair
    sum does not share.
    """
    vals = as_values(u, space.n)
    w = space.weights
    report = VerificationReport("ball-mean-comparison", constants={"factor": 2.0**p})
    for t in t_grid:
        mass = space.ball_masses(t)

        def rows(a: int, b: int) -> np.ndarray:
            inside = space.dist_rows(a, b) <= t
            v = np.where(inside, vals - vals[a:b, None], 0.0)
            mean = (v @ w) / mass[a:b]
            return np.where(inside, np.abs(v - mean[:, None]) ** p, 0.0) @ w

        low = mass * np.concatenate(map_blocks(space.n, rows))
        mid = _ball_pair_totals(space, t, vals, p)
        high = 2.0**p * low
        worst_low, worst_high = float(np.min(mid - low)), float(np.min(high - mid))
        lhs = 0.0 - min(worst_low, worst_high)  # +0.0, not -0.0, when both are 0
        ok = _leq(low, mid, EXACT_RTOL) and _leq(mid, high, EXACT_RTOL)
        note = f"min slack lower {worst_low!r}, upper {worst_high!r}"
        report.add({"t": float(t), "p": p}, lhs, 0.0, ok=ok, note=note)
    return report


# -- layer-cake identity ------------------------------------------------------------


def _pair_blocks(space: MetricMeasureSpace, vals: np.ndarray, kernel: KernelSpec, fn) -> float:
    """fn(d, gap, weight) on flat arrays over the ordered pairs x != y, x in a row tile
    (parallel.tiles), summed over a block's tiles in order and over the blocks by
    block_reduce; weight w(x) w(y) / rho(x, y). d and rho come in row tiles (kernel_blocks)."""
    blocks, w, n = kernel_blocks(space, kernel), space.weights, space.n

    def tile(a: int, b: int) -> float:
        off = np.arange(n) != np.arange(a, b)[:, None]
        read = blocks(a, b)
        d = read(lambda d, rho: d)[off]
        weight = (w[a:b, None] * w / read(lambda d, rho: rho))[off]
        del read  # the tile's rows of d and rho are freed before fn runs
        return fn(d, np.abs(vals[a:b, None] - vals)[off], weight)

    return block_reduce(n, lambda a, b: sum(tile(*ab) for ab in tiles(a, b, n)))


def check_fubini_identity(
    space: MetricMeasureSpace, u, p: float, s: float, kernel: KernelSpec
) -> VerificationReport:
    """ps * int_0^inf K_t / t^{ps+1} dt equals the fractional energy.

    K_t is a step function of t jumping at realized distances, so the
    t-integral is evaluated in closed form segment by segment; the direct
    pair sum must agree to 1e-9 relative.
    """
    spec = EnergySpec(p=p, s=s, kernel=kernel)  # rejects s outside (0, 1) before any sum

    def segments(d, gap, weight) -> float:
        # ps int_{d_k}^{d_{k+1}} t^{-ps-1} dt = d_k^-ps - d_{k+1}^-ps; a tie has width 0
        order = np.argsort(d)
        heads = d[order] ** -(p * s)
        cumulative = np.cumsum((gap**p * weight)[order])
        return float(np.sum(cumulative * (heads - np.append(heads[1:], 0.0))))

    lhs = _pair_blocks(space, as_values(u, space.n), kernel, segments)
    rhs = gagliardo_p(space, u, spec)
    report = VerificationReport("fubini-layer-cake", constants={"p": p, "s": s})
    note = "segment integral vs direct pair sum"
    report.add({"p": p, "s": s, "kernel": kernel.key}, lhs, rhs, ok=_close(lhs, rhs), note=note)
    return report


# -- K/H/S chain --------------------------------------------------------------------


def check_hks(
    space: MetricMeasureSpace, u, p: float, t_grid: Sequence[float]
) -> VerificationReport:
    """Scale-energy comparisons with constants from the measured c_d_hat.

    At each t (kernel pinned to rho1, so c_rho_hat is 1 and is not measured):
      (i)  H_t <= K_t  and  K_t <= c_d_hat * sum_k H_{t/2^k}, k <= ceil(log2(t/h_min))
      (ii) H_{t/2} <= c_d_hat^4 * S_t  and  S_t <= c_d_hat^3 * H_{2t}
      (iv) for t >= 1: K_t <= K_1 + 2^p c_rho_hat (c_d_hat - 1) log2(2t) ||u||_p^p
    """
    kernel = KernelSpec("rho1")
    c_d = doubling_constant(space).c_d_hat
    h_min = space.min_distance
    for t in t_grid:
        if t <= h_min:
            raise ValueError(f"t = {t:g} is at or below the mesh scale {h_min:g}")
    report = VerificationReport(
        "scale-energy-chain", constants={"c_d_hat": c_d, "c_rho_hat": 1.0}
    )
    vals = as_values(u, space.n)
    norm_p = float(np.sum(space.weights * np.abs(vals) ** p))

    memo: dict = {}

    def energy(fn, t: float) -> float:  # each (fn, t) once; fn as named at the call site
        if (fn, t) not in memo:
            memo[fn, t] = fn(space, u, EnergySpec(p=p, t=t, kernel=kernel))
        return memo[fn, t]

    for t in t_grid:
        se = ScaleEnergies(energy(k_energy, t), energy(h_energy, t), energy(scale_s_by_balls, t))
        report.add({"t": t, "item": "i-lower"}, se.h, se.k)
        kmax = max(0, math.ceil(math.log2(t / h_min)))
        h_sum = sum([se.h, *(energy(h_energy, t / 2.0**k) for k in range(1, kmax + 1))])
        report.add({"t": t, "item": "i-upper", "k_max": kmax}, se.k, c_d * h_sum)
        report.add({"t": t, "item": "ii-lower"}, energy(h_energy, t / 2.0), c_d**4 * se.s)
        report.add({"t": t, "item": "ii-upper"}, se.s, c_d**3 * energy(h_energy, 2.0 * t))

    big_ts = [t for t in t_grid if t >= 1.0] or [1.0]
    k1 = energy(k_energy, 1.0)
    for t in big_ts:
        kt = energy(k_energy, t)
        rhs = k1 + 2.0**p * (c_d - 1.0) * math.log2(2.0 * t) * norm_p  # c_rho_hat = 1
        report.add({"t": t, "item": "iv"}, kt, rhs)
    return report


# -- regularization -----------------------------------------------------------------


def check_mollifier(
    space: MetricMeasureSpace,
    fields: Sequence[ScalarField],
    p: float,
    t_grid: Sequence[float],
    eps_conv: float = 0.05,
) -> VerificationReport:
    """Ball averaging is bounded by c_d_hat in L^p and converges as t -> 0.

    The t grid must decrease; the approximation error at the smallest t must
    fall below eps_conv and may rise along the grid only by the factor
    MOLLIFIER_ALLOWANCE (discreteness).
    """
    if not len(t_grid):
        raise ValueError("mollifier t grid is empty")
    if any(b >= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("mollifier t grid must be strictly decreasing")
    c_d = doubling_constant(space).c_d_hat
    report = VerificationReport(
        "mollifier-bounds", constants={"c_d_hat": c_d, "eps_conv": eps_conv}
    )
    w = space.weights

    def norm_p(values: np.ndarray) -> float:
        return float(np.sum(w * np.abs(values) ** p) ** (1.0 / p))

    for idx, f in enumerate(fields):
        base = norm_p(f.values)
        errors = []
        for t in t_grid:
            mf = mollify(space, f, t)
            bounded = {"field": idx, "t": float(t), "item": "bounded"}
            report.add(bounded, norm_p(mf.values), c_d * base)
            errors.append(norm_p(mf.values - f.values))
        converges = {"field": idx, "t": float(t_grid[-1]), "item": "converges"}
        report.add(converges, errors[-1], eps_conv)
        drift_ok = all(
            b <= MOLLIFIER_ALLOWANCE * a + 1e-15 * max(base, 1.0)
            for a, b in zip(errors, errors[1:])
        )
        report.add(
            {"field": idx, "item": "nonincreasing", "allowance": MOLLIFIER_ALLOWANCE},
            0.0 if drift_ok else 1.0,
            0.0,
            ok=drift_ok,
            note="approximation error along the decreasing grid",
        )
    return report


# -- upper gradient at scale ---------------------------------------------------------


def _geodesic_paths(
    space: MetricMeasureSpace, lo: float, hi: float, count: int, seed: int
) -> list[list[int]]:
    """Chains in the neighbor graph with tree length in [lo, hi]."""
    from scipy.sparse.csgraph import dijkstra
    i, j = space.edges[:, 0], space.edges[:, 1]
    adj = _adjacency(space.n, i, j, space.dist_pairs(i, j))
    rng = np.random.default_rng(seed)
    paths: list[list[int]] = []
    attempts = 0
    while len(paths) < count and attempts < 20 * count:
        attempts += 1
        src = int(rng.integers(0, space.n))
        dist_row, pred = dijkstra(adj, indices=src, return_predecessors=True, limit=hi * 1.5)
        candidates = np.nonzero((dist_row >= lo) & (dist_row <= hi))[0]
        if candidates.size == 0:
            continue
        dst = int(candidates[int(rng.integers(0, candidates.size))])
        chain = [dst]
        while chain[-1] != src:
            prev = int(pred[chain[-1]])
            if prev < 0:
                break
            chain.append(prev)
        if chain[-1] == src and len(chain) >= 2:
            paths.append(chain[::-1])
    return paths


def check_upper_gradient_scale(
    space: MetricMeasureSpace, u, t: float, n_paths: int = 100, seed: int = 0
) -> VerificationReport:
    """The rescaled ball-average slope dominates increments of the mollified field.

    For chains of length in [t/2, t]: |M_t u(a) - M_t u(b)| <= path integral
    of 4 c_d_hat^4 g_{2t} (first-power form). Longer chains (up to 4t) are
    checked directly; they follow by splitting into such segments and the
    triangle inequality.
    """
    if space.edges is None:
        return VerificationReport(
            "upper-gradient-scale",
            applicable=False,
            note="space has no path structure (matrix-only); check not applicable",
        )
    c_d = doubling_constant(space).c_d_hat
    g2t = g_scale(space, u, EnergySpec(p=1.0, t=2.0 * t), mode="truncated")
    h_field = ScalarField(4.0 * c_d**4 * g2t.values, provenance="op:upper-gradient")
    ut = mollify(space, u, t)
    report = VerificationReport(
        "upper-gradient-scale", constants={"c_d_hat": c_d, "factor": 4.0 * c_d**4, "t": t}
    )

    short = _geodesic_paths(space, 0.5 * t, t, n_paths, seed)
    long = _geodesic_paths(space, t, 4.0 * t, max(1, n_paths // 4), seed + 1)
    if not short:
        raise ValueError(f"no geodesic chain of length in [{0.5 * t:g}, {t:g}] exists")

    worst_ratio = 0.0
    for label, group in (("short", short), ("long", long)):
        for chain in group:
            lhs = abs(float(ut.values[chain[0]] - ut.values[chain[-1]]))
            rhs, length = path_integral(space, h_field, chain)
            if rhs > 0:
                worst_ratio = max(worst_ratio, lhs / rhs)
            params = {"kind": label, "from": int(chain[0]), "to": int(chain[-1]), "length": length}
            report.add(params, lhs, rhs)
    report.constants["worst_ratio"] = worst_ratio
    report.constants["paths"] = len(short) + len(long)
    return report


# -- threshold averaging identity ------------------------------------------------------


def check_nguyen_averaging(
    space: MetricMeasureSpace,
    u,
    p: float,
    eps: float,
    r: float,
    kernel: KernelSpec,
) -> VerificationReport:
    """int_0^r eps d^{eps-1} A_d dd = eps/(p+eps) * truncated-gap pair sum.

    A_d is a step function of the threshold jumping at realized field gaps,
    so the left side is integrated in closed form per segment.
    """
    if not (0.0 < eps < np.inf and r > 0):  # NaN fails too
        raise ValueError(f"eps must lie in (0, inf) and r be > 0, got eps={eps}, r={r}")
    vals = as_values(u, space.n)

    def segments(d, gap, weight) -> float:
        order = np.argsort(gap)
        # T on [g_{k-1}, g_k) of the sorted gaps (g_0 = 0) sums the pairs from k on and
        # vanishes past the last; a tie is a segment of width 0, each clipped to [0, r]
        tails = np.cumsum((weight / d**p)[order][::-1])[::-1]
        knots = np.minimum(np.append(0.0, gap[order]), r) ** (p + eps)
        return float(np.sum(tails * np.diff(knots)))

    lhs = eps / (p + eps) * _pair_blocks(space, vals, kernel, segments)
    term = (lambda gap: np.minimum(gap, r) ** (p + eps), lambda d, rho: 1.0 / (rho * d**p))
    rhs = eps / (p + eps) * float(_pair_sum(space, vals, [term], kernel)[0])
    report = VerificationReport("threshold-averaging", constants={"eps": eps, "r": r, "p": p})
    params = {"eps": eps, "r": r, "p": p, "kernel": kernel.key}
    note = "segment integral vs truncated pair sum"
    report.add(params, lhs, rhs, ok=_close(lhs, rhs), note=note)
    return report


# -- minimal gradient vs local slope ---------------------------------------------------


def _refine(space: MetricMeasureSpace, refine_field, report) -> MetricMeasureSpace | None:
    """The space one mesh refinement up, or None with the reason the clause is skipped noted:
    no generator, no refinement (gauge_grid), no field transfer, or past the point budget."""
    spec = SpaceSpec.from_metric(space.metric)
    refined = None if spec is None else spec.refined()
    if spec is None:
        skip = "no generator to refine"
    elif refined is None:
        skip = f"{spec.generator} has no refinement"
    elif refine_field is None:
        skip = "no field transfer available"
    else:
        try:
            refined.validate()
            return build_space(refined)
        except SpaceError as exc:
            skip = str(exc)
    report.note = f"{skip}; stability clause skipped"
    return None


def check_hajlasz_bound(
    space: MetricMeasureSpace,
    u,
    p: float,
    r: float = np.inf,
    refine_field=None,
) -> VerificationReport:
    """Ratio of the minimal two-point gradient energy to the local-slope energy.

    Passes when the ratio is within HAJLASZ_BUDGET and stable within 25%
    under one mesh refinement. The stability clause needs a generator whose refinement
    fits the point budget and a refine_field(refined_space) callback supplying the field
    on the refined space (for expression fields, re-evaluation); without either it is
    skipped with a note that says why.
    """
    vals = as_values(u, space.n)
    if np.all(vals == vals[0]):
        raise ValueError("the minimal-gradient ratio needs a nonconstant field")
    report = VerificationReport(
        "hajlasz-vs-cheeger", constants={"budget": HAJLASZ_BUDGET, "r": r}
    )

    def ratio_on(sp: MetricMeasureSpace, field_vals) -> float | None:
        """The ratio on sp, or None once a zero local-slope energy is recorded."""
        objective = hajlasz_minimal(sp, field_vals, p, cutoff=r).objective
        energy, _ = cheeger_surrogate(sp, field_vals, p)
        if energy == 0.0:
            note = "degenerate: zero local-slope energy with nonzero objective"
            report.add({"space": sp.name}, objective, 0.0, ok=False, note=note)
            return None
        return objective / energy

    ratio = ratio_on(space, u)
    if ratio is None:
        return report
    report.add({"space": space.name}, ratio, HAJLASZ_BUDGET)
    refined = _refine(space, refine_field, report)
    ratio2 = None if refined is None else ratio_on(refined, refine_field(refined))
    if ratio2 is not None:
        shift = abs(ratio2 / ratio - 1.0)
        note = f"ratio {ratio!r} -> {ratio2!r}"
        report.add({"space": refined.name, "item": "stability"}, shift, 0.25, note=note)
    return report


# -- two-sided limit ratios --------------------------------------------------------------


def two_sided_report(
    space: MetricMeasureSpace,
    u,
    p: float,
    kernel: KernelSpec,
    s_grid: Sequence[float] | None = None,
    refine_field=None,
) -> VerificationReport:
    """Extrapolated limit over local-slope energy, bounded and mesh-stable.

    R_bbm and R_nguyen must land inside TWO_SIDED_WINDOW and shift by less
    than 15% under one mesh refinement, skipped with a note as in
    check_hajlasz_bound. The Nguyen sweep runs over fractions of half the
    field's oscillation. A zero local-slope energy is one failing record, or on
    the refined space a note that skips the stability clause.
    """
    vals = as_values(u, space.n)
    if np.all(vals == vals[0]):
        raise ValueError("two-sided ratios need a nonconstant field")

    def ratios_on(sp: MetricMeasureSpace, field_u) -> dict[str, float] | None:
        energy, _ = cheeger_surrogate(sp, field_u, p)
        if energy == 0.0:
            return None
        field_vals = as_values(field_u, sp.n)
        half_osc = float(np.max(field_vals) - np.min(field_vals)) / 2.0
        sg = [0.5 + 0.05 * k for k in range(9)] if s_grid is None else list(s_grid)
        dg = [half_osc * f for f in (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)]
        return {
            "R_bbm": extrapolate(bbm_sweep(sp, field_u, p, kernel, sg)).limit / energy,
            "R_nguyen": extrapolate(nguyen_sweep(sp, field_u, p, kernel, dg)).limit / energy,
        }

    lo, hi = TWO_SIDED_WINDOW
    report = VerificationReport("two-sided-limits", constants={"window": [lo, hi]})
    degenerate = "degenerate: zero local-slope energy"
    ratios = ratios_on(space, u)
    if ratios is None:
        report.add({"space": space.name}, 0.0, 0.0, ok=False, note=degenerate)
        return report
    for name, value in ratios.items():
        inside = bool(lo <= value <= hi)
        report.add({"ratio": name}, value, hi, ok=inside, note=f"window [{lo}, {hi}]")
    report.constants.update(ratios)

    refined = _refine(space, refine_field, report)
    if refined is not None:
        refined_ratios = ratios_on(refined, refine_field(refined))
        if refined_ratios is None:
            report.note = f"{degenerate} on {refined.name}; stability clause skipped"
            return report
        for name, a in ratios.items():
            b = refined_ratios[name]
            stability = {"ratio": name, "item": "stability"}
            report.add(stability, abs(b / a - 1.0), 0.15, note=f"{a!r} -> {b!r}")
    return report


# -- suite ---------------------------------------------------------------------------------


def run_suite(
    space: MetricMeasureSpace,
    u,
    p: float,
    kernel: KernelSpec,
    checks: Sequence[str] = CHECKS,
    informational: Sequence[str] = (),
    refine_field=None,
) -> list[VerificationReport]:
    """Run the named checks with space-derived default parameters.

    Checks listed in `informational` run and report but never fail the suite
    (their reports are marked accordingly). refine_field(refined_space), when
    given, supplies the field on mesh-refined spaces for stability clauses.
    Both lists take names from CHECKS, and a bad list raises before any check runs. A check
    that overflows, in a float power or to a NaN or infinite side, raises a ValueError.
    """
    unknown = [repr(name) for name in (*checks, *informational) if name not in CHECKS]
    if unknown or not checks:
        fault = f"unknown check {unknown[0]}" if unknown else "no check named"
        raise ValueError(f"{fault}; the checks are {', '.join(CHECKS)}")
    EnergySpec(p=p)  # rejects p < 1 and NaN before any check runs
    h_min, diam = space.min_distance, space.diameter
    t_lo = min(4.0 * h_min, 0.25 * diam)
    t_grid = sorted({max(t_lo, diam / 16.0), diam / 8.0, diam / 4.0})
    vals = as_values(u, space.n)
    osc = float(np.max(vals) - np.min(vals))
    reports: list[VerificationReport] = []
    for name in checks:
        try:
            if osc == 0.0 and name in CONSTANT_FIELD_SKIPS:
                report_name, note = CONSTANT_FIELD_SKIPS[name]
                rep = VerificationReport(report_name, applicable=False, note=note)
            elif name == "annuli":
                rep = check_annuli_bound(space, kernel, p, t_grid)
            elif name == "mean":
                rep = check_mean_comparison(space, u, p, t_grid)
            elif name == "fubini":
                rep = check_fubini_identity(space, u, p, 0.7, kernel)
            elif name == "hks":
                above = [t for t in t_grid if t > h_min]  # check_hks rejects the rest
                rep = check_hks(space, u, p, above) if above else VerificationReport(
                    "scale-energy-chain",
                    applicable=False,
                    note=f"every grid scale is at or below the mesh scale {h_min:g}",
                )
            elif name == "mollifier":
                grid = [diam / 2**k for k in range(2, 7) if diam / 2**k > h_min]
                rep = check_mollifier(space, [ScalarField(vals)], p, grid or [diam])
            elif name == "upper-gradient" and t_grid[-1] < h_min:
                rep = VerificationReport(
                    "upper-gradient-scale",
                    applicable=False,
                    note=f"no chain is as short as t = {t_grid[-1]:g} below the mesh scale "
                         f"{h_min:g}",
                )
            elif name == "upper-gradient":
                rep = check_upper_gradient_scale(space, u, t_grid[-1], n_paths=50)
            elif name == "nguyen-avg":
                rep = check_nguyen_averaging(space, u, p, 0.5, 0.5 * osc, kernel)
            elif name == "hajlasz":
                rep = check_hajlasz_bound(space, u, p, refine_field=refine_field)
            else:  # two-sided
                rep = two_sided_report(space, u, p, kernel, refine_field=refine_field)
        except OverflowError:  # a float power such as 2.0**p
            rep = None
        if rep is None or not all(np.isfinite([r.lhs, r.rhs]).all() for r in rep.records):
            raise ValueError(f"the {name} check overflowed at p = {p!r}")
        if name in informational and not rep.passed:
            rep.applicable = False
            rep.note = (rep.note + "; " if rep.note else "") + "informational only"
        reports.append(rep)
    return reports


def render_text(reports: Sequence[VerificationReport]) -> str:
    lines = []
    width = max(len(r.name) for r in reports) if reports else 10
    for rep in reports:
        if not rep.applicable:
            status = "SKIP"
        else:
            status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.name:<{width}}  {status}  ({len(rep.records)} records)")
        if rep.note:
            lines.append(f"{'':<{width}}  note: {rep.note}")
        for rec in rep.records:
            if not rec.ok:
                lines.append(
                    f"{'':<{width}}  FAIL {rec.params}  lhs={rec.lhs!r} rhs={rec.rhs!r}"
                )
    return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def reports_to_json(reports: Sequence[VerificationReport], path: str | Path) -> None:
    doc = _jsonable(
        {
            "passed": all(bool(r.passed) for r in reports),
            "reports": [r.to_dict() for r in reports],
        }
    )
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")
