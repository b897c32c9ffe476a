"""Inequality and identity checks with measured proof constants.

Every check assembles its constant from the measured doubling diagnostics
(c_d_hat, c_rho_hat) rather than asserting an abstract bound, and each
report records the assembled constant so a failure is attributable. The two
exact identities (the layer-cake identity for the fractional energy and the
threshold-averaging identity) are evaluated by closed-form segment
integration of the relevant step function, so they must hold to 1e-9
relative with no quadrature error.

Checks that need geometry the space does not carry (geodesic chains on a
matrix-only space, mesh refinement of a generator-less space) return a
report marked not applicable instead of failing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .energies import g_scale, gagliardo_p, h_energy, k_energy, mollify, scale_energies
from .fields import EnergySpec, ScalarField, as_values
from .gradients import cheeger_surrogate, hajlasz_minimal, path_integral
from .kernels import KernelSpec, kernel_comparability, kernel_matrix
from .space import MetricMeasureSpace, SpaceSpec, build_space, doubling_constant
from .sweeps import bbm_sweep, extrapolate, nguyen_sweep

IDENTITY_RTOL = 1e-9
EXACT_RTOL = 1e-12
# checks that a constant field skips: check name -> (report name, note)
CONSTANT_FIELD_SKIPS = {
    "nguyen-avg": ("threshold-averaging", "constant field: 0 = 0"),
    "hajlasz": ("hajlasz-vs-cheeger", "constant field excluded"),
    "two-sided": ("two-sided-limits", "constant field excluded"),
}

__all__ = [
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


def _leq(lhs: float, rhs: float, rtol: float = IDENTITY_RTOL) -> bool:
    return lhs <= rhs + rtol * max(abs(lhs), abs(rhs), 1.0e-300)


def _close(a: float, b: float, rtol: float = IDENTITY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0e-300)


def _measured(space: MetricMeasureSpace, kernel: KernelSpec) -> tuple[float, float]:
    c_d = doubling_constant(space).c_d_hat
    c_rho = kernel_comparability(space, kernel).c_rho_hat
    return c_d, c_rho


# -- annuli tail bound -----------------------------------------------------------


def check_annuli_bound(
    space: MetricMeasureSpace, kernel: KernelSpec, p: float, r_grid: Sequence[float]
) -> VerificationReport:
    """Tail sum over {d >= r} of w / (rho d^p) against C / r^p.

    The dyadic-annuli chain gives C = c_rho_hat * c_d_hat^2 * 2^p/(2^p - 1)
    from the measured constants.
    """
    c_d, c_rho = _measured(space, kernel)
    big_c = c_rho * c_d**2 * 2.0**p / (2.0**p - 1.0)
    rho = kernel_matrix(space, kernel)
    report = VerificationReport(
        "annuli-tail-bound", constants={"c_d_hat": c_d, "c_rho_hat": c_rho, "C": big_c}
    )
    # NaN on the diagonal, which r > 0 always excludes
    terms = space.weights[None, :] / (rho * space.dist**p)
    for r in r_grid:
        if r <= 0:
            raise ValueError(f"annuli radius must be > 0, got {r}")
        tails = np.sum(np.where(space.dist >= r, terms, 0.0), axis=1)
        worst = float(np.max(tails) * r**p)
        report.records.append(
            CheckRecord(
                {"r": float(r), "p": p},
                lhs=worst,
                rhs=big_c,
                ok=_leq(worst, big_c),
                note=f"sup_x r^p * tail(x) at x = {int(np.argmax(tails))}",
            )
        )
    return report


# -- ball mean comparison ----------------------------------------------------------


def check_mean_comparison(
    space: MetricMeasureSpace, u, p: float, t_grid: Sequence[float]
) -> VerificationReport:
    """mu(B) int_B |u - u_B|^p <= int_{BxB} |u(x)-u(y)|^p <= 2^p mu(B) int_B |u - u_B|^p.

    Exact discrete inequalities (Jensen and the elementary power bound),
    checked at every ball center to 1e-12 relative.
    """
    vals = as_values(u, space.n)
    w = space.weights
    report = VerificationReport("ball-mean-comparison", constants={"factor": 2.0**p})
    for t in t_grid:
        worst_low, worst_high = np.inf, np.inf
        ok = True
        for center in range(space.n):
            members = np.nonzero(space.dist[center] <= t)[0]
            ww = w[members]
            uu = vals[members]
            mass = float(np.sum(ww))
            mean = float(np.sum(uu * ww)) / mass
            osc = float(np.sum(ww * np.abs(uu - mean) ** p))
            low = mass * osc
            mid = float(np.sum(np.abs(uu[:, None] - uu[None, :]) ** p * (ww[:, None] * ww[None, :])))
            high = 2.0**p * mass * osc
            ok = ok and _leq(low, mid, EXACT_RTOL) and _leq(mid, high, EXACT_RTOL)
            worst_low = min(worst_low, mid - low)
            worst_high = min(worst_high, high - mid)
        report.records.append(
            CheckRecord(
                {"t": float(t), "p": p},
                lhs=-min(worst_low, worst_high),
                rhs=0.0,
                ok=ok,
                note=f"min slack lower {worst_low!r}, upper {worst_high!r}",
            )
        )
    return report


# -- layer-cake identity ------------------------------------------------------------


def _pair_arrays(space: MetricMeasureSpace, vals: np.ndarray, kernel: KernelSpec):
    iu, ju = np.triu_indices(space.n, k=1)
    d = space.dist[iu, ju]
    rho = kernel_matrix(space, kernel)
    # both orders of each unordered pair
    weight = space.weights[iu] * space.weights[ju]
    contrib = weight * (1.0 / rho[iu, ju] + 1.0 / rho[ju, iu])
    gap = np.abs(vals[iu] - vals[ju])
    return d, gap, contrib


def _group_sums(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the sum of vals over each."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return uniq, np.add.reduceat(vals[order], starts)


def check_fubini_identity(
    space: MetricMeasureSpace, u, p: float, s: float, kernel: KernelSpec
) -> VerificationReport:
    """ps * int_0^inf K_t / t^{ps+1} dt equals the fractional energy.

    K_t is a step function of t jumping at realized distances, so the
    t-integral is evaluated in closed form segment by segment; the direct
    pair sum must agree to 1e-9 relative.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must be in (0,1), got {s}")
    vals = as_values(u, space.n)
    d, gap, contrib = _pair_arrays(space, vals, kernel)
    ps = p * s
    uniq, jump_per_d = _group_sums(d, gap**p * contrib)
    cumulative = np.cumsum(jump_per_d)

    # segment integrals ps * int_{d_k}^{d_{k+1}} t^{-ps-1} dt = d_k^-ps - d_{k+1}^-ps
    heads = uniq**-ps
    tails = np.append(uniq[1:] ** -ps, 0.0)
    lhs = float(np.sum(cumulative * (heads - tails)))

    rhs = gagliardo_p(space, u, EnergySpec(p=p, s=s, kernel=kernel))
    report = VerificationReport("fubini-layer-cake", constants={"p": p, "s": s})
    report.records.append(
        CheckRecord(
            {"p": p, "s": s, "kernel": kernel.key},
            lhs=lhs,
            rhs=rhs,
            ok=_close(lhs, rhs),
            note="segment integral vs direct pair sum",
        )
    )
    return report


# -- K/H/S chain --------------------------------------------------------------------


def check_hks(
    space: MetricMeasureSpace, u, p: float, t_grid: Sequence[float]
) -> VerificationReport:
    """Scale-energy comparisons with constants from the measured c_d_hat.

    At each t (kernel pinned to rho1):
      (i)  H_t <= K_t  and  K_t <= c_d_hat * sum_k H_{t/2^k}, k <= ceil(log2(t/h_min))
      (ii) H_{t/2} <= c_d_hat^4 * S_t  and  S_t <= c_d_hat^3 * H_{2t}
      (iv) for t >= 1: K_t <= K_1 + 2^p c_rho_hat (c_d_hat - 1) log2(2t) ||u||_p^p
    """
    kernel = KernelSpec("rho1")
    c_d, c_rho = _measured(space, kernel)
    h_min = space.min_distance
    for t in t_grid:
        if t <= h_min:
            raise ValueError(f"t = {t:g} is at or below the mesh scale {h_min:g}")
    report = VerificationReport(
        "scale-energy-chain", constants={"c_d_hat": c_d, "c_rho_hat": c_rho}
    )
    vals = as_values(u, space.n)
    norm_p = float(np.sum(space.weights * np.abs(vals) ** p))

    def spec(t: float) -> EnergySpec:
        return EnergySpec(p=p, t=t, kernel=kernel)

    for t in t_grid:
        se = scale_energies(space, u, spec(t))
        report.records.append(
            CheckRecord({"t": t, "item": "i-lower"}, lhs=se.h, rhs=se.k, ok=_leq(se.h, se.k))
        )
        kmax = max(0, math.ceil(math.log2(t / h_min)))
        h_sum = sum([se.h, *(h_energy(space, u, spec(t / 2.0**k)) for k in range(1, kmax + 1))])
        rhs = c_d * h_sum
        report.records.append(
            CheckRecord(
                {"t": t, "item": "i-upper", "k_max": kmax}, lhs=se.k, rhs=rhs, ok=_leq(se.k, rhs)
            )
        )
        h_half = h_energy(space, u, spec(t / 2.0))
        report.records.append(
            CheckRecord(
                {"t": t, "item": "ii-lower"},
                lhs=h_half,
                rhs=c_d**4 * se.s,
                ok=_leq(h_half, c_d**4 * se.s),
            )
        )
        h_double = h_energy(space, u, spec(2.0 * t))
        report.records.append(
            CheckRecord(
                {"t": t, "item": "ii-upper"},
                lhs=se.s,
                rhs=c_d**3 * h_double,
                ok=_leq(se.s, c_d**3 * h_double),
            )
        )

    big_ts = [t for t in t_grid if t >= 1.0] or [1.0]
    k1 = k_energy(space, u, spec(1.0))
    for t in big_ts:
        kt = k_energy(space, u, spec(t))
        rhs = k1 + 2.0**p * c_rho * (c_d - 1.0) * math.log2(2.0 * t) * norm_p
        report.records.append(
            CheckRecord({"t": t, "item": "iv"}, lhs=kt, rhs=rhs, ok=_leq(kt, rhs))
        )
    return report


# -- regularization -----------------------------------------------------------------


def check_mollifier(
    space: MetricMeasureSpace,
    fields: Sequence[ScalarField],
    p: float,
    t_grid: Sequence[float],
    eps_conv: float = 0.05,
    allowance: float = 1.05,
) -> VerificationReport:
    """Ball averaging is bounded by c_d_hat in L^p and converges as t -> 0.

    The t grid must decrease; the approximation error at the smallest t must
    fall below eps_conv and may rise along the grid only within the stated
    non-monotonicity allowance (discreteness).
    """
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
            bound = c_d * base
            lhs = norm_p(mf.values)
            report.records.append(
                CheckRecord(
                    {"field": idx, "t": float(t), "item": "bounded"},
                    lhs=lhs,
                    rhs=bound,
                    ok=_leq(lhs, bound),
                )
            )
            errors.append(norm_p(mf.values - f.values))
        report.records.append(
            CheckRecord(
                {"field": idx, "t": float(t_grid[-1]), "item": "converges"},
                lhs=errors[-1],
                rhs=eps_conv,
                ok=_leq(errors[-1], eps_conv),
            )
        )
        drift_ok = all(
            b <= allowance * a + 1e-15 * max(base, 1.0) for a, b in zip(errors, errors[1:])
        )
        report.records.append(
            CheckRecord(
                {"field": idx, "item": "nonincreasing", "allowance": allowance},
                lhs=0.0 if drift_ok else 1.0,
                rhs=0.0,
                ok=drift_ok,
                note="approximation error along the decreasing grid",
            )
        )
    return report


# -- upper gradient at scale ---------------------------------------------------------


def _geodesic_paths(
    space: MetricMeasureSpace, lo: float, hi: float, count: int, seed: int
) -> list[list[int]]:
    """Chains in the neighbor graph with tree length in [lo, hi]."""
    edges = space.edges
    i, j = edges[:, 0], edges[:, 1]
    lengths = space.dist[i, j]
    adj = coo_matrix((lengths, (i, j)), shape=(space.n, space.n))
    adj = adj.maximum(adj.T).tocsr()
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
            ok = _leq(lhs, rhs)
            if rhs > 0:
                worst_ratio = max(worst_ratio, lhs / rhs)
            report.records.append(
                CheckRecord(
                    {
                        "kind": label,
                        "from": int(chain[0]),
                        "to": int(chain[-1]),
                        "length": length,
                    },
                    lhs=lhs,
                    rhs=rhs,
                    ok=ok,
                )
            )
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
    if eps <= 0 or r <= 0:
        raise ValueError("eps and r must be positive")
    vals = as_values(u, space.n)
    d, gap, contrib = _pair_arrays(space, vals, kernel)
    base = contrib / d**p

    positive = gap > 0
    uniq, per_gap = _group_sums(gap[positive], base[positive])
    # T on [uniq[k-1], uniq[k]) is the tail sum of pairs with gap >= uniq[k]
    tails = np.cumsum(per_gap[::-1])[::-1]
    # T vanishes past the largest gap; each segment is clipped to [0, r]
    knots = np.minimum(np.concatenate([[0.0], uniq]), r) ** (p + eps)
    lhs = eps / (p + eps) * float(np.sum(tails * np.diff(knots)))

    rhs = eps / (p + eps) * float(np.sum(np.minimum(gap, r) ** (p + eps) * base))
    report = VerificationReport("threshold-averaging", constants={"eps": eps, "r": r, "p": p})
    report.records.append(
        CheckRecord(
            {"eps": eps, "r": r, "p": p, "kernel": kernel.key},
            lhs=lhs,
            rhs=rhs,
            ok=_close(lhs, rhs),
            note="segment integral vs truncated pair sum",
        )
    )
    return report


# -- minimal gradient vs local slope ---------------------------------------------------


def _refine(space: MetricMeasureSpace, refine_field, report) -> MetricMeasureSpace | None:
    """The space one mesh refinement up, or None with the skipped clause noted."""
    spec = SpaceSpec.from_metric(space.metric)
    spec = None if spec is None else spec.refined()
    if spec is None or refine_field is None:
        report.note = (
            "no generator to refine" if spec is None else "no field transfer available"
        ) + "; stability clause skipped"
        return None
    return build_space(spec)


def check_hajlasz_bound(
    space: MetricMeasureSpace,
    u,
    p: float,
    r: float = np.inf,
    budget: float = 100.0,
    refine_field=None,
) -> VerificationReport:
    """Ratio of the minimal two-point gradient energy to the local-slope energy.

    Passes when the ratio is within the configured budget and stable within
    25% under one mesh refinement. The stability clause needs both a
    generator to refine and a refine_field(refined_space) callback supplying
    the field on the refined space (for expression fields, re-evaluation);
    without either it is skipped with a note.
    """
    vals = as_values(u, space.n)
    if np.all(vals == vals[0]):
        raise ValueError("the minimal-gradient ratio needs a nonconstant field")

    def ratio_on(sp: MetricMeasureSpace, field_vals) -> tuple[float, CheckRecord | None]:
        res = hajlasz_minimal(sp, field_vals, p, cutoff=r)
        energy, _ = cheeger_surrogate(sp, field_vals, p)
        if energy == 0.0:
            return np.nan, CheckRecord(
                {"space": sp.name},
                lhs=res.objective,
                rhs=0.0,
                ok=False,
                note="degenerate: zero local-slope energy with nonzero objective",
            )
        return res.objective / energy, None

    report = VerificationReport("hajlasz-vs-cheeger", constants={"budget": budget, "r": r})
    ratio, degenerate = ratio_on(space, u)
    if degenerate is not None:
        report.records.append(degenerate)
        return report
    report.records.append(
        CheckRecord({"space": space.name}, lhs=ratio, rhs=budget, ok=_leq(ratio, budget))
    )

    refined = _refine(space, refine_field, report)
    if refined is None:
        return report
    ratio2, degenerate2 = ratio_on(refined, refine_field(refined))
    if degenerate2 is not None:
        report.records.append(degenerate2)
        return report
    shift = abs(ratio2 / ratio - 1.0)
    report.records.append(
        CheckRecord(
            {"space": refined.name, "item": "stability"},
            lhs=shift,
            rhs=0.25,
            ok=_leq(shift, 0.25),
            note=f"ratio {ratio!r} -> {ratio2!r}",
        )
    )
    return report


# -- two-sided limit ratios --------------------------------------------------------------


def default_s_grid() -> list[float]:
    return [0.5 + 0.05 * k for k in range(9)]


def default_delta_grid(osc: float) -> list[float]:
    return [osc * f for f in (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)]


def two_sided_report(
    space: MetricMeasureSpace,
    u,
    p: float,
    kernel: KernelSpec,
    window: tuple[float, float] = (0.05, 20.0),
    s_grid: Sequence[float] | None = None,
    delta_grid: Sequence[float] | None = None,
    refine_field=None,
    check_refinement: bool = True,
) -> VerificationReport:
    """Extrapolated limit over local-slope energy, bounded and mesh-stable.

    R_bbm and R_nguyen must land inside the configured window and shift by
    less than 15% under one mesh refinement.
    """
    vals = as_values(u, space.n)
    if np.all(vals == vals[0]):
        raise ValueError("two-sided ratios need a nonconstant field")

    def ratios_on(sp: MetricMeasureSpace, field_u) -> tuple[float, float]:
        energy, _ = cheeger_surrogate(sp, field_u, p)
        if energy == 0.0:
            raise ValueError("zero local-slope energy; ratios undefined")
        osc = float(np.max(as_values(field_u, sp.n)) - np.min(as_values(field_u, sp.n)))
        sg = list(s_grid) if s_grid is not None else default_s_grid()
        dg = list(delta_grid) if delta_grid is not None else default_delta_grid(osc / 2.0)
        bbm = extrapolate(bbm_sweep(sp, field_u, p, kernel, sg)).limit
        ngu = extrapolate(nguyen_sweep(sp, field_u, p, kernel, dg)).limit
        return bbm / energy, ngu / energy

    lo, hi = window
    report = VerificationReport("two-sided-limits", constants={"window": [lo, hi]})
    r_bbm, r_ngu = ratios_on(space, u)
    for name, value in (("R_bbm", r_bbm), ("R_nguyen", r_ngu)):
        report.records.append(
            CheckRecord(
                {"ratio": name},
                lhs=value,
                rhs=hi,
                ok=bool(lo <= value <= hi),
                note=f"window [{lo}, {hi}]",
            )
        )
    report.constants.update({"R_bbm": r_bbm, "R_nguyen": r_ngu})

    if check_refinement:
        refined = _refine(space, refine_field, report)
        if refined is None:
            return report
        r_bbm2, r_ngu2 = ratios_on(refined, refine_field(refined))
        for name, a, b in (("R_bbm", r_bbm, r_bbm2), ("R_nguyen", r_ngu, r_ngu2)):
            shift = abs(b / a - 1.0)
            report.records.append(
                CheckRecord(
                    {"ratio": name, "item": "stability"},
                    lhs=shift,
                    rhs=0.15,
                    ok=_leq(shift, 0.15),
                    note=f"{a!r} -> {b!r}",
                )
            )
    return report


# -- suite ---------------------------------------------------------------------------------


def run_suite(
    space: MetricMeasureSpace,
    u,
    p: float,
    kernel: KernelSpec,
    checks: Sequence[str] = (
        "annuli",
        "mean",
        "fubini",
        "hks",
        "mollifier",
        "upper-gradient",
        "nguyen-avg",
        "hajlasz",
        "two-sided",
    ),
    informational: Sequence[str] = (),
    refine_field=None,
) -> list[VerificationReport]:
    """Run the named checks with space-derived default parameters.

    Checks listed in `informational` run and report but never fail the suite
    (their reports are marked accordingly). refine_field(refined_space), when
    given, supplies the field on mesh-refined spaces for stability clauses.
    """
    EnergySpec(p=p)  # rejects p < 1 and NaN before any check runs
    h_min, diam = space.min_distance, space.diameter
    t_lo = min(4.0 * h_min, 0.25 * diam)
    t_grid = sorted({max(t_lo, diam / 16.0), diam / 8.0, diam / 4.0})
    r_grid = t_grid
    vals = as_values(u, space.n)
    osc = float(np.max(vals) - np.min(vals))
    reports: list[VerificationReport] = []
    for name in checks:
        if osc == 0.0 and name in CONSTANT_FIELD_SKIPS:
            report_name, note = CONSTANT_FIELD_SKIPS[name]
            rep = VerificationReport(report_name, applicable=False, note=note)
        elif name == "annuli":
            rep = check_annuli_bound(space, kernel, p, r_grid)
        elif name == "mean":
            rep = check_mean_comparison(space, u, p, t_grid)
        elif name == "fubini":
            rep = check_fubini_identity(space, u, p, 0.7, kernel)
        elif name == "hks":
            rep = check_hks(space, u, p, t_grid)
        elif name == "mollifier":
            grid = [diam / 2**k for k in range(2, 7) if diam / 2**k > h_min]
            rep = check_mollifier(space, [ScalarField(vals)], p, grid or [diam])
        elif name == "upper-gradient":
            rep = check_upper_gradient_scale(space, u, t_grid[-1], n_paths=50)
        elif name == "nguyen-avg":
            rep = check_nguyen_averaging(space, u, p, 0.5, 0.5 * osc, kernel)
        elif name == "hajlasz":
            rep = check_hajlasz_bound(space, u, p, refine_field=refine_field)
        elif name == "two-sided":
            rep = two_sided_report(space, u, p, kernel, refine_field=refine_field)
        else:
            raise ValueError(f"unknown check {name!r}")
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
