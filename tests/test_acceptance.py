"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Each
criterion asserts its stated tolerances; sub-checks are listed under the
criterion line with their measured values so a failure is attributable.
"""

import math
import time

import numpy as np

from nsl import (
    ConvexBody,
    EnergySpec,
    KernelSpec,
    ScalarField,
    SpaceSpec,
    bbm_sweep,
    build_space,
    cheeger_surrogate,
    extrapolate,
    gagliardo_p,
    g_scale,
    hajlasz_minimal,
    k_pn,
    mollify,
    nguyen_a,
    nguyen_sweep,
    scale_energies,
    scale_s_by_balls,
    scale_s_by_pairs,
    set_workers,
    zstar_norm,
)
from nsl.verify import (
    check_annuli_bound,
    check_fubini_identity,
    check_hks,
    check_mean_comparison,
    check_mollifier,
    check_nguyen_averaging,
    check_upper_gradient_scale,
    two_sided_report,
)

from conftest import hajlasz_oracle_p2

S_GRID = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
DELTA_GRID = [0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05]
AHLFORS1 = KernelSpec("ahlfors", 1.0)
RHO1 = KernelSpec("rho1")


class Criterion:
    def __init__(self, code: str, title: str) -> None:
        self.code = code
        self.title = title
        self.items: list[tuple[str, bool, str]] = []

    def check(self, label: str, ok, detail: str = "") -> None:
        self.items.append((label, bool(ok), detail))

    def within(self, label: str, measured: float, target: float, rel: float) -> None:
        dev = abs(measured / target - 1.0) if target != 0 else abs(measured)
        self.check(label, dev <= rel, f"measured {measured:.6g}, target {target:.6g} "
                                      f"(dev {dev * 100:.2f}%, budget {rel * 100:g}%)")

    def conclude(self) -> None:
        failed = [item for item in self.items if not item[1]]
        status = "PASS" if not failed else "FAIL"
        print(f"\n[{self.code} {self.title}] {status} "
              f"({len(self.items) - len(failed)}/{len(self.items)} checks)")
        for label, ok, detail in self.items:
            print(f"    {'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
        assert not failed, f"{self.code} {self.title}: " + "; ".join(
            f"{label} [{detail}]" for label, ok, detail in failed
        )


_cache: dict = {}


def cached(key, build):
    if key not in _cache:
        _cache[key] = build()
    return _cache[key]


def interval_space(n):
    return cached(("interval", n), lambda: build_space(SpaceSpec("interval", n=n)))


def circle_space(n):
    return cached(("circle", n), lambda: build_space(SpaceSpec("circle", n=n)))


def coord_field(space):
    return ScalarField(space.coords[:, 0])


def sin_field(space):
    return ScalarField(np.sin(space.coords[:, 0]))


def bbm_oracle(s):
    return (1 - s) * 2.0 * (1.0 / (2 - 2 * s) - 1.0 / (3 - 2 * s))


def interval_bbm_sweep(n):
    return cached(
        ("bbm-sweep", n),
        lambda: bbm_sweep(interval_space(n), coord_field(interval_space(n)), 2.0,
                          AHLFORS1, S_GRID),
    )


def interval_nguyen_sweep(n):
    return cached(
        ("nguyen-sweep", n),
        lambda: nguyen_sweep(interval_space(n), coord_field(interval_space(n)), 2.0,
                             AHLFORS1, DELTA_GRID),
    )


def circle_bbm_limit(n):
    def build():
        sp = circle_space(n)
        sweep = bbm_sweep(sp, sin_field(sp), 2.0, RHO1, S_GRID)
        return extrapolate(sweep).limit

    return cached(("circle-bbm-limit", n), build)


def test_a01_bbm_closed_form_1d():
    crit = Criterion("A01", "bbm-1d-closed-form")
    sweep = interval_bbm_sweep(1024)
    values = dict(zip(sweep.grid, sweep.values))
    for s, budget in ((0.5, 0.01), (0.7, 0.01), (0.9, 0.01)):
        crit.within(f"sweep value at s={s}", values[s], bbm_oracle(s), budget)
    crit.within("sweep value at s=0.99", values[0.99], bbm_oracle(0.99), 0.02)
    est = extrapolate(sweep)
    crit.within("extrapolated limit", est.limit, 1.0, 0.03)
    crit.conclude()


def test_a02_nguyen_closed_form_1d():
    crit = Criterion("A02", "nguyen-1d-closed-form")
    sweep = interval_nguyen_sweep(1024)
    values = dict(zip(sweep.grid, sweep.values))
    for delta in (0.5, 0.2, 0.1):
        crit.within(f"value at delta={delta}", values[delta], (1 - delta) ** 2, 0.01)
    est = extrapolate(sweep)
    crit.within("extrapolated limit", est.limit, 1.0, 0.03)
    crit.conclude()


def test_a03_circle_measured_kernel():
    crit = Criterion("A03", "circle-measured-kernel")
    sp = circle_space(512)
    u = sin_field(sp)
    limit = circle_bbm_limit(512)
    crit.within("extrapolated bbm limit", limit, math.pi / 2, 0.05)
    energy, _ = cheeger_surrogate(sp, u, 2.0, scheme="centered")
    crit.within("local-slope energy", energy, math.pi, 0.01)
    report = two_sided_report(sp, u, 2.0, RHO1, s_grid=S_GRID)
    crit.within("R_bbm ratio", report.constants["R_bbm"], 0.5, 0.10)
    crit.conclude()


def test_a04_limit_constants():
    crit = Criterion("A04", "limit-constants")
    crit.check("k(2,1) = 1", abs(k_pn(2, 1) - 1.0) <= 1e-6, f"{k_pn(2, 1)!r}")
    crit.check("k(1,1) = 2", abs(k_pn(1, 1) - 2.0) <= 1e-6, f"{k_pn(1, 1)!r}")
    crit.check("k(2,2) = pi/2", abs(k_pn(2, 2) - math.pi / 2) <= 1e-6, f"{k_pn(2, 2)!r}")
    disk = ConvexBody("ball", dim=2)
    z = zstar_norm(disk, 2, (1.0, 0.0))
    crit.check("zstar(disk,2,e1) = sqrt(pi/2)",
               abs(z - math.sqrt(math.pi / 2)) <= 1e-6, f"{z!r}")
    for xi in ((1.0, 0.0), (0.6, 0.8), (-0.3, 0.4)):
        lhs = zstar_norm(disk, 2, xi) ** 2
        rhs = k_pn(2, 2) * float(np.dot(xi, xi))
        crit.check(f"zstar^2 = k(2,2)|xi|^2 at xi={xi}", abs(lhs - rhs) <= 1e-6,
                   f"{lhs!r} vs {rhs!r}")
    crit.conclude()


def test_a05_anisotropic_torus():
    crit = Criterion("A05", "anisotropic-2d-torus")
    start = time.time()
    sp = cached("torus64", lambda: build_space(SpaceSpec("torus2d", nx=64, ny=64)))
    u = ScalarField(np.sin(2 * math.pi * sp.coords[:, 0]))
    kernel = KernelSpec("gauge-ahlfors", 2.0, ConvexBody("ball", dim=2))
    grid = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
    sweep = bbm_sweep(sp, u, 2.0, kernel, grid)
    est = extrapolate(sweep)
    energy, _ = cheeger_surrogate(sp, u, 2.0, scheme="centered")
    oracle = zstar_norm(ConvexBody("ball", dim=2), 2.0, (1.0, 0.0)) ** 2 * energy
    elapsed = time.time() - start
    crit.within("extrapolated limit vs anisotropic oracle", est.limit, oracle, 0.10)
    crit.check("runtime within 5 minutes", elapsed < 300.0, f"{elapsed:.1f}s")
    crit.conclude()


def _two_point():
    from nsl import MetricMeasureSpace

    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    return MetricMeasureSpace(dist, np.array([0.5, 0.5]), name="two-point")


def test_a06_exact_identities():
    crit = Criterion("A06", "exact-identities")
    tp = _two_point()
    tp_u = ScalarField(np.array([0.0, 1.0]))
    iv = interval_space(128)
    ci = circle_space(128)
    step_iv = ScalarField((iv.coords[:, 0] > 0.5).astype(float))
    step_ci = ScalarField((ci.coords[:, 0] > math.pi).astype(float))
    cases = [
        ("two-point", tp, tp_u, AHLFORS1),
        ("interval(128) u=x", iv, coord_field(iv), AHLFORS1),
        ("interval(128) step", iv, step_iv, AHLFORS1),
        ("circle(128) sin", ci, sin_field(ci), RHO1),
        ("circle(128) step", ci, step_ci, RHO1),
    ]
    for name, sp, u, kernel in cases:
        rep = check_fubini_identity(sp, u, 2.0, 0.5, kernel)
        rec = rep.records[0]
        rel = abs(rec.lhs - rec.rhs) / max(abs(rec.rhs), 1e-300)
        crit.check(f"layer-cake identity, {name}", rel <= 1e-9, f"rel {rel:.2e}")
        osc = float(np.max(u.values) - np.min(u.values))
        rep2 = check_nguyen_averaging(sp, u, 2.0, 1.0, max(osc, 1e-9) * 0.8, kernel)
        rec2 = rep2.records[0]
        rel2 = abs(rec2.lhs - rec2.rhs) / max(abs(rec2.rhs), 1e-300)
        crit.check(f"threshold-averaging identity, {name}", rel2 <= 1e-9, f"rel {rel2:.2e}")
        t = max(4 * sp.min_distance, sp.diameter / 8)
        spec = EnergySpec(p=2, t=t)
        s_balls = scale_s_by_balls(sp, u, spec)
        s_pairs = scale_s_by_pairs(sp, u, spec)
        rel3 = abs(s_balls - s_pairs) / max(abs(s_balls), 1e-300)
        crit.check(f"S_t dual route, {name}", rel3 <= 1e-10, f"rel {rel3:.2e}")
    crit.conclude()


def test_a07_proof_constant_inequalities():
    crit = Criterion("A07", "proof-constant-inequalities")
    spaces = [
        (build_space(SpaceSpec("interval", n=256)), "interval(256)"),
        (build_space(SpaceSpec("circle", n=256)), "circle(256)"),
        (cached("torus32", lambda: build_space(SpaceSpec("torus2d", nx=32, ny=32))), "torus2d(32x32)"),
        (build_space(SpaceSpec("interval", n=256, alpha=1.0)), "weighted interval"),
    ]
    for sp, name in spaces:
        if name.startswith("interval") or name.startswith("weighted"):
            u = coord_field(sp)
        elif name.startswith("circle"):
            u = sin_field(sp)
        else:
            u = ScalarField(np.sin(2 * math.pi * sp.coords[:, 0]))
        d = sp.diameter
        t_grid = [d / 16, d / 8, d / 4]
        checks = [
            ("annuli", check_annuli_bound(sp, RHO1, 2.0, t_grid)),
            ("mean-comparison", check_mean_comparison(sp, u, 2.0, t_grid)),
            ("scale-chain i/ii/iv", check_hks(sp, u, 2.0, t_grid)),
            ("mollifier", check_mollifier(sp, [u], 2.0,
                                          [d / 2**k for k in range(2, 7)
                                           if d / 2**k > sp.min_distance])),
            ("upper-gradient", check_upper_gradient_scale(sp, u, d / 8, n_paths=60)),
        ]
        for label, rep in checks:
            bad = [r for r in rep.records if not r.ok]
            crit.check(f"{label} on {name}", rep.passed,
                       "" if rep.passed else f"{len(bad)} failing records")
    crit.conclude()


def test_a08_hajlasz_optimization():
    crit = Criterion("A08", "hajlasz-optimization")
    tp = _two_point()
    res = hajlasz_minimal(tp, ScalarField(np.array([0.0, 1.0])), 2.0)
    crit.check("two-point objective = 0.25 (1e-6)",
               abs(res.objective - 0.25) <= 1e-6, f"{res.objective!r}")
    crit.check("two-point feasibility <= 1e-10", res.violation <= 1e-10,
               f"violation {res.violation!r}")

    from nsl import MetricMeasureSpace

    x = np.array([0.0, 0.5, 1.0])
    three = MetricMeasureSpace(np.abs(x[:, None] - x[None, :]), np.full(3, 1 / 3),
                               coords=x, name="three-collinear")
    res3 = hajlasz_minimal(three, ScalarField(x), 2.0)
    oracle = hajlasz_oracle_p2(three.weights, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
    crit.check("three-point oracle value = 0.25", abs(oracle - 0.25) <= 1e-12, f"{oracle!r}")
    crit.check("three-point objective matches oracle (1e-4)",
               abs(res3.objective - oracle) <= 1e-4 * oracle,
               f"{res3.objective!r} vs {oracle!r}")
    crit.check("three-point feasibility <= 1e-10", res3.violation <= 1e-10,
               f"violation {res3.violation!r}")

    extra = [
        (interval_space(64), coord_field(interval_space(64))),
        (circle_space(64), sin_field(circle_space(64))),
    ]
    for sp, u in extra:
        r = hajlasz_minimal(sp, u, 2.0)
        crit.check(f"feasibility <= 1e-10 on {sp.name}", r.violation <= 1e-10,
                   f"violation {r.violation!r}")
    crit.conclude()


def test_a09_determinism_across_workers():
    crit = Criterion("A09", "worker-determinism")

    def battery():
        iv = interval_space(300)
        ci = circle_space(300)
        u_iv, u_ci = coord_field(iv), sin_field(ci)
        out = []
        out.append(repr(gagliardo_p(iv, u_iv, EnergySpec(p=2, s=0.7, kernel=AHLFORS1))))
        out.append(repr(nguyen_a(iv, u_iv, EnergySpec(p=2, delta=0.2, kernel=AHLFORS1))))
        se = scale_energies(ci, u_ci, EnergySpec(p=2, t=0.4, kernel=RHO1))
        out.extend([repr(se.k), repr(se.h), repr(se.s)])
        out.append(mollify(ci, u_ci, 0.3).values.tobytes().hex()[:64])
        out.append(g_scale(ci, u_ci, EnergySpec(p=1, t=0.4), "truncated").values.tobytes().hex()[:64])
        sweep = nguyen_sweep(iv, u_iv, 2.0, AHLFORS1, [0.4, 0.3, 0.2, 0.1])
        out.append(repr(extrapolate(sweep).limit))
        rec = check_fubini_identity(ci, u_ci, 2.0, 0.6, RHO1).records[0]
        out.extend([repr(rec.lhs), repr(rec.rhs)])
        out.append(repr(hajlasz_minimal(iv, u_iv, 2.0).objective))
        return tuple(out)

    results = {}
    for w in (1, 2, 8):
        set_workers(w)
        results[w] = battery()
    set_workers(1)
    crit.check("workers 1 vs 2 byte-identical", results[1] == results[2])
    crit.check("workers 1 vs 8 byte-identical", results[1] == results[8])
    crit.conclude()


def test_a10_mesh_refinement_stability():
    crit = Criterion("A10", "mesh-refinement-stability")

    # criterion 1 quantities: oracle-relative ratios at n = 1024 vs 2048
    sweeps = {n: dict(zip(interval_bbm_sweep(n).grid, interval_bbm_sweep(n).values))
              for n in (1024, 2048)}
    for s in (0.5, 0.7, 0.9, 0.99):
        r1 = sweeps[1024][s] / bbm_oracle(s)
        r2 = sweeps[2048][s] / bbm_oracle(s)
        crit.check(f"bbm value ratio at s={s} shifts < 15%", abs(r2 / r1 - 1) < 0.15,
                   f"{r1:.4f} -> {r2:.4f} ({abs(r2 / r1 - 1) * 100:.1f}%)")
    lim = {n: extrapolate(interval_bbm_sweep(n)).limit for n in (1024, 2048)}
    crit.check("bbm extrapolated-limit ratio shifts < 15%",
               abs(lim[2048] / lim[1024] - 1) < 0.15,
               f"{lim[1024]:.4f} -> {lim[2048]:.4f}")

    # criterion 2 quantities
    ng = {n: dict(zip(interval_nguyen_sweep(n).grid, interval_nguyen_sweep(n).values))
          for n in (1024, 2048)}
    for delta in (0.5, 0.2, 0.1):
        r1 = ng[1024][delta] / (1 - delta) ** 2
        r2 = ng[2048][delta] / (1 - delta) ** 2
        crit.check(f"nguyen value ratio at delta={delta} shifts < 15%",
                   abs(r2 / r1 - 1) < 0.15, f"{r1:.4f} -> {r2:.4f}")
    nlim = {n: extrapolate(interval_nguyen_sweep(n)).limit for n in (1024, 2048)}
    crit.check("nguyen extrapolated-limit ratio shifts < 15%",
               abs(nlim[2048] / nlim[1024] - 1) < 0.15,
               f"{nlim[1024]:.4f} -> {nlim[2048]:.4f}")

    # criterion 3 quantities on the circle
    limits = {n: circle_bbm_limit(n) for n in (512, 1024)}
    crit.check("circle bbm-limit ratio shifts < 15%",
               abs(limits[1024] / limits[512] - 1) < 0.15,
               f"{limits[512]:.4f} -> {limits[1024]:.4f}")
    cheeger = {}
    for n in (512, 1024):
        sp = circle_space(n)
        cheeger[n], _ = cheeger_surrogate(sp, sin_field(sp), 2.0, scheme="centered")
    crit.check("circle local-slope ratio shifts < 15%",
               abs(cheeger[1024] / cheeger[512] - 1) < 0.15,
               f"{cheeger[512]:.5f} -> {cheeger[1024]:.5f}")
    r_bbm = {n: limits[n] / cheeger[n] for n in (512, 1024)}
    crit.check("circle R_bbm ratio shifts < 15%",
               abs(r_bbm[1024] / r_bbm[512] - 1) < 0.15,
               f"{r_bbm[512]:.4f} -> {r_bbm[1024]:.4f}")
    crit.conclude()
