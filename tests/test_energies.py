import math

import numpy as np
import pytest

from nsl import (
    EnergySpec,
    KernelSpec,
    MetricMeasureSpace,
    PiecewiseLinearMap,
    ScalarField,
    SpaceSpec,
    build_space,
    g_scale,
    gagliardo_p,
    h_energy,
    k_energy,
    kernel_comparability,
    mollify,
    nguyen_a,
    nguyen_b,
    scale_energies,
    scale_s_by_balls,
    scale_s_by_pairs,
)
from nsl.kernels import kernel_matrix

from conftest import random_space


def brute_pair_sum(space, u, term):
    """Independent O(n^2) double loop: sum of term(x, y) w(x) w(y) over x != y."""
    total = 0.0
    for x in range(space.n):
        for y in range(space.n):
            if x != y:
                total += term(x, y, abs(u.values[x] - u.values[y]), space.dist[x, y]) * (
                    space.weights[x] * space.weights[y]
                )
    return total


def bbm_interval_closed_form(s):
    return 2.0 * (1.0 / (2 - 2 * s) - 1.0 / (3 - 2 * s))


class TestGagliardo:
    def test_constant_is_zero(self, circle64):
        u = ScalarField(np.full(64, 3.7))
        spec = EnergySpec(p=2, s=0.5, kernel=KernelSpec("rho1"))
        assert gagliardo_p(circle64, u, spec) == 0.0

    def test_two_point_hand_value(self, two_point, two_point_field, ahlfors1):
        spec = EnergySpec(p=2, s=0.5, kernel=ahlfors1)
        assert gagliardo_p(two_point, two_point_field, spec) == pytest.approx(0.5)

    def test_matches_brute_force(self, ahlfors1):
        rng = np.random.default_rng(11)
        sp = random_space(rng, 14)
        u = ScalarField(rng.normal(size=14))
        p, s, delta, r, t = 2.0, 0.6, 0.8, 0.4, 0.3
        mass = [np.sum(sp.weights[sp.dist[x] <= t]) for x in range(sp.n)]
        for kernel in (ahlfors1, KernelSpec("rho1"), KernelSpec("geom")):
            rho = kernel_matrix(sp, kernel)
            t_spec = EnergySpec(p=p, t=t, kernel=kernel)
            se = scale_energies(sp, u, t_spec)
            k, h = k_energy(sp, u, t_spec), h_energy(sp, u, t_spec)
            assert (k, h, scale_s_by_balls(sp, u, t_spec)) == (se.k, se.h, se.s)
            cases = (
                (
                    gagliardo_p(sp, u, EnergySpec(p=p, s=s, kernel=kernel)),
                    lambda x, y, gap, d: gap**p / (d ** (p * s) * rho[x, y]),
                ),
                (
                    nguyen_a(sp, u, EnergySpec(p=p, delta=delta, kernel=kernel)),
                    lambda x, y, gap, d: delta**p / (rho[x, y] * d**p) if gap > delta else 0.0,
                ),
                (
                    nguyen_b(sp, u, EnergySpec(p=p, delta=delta, r=r, kernel=kernel)),
                    lambda x, y, gap, d: (
                        delta**p / (rho[x, y] * d**p) if gap > delta and d <= r else 0.0
                    ),
                ),
                (k, lambda x, y, gap, d: gap**p / rho[x, y] if d <= t else 0.0),
                (
                    h,
                    lambda x, y, gap, d: gap**p / math.sqrt(mass[x] * mass[y]) if d <= t else 0.0,
                ),
            )
            for value, term in cases:
                expected = brute_pair_sum(sp, u, term)
                assert expected > 0.0
                assert value == pytest.approx(expected, rel=1e-12)

    def test_interval_closed_form_mesh_safe(self, ahlfors1):
        # at s = 0.5 and 0.6 the 1024-point grid resolves the singularity
        sp = build_space(SpaceSpec("interval", n=1024))
        u = ScalarField(sp.coords[:, 0])
        for s in (0.5, 0.6):
            val = gagliardo_p(sp, u, EnergySpec(p=2, s=s, kernel=ahlfors1))
            assert val == pytest.approx(bbm_interval_closed_form(s), rel=0.01)

    def test_monotone_in_s_at_distance_two(self, ahlfors1):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        sp = MetricMeasureSpace(dist, np.array([0.5, 0.5]))
        u = ScalarField(np.array([0.0, 1.0]))
        # closed form 2 * d^{-2s-1} * w^2 = d^{-2s-1} / 2, decreasing in s
        vals = [
            gagliardo_p(sp, u, EnergySpec(p=2, s=s, kernel=ahlfors1))
            for s in (0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[1] == pytest.approx(2.0 ** (-2.0) / 2.0)

    def test_requires_s(self, two_point, two_point_field):
        with pytest.raises(ValueError, match="fractional order"):
            gagliardo_p(two_point, two_point_field, EnergySpec(p=2))

    def test_constant_shift_invariance(self, circle64, ahlfors1):
        rng = np.random.default_rng(12)
        u = ScalarField(rng.normal(size=64))
        shifted = ScalarField(u.values + 5.0)
        spec = EnergySpec(p=2, s=0.5, kernel=ahlfors1)
        assert gagliardo_p(circle64, shifted, spec) == pytest.approx(
            gagliardo_p(circle64, u, spec), rel=1e-12
        )

    def test_homogeneity_exact_power_of_two(self, two_point, two_point_field, ahlfors1):
        spec = EnergySpec(p=2, s=0.5, kernel=ahlfors1)
        doubled = ScalarField(2.0 * two_point_field.values)
        assert gagliardo_p(two_point, doubled, spec) == 4.0 * gagliardo_p(
            two_point, two_point_field, spec
        )

    def test_permutation_invariance(self, ahlfors1):
        rng = np.random.default_rng(13)
        sp = random_space(rng, 20)
        u = rng.normal(size=20)
        perm = rng.permutation(20)
        sp_perm = MetricMeasureSpace(
            sp.dist[np.ix_(perm, perm)], sp.weights[perm], name="permuted"
        )
        spec = EnergySpec(p=2, s=0.7, kernel=ahlfors1)
        assert gagliardo_p(sp, ScalarField(u), spec) == pytest.approx(
            gagliardo_p(sp_perm, ScalarField(u[perm]), spec), rel=1e-12
        )


class TestNguyen:
    def test_threshold_above_oscillation(self, two_point, two_point_field, ahlfors1):
        spec = EnergySpec(p=2, delta=1.5, kernel=ahlfors1)
        assert nguyen_a(two_point, two_point_field, spec) == 0.0

    def test_strict_threshold(self, two_point, two_point_field, ahlfors1):
        # |u(x)-u(y)| = 1 exactly: delta = 1 excludes the pair
        assert nguyen_a(two_point, two_point_field, EnergySpec(p=2, delta=1.0, kernel=ahlfors1)) == 0.0

    def test_two_point_hand_value(self, two_point, two_point_field, ahlfors1):
        spec = EnergySpec(p=2, delta=0.5, kernel=ahlfors1)
        assert nguyen_a(two_point, two_point_field, spec) == pytest.approx(0.125)

    def test_interval_closed_form(self, ahlfors1):
        sp = build_space(SpaceSpec("interval", n=1024))
        u = ScalarField(sp.coords[:, 0])
        for delta in (0.5, 0.2, 0.1):
            val = nguyen_a(sp, u, EnergySpec(p=2, delta=delta, kernel=ahlfors1))
            assert val == pytest.approx((1 - delta) ** 2, rel=0.01)

    def test_radius_restriction(self, ahlfors1):
        sp = build_space(SpaceSpec("interval", n=64))
        u = ScalarField(sp.coords[:, 0])
        full = nguyen_a(sp, u, EnergySpec(p=2, delta=0.1, kernel=ahlfors1))
        trimmed = nguyen_b(sp, u, EnergySpec(p=2, delta=0.1, r=0.3, kernel=ahlfors1))
        assert 0.0 < trimmed < full
        wide = nguyen_b(sp, u, EnergySpec(p=2, delta=0.1, r=2.0, kernel=ahlfors1))
        assert wide == full

    def test_threshold_scaling_identity_exact(self, two_point, two_point_field, ahlfors1):
        # A_delta(2u) = 2^p A_{delta/2}(u), bit-exact for power-of-two scaling
        doubled = ScalarField(2.0 * two_point_field.values)
        lhs = nguyen_a(two_point, doubled, EnergySpec(p=2, delta=0.5, kernel=ahlfors1))
        rhs = 4.0 * nguyen_a(
            two_point, two_point_field, EnergySpec(p=2, delta=0.25, kernel=ahlfors1)
        )
        assert lhs == rhs


class TestScaleEnergies:
    def test_constant_field(self, circle64):
        se = scale_energies(circle64, ScalarField(np.ones(64)), EnergySpec(p=2, t=0.5))
        assert (se.k, se.h, se.s) == (0.0, 0.0, 0.0)

    def test_two_point_hand_values(self, two_point, two_point_field, ahlfors1):
        se = scale_energies(two_point, two_point_field, EnergySpec(p=2, t=2.0, kernel=ahlfors1))
        assert se.k == pytest.approx(0.5)
        assert se.s == pytest.approx(0.5)

    def test_below_distance_all_vanish(self, two_point, two_point_field, ahlfors1):
        se = scale_energies(two_point, two_point_field, EnergySpec(p=2, t=0.5, kernel=ahlfors1))
        assert (se.k, se.h, se.s) == (0.0, 0.0, 0.0)

    def test_dual_route_agreement(self, circle64, interval128):
        rng = np.random.default_rng(21)
        for sp, t in ((circle64, math.pi / 8), (interval128, 0.1)):
            u = ScalarField(rng.normal(size=sp.n))
            spec = EnergySpec(p=2, t=t)
            a = scale_s_by_balls(sp, u, spec)
            b = scale_s_by_pairs(sp, u, spec)
            assert abs(a - b) <= 1e-10 * max(a, b)

    def test_h_below_k_for_geom_kernel(self, circle64):
        u = ScalarField(np.sin(circle64.coords[:, 0]))
        for t in (math.pi / 8, math.pi / 4):
            se = scale_energies(circle64, u, EnergySpec(p=2, t=t, kernel=KernelSpec("geom")))
            assert se.h <= se.k * (1 + 1e-12)

    def test_h_within_comparability_of_k(self, interval128):
        u = ScalarField(interval128.coords[:, 0])
        kernel = KernelSpec("rho1")
        c_rho = kernel_comparability(interval128, kernel).c_rho_hat
        for t in (0.05, 0.2):
            se = scale_energies(interval128, u, EnergySpec(p=2, t=t, kernel=kernel))
            assert se.h <= c_rho * se.k * (1 + 1e-12)

    def test_scale_radius_required(self, two_point, two_point_field):
        for fn in (k_energy, h_energy, scale_s_by_balls, scale_s_by_pairs, scale_energies):
            with pytest.raises(ValueError, match="ball radius"):
                fn(two_point, two_point_field, EnergySpec(p=2))

    def test_measure_scaling_exact(self, two_point, two_point_field, ahlfors1):
        scaled = MetricMeasureSpace(two_point.dist, 2.0 * two_point.weights)
        spec = EnergySpec(p=2, t=2.0, kernel=ahlfors1)
        a = scale_energies(two_point, two_point_field, spec)
        b = scale_energies(scaled, two_point_field, spec)
        assert b.k == 4.0 * a.k


class TestMollify:
    def test_preserves_constants(self, circle64):
        out = mollify(circle64, ScalarField(np.full(64, 2.5)), 0.5)
        assert out.values == pytest.approx(np.full(64, 2.5), rel=1e-15)

    def test_two_point_average(self, two_point, two_point_field):
        out = mollify(two_point, two_point_field, 1.0)
        assert out.values == pytest.approx([0.5, 0.5])

    def test_identity_below_mesh(self, circle64):
        rng = np.random.default_rng(31)
        u = rng.normal(size=64)
        out = mollify(circle64, ScalarField(u), 0.5 * circle64.min_distance)
        assert np.array_equal(out.values, u)

    def test_linearity(self, circle64):
        rng = np.random.default_rng(32)
        u, v = rng.normal(size=64), rng.normal(size=64)
        t = 0.4
        lhs = mollify(circle64, ScalarField(2.0 * u + 3.0 * v), t).values
        rhs = 2.0 * mollify(circle64, ScalarField(u), t).values + 3.0 * mollify(
            circle64, ScalarField(v), t
        ).values
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_lp_bound_with_measured_constant(self, interval128):
        from nsl import doubling_constant

        c_d = doubling_constant(interval128).c_d_hat
        rng = np.random.default_rng(33)
        u = rng.normal(size=128)
        w = interval128.weights
        for t in (0.03, 0.1, 0.5):
            m = mollify(interval128, ScalarField(u), t).values
            lhs = np.sum(w * np.abs(m) ** 2) ** 0.5
            rhs = c_d * np.sum(w * np.abs(u) ** 2) ** 0.5
            assert lhs <= rhs * (1 + 1e-12)

    def test_bad_scale(self, two_point, two_point_field):
        with pytest.raises(ValueError):
            mollify(two_point, two_point_field, 0.0)


class TestGScale:
    def test_constant_zero_all_modes(self, circle64):
        u = ScalarField(np.zeros(64))
        spec = EnergySpec(p=2, t=0.5, r=1.0)
        for mode in ("plain", "truncated"):
            assert np.all(g_scale(circle64, u, spec, mode=mode).values == 0.0)
        phi = PiecewiseLinearMap.clipped_identity(1.0)
        assert np.all(g_scale(circle64, u, spec, mode="composed", phi=phi).values == 0.0)

    def test_two_point_truncated(self, two_point, two_point_field):
        for t in (1.0, 2.0):
            out = g_scale(two_point, two_point_field, EnergySpec(p=2, t=t, r=2.0), "truncated")
            assert out.values == pytest.approx([0.5 / t, 0.5 / t])

    def test_two_point_plain(self, two_point, two_point_field):
        t = 2.0
        out = g_scale(two_point, two_point_field, EnergySpec(p=2, t=t), "plain")
        assert out.values == pytest.approx([0.5 / t**2, 0.5 / t**2])

    def test_composed_clipped_identity_equals_truncated(self, circle64):
        rng = np.random.default_rng(41)
        u = ScalarField(rng.uniform(0.0, 1.0, 64))
        spec = EnergySpec(p=2, t=0.5, r=2.0)
        phi = PiecewiseLinearMap.clipped_identity(2.0)
        trunc = g_scale(circle64, u, spec, "truncated")
        comp = g_scale(circle64, u, spec, "composed", phi=phi)
        assert np.array_equal(trunc.values, comp.values)

    def test_lipschitz_validation(self):
        with pytest.raises(ValueError, match="1-Lipschitz"):
            PiecewiseLinearMap([(0.0, 0.0), (1.0, 2.0)], r=2.0)
        with pytest.raises(ValueError, match="increasing"):
            PiecewiseLinearMap([(1.0, 0.0), (0.0, 1.0)], r=1.0)
        with pytest.raises(ValueError, match=r"\[0, 1.0\]"):
            PiecewiseLinearMap([(0.0, 0.0), (3.0, 3.0)], r=1.0)

    def test_unknown_mode(self, two_point, two_point_field):
        with pytest.raises(ValueError, match="mode"):
            g_scale(two_point, two_point_field, EnergySpec(p=2, t=1.0), "bogus")


class TestEnergySpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.5},
            {"p": 2, "s": 1.0},
            {"p": 2, "s": 0.0},
            {"p": 2, "delta": 0.0},
            {"p": 2, "t": -1.0},
            {"p": 2, "r": 0.0},
            {"p": -2},
            {"p": math.nan},
            {"p": 2, "delta": math.nan},
            {"p": 2, "t": math.nan},
            {"p": 2, "r": math.nan},
            {"p": 2, "s": math.nan},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            EnergySpec(**kwargs)

    def test_field_length_checked(self, two_point):
        with pytest.raises(ValueError, match="2 points"):
            gagliardo_p(two_point, ScalarField(np.zeros(3)), EnergySpec(p=2, s=0.5))

    def test_field_must_be_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(np.array([1.0, np.nan]))

    def test_field_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(77)
        field = ScalarField(rng.normal(size=17))
        path = tmp_path / "u.csv"
        field.to_csv(path)
        again = ScalarField.from_csv(path)
        assert np.array_equal(again.values, field.values)
        assert again.provenance == "file"
