import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

import nsl.energies
import nsl.kernels
import nsl.parallel
from nsl import (
    EnergySpec,
    KernelSpec,
    MetricMeasureSpace,
    PiecewiseLinearMap,
    ScalarField,
    SpaceSpec,
    bbm_sweep,
    build_space,
    g_scale,
    gagliardo_p,
    h_energy,
    k_energy,
    kernel_comparability,
    load_space,
    mollify,
    nguyen_a,
    nguyen_b,
    nguyen_sweep,
    save_space,
    scale_energies,
    scale_s_by_balls,
    scale_s_by_pairs,
)
from nsl.energies import gagliardo_values
from nsl.kernels import kernel_matrix
from nsl.parallel import BLOCK_ROWS, row_blocks

from conftest import (ball_average_oracle, ball_loop_s, ball_loop_totals, matrix_file_space,
                      random_space, s_oracle, traced_peak)


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


OFFSET_SPACES = ["circle:33", "circle:64", "torus2d:6x6", "torus2d:7x13", "interval:64",
                 "interval:65:0.5"]
OFFSET_CASES = [
    (name, kernel)
    for name in OFFSET_SPACES
    for kernel in ("rho1", "geom", "harm", "ahlfors:1")
    + (("gauge-ahlfors:2",) if name.startswith("torus2d") else ())
] + [("circle:33", "gauge-ahlfors:1:ball:1"),
       ("interval:300", "ahlfors:1")]  # 299 offsets: 3 window blocks, the last with 43 live columns


def expected_route(name, kernel, functional=None):
    """The layout the pair sums of this generator space and kernel should take."""
    if functional == "h_energy":
        return "_offset_pair_sum"  # no kernel, ball masses in the point weights: every lattice
    if name.startswith("interval") and kernel.kind != "ahlfors":
        return "_row_pair_sum"  # ball-mass kernels are cut at the interval's ends
    return "_offset_pair_sum"


def pair_functionals(sp, kernel, p):
    r = 0.3 * sp.diameter
    return {
        "gagliardo_p": (gagliardo_p, EnergySpec(p=p, s=0.7, kernel=kernel)),
        "nguyen_a": (nguyen_a, EnergySpec(p=p, delta=0.5, kernel=kernel)),
        "nguyen_b": (nguyen_b, EnergySpec(p=p, delta=0.5, r=r, kernel=kernel)),
        "k_energy": (k_energy, EnergySpec(p=p, t=r, kernel=kernel)),
        # at a realized distance, so the pairs on the closed ball's edge count
        "h_energy": (h_energy, EnergySpec(
            p=p, t=np.sort(sp.dist_rows(0, 1)[0])[max(sp.n // 3, 1)], kernel=kernel)),
    }


def matrix_copy(sp, kernel):
    """The same space under a matrix tag, whose pair sums take the row-block route."""
    copy = MetricMeasureSpace(sp.dist, sp.weights, coords=sp.coords)
    if kernel.kind == "gauge-ahlfors":
        # a matrix space takes the gauge of the plain coordinate difference, not
        # of the nearest torus translate, so it is handed the torus kernel
        copy.cache(("kernel", kernel.key), lambda: kernel_matrix(sp, kernel))
    return copy


@pytest.fixture
def routes(monkeypatch):
    """The names of the pair-sum layouts that ran, in call order."""
    ran = []
    for name in ("_row_pair_sum", "_offset_pair_sum"):
        original = getattr(nsl.energies, name)

        def spy(*args, _original=original, _name=name):
            ran.append(_name)
            return _original(*args)

        monkeypatch.setattr(nsl.energies, name, spy)
    return ran


class TestOffsetRoute:
    """Pair sums by index offset against the row-block route on a matrix copy."""

    def check(self, name, kind, ps, monkeypatch, routes):
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        copy = matrix_copy(sp, kernel)
        u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))
        for p in ps:
            for label, (fn, spec) in pair_functionals(sp, kernel, p).items():
                where = (label, p)
                route = expected_route(name, kernel, label)
                del routes[:]
                monkeypatch.setenv("NSL_WORKERS", "1")
                one = fn(sp, u, spec)
                monkeypatch.setenv("NSL_WORKERS", "2")
                two = fn(sp, u, spec)
                want = fn(copy, u, spec)
                assert routes == [route, route, "_row_pair_sum"], where
                assert one.hex() == two.hex(), where
                assert want > 0.0, where
                assert abs(one - want) <= 1e-12 * want, (where, one, want)
                if route == "_row_pair_sum":
                    assert one == want, where

    @pytest.mark.parametrize("name, kind", OFFSET_CASES)
    def test_matches_row_blocks(self, name, kind, monkeypatch, routes):
        self.check(name, kind, (1.5, 2.0), monkeypatch, routes)

    def test_gauge_torus_at_4096_points(self, monkeypatch, routes):
        self.check("torus2d:64x64", "gauge-ahlfors:2", (2.0,), monkeypatch, routes)

    @pytest.mark.parametrize("name", ["interval:2048", "interval:4096:0.5"])
    def test_h_energy_on_long_intervals(self, name, routes):
        """H_t by index offset with the ball masses folded into the point weights, against the
        row blocks on a matrix copy, for u = x at p = 1.5 (windows) and 2 (FFT). Within three
        offsets the FFT's S_k carries its relative error of about eps (n/k)^2, as K_t's does."""
        sp = build_space(SpaceSpec.parse(name))
        copy = matrix_copy(sp, KernelSpec("rho1"))
        u = ScalarField(sp.coords[:, 0].copy())
        for p in (1.5, 2.0):
            for t, rtol in ((3.5 * sp.min_distance, 1e-12 if p != 2 else 1e-10), (0.1, 1e-12),
                            (1.0, 1e-12)):
                spec = EnergySpec(p=p, t=t)
                del routes[:]
                one, want = h_energy(sp, u, spec), h_energy(copy, u, spec)
                assert routes == ["_offset_pair_sum", "_row_pair_sum"]
                assert want > 0.0
                assert abs(one - want) <= rtol * want, (p, t, one, want)

    def test_gauge_torus_builds_no_kernel_matrix(self, monkeypatch):
        """The offset route reads row 0 of the kernel: at two workers the traced peak
        stays under a quarter of one n x n float64 matrix."""
        sp = build_space(SpaceSpec.parse("torus2d:64x64"))
        u = ScalarField(np.random.default_rng(0).normal(size=sp.n))
        spec = EnergySpec(p=2, s=0.7, kernel=KernelSpec.parse("gauge-ahlfors:2"))
        monkeypatch.setenv("NSL_WORKERS", "2")
        value, peak = traced_peak(lambda: gagliardo_p(sp, u, spec))
        assert value > 0.0
        assert not [key for key in sp._cache if isinstance(key, tuple) and key[0] == "kernel"]
        assert peak < sp.n * sp.n * 8 / 4

    def test_no_offset_within_reach_is_zero(self, circle64, routes):
        u = ScalarField(np.sin(circle64.coords[:, 0]))
        below = 0.5 * circle64.min_distance
        assert k_energy(circle64, u, EnergySpec(p=2, t=below)) == 0.0
        assert nguyen_b(circle64, u, EnergySpec(p=2, delta=0.01, r=below)) == 0.0
        assert h_energy(circle64, u, EnergySpec(p=2, t=below)) == 0.0
        assert routes == ["_offset_pair_sum"] * 3


LEVEL_SPACES = ["sierpinski:0", "sierpinski:4", "sierpinski:6", "gauge_grid:32:square",
                "gauge_grid:12:ball:2", "gauge_grid:16:ellipse:1:2", "interval:300",
                "interval:300:0.5", "interval:2:0.3"]
LEVEL_CASES = [(name, "rho1") for name in LEVEL_SPACES] + [
    (name, "ahlfors:2") for name in LEVEL_SPACES if not name.startswith("interval")]


class TestLevelRoute:
    """Row-route pair sums on spaces whose rows share their distance levels (the gasket,
    gauge grids, the interval with a ball-mass kernel): psi once per (row, level), with
    no kernel matrix, against the row blocks over the kernel matrix of a matrix copy."""

    @pytest.mark.parametrize("name, kind", LEVEL_CASES)
    def test_matches_the_kernel_matrix(self, name, kind, monkeypatch, routes):
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))
        cases = [(fn, spec) for p in (1.5, 2.0, 3.0)
                 for label, (fn, spec) in pair_functionals(sp, kernel, p).items()
                 # on the interval H_t takes the offset route
                 if not (name.startswith("interval") and label == "h_energy")]
        got = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the diagonal's 0 * inf stays inside np.errstate
            for workers in ("1", "2"):
                monkeypatch.setenv("NSL_WORKERS", workers)
                got[workers] = [fn(sp, u, spec).hex() for fn, spec in cases]
        assert set(routes) == {"_row_pair_sum"}
        assert not [key for key in sp._cache
                    if key == "level_masses" or isinstance(key, tuple) and key[0] == "kernel"]
        copy = matrix_copy(sp, kernel)
        want = [fn(copy, u, spec).hex() for fn, spec in cases]
        assert got["1"] == want
        assert got["2"] == want

    @pytest.mark.parametrize("name, kind", [("sierpinski:4", "rho1"), ("interval:300", "rho1"),
                                            ("gauge_grid:16:ellipse:1:2", "ahlfors:2")])
    def test_a_cached_kernel_matrix_changes_no_bit(self, name, kind, monkeypatch):
        """The row blocks take their source from the space and the kernel alone: with the
        kernel matrix cached the level route still runs, never reads it, and every value
        keeps its bits."""
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))
        cases = [(fn, spec) for p in (1.5, 2.0)
                 for label, (fn, spec) in pair_functionals(sp, kernel, p).items()]
        want = [fn(sp, u, spec).hex() for fn, spec in cases]
        kernel_matrix(sp, kernel)

        def no_matrix(*args):
            raise AssertionError("a row block read the kernel matrix")

        monkeypatch.setattr(nsl.kernels, "kernel_matrix", no_matrix)
        got = [fn(sp, u, spec).hex() for fn, spec in cases]
        assert got == want

    @pytest.mark.parametrize("name, kind", [
        ("gauge_grid:64:square", "rho1"), ("gauge_grid:64:square", "ahlfors:2"),
        ("interval:4096", "rho1"), ("interval:4096", "ahlfors:1")])
    def test_holds_no_square(self, name, kind, monkeypatch):
        """After one gagliardo_p at two workers the space holds no array of n^2 entries and
        no distance matrix, and the traced peak stays under 64 MiB, half of one n x n float64
        matrix."""
        sp = build_space(SpaceSpec.parse(name))
        u = ScalarField(np.random.default_rng(0).normal(size=sp.n))
        spec = EnergySpec(p=2, s=0.7, kernel=KernelSpec.parse(kind))
        monkeypatch.setenv("NSL_WORKERS", "2")
        value, peak = traced_peak(lambda: gagliardo_p(sp, u, spec))
        assert value > 0.0
        assert sp._dist is None
        assert not [key for key, held in sp._cache.items()
                    if isinstance(held, np.ndarray) and held.size >= sp.n**2]
        assert peak < 64 * 2**20


S_GRID = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99)
DELTA_GRID = (0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05)
SHARED_PASS_CASES = [
    ("circle:33", "rho1", "_offset_pair_sum"),
    ("torus2d:6x6", "gauge-ahlfors:2", "_offset_pair_sum"),
    ("interval:65", "ahlfors:1", "_offset_pair_sum"),
    ("interval:65:0.5", "rho1", "_row_pair_sum"),
    ("sierpinski:2", "rho1", "_row_pair_sum"),
    # more than one block of offsets or rows
    ("circle:257", "rho1", "_offset_pair_sum"),
    ("interval:257:0.5", "rho1", "_row_pair_sum"),
    ("interval:300", "ahlfors:1", "_offset_pair_sum"),
]


class TestSharedPass:
    """A sweep sums all its grid points in one pair pass; each value is its one-point call."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name, kind, route", SHARED_PASS_CASES)
    def test_sweeps_are_their_one_point_calls(self, name, kind, route, workers, monkeypatch,
                                              routes):
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))
        monkeypatch.setenv("NSL_WORKERS", workers)
        bbm = bbm_sweep(sp, u, 1.5, kernel, S_GRID).values
        nguyen = nguyen_sweep(sp, u, 1.5, kernel, DELTA_GRID).values
        assert routes == [route, route]
        for s, value in zip(S_GRID, bbm):
            one = (1.0 - s) * gagliardo_p(sp, u, EnergySpec(p=1.5, s=s, kernel=kernel))
            assert value.hex() == one.hex(), s
        for delta, value in zip(DELTA_GRID, nguyen):
            one = nguyen_a(sp, u, EnergySpec(p=1.5, delta=delta, kernel=kernel))
            assert value.hex() == one.hex(), delta

    def test_interval_nguyen_values_are_pinned(self):
        """The acceptance Nguyen sweep's pair sums on interval:2048, u = x, bit for bit."""
        sp = build_space(SpaceSpec.parse("interval:2048"))
        kernel = KernelSpec.parse("ahlfors:1")
        specs = [EnergySpec(p=2.0, delta=delta, kernel=kernel) for delta in DELTA_GRID]
        got = nsl.energies.nguyen_a_values(sp, ScalarField(sp.coords[:, 0].copy()), specs)
        assert [v.hex() for v in got] == [
            "0x1.ff00295554477p-3", "0x1.7030a4e6142a6p-2", "0x1.f586b41f16a2ep-2",
            "0x1.1f40353ffb336p-1", "0x1.47e121738707ap-1", "0x1.7111f2186d3f0p-1",
            "0x1.a011f9ba0fe15p-1", "0x1.cd1ea21ab8535p-1",
        ]

    def test_one_reducer_call_per_sweep(self, routes):
        sp = build_space(SpaceSpec.parse("circle:33"))
        u = ScalarField(np.sin(sp.coords[:, 0]))
        assert len(bbm_sweep(sp, u, 2.0, KernelSpec("rho1"), S_GRID).values) == 11
        assert routes == ["_offset_pair_sum"]

    @pytest.mark.parametrize("name", ["circle:257", "interval:65:0.5"])
    def test_exponents_group_by_phi(self, name):
        """Specs of two exponents in one pass: one pair part per p, values bitwise as alone."""
        sp = build_space(SpaceSpec.parse(name))
        u = ScalarField(np.random.default_rng(5).normal(size=sp.n))
        specs = [EnergySpec(p=p, s=s) for p, s in ((1.5, 0.5), (2.0, 0.5), (1.5, 0.7))]
        together = gagliardo_values(sp, u, specs)
        assert [v.hex() for v in together] == [gagliardo_p(sp, u, e).hex() for e in specs]

    def test_kernels_must_match(self, circle64):
        u = ScalarField(np.sin(circle64.coords[:, 0]))
        specs = [EnergySpec(p=2, s=0.5), EnergySpec(p=2, s=0.5, kernel=KernelSpec("geom"))]
        with pytest.raises(ValueError, match="share their kernel"):
            gagliardo_values(circle64, u, specs)

    def test_terms_sum_over_their_own_offsets(self):
        """K_t at several t in one pass: S_k is formed over the union of the offsets, and
        each term sums over the offsets within its own t."""
        sp = build_space(SpaceSpec.parse("circle:300"))
        kernel = KernelSpec("rho1")
        vals = np.random.default_rng(3).normal(size=sp.n)
        ts = (0.5 * sp.min_distance, 0.1, 1.0, sp.diameter)
        phi = nsl.energies._gap_power(2.0)
        terms = [(phi, lambda d, rho, t=t: np.where(d <= t, 1.0 / rho, 0.0)) for t in ts]
        got = nsl.energies._pair_sum(sp, vals, terms, kernel)
        alone = [k_energy(sp, vals, EnergySpec(p=2, t=t, kernel=kernel)) for t in ts]
        assert got[0] == alone[0] == 0.0
        for g, want in zip(got[1:], alone[1:]):
            assert abs(g - want) <= 1e-12 * want
        # the term that reaches every offset has the shared blocks: bitwise
        assert got[-1] == alone[-1]


def level_cases(sp, kernel, name):
    """TestLevelRoute's functionals at p = 1.5 and at p = 2, whose phi is _square (on the
    interval H_t takes the offset route)."""
    return [(fn, spec) for p in (1.5, 2.0)
            for label, (fn, spec) in pair_functionals(sp, kernel, p).items()
            if not (name.startswith("interval") and label == "h_energy")]


def ball_window_digest(sp) -> str:
    """A sha256 prefix of the bytes of S_t, plain g_t, mollify and the p = 2 ball totals at
    t = diam/10 and 3 diam/10, for a normal field seeded by n."""
    u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))
    parts = []
    for t in (0.1 * sp.diameter, 0.3 * sp.diameter):
        spec = EnergySpec(p=2.0, t=t)
        parts += [np.float64(scale_s_by_balls(sp, u, spec)), g_scale(sp, u, spec).values,
                  mollify(sp, u, t).values, nsl.energies._ball_pair_totals(sp, t, u.values, 2.0)]
    data = b"".join(np.ascontiguousarray(a).tobytes() for a in parts)
    return hashlib.sha256(data).hexdigest()[:16]


class TestTiles:
    """The block partition is the numeric contract and the tile is not: a row-route value keeps
    its bits at any tile height and worker count, as does a ball-window sum at any column
    tile, and a block's temporaries are bounded by the tile, not by n."""

    @pytest.mark.parametrize("rows", [1, 7, BLOCK_ROWS])
    @pytest.mark.parametrize("name, kind", LEVEL_CASES)
    def test_row_route_values_keep_their_bits(self, name, kind, rows, monkeypatch):
        """Tiles of 1 row, 7 rows and a whole block, at 1 and 2 workers, on the space and on
        its matrix copy: every value is the default tile's at one worker."""
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))
        cases, copy = level_cases(sp, kernel, name), matrix_copy(sp, kernel)
        monkeypatch.setenv("NSL_WORKERS", "1")
        want = [fn(sp, u, spec).hex() for fn, spec in cases]
        monkeypatch.setattr(nsl.parallel, "TILE", rows * sp.n)
        for workers in ("1", "2"):
            monkeypatch.setenv("NSL_WORKERS", workers)
            assert [fn(sp, u, spec).hex() for fn, spec in cases] == want, workers
            assert [fn(copy, u, spec).hex() for fn, spec in cases] == want, workers

    @pytest.mark.parametrize("rows", [1, 7, BLOCK_ROWS])
    @pytest.mark.parametrize("name, kind", [case[:2] for case in SHARED_PASS_CASES
                                            if case[2] == "_row_pair_sum"])
    def test_sweeps_keep_their_bits(self, name, kind, rows, monkeypatch):
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        u = ScalarField(np.random.default_rng(sp.n).normal(size=sp.n))

        def sweeps() -> list[str]:
            return [v.hex() for v in (*bbm_sweep(sp, u, 1.5, kernel, S_GRID).values,
                                      *nguyen_sweep(sp, u, 1.5, kernel, DELTA_GRID).values)]

        want = sweeps()
        monkeypatch.setattr(nsl.parallel, "TILE", rows * sp.n)
        for workers in ("1", "2"):
            monkeypatch.setenv("NSL_WORKERS", workers)
            assert sweeps() == want, workers

    @pytest.mark.parametrize("columns", [64, 256, None])
    @pytest.mark.parametrize("name, digest", [("circle:2048", "a8b53230bb0a3c54"),
                                              ("torus2d:24x24", "333a887a7329ff94")])
    def test_ball_windows_keep_their_bits(self, name, digest, columns, monkeypatch):
        """Column tiles of about 64 and 256 centers and of all n, at 1 and 2 workers: the
        digest pinned before the windows were tiled."""
        sp = build_space(SpaceSpec.parse(name))
        monkeypatch.setattr(nsl.parallel, "TILE", (columns or sp.n) * BLOCK_ROWS)
        for workers in ("1", "2"):
            monkeypatch.setenv("NSL_WORKERS", workers)
            assert ball_window_digest(sp) == digest, workers

    def test_one_column_tiles_join_their_neighbour(self):
        """A tile of one column would reduce it over the offsets by another route: a last
        column of its own joins the tile before it."""
        assert nsl.parallel.tiles(0, 5, nsl.parallel.TILE // 2, least=2) == [(0, 2), (2, 5)]
        assert nsl.parallel.tiles(0, 1, 1, least=2) == [(0, 1)]

    @pytest.mark.parametrize("name", ["sierpinski:6", "gauge_grid:32:square"])
    def test_row_route_peaks_under_a_few_tiles(self, name, monkeypatch):
        """One gagliardo_p with rho1 at two workers, the space's tables already built, peaks
        under 4 MiB (the whole-block temporaries peaked at 8 MiB and more)."""
        sp = build_space(SpaceSpec.parse(name))
        u = ScalarField(np.random.default_rng(0).normal(size=sp.n))
        spec = EnergySpec(p=2, s=0.7, kernel=KernelSpec("rho1"))
        monkeypatch.setenv("NSL_WORKERS", "2")
        gagliardo_p(sp, u, spec)
        value, peak = traced_peak(lambda: gagliardo_p(sp, u, spec))
        assert value > 0.0
        assert peak < 4 * 2**20

    def test_ball_windows_peak_under_a_few_tiles(self, monkeypatch):
        """One S_t on circle:2048 at t = pi/8 at two workers peaks under 2 MiB (a gathered
        128-offset block of all 2048 centers is 2 MiB alone)."""
        sp = build_space(SpaceSpec.parse("circle:2048"))
        u = ScalarField(np.sin(sp.coords[:, 0]))
        monkeypatch.setenv("NSL_WORKERS", "2")
        value, peak = traced_peak(lambda: scale_s_by_balls(sp, u, EnergySpec(p=2, t=np.pi / 8)))
        assert value > 0.0
        assert peak < 2 * 2**20


FFT_CASES = [("circle:33", "rho1"), ("circle:257", "rho1"), ("torus2d:7x13", "gauge-ahlfors:2"),
             ("interval:65:0.5", "ahlfors:1")]


def fft_fields(sp):
    rng = np.random.default_rng(sp.n)
    x = sp.coords[:, 0]
    return {"normal": rng.normal(size=sp.n), "1000+sin": 1000.0 + np.sin(2 * np.pi * x),
            "ramp": x.copy()}


@pytest.fixture
def windows(monkeypatch):
    """One entry per call of the sliding-window S_k, energies._window_sums."""
    calls = []
    original = nsl.energies._window_sums

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(nsl.energies, "_window_sums", spy)
    return calls


class TestSquareByFFT:
    """gap^2 pair sums on the offset route take S_k from one FFT autocorrelation."""

    @pytest.mark.parametrize("name, kind", FFT_CASES)
    def test_matches_the_windows(self, name, kind):
        """Against the sliding windows, run through a private phi equal to gap^2, for
        Gagliardo terms near s = 1 (small offsets weigh most) and a K_t term."""
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        t = 3.5 * sp.min_distance
        psis = [lambda d, rho: 1.0 / (d**1.0 * rho), lambda d, rho: 1.0 / (d**1.98 * rho),
                lambda d, rho: np.where(d <= t, 1.0 / rho, 0.0)]
        private = lambda gap: gap**2  # noqa: E731
        square = nsl.energies._gap_power(2.0)
        for label, vals in fft_fields(sp).items():
            terms = [(phi, psi) for phi in (square, private) for psi in psis]
            got = nsl.energies._pair_sum(sp, vals, terms, kernel)
            for fft, windows in zip(got[:3], got[3:]):
                assert windows > 0.0, label
                assert abs(fft - windows) <= 1e-12 * windows, (label, fft, windows)

    @pytest.mark.parametrize("name, kind", FFT_CASES)
    def test_constant_field_is_exactly_zero(self, name, kind):
        sp = build_space(SpaceSpec.parse(name))
        kernel = KernelSpec.parse(kind)
        t = 0.3 * sp.diameter
        for c in (0.1, -7.3, 1e6 / 3):
            u = ScalarField(np.full(sp.n, c))
            assert gagliardo_p(sp, u, EnergySpec(p=2, s=0.7, kernel=kernel)) == 0.0
            assert k_energy(sp, u, EnergySpec(p=2, t=t, kernel=kernel)) == 0.0
            assert h_energy(sp, u, EnergySpec(p=2, t=t, kernel=kernel)) == 0.0

    def test_overflowing_square_takes_the_windows(self, windows):
        """sum w v^2 = inf would make the FFT NaN: the windows report inf instead."""
        sp = build_space(SpaceSpec.parse("circle:64"))
        u = ScalarField(1e200 * np.sin(sp.coords[:, 0]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert gagliardo_p(sp, u, EnergySpec(p=2, s=0.5)) == np.inf
        assert len(windows) == 1

    @pytest.mark.parametrize("name, kind", FFT_CASES)
    def test_bbm_sweep_at_p2_runs_no_window_block(self, name, kind, windows):
        sp = build_space(SpaceSpec.parse(name))
        u = ScalarField(np.random.default_rng(1).normal(size=sp.n))
        kernel = KernelSpec.parse(kind)
        bbm_sweep(sp, u, 2.0, kernel, S_GRID)
        assert len(windows) == 0
        nguyen_sweep(sp, u, 2.0, kernel, DELTA_GRID)
        assert len(windows) == 1
        bbm_sweep(sp, u, 1.5, kernel, S_GRID)
        assert len(windows) == 2


class TestWindowSums:
    """S_k from the sliding windows on the interval, against full-width rows."""

    @staticmethod
    def full_width(vals, w, phis, offsets):
        """Every block gathers all n columns of its windows, dropped pairs included."""
        n = vals.size
        u_win = np.lib.stride_tricks.sliding_window_view(np.pad(vals, (0, n)), n)
        w_win = np.lib.stride_tricks.sliding_window_view(np.pad(w, (0, n)), n)
        parts = []
        for a, b in row_blocks(offsets.size):
            gap = np.abs(u_win[offsets[a:b]] - vals)
            pw = w_win[offsets[a:b]] * w
            parts.append(np.stack([np.einsum("ij,ij->i", phi(gap), pw) for phi in phis]))
        return np.concatenate(parts, axis=1)

    @pytest.mark.parametrize("n", [65, 300, 777, 1000])
    def test_trimmed_windows_keep_the_bits(self, n):
        """Contiguous and skipping offsets, random u and w: the trimmed rows sum the same
        nonzero products in the same order, so S_k is bitwise the full-width rows'."""
        rng = np.random.default_rng(n)
        vals, w = rng.normal(size=n), rng.uniform(0.5, 1.5, size=n) / n
        phis = [lambda gap: gap**1.5, lambda gap: gap > 0.3]
        every = np.arange(1, n)
        for offsets in (every, every[(every < n // 5) | (every > n // 2)], every[every > n // 3]):
            got = nsl.energies._window_sums(vals, w, phis, offsets, (n,), False)
            want = self.full_width(vals, w, phis, offsets)
            assert got.shape == want.shape
            assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]


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

    def test_s_by_pairs_peak_memory(self):
        """f_t is formed once, as A^T A from the scaled ball indicator A: the traced peak stays
        under three n x n float64 matrices (an earlier whole-matrix sum peaked at 5.0)."""
        sp = build_space(SpaceSpec.parse("interval:1024"))
        u = ScalarField(np.random.default_rng(0).normal(size=sp.n))
        spec = EnergySpec(p=2, t=0.1)
        sp.ball_masses(0.1)
        value, peak = traced_peak(lambda: scale_s_by_pairs(sp, u, spec))
        assert abs(value - scale_s_by_balls(sp, u, spec)) <= 1e-10 * value
        assert peak < 3 * sp.n * sp.n * 8

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


ORACLE_SPACES = ["random", "circle:64", "interval:128:0.5", "torus2d:8x8", "sierpinski:3"]
PARITY_SPACES = ["circle:64", "torus2d:12x12", "interval:160:0.5", "sierpinski:3", "graph",
                 "matrix file"]


def oracle_space(name: str) -> MetricMeasureSpace:
    if name == "random":
        return random_space(np.random.default_rng(17), 40)
    return build_space(SpaceSpec.parse(name))


def parity_space(name: str, tmp_path) -> MetricMeasureSpace:
    """A space of PARITY_SPACES. The graph file has edge lengths 1 and 2; the matrix file
    holds random points on a line with random weights."""
    if name == "graph":
        path = tmp_path / "g.csv"
        path.write_text("".join(f"{i},{i + 1},{1 + i % 2}\n{i},{(i + 5) % 30},2\n"
                                for i in range(29)))
        return build_space(SpaceSpec.parse(f"graph:{path}"))
    if name == "matrix file":
        save_space(random_space(np.random.default_rng(23), 40), tmp_path / "m.space")
        return load_space(tmp_path / "m.space")
    return build_space(SpaceSpec.parse(name))


def oracle_fields(n: int) -> dict[str, np.ndarray]:
    x = 2.0 * np.pi * np.arange(n) / n
    outlier = 0.01 * np.sin(x)
    outlier[0] = 1e3
    return {
        "normal": np.random.default_rng(n).normal(size=n),
        "offset": 1e3 + np.sin(x),
        "scaled": 1e3 * np.sin(x),
        "step": (np.arange(n) >= n // 3).astype(float),
        "outlier": outlier,
    }


def oracle_radii(space: MetricMeasureSpace) -> tuple[float, float]:
    return 1.5 * space.min_distance, space.diameter


class TestScaleSOracle:
    """S_t and the plain g_t against a term-by-term sum over each ball."""

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_p2_matches_oracle(self, name):
        sp = oracle_space(name)
        for field, vals in oracle_fields(sp.n).items():
            for t in oracle_radii(sp):
                got = scale_s_by_balls(sp, ScalarField(vals), EnergySpec(p=2, t=t))
                want = s_oracle(sp, vals, t, 2.0)
                assert abs(got - want) <= 1e-12 * abs(want), (field, t, got, want)

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_constant_field_is_exactly_zero(self, name):
        sp = oracle_space(name)
        u = ScalarField(np.full(sp.n, 0.3))
        for t in oracle_radii(sp):
            assert scale_s_by_balls(sp, u, EnergySpec(p=2, t=t)) == 0.0
            assert scale_energies(sp, u, EnergySpec(p=2, t=t)).s == 0.0
            assert np.all(g_scale(sp, u, EnergySpec(p=2, t=t)).values == 0.0)

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_other_p_match_the_ball_loop(self, name):
        sp = oracle_space(name)
        vals = oracle_fields(sp.n)["normal"]
        for p in (1.5, 3.0):
            for t in oracle_radii(sp):
                got = scale_s_by_balls(sp, ScalarField(vals), EnergySpec(p=p, t=t))
                for want in (ball_loop_s(sp, vals, t, p), s_oracle(sp, vals, t, p)):
                    assert abs(got - want) <= 1e-12 * abs(want), (p, t, got, want)

    @pytest.mark.parametrize("name", PARITY_SPACES)
    def test_ball_products_match_the_loop(self, name, tmp_path):
        """The block product against conftest's per-center loop to 1e-12 relative, at every
        p, cap and g_t mode it serves; constant fields and singleton balls give exactly 0."""
        sp = parity_space(name, tmp_path)
        rng = np.random.default_rng(sp.n)
        fields = {"normal": rng.normal(size=sp.n), "tied": np.round(rng.normal(size=sp.n)),
                  "step": (np.arange(sp.n) >= sp.n // 3).astype(float)}
        phi = PiecewiseLinearMap([(-1.0, 0.0), (0.5, 1.5)], r=1.5)
        gaps = lambda sub: np.abs(sub[:, None] - sub[None, :])  # noqa: E731
        singleton = 0.5 * sp.min_distance
        for t in (singleton, 1.5 * sp.min_distance, sp.diameter / 4, sp.diameter):
            m2 = sp.ball_masses(t) ** 2
            for field, vals in fields.items():
                for p, cap in itertools.product((1.0, 1.5, 3.0), (np.inf, 0.7)):
                    got = nsl.energies._ball_pair_totals(sp, t, vals, p, cap, t)
                    want = ball_loop_totals(sp, vals, t,
                                            lambda sub: (np.minimum(gaps(sub), cap) / t) ** p)
                    assert np.all(np.abs(got - want) <= 1e-12 * want), (field, t, p, cap)
                    assert t > singleton or np.all(got == 0.0), (field, p, cap)
                u = ScalarField(vals)
                for p in (1.0, 1.5, 3.0):
                    plain = nsl.energies._ball_pair_totals(sp, t, vals, p, scale=t) / m2
                    assert np.array_equal(g_scale(sp, u, EnergySpec(p=p, t=t)).values, plain)
                for r in (None, 0.7):
                    got = g_scale(sp, u, EnergySpec(p=2, t=t, r=r), "truncated").values
                    cap = np.inf if r is None else r
                    want = ball_loop_totals(sp, vals, t, lambda sub: np.minimum(gaps(sub), cap) / t)
                    assert np.all(np.abs(got - want / m2) <= 1e-12 * want / m2), (field, t, r)
                got = g_scale(sp, u, EnergySpec(p=2, t=t), "composed", phi=phi).values
                want = ball_loop_totals(sp, phi(vals), t, lambda sub: gaps(sub) / t) / m2
                assert np.all(np.abs(got - want) <= 1e-12 * want), (field, t)
            for value in (0.3, 1e3 + 1.0 / 3.0):
                for p, cap in itertools.product((1.0, 1.5, 3.0), (np.inf, 0.7)):
                    totals = nsl.energies._ball_pair_totals(sp, t, np.full(sp.n, value), p, cap, t)
                    assert np.all(totals == 0.0), (value, t, p, cap)

    @pytest.mark.parametrize("p, height, weight", [(2.0, 1e200, None), (3.0, 1e200, None),
                                                   (1.0, 1e300, 1e10)])
    def test_overflow_is_inf_in_the_balls_that_hold_it(self, p, height, weight):
        """A field of 0 and height: only the balls that meet both halves overflow, to inf; the
        others are 0, though the block product meets inf pair parts (p = 3) or inf sums over a
        ball (p = 1, heavy points) off their balls."""
        sp = build_space(SpaceSpec("circle", n=256))
        if weight is not None:
            sp = MetricMeasureSpace(sp.dist, np.full(256, weight))
        vals = np.where(np.arange(256) < 128, 0.0, height)
        with np.errstate(over="ignore"):
            totals = nsl.energies._ball_pair_totals(sp, 0.1, vals, p)
        straddles = np.array([np.ptp(vals[sp.dist[x] <= 0.1]) > 0 for x in range(256)])
        assert np.all(totals[straddles] == np.inf)
        assert np.all(totals[~straddles] == 0.0)

    @pytest.mark.parametrize("name", ORACLE_SPACES)
    def test_plain_g_scale_p2_matches_oracle(self, name, no_ball_product):
        sp = oracle_space(name)
        for field, vals in oracle_fields(sp.n).items():
            for t in oracle_radii(sp):
                got = g_scale(sp, ScalarField(vals), EnergySpec(p=2, t=t)).values
                want = ball_average_oracle(sp, vals, t, 2.0) / t**2
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (field, t)


BALL_WINDOW_CASES = [("circle:2048", math.pi / 8), ("torus2d:32x32", 0.3)]


class TestBallWindows:
    """Ball sums on circle and torus over each ball's index offsets, against the distance
    rows of a matrix-file copy of the space."""

    @staticmethod
    def fields(sp: MetricMeasureSpace) -> dict[str, np.ndarray]:
        return {"normal": np.random.default_rng(sp.n).normal(size=sp.n),
                "offset": 1e3 + np.sin(2.0 * np.pi * np.arange(sp.n) / sp.n)}

    @staticmethod
    def values(sp: MetricMeasureSpace, vals, t: float) -> tuple:
        u = ScalarField(vals)
        return (scale_s_by_balls(sp, u, EnergySpec(p=2, t=t)),
                g_scale(sp, u, EnergySpec(p=2, t=t)).values, mollify(sp, u, t).values)

    @pytest.mark.parametrize("name, t", BALL_WINDOW_CASES)
    def test_matches_the_distance_rows(self, name, t, monkeypatch):
        sp, copy = build_space(SpaceSpec.parse(name)), matrix_file_space(name)
        assert np.count_nonzero(sp.dist_rows(0, 1)[0] <= t) > 2 * row_blocks(sp.n)[0][1]
        reads = {id(sp): set(), id(copy): set()}
        for space in (sp, copy):
            rows = space.dist_rows
            monkeypatch.setattr(space, "dist_rows", lambda a, b, space=space, rows=rows:
                                reads[id(space)].add((a, b)) or rows(a, b))
        for field, vals in self.fields(sp).items():
            s, g, m = self.values(sp, vals, t)
            s_row, g_row, m_row = self.values(copy, vals, t)
            assert abs(s - s_row) <= 1e-12 * s_row, field
            assert np.all(np.abs(g - g_row) <= 1e-12 * g_row), field
            scale = mollify(copy, ScalarField(np.abs(vals)), t).values  # each average's size
            assert np.all(np.abs(m - m_row) <= 1e-12 * scale), field
        assert sp._dist is None and reads[id(sp)] == {(0, 1)}, "the generator reads row 0 alone"
        assert reads[id(copy)] >= set(row_blocks(sp.n)), "a matrix file takes the distance rows"

    @pytest.mark.parametrize("name, t", BALL_WINDOW_CASES)
    def test_bytes_do_not_depend_on_the_workers(self, name, t, monkeypatch):
        vals = self.fields(build_space(SpaceSpec.parse(name)))["normal"]
        got = []
        for workers in ("1", "2"):
            monkeypatch.setenv("NSL_WORKERS", workers)
            s, g, m = self.values(build_space(SpaceSpec.parse(name)), vals, t)
            got.append((s.hex(), g.tobytes(), m.tobytes()))
        assert got[0] == got[1]

    @pytest.mark.parametrize("name, t", BALL_WINDOW_CASES)
    def test_singleton_balls_and_constant_fields_are_exactly_zero(self, name, t):
        sp = build_space(SpaceSpec.parse(name))
        vals = self.fields(sp)["normal"]
        assert np.all(nsl.energies._ball_pair_totals(sp, 0.5 * sp.min_distance, vals, 2) == 0.0)
        for value in (0.3, 1e3 + 1.0 / 3.0):
            assert np.all(nsl.energies._ball_pair_totals(sp, t, np.full(sp.n, value), 2) == 0.0)
            assert scale_s_by_balls(sp, ScalarField(np.full(sp.n, value)),
                                    EnergySpec(p=2, t=t)) == 0.0

    def test_overflow_is_inf_on_a_generator_torus(self):
        """A field of 0 and 1e200 in two halves: the balls that meet both are inf, the rest 0."""
        sp = build_space(SpaceSpec.parse("torus2d:16x16"))
        vals = np.where(np.arange(sp.n) < sp.n // 2, 0.0, 1e200)
        with np.errstate(over="ignore"):
            totals = nsl.energies._ball_pair_totals(sp, 0.2, vals, 2)
        straddles = np.array([np.ptp(vals[sp.dist[x] <= 0.2]) > 0 for x in range(sp.n)])
        assert 0 < np.count_nonzero(straddles) < sp.n
        assert np.all(totals[straddles] == np.inf)
        assert np.all(totals[~straddles] == 0.0)


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
        phi = PiecewiseLinearMap([(0.0, 0.0), (1.0, 1.0)], 1.0)
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
        phi = PiecewiseLinearMap([(0.0, 0.0), (2.0, 2.0)], 2.0)
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

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
    def test_r_must_be_finite_and_nonnegative(self, r):
        with pytest.raises(ValueError, match="r must be finite and >= 0"):
            PiecewiseLinearMap([(0.0, 0.0), (1.0, 0.0)], r=r)

    def test_nan_breakpoint_rejected(self):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            PiecewiseLinearMap([(0.0, 0.0), (math.nan, 0.5), (2.0, 1.0)], r=1.0)

    def test_infinite_breakpoint_rejected(self):
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            PiecewiseLinearMap([(0.0, 0.0), (1.0, 1.0), (math.inf, 1.0)], r=1.0)

    def test_clipped_identity_of_nan_rejected(self):
        with pytest.raises(ValueError, match="r must be finite and >= 0, got nan"):
            PiecewiseLinearMap([(0, 0), (1, 1)], math.nan)

    def test_block_product_holds_column_chunks(self, monkeypatch):
        """Each worker forms the pair parts over the union of its balls 128 columns at a time:
        two workers at radius diam/2, where that union holds about 73% of the torus, stay under
        one n x n array."""
        monkeypatch.setenv("NSL_WORKERS", "2")
        sp = build_space(SpaceSpec.parse("torus2d:48x48"))
        u = ScalarField(np.sin(2.0 * np.pi * sp.coords[:, 0]))
        spec = EnergySpec(p=1, t=sp.diameter / 2)
        g, peak = traced_peak(lambda: g_scale(sp, u, spec, mode="truncated"))
        assert np.all(np.isfinite(g.values))
        assert peak < sp.n**2 * 8

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
            {"p": math.inf},
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
