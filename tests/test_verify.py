import hashlib
import json
import math

import numpy as np
import pytest

import nsl.space
import nsl.verify
from nsl import (
    KernelSpec,
    MetricMeasureSpace,
    ScalarField,
    SpaceSpec,
    build_space,
    doubling_constant,
)
from nsl.expr import parse_field_expr
from nsl.kernels import kernel_matrix, offset_lattice
from nsl.parallel import row_blocks
from nsl.verify import (
    _geodesic_paths,
    check_annuli_bound,
    check_fubini_identity,
    check_hajlasz_bound,
    check_hks,
    check_mean_comparison,
    check_mollifier,
    check_nguyen_averaging,
    check_upper_gradient_scale,
    render_text,
    reports_to_json,
    run_suite,
    two_sided_report,
)

from conftest import (layer_cake_oracle, mean_comparison_oracle, random_space,
                      threshold_averaging_oracle, traced_peak)


def sin_field(space):
    return ScalarField(np.sin(space.coords[:, 0]))


def step_field(space, threshold=0.5):
    return ScalarField((space.coords[:, 0] > threshold).astype(float))


class TestAnnuli:
    def test_two_point_trivial_tail(self, two_point, ahlfors1):
        rep = check_annuli_bound(two_point, ahlfors1, 2.0, [2.0])
        assert rep.passed
        assert rep.records[0].lhs == 0.0

    def test_circle_rho1(self):
        sp = build_space(SpaceSpec("circle", n=256))
        rep = check_annuli_bound(sp, KernelSpec("rho1"), 2.0, [math.pi / 8, math.pi / 4])
        assert rep.passed

    def test_matches_naive_loop(self, circle64):
        kernel = KernelSpec("rho1")
        r = math.pi / 8
        rep = check_annuli_bound(circle64, kernel, 2.0, [r])
        rho = kernel_matrix(circle64, kernel)
        naive = 0.0
        for x in range(64):
            tail = sum(
                circle64.weights[y] / (rho[x, y] * circle64.dist[x, y] ** 2)
                for y in range(64)
                if y != x and circle64.dist[x, y] >= r
            )
            naive = max(naive, tail * r**2)
        assert rep.records[0].lhs == pytest.approx(naive, rel=1e-12)

    @pytest.mark.parametrize("r", [math.nan, 0.0, -1.0])
    def test_rejects_radius_that_is_not_positive(self, r):
        sp = build_space(SpaceSpec.parse("circle:16"))
        with pytest.raises(ValueError, match="annuli radius must be > 0"):
            check_annuli_bound(sp, KernelSpec("rho1"), 2.0, [r])

    def test_interval_ahlfors_stable_under_refinement(self, ahlfors1):
        sups = []
        for n in (256, 512):
            sp = build_space(SpaceSpec("interval", n=n))
            rep = check_annuli_bound(sp, ahlfors1, 1.0, [0.1])
            sups.append(rep.records[0].lhs)
        assert sups[1] == pytest.approx(sups[0], rel=0.10)


class TestMeanComparison:
    def test_two_point_hand_values(self, two_point, two_point_field):
        # ball = whole space: lower 0.25 <= middle 0.5 <= upper 1.0
        rep = check_mean_comparison(two_point, two_point_field, 2.0, [1.0])
        assert rep.passed
        vals = two_point_field.values
        mass = 1.0
        mean = 0.5
        osc = float(np.sum(two_point.weights * np.abs(vals - mean) ** 2))
        assert mass * osc == pytest.approx(0.25)
        # the tighter slack is the lower one, 0.5 - 0.25
        assert rep.records[0].lhs == -0.25

    def test_constant_field(self, circle64):
        rep = check_mean_comparison(circle64, ScalarField(np.zeros(64)), 2.0, [0.5])
        assert rep.passed

    @pytest.mark.parametrize("spec", ["circle:64", "interval:100", "torus2d:8x8", "sierpinski:3"])
    def test_constant_fields_are_exactly_zero(self, spec):
        sp = build_space(SpaceSpec.parse(spec))
        t_grid = [0.1 * sp.diameter, 0.5 * sp.diameter]
        for value in (0.3, 1.0 / 3.0, 1000.1):
            for p in (2.0, 3.0):
                rep = check_mean_comparison(sp, ScalarField(np.full(sp.n, value)), p, t_grid)
                assert rep.passed, (value, p)
                # exactly +0.0, so the JSON report does not read -0.0
                assert [repr(rec.lhs) for rec in rep.records] == ["0.0", "0.0"], (value, p)

    def test_p2_runs_no_ball_loop(self, circle64, no_ball_product):
        assert check_mean_comparison(circle64, sin_field(circle64), 2.0, [0.2, 0.8]).passed

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_records_match_the_oracle(self, circle64, p):
        spaces = [circle64, random_space(np.random.default_rng(17), 40)]
        for sp in spaces:
            t_grid = [sp.diameter / 16.0, sp.diameter / 8.0, sp.diameter / 4.0]
            for vals in (np.sin(sp.coords[:, 0]), np.random.default_rng(3).normal(size=sp.n)):
                rep = check_mean_comparison(sp, ScalarField(vals), p, t_grid)
                assert rep.passed
                for t, rec in zip(t_grid, rep.records):
                    want = mean_comparison_oracle(sp, vals, t, p)
                    assert abs(rec.lhs - want) <= 1e-12 * abs(want), (sp.name, t, rec.lhs, want)

    def test_circle_sine(self, circle64):
        rep = check_mean_comparison(circle64, sin_field(circle64), 2.0, [math.pi / 8])
        assert rep.passed


class TestFubini:
    def test_two_point_hand_value(self, two_point, two_point_field, ahlfors1):
        rep = check_fubini_identity(two_point, two_point_field, 2.0, 0.5, ahlfors1)
        assert rep.passed
        assert rep.records[0].lhs == pytest.approx(0.5, rel=1e-12)
        assert rep.records[0].rhs == pytest.approx(0.5, rel=1e-12)

    def test_constant_field(self, circle64, ahlfors1):
        rep = check_fubini_identity(circle64, ScalarField(np.ones(64)), 2.0, 0.5, ahlfors1)
        assert rep.passed

    @pytest.mark.parametrize("s", [0.3, 0.7, 0.9])
    def test_interval_identity(self, interval128, ahlfors1, s):
        u = ScalarField(interval128.coords[:, 0])
        rep = check_fubini_identity(interval128, u, 2.0, s, ahlfors1)
        assert rep.passed

    def test_step_field_and_rho1(self, interval128):
        rep = check_fubini_identity(
            interval128, step_field(interval128), 2.0, 0.6, KernelSpec("rho1")
        )
        assert rep.passed


class TestSegmentIntegrals:
    """Both identities integrate per row block; the sum of the blocks' segment integrals is the
    segment integral over all pairs at once."""

    @pytest.mark.parametrize("name", ["interval:300:0.5", "sierpinski:5"])
    @pytest.mark.parametrize("kernel", ["rho1", "harm"])
    def test_blocks_match_the_whole_step_function(self, name, kernel):
        sp, ks = build_space(SpaceSpec.parse(name)), KernelSpec(kernel)
        assert len(row_blocks(sp.n)) > 1 and offset_lattice(sp, ks) is None
        x = sp.coords[:, 0]
        for vals in (np.sin(3.0 * x), np.round(4.0 * x) / 4.0):  # the second ties many gaps
            u = ScalarField(vals)
            fubini = check_fubini_identity(sp, u, 2.0, 0.7, ks).records[0].lhs
            assert fubini == pytest.approx(layer_cake_oracle(sp, vals, 2.0, 0.7, ks), rel=1e-12)
            avg = check_nguyen_averaging(sp, u, 1.5, 0.5, 0.3, ks).records[0].lhs
            oracle = threshold_averaging_oracle(sp, vals, 1.5, 0.5, 0.3, ks)
            assert avg == pytest.approx(oracle, rel=1e-12)


class TestPairBlockPeaks:
    """No check holds a whole pair array: with the kernel cached, each peaks at a fraction of
    n x n floats."""

    @pytest.mark.parametrize("name", ["torus2d:32x32", "interval:1024"])
    @pytest.mark.parametrize("check", ["fubini", "nguyen-avg"])
    def test_identities(self, name, check):
        sp, rho1 = build_space(SpaceSpec.parse(name)), KernelSpec("rho1")
        kernel_matrix(sp, rho1)
        u = ScalarField(np.sin(2.0 * np.pi * sp.coords[:, 0]))
        if check == "fubini":
            rep, peak = traced_peak(lambda: check_fubini_identity(sp, u, 2.0, 0.7, rho1))
        else:
            rep, peak = traced_peak(lambda: check_nguyen_averaging(sp, u, 2.0, 0.5, 0.5, rho1))
        assert rep.passed and peak < 1.5 * 8 * sp.n**2

    def test_annuli(self):
        sp, rho1 = build_space(SpaceSpec.parse("torus2d:32x32")), KernelSpec("rho1")
        kernel_matrix(sp, rho1)
        rep, peak = traced_peak(lambda: check_annuli_bound(sp, rho1, 2.0, [0.1, 0.2, 0.4]))
        assert rep.passed and len(rep.records) == 3 and peak < 8 * sp.n**2


class TestGeneratorPairChecks:
    """Off circle and torus the annuli, Fubini and averaging checks read d and rho through
    kernel_blocks' distance levels and the gauge grid's gauge table: at n = 4096 the space
    holds no array of n^2 entries and no distance matrix afterwards, and the traced peak
    stays under 128 MiB, one n x n float64 matrix."""

    @pytest.mark.parametrize("name, kind", [
        ("gauge_grid:64:square", "rho1"), ("gauge_grid:64:square", "ahlfors:2"),
        ("gauge_grid:64:square", "gauge-ahlfors:2:square"), ("interval:4096", "rho1")])
    def test_hold_no_square(self, name, kind, monkeypatch):
        monkeypatch.setenv("NSL_WORKERS", "1")
        sp, kernel = build_space(SpaceSpec.parse(name)), KernelSpec.parse(kind)
        u = ScalarField(np.sin(2.0 * np.pi * sp.coords[:, 0]))
        reports, peak = traced_peak(lambda: [
            check_annuli_bound(sp, kernel, 2.0, [0.1, 0.3]),
            check_fubini_identity(sp, u, 2.0, 0.7, kernel),
            check_nguyen_averaging(sp, u, 2.0, 0.5, 0.5, kernel)])
        assert len(reports[0].records) == 2 and reports[1].passed and reports[2].passed
        assert not [key for key, held in sp._cache.items()
                    if isinstance(held, np.ndarray) and held.size >= sp.n**2]
        assert sp._dist is None
        assert peak < 128 * 2**20


class TestWrappedLatticeKernelRows:
    """On circle and torus the annuli, Fubini and averaging checks read kernel row blocks from
    row 0's offset table (kernels.kernel_blocks): no kernel matrix, the same records."""

    def test_no_kernel_matrix(self):
        sp, rho1 = build_space(SpaceSpec.parse("torus2d:32x32")), KernelSpec("rho1")
        u = ScalarField(np.sin(2.0 * np.pi * sp.coords[:, 0]))
        rep, peak = traced_peak(lambda: check_fubini_identity(sp, u, 2.0, 0.7, rho1))
        assert rep.passed and peak < 1.25 * 8 * sp.n**2  # cold: everything built inside
        assert check_annuli_bound(sp, rho1, 2.0, [0.1, 0.2, 0.4]).passed
        assert check_nguyen_averaging(sp, u, 2.0, 0.5, 0.5, rho1).passed
        assert not [key for key in sp._cache if isinstance(key, tuple) and key[0] == "kernel"]

    @pytest.mark.parametrize("name", ["circle:33", "torus2d:7x13"])
    @pytest.mark.parametrize("kernel", ["rho1", "harm", "ahlfors:1.5", "gauge-ahlfors:2"])
    def test_records_match_the_matrix_route(self, name, kernel):
        """Bitwise the records of a matrix copy that holds the lattice's kernel matrices: the
        annuli records whole, the identities' segment integrals."""
        sp, spec = build_space(SpaceSpec.parse(name)), KernelSpec.parse(kernel)
        if sp.coords.shape[1] == 1 and spec.kind == "gauge-ahlfors":
            spec = KernelSpec.parse("gauge-ahlfors:2:ball:1")
        u = ScalarField(np.sin(2.0 * np.pi * sp.coords[:, 0]) + sp.coords[:, -1])
        checks = [lambda s: check_annuli_bound(s, spec, 2.0, [0.3, 0.9]).to_dict()["records"],
                  lambda s: check_fubini_identity(s, u, 2.0, 0.7, spec).records[0].lhs,
                  lambda s: check_nguyen_averaging(s, u, 1.5, 0.5, 0.4, spec).records[0].lhs]
        got = [check(sp) for check in checks]
        copy = MetricMeasureSpace(sp.dist, sp.weights, coords=sp.coords)
        for k in (spec, KernelSpec("rho1")):
            copy.cache(("kernel", k.key), lambda k=k: kernel_matrix(sp, k))
        assert got == [check(copy) for check in checks]


class TestHks:
    def test_constant_field(self, circle64):
        rep = check_hks(circle64, ScalarField(np.full(64, 2.0)), 2.0, [0.5])
        assert rep.passed

    def test_circle_sine_all_items(self):
        sp = build_space(SpaceSpec("circle", n=128))
        rep = check_hks(sp, sin_field(sp), 2.0, [math.pi / 16, math.pi / 8, math.pi / 4])
        assert rep.passed
        items = {rec.params["item"] for rec in rep.records}
        assert items == {"i-lower", "i-upper", "ii-lower", "ii-upper", "iv"}

    def test_ball_loop_runs_once_per_grid_scale(self, circle64, monkeypatch, no_ball_product):
        import nsl.verify

        radii = []
        original = nsl.verify.scale_s_by_balls

        def counted(space, u, spec):
            radii.append(spec.t)
            return original(space, u, spec)

        monkeypatch.setattr(nsl.verify, "scale_s_by_balls", counted)
        t_grid = [math.pi / 16, math.pi / 8, 2.0]
        assert check_hks(circle64, sin_field(circle64), 2.0, t_grid).passed
        assert radii == t_grid

    @pytest.mark.parametrize("name, distinct", [("circle:256", (7, 4)), ("torus2d:24x24", (9, 4))])
    def test_each_scale_energy_once_per_radius(self, name, distinct, monkeypatch):
        """On the suite's radii, H_t and K_t run once per distinct radius, whichever module
        name calls them: H_{t/2} is in the i-upper sum and ii-lower, H_{2t} is H at the next
        radius, and K_1 is taken twice when every t < 1. The records are the unspied run's."""
        import nsl.energies
        import nsl.verify

        sp = build_space(SpaceSpec.parse(name))
        u = ScalarField(np.sin(2 * np.pi * sp.coords[:, 0]))

        def records():
            hks, = run_suite(sp, u, 2.0, KernelSpec("rho1"), checks=("hks",))
            return [(rec.params, rec.lhs, rec.rhs) for rec in hks.records]

        want = records()
        calls = {"h_energy": [], "k_energy": [], "scale_s_by_balls": []}
        for module in (nsl.energies, nsl.verify):
            for fn, radii in calls.items():
                def counted(space, field, spec, _original=getattr(module, fn), _radii=radii):
                    _radii.append(spec.t)
                    return _original(space, field, spec)

                monkeypatch.setattr(module, fn, counted)
        assert records() == want
        for radii in calls.values():
            assert len(radii) == len(set(radii))
        assert (len(calls["h_energy"]), len(calls["k_energy"])) == distinct
        assert calls["scale_s_by_balls"] == [p["t"] for p, _, _ in want if p["item"] == "i-lower"]

    def test_two_point_item_ii_hand_values(self, two_point, two_point_field, ahlfors1):
        # t = 2d: S_t = 0.5 and H_{t/2} = 0.5 (radius-1 balls are everything)
        rep = check_hks(two_point, two_point_field, 2.0, [2.0])
        c_d = doubling_constant(two_point).c_d_hat
        assert c_d == pytest.approx(2.0)
        low = next(r for r in rep.records if r.params["item"] == "ii-lower")
        assert low.lhs == pytest.approx(0.5)
        assert low.rhs == pytest.approx(c_d**4 * 0.5)
        assert rep.passed

    def test_rejects_sub_mesh_scale(self, circle64):
        with pytest.raises(ValueError, match="mesh scale"):
            check_hks(circle64, sin_field(circle64), 2.0, [circle64.min_distance / 2])



# float.hex() of each report constant, and a sha256 prefix of the records' (params, ok,
# lhs.hex(), rhs.hex()); written while check_hks still measured rho1 against itself
MEASURED_PINS = {
    ("sierpinski:4", "annuli", "rho1"): (
        {"c_d_hat": "0x1.4000000000000p+2", "c_rho_hat": "0x1.0000000000000p+0",
         "C": "0x1.0aaaaaaaaaaabp+5"}, "179936afa1866b98"),
    ("sierpinski:4", "annuli", "geom"): (
        {"c_d_hat": "0x1.4000000000000p+2", "c_rho_hat": "0x1.67e091ff51224p+0",
         "C": "0x1.76df42bf49d90p+5"}, "bf894c4b592a3020"),
    ("sierpinski:4", "hks", "rho1"): (
        {"c_d_hat": "0x1.4000000000000p+2", "c_rho_hat": "0x1.0000000000000p+0"},
        "04d23b91702a9580"),
    ("gauge_grid:12:square", "annuli", "rho1"): (
        {"c_d_hat": "0x1.2000000000001p+3", "c_rho_hat": "0x1.0000000000000p+0",
         "C": "0x1.b000000000003p+6"}, "1d9d710752eafe9d"),
    ("gauge_grid:12:square", "annuli", "geom"): (
        {"c_d_hat": "0x1.2000000000001p+3", "c_rho_hat": "0x1.d55555555554bp+0",
         "C": "0x1.8bffffffffff9p+7"}, "0bba4f49864db18a"),
    ("gauge_grid:12:square", "hks", "rho1"): (
        {"c_d_hat": "0x1.2000000000001p+3", "c_rho_hat": "0x1.0000000000000p+0"},
        "9e161f8c4de4182f"),
}


class TestMeasuredConstants:
    """Each check measures the constants its bound needs, and no more: rho1's own c_rho is 1."""

    @staticmethod
    def run(name: str, check: str, kernel: str, monkeypatch=None) -> tuple:
        """The check's report on the space at radii diam/8 and diam/4, with the kernel keys that
        kernel_comparability was called with when monkeypatch is given."""
        calls = []
        if monkeypatch is not None:
            measured = nsl.verify.kernel_comparability

            def spied(space, spec):
                calls.append(spec.key)
                return measured(space, spec)

            monkeypatch.setattr(nsl.verify, "kernel_comparability", spied)
        sp = build_space(SpaceSpec.parse(name))
        grid = [sp.diameter / 8, sp.diameter / 4]
        if check == "annuli":
            return check_annuli_bound(sp, KernelSpec(kernel), 2.0, grid), calls
        u = parse_field_expr("sin(3*x) + x*y").evaluate(sp.coords)
        return check_hks(sp, u, 2.0, grid), calls

    @pytest.mark.parametrize("name, check, kernel", list(MEASURED_PINS))
    def test_records_and_constants_are_pinned(self, name, check, kernel):
        rep, _ = self.run(name, check, kernel)
        records = [(r.params, r.ok, float(r.lhs).hex(), float(r.rhs).hex()) for r in rep.records]
        digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
        constants = {key: float(value).hex() for key, value in rep.constants.items()}
        assert (constants, digest) == MEASURED_PINS[name, check, kernel]

    @pytest.mark.parametrize("name", ["sierpinski:4", "gauge_grid:12:square"])
    def test_hks_measures_no_comparability(self, name, monkeypatch):
        rep, calls = self.run(name, "hks", "rho1", monkeypatch)
        assert calls == []
        assert rep.constants["c_rho_hat"] == 1.0

    @pytest.mark.parametrize("kernel", ["rho1", "geom"])
    def test_annuli_measures_comparability_once(self, kernel, monkeypatch):
        _, calls = self.run("sierpinski:4", "annuli", kernel, monkeypatch)
        assert calls == [kernel]

    def test_annuli_on_one_point_raises_the_doubling_error(self):
        """Doubling is measured first, so its error names the fault on a one-point space."""
        one = MetricMeasureSpace(np.zeros((1, 1)), np.ones(1))
        with pytest.raises(ValueError) as doubling:
            doubling_constant(one)
        with pytest.raises(ValueError) as annuli:
            check_annuli_bound(one, KernelSpec("geom"), 2.0, [0.5])
        assert str(annuli.value) == str(doubling.value)


class TestMollifier:
    def test_constant_field_zero_error(self, circle64):
        rep = check_mollifier(circle64, [ScalarField(np.ones(64))], 2.0, [0.5, 0.25])
        assert rep.passed

    def test_two_point_bound(self, two_point, two_point_field):
        rep = check_mollifier(two_point, [two_point_field], 2.0, [2.0, 0.4], eps_conv=0.05)
        # at t = 0.4 the balls are singletons, so the error vanishes
        assert rep.passed
        bound = next(r for r in rep.records if r.params.get("item") == "bounded")
        assert bound.lhs == pytest.approx(0.5)

    def test_circle_sine_converges(self):
        sp = build_space(SpaceSpec("circle", n=256))
        rep = check_mollifier(sp, [sin_field(sp)], 2.0, [math.pi / 4, math.pi / 16, 2 * math.pi / 64])
        assert rep.passed
        conv = next(r for r in rep.records if r.params.get("item") == "converges")
        assert conv.lhs < 0.05

    def test_grid_must_decrease(self, circle64):
        with pytest.raises(ValueError, match="decreasing"):
            check_mollifier(circle64, [sin_field(circle64)], 2.0, [0.1, 0.5])

    def test_empty_grid_raises_before_any_work(self, monkeypatch):
        sp = build_space(SpaceSpec.parse("circle:16"))

        def no_work(*args):
            raise AssertionError("the doubling scan ran before the grid was checked")

        monkeypatch.setattr(nsl.verify, "doubling_constant", no_work)
        with pytest.raises(ValueError, match="empty"):
            check_mollifier(sp, [sin_field(sp)], 2.0, [])

    def test_step_field_fails_tight_epsilon(self):
        # a jump cannot be approximated at coarse scales: honest failure mode
        sp = build_space(SpaceSpec("interval", n=32))
        rep = check_mollifier(sp, [step_field(sp)], 2.0, [0.25, 0.125], eps_conv=0.01)
        assert not rep.passed


class TestUpperGradient:
    def test_constant_field(self, circle64):
        rep = check_upper_gradient_scale(circle64, ScalarField(np.zeros(64)), math.pi / 8)
        assert rep.passed

    def test_circle_sine(self):
        sp = build_space(SpaceSpec("circle", n=256))
        rep = check_upper_gradient_scale(sp, sin_field(sp), math.pi / 8, n_paths=100)
        assert rep.passed
        assert rep.constants["worst_ratio"] <= 1.0

    def test_interval_linear(self):
        sp = build_space(SpaceSpec("interval", n=256))
        rep = check_upper_gradient_scale(sp, ScalarField(sp.coords[:, 0]), 0.1, n_paths=60)
        assert rep.passed
        assert rep.constants["worst_ratio"] <= 1.0

    def test_torus_paths_read_no_matrix(self):
        """The neighbor graph's edge lengths come from the lattice table; the chains are
        those found with the matrix built."""
        sp = build_space(SpaceSpec.parse("torus2d:24x24"))
        lazy = _geodesic_paths(sp, 0.1, 0.2, 20, 3)
        assert sp._dist is None
        sp.dist
        assert lazy == _geodesic_paths(sp, 0.1, 0.2, 20, 3)

    def test_matrix_space_not_applicable(self, two_point, two_point_field):
        rep = check_upper_gradient_scale(two_point, two_point_field, 0.5)
        assert not rep.applicable
        assert rep.passed  # skipped, not failed
        assert "not applicable" in rep.note

    def test_no_path_of_requested_length(self, circle64):
        with pytest.raises(ValueError, match="no geodesic chain"):
            check_upper_gradient_scale(circle64, sin_field(circle64), 1e-6)


class TestNguyenAveraging:
    def test_two_point_hand_value(self, two_point, two_point_field, ahlfors1):
        rep = check_nguyen_averaging(two_point, two_point_field, 2.0, 1.0, 1.0, ahlfors1)
        assert rep.passed
        assert rep.records[0].lhs == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_constant_field(self, circle64, ahlfors1):
        rep = check_nguyen_averaging(circle64, ScalarField(np.ones(64)), 2.0, 0.5, 0.5, ahlfors1)
        assert rep.passed
        assert rep.records[0].lhs == 0.0

    def test_interval_identity(self, interval128, ahlfors1):
        u = ScalarField(interval128.coords[:, 0])
        rep = check_nguyen_averaging(interval128, u, 2.0, 0.5, 0.5, ahlfors1)
        assert rep.passed

    def test_step_field_identity(self, interval128):
        rep = check_nguyen_averaging(
            interval128, step_field(interval128), 2.0, 0.8, 0.7, KernelSpec("rho1")
        )
        assert rep.passed

    def test_truncation_active(self, circle64, ahlfors1):
        # r below the oscillation: truncation actually bites, identity still exact
        rep = check_nguyen_averaging(circle64, sin_field(circle64), 2.0, 0.7, 0.3, ahlfors1)
        assert rep.passed

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_eps_and_radius_out_of_range(self, circle64, value):
        """eps lies in (0, inf) and r > 0; r = inf truncates nothing and is valid."""
        u, rho1 = sin_field(circle64), KernelSpec("rho1")
        with pytest.raises(ValueError, match="eps must lie in"):
            check_nguyen_averaging(circle64, u, 2.0, value, 0.5, rho1)
        if value == math.inf:
            assert check_nguyen_averaging(circle64, u, 2.0, 0.5, value, rho1).passed
        else:
            with pytest.raises(ValueError, match="eps must lie in"):
                check_nguyen_averaging(circle64, u, 2.0, 0.5, value, rho1)


class TestHajlaszBound:
    def test_interval_ratio_quarter(self):
        sp = build_space(SpaceSpec("interval", n=256))
        rep = check_hajlasz_bound(
            sp,
            ScalarField(sp.coords[:, 0]),
            2.0,
            refine_field=lambda s: ScalarField(s.coords[:, 0]),
        )
        assert rep.passed
        assert rep.records[0].lhs == pytest.approx(0.25, rel=1e-3)

    def test_circle_sine_stable(self):
        sp = build_space(SpaceSpec("circle", n=128))
        rep = check_hajlasz_bound(
            sp, sin_field(sp), 2.0, refine_field=lambda s: ScalarField(np.sin(s.coords[:, 0]))
        )
        assert rep.passed

    def test_constant_rejected(self, circle64):
        with pytest.raises(ValueError, match="nonconstant"):
            check_hajlasz_bound(circle64, ScalarField(np.zeros(64)), 2.0)

    def test_degenerate_zero_slope_reported(self):
        # alternating field on a periodic grid: centered differences vanish
        sp = build_space(SpaceSpec("torus2d", nx=4, ny=4))
        i = np.arange(16) // 4
        j = np.arange(16) % 4
        u = ScalarField(((-1.0) ** (i + j)).astype(float))
        rep = check_hajlasz_bound(sp, u, 2.0)
        assert not rep.passed
        assert "degenerate" in rep.records[0].note

    def test_matrix_file_with_a_generator_tag_is_not_refined(self):
        """A custom measure on interval:32 distances is a matrix space; refining its tag would
        compare it with the uniform interval:64."""
        sp = build_space(SpaceSpec("interval", n=32))
        custom = MetricMeasureSpace(sp.dist, np.linspace(1.0, 2.0, 32) / 48, coords=sp.coords,
                                    metric={"type": "matrix", "params": sp.metric["params"]})
        rep = check_hajlasz_bound(custom, ScalarField(sp.coords[:, 0]), 2.0,
                                  refine_field=lambda s: ScalarField(s.coords[:, 0]))
        assert rep.note == "no generator to refine; stability clause skipped"
        assert [rec.params for rec in rep.records] == [{"space": custom.name}]

    def test_refinement_past_the_budget_skips_stability(self, monkeypatch):
        """circle:64 refines to 128 points, past a budget of 100: the ratio is recorded and the
        stability clause skipped with the budget's message."""
        monkeypatch.setattr(nsl.space, "MAX_POINTS", 100)
        sp = build_space(SpaceSpec("circle", n=64))
        rep = check_hajlasz_bound(sp, sin_field(sp), 2.0,
                                  refine_field=lambda s: ScalarField(np.sin(s.coords[:, 0])))
        assert rep.note == ("128 points exceeds the 100-point desk-scale budget; "
                            "stability clause skipped")
        assert [rec.params for rec in rep.records] == [{"space": sp.name}]

    def test_gauge_grid_has_no_refinement(self):
        sp = build_space(SpaceSpec.parse("gauge_grid:8:square"))
        rep = check_hajlasz_bound(sp, ScalarField(sp.coords[:, 0]), 2.0,
                                  refine_field=lambda s: ScalarField(s.coords[:, 0]))
        assert rep.note == "gauge_grid has no refinement; stability clause skipped"
        assert [rec.params for rec in rep.records] == [{"space": sp.name}]

    def test_no_refinement_skips_stability(self, two_point, two_point_field):
        rep = check_hajlasz_bound(two_point, two_point_field, 2.0)
        assert rep.passed
        assert "skipped" in rep.note


class TestTwoSided:
    def test_interval_window(self):
        sp = build_space(SpaceSpec("interval", n=256))
        rep = two_sided_report(
            sp, ScalarField(sp.coords[:, 0]), 2.0, KernelSpec("ahlfors", 1.0)
        )
        assert rep.passed
        assert 0.05 <= rep.constants["R_bbm"] <= 20.0
        assert 0.05 <= rep.constants["R_nguyen"] <= 20.0
        # the threshold-functional route resolves the Dirichlet energy well
        assert rep.constants["R_nguyen"] == pytest.approx(1.0, rel=0.05)

    def test_constant_rejected(self, circle64):
        with pytest.raises(ValueError, match="nonconstant"):
            two_sided_report(circle64, ScalarField(np.zeros(64)), 2.0, KernelSpec("rho1"))

    def test_stability_records_present(self):
        sp = build_space(SpaceSpec("interval", n=128))
        rep = two_sided_report(
            sp, ScalarField(sp.coords[:, 0]), 2.0, KernelSpec("ahlfors", 1.0),
            refine_field=lambda s: ScalarField(s.coords[:, 0]),
        )
        items = [rec.params.get("item") for rec in rep.records]
        assert items.count("stability") == 2

    def test_degenerate_refined_space_skips_stability(self):
        """A zero local-slope energy on the refined space leaves a note, not a record."""
        sp = build_space(SpaceSpec("circle", n=16))
        rep = two_sided_report(sp, sin_field(sp), 2.0, KernelSpec("rho1"),
                               refine_field=lambda s: ScalarField(np.ones(s.n)))
        assert [rec.params for rec in rep.records] == [{"ratio": "R_bbm"}, {"ratio": "R_nguyen"}]
        assert rep.note == ("degenerate: zero local-slope energy on circle(32); "
                            "stability clause skipped")


class TestSuite:
    def test_full_suite_circle(self):
        sp = build_space(SpaceSpec("circle", n=64))
        reports = run_suite(
            sp,
            sin_field(sp),
            2.0,
            KernelSpec("rho1"),
            informational=("two-sided",),
            refine_field=lambda s: ScalarField(np.sin(s.coords[:, 0])),
        )
        names = {r.name for r in reports}
        assert "annuli-tail-bound" in names and "two-sided-limits" in names
        asserted = [r for r in reports if r.applicable]
        assert all(r.passed for r in asserted)

    def test_constant_field_suite_skips(self, circle64):
        reports = run_suite(
            circle64,
            ScalarField(np.ones(64)),
            2.0,
            KernelSpec("rho1"),
            checks=("nguyen-avg", "hajlasz", "two-sided"),
        )
        assert all(not r.applicable for r in reports)
        assert all(r.passed for r in reports)

    def test_render_and_json(self, tmp_path, circle64, ahlfors1):
        reports = run_suite(
            circle64, sin_field(circle64), 2.0, ahlfors1, checks=("fubini", "mean")
        )
        text = render_text(reports)
        assert "PASS" in text
        path = tmp_path / "reports.json"
        reports_to_json(reports, path)
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert len(doc["reports"]) == 2

    def test_unknown_check_rejected(self, circle64, ahlfors1):
        with pytest.raises(ValueError, match="unknown check"):
            run_suite(circle64, sin_field(circle64), 2.0, ahlfors1, checks=("bogus",))

    @pytest.mark.parametrize("names, message", [
        ({"checks": ()}, "no check named"),
        ({"checks": ("mean", "bogus")}, "unknown check 'bogus'"),
        ({"checks": ("mean",), "informational": ("bogus",)}, "unknown check 'bogus'"),
    ])
    def test_names_checked_before_any_check_runs(self, monkeypatch, circle64, ahlfors1, names,
                                                 message):
        monkeypatch.setattr("nsl.verify.check_mean_comparison", lambda *a: pytest.fail("ran"))
        with pytest.raises(ValueError, match=message):
            run_suite(circle64, sin_field(circle64), 2.0, ahlfors1, **names)

    def test_grid_below_the_mesh_is_not_applicable(self):
        # circle:8: every suite radius is at or below the spacing pi/4
        sp = build_space(SpaceSpec.parse("circle:8"))
        hks, = run_suite(sp, sin_field(sp), 2.0, KernelSpec("rho1"), checks=("hks",))
        assert not hks.applicable and hks.passed and not hks.records
        assert "mesh scale" in hks.note

    def test_hks_keeps_the_radii_above_the_mesh(self):
        # circle:16: the suite grid is {pi/8, pi/4}, and pi/8 is the spacing itself
        sp = build_space(SpaceSpec.parse("circle:16"))
        reports = run_suite(sp, sin_field(sp), 2.0, KernelSpec("rho1"), checks=("mean", "hks"))
        mean, hks = reports
        assert [rec.params["t"] for rec in mean.records] == [math.pi / 8, math.pi / 4]
        assert {rec.params["t"] for rec in hks.records} == {math.pi / 4, 1.0}
        assert hks.applicable

    def test_upper_gradient_below_the_mesh_is_not_applicable(self):
        # sierpinski:1: diameter / 4 is below the spacing, so no chain is that short
        sp = build_space(SpaceSpec.parse("sierpinski:1"))
        rep, = run_suite(sp, ScalarField(sp.coords[:, 0]), 2.0, KernelSpec("rho1"),
                         checks=("upper-gradient",))
        assert not rep.applicable and "mesh scale" in rep.note

    def test_sierpinski_two_sided_informational(self):
        # fractal spaces get no asserted limit ratios, only a report
        sp = build_space(SpaceSpec("sierpinski", level=3))
        u = ScalarField(sp.coords[:, 0])
        reports = run_suite(
            sp,
            u,
            2.0,
            KernelSpec("rho1"),
            checks=("fubini", "mean", "annuli", "two-sided"),
            informational=("two-sided",),
        )
        by_name = {r.name: r for r in reports}
        assert by_name["fubini-layer-cake"].passed
        assert by_name["ball-mean-comparison"].passed
        assert by_name["annuli-tail-bound"].passed
        assert by_name["two-sided-limits"].passed  # informational never fails the suite
