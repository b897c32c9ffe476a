import numpy as np
import pytest

import nsl.sweeps
from nsl import (
    EnergySpec,
    MetricMeasureSpace,
    ScalarField,
    SpaceSpec,
    bbm_sweep,
    build_space,
    extrapolate,
    gagliardo_p,
    ks_sweep,
    nguyen_sweep,
)
from nsl.sweeps import SweepResult, read_sweep_csv, write_sweep_csv, write_sweep_json


def synthetic(parameter, grid, values):
    return SweepResult(parameter, tuple(grid), tuple(values), {})


class TestExtrapolate:
    def test_exact_linear_samples(self):
        est = extrapolate(synthetic("delta", [0.1, 0.05, 0.01], [1.1, 1.05, 1.01]))
        assert est.limit == pytest.approx(1.0, abs=1e-12)
        assert est.residual <= 1e-12
        assert est.model == "linear"

    def test_constant_samples(self):
        est = extrapolate(synthetic("delta", [0.3, 0.2, 0.1], [2.5, 2.5, 2.5]))
        assert est.limit == pytest.approx(2.5, abs=1e-12)

    def test_bbm_closed_form_window(self):
        # continuum values at s in {0.9, 0.95, 0.99}: the fit recovers 1.0 +- 3%
        def v(s):
            return (1 - s) * 2 * (1 / (2 - 2 * s) - 1 / (3 - 2 * s))

        grid = [0.9, 0.95, 0.99]
        est = extrapolate(synthetic("s", grid, [v(s) for s in grid]))
        assert est.limit == pytest.approx(1.0, rel=0.03)

    def test_quadratic_fallback(self):
        h = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        est = extrapolate(synthetic("delta", h.tolist(), ((1 - h) ** 2).tolist()))
        assert est.model == "quadratic"
        assert est.limit == pytest.approx(1.0, abs=1e-10)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3 grid points"):
            extrapolate(synthetic("delta", [0.2, 0.1], [1.0, 1.0]))

    def test_window_is_smallest_five(self):
        # corrupt the large-h tail: the fit must ignore it
        grid = [0.9, 0.8, 0.3, 0.25, 0.2, 0.15, 0.1]
        values = [50.0, 40.0] + [1 + h for h in grid[2:]]
        est = extrapolate(synthetic("delta", grid, values))
        assert est.limit == pytest.approx(1.0, abs=1e-10)
        assert len(est.window) == 5

    def test_non_monotone_flagged(self):
        est = extrapolate(synthetic("t", [0.4, 0.3, 0.2, 0.1], [1.0, 1.2, 0.9, 1.1]))
        assert any("non-monotone" in note for note in est.notes)

    def test_two_point_linear_model_exact(self, two_point, two_point_field, ahlfors1):
        # p = 1: A_delta = delta/2 on the two-point space, exactly linear
        sweep = nguyen_sweep(two_point, two_point_field, 1.0, ahlfors1, [0.5, 0.4, 0.3])
        assert sweep.values == pytest.approx([0.25, 0.2, 0.15])
        est = extrapolate(sweep)
        assert abs(est.limit) <= 1e-10


class TestSweeps:
    def test_constant_field_all_zero(self, circle64, ahlfors1):
        u = ScalarField(np.zeros(64))
        assert all(v == 0.0 for v in bbm_sweep(circle64, u, 2, ahlfors1, [0.3, 0.5]).values)
        assert all(
            v == 0.0 for v in nguyen_sweep(circle64, u, 2, ahlfors1, [0.2, 0.1]).values
        )
        assert all(v == 0.0 for v in ks_sweep(circle64, u, 2, [0.5, 1.0]).values)

    def test_ks_sweep_builds_no_kernel(self, circle64):
        u = ScalarField(np.sin(circle64.coords[:, 0]))
        ks_sweep(circle64, u, 2, [0.5, 1.0])
        assert not [key for key in circle64._cache if isinstance(key, tuple) and key[0] == "kernel"]

    def test_bbm_values_consistent(self, interval128, ahlfors1):
        u = ScalarField(interval128.coords[:, 0])
        grid = [0.4, 0.6]
        sweep = bbm_sweep(interval128, u, 2, ahlfors1, grid)
        for s, v in zip(grid, sweep.values):
            direct = (1 - s) * gagliardo_p(interval128, u, EnergySpec(p=2, s=s, kernel=ahlfors1))
            assert v == direct

    def test_mesh_guard_warning(self, interval128, ahlfors1):
        u = ScalarField(interval128.coords[:, 0])
        sweep = bbm_sweep(interval128, u, 2, ahlfors1, [0.5, 0.99])
        assert any("mesh guard" in w for w in sweep.warnings)
        calm = bbm_sweep(interval128, u, 2, ahlfors1, [0.3, 0.5])
        assert calm.warnings == ()

    def test_grid_validation(self, interval128, ahlfors1):
        u = ScalarField(interval128.coords[:, 0])
        with pytest.raises(ValueError):
            bbm_sweep(interval128, u, 2, ahlfors1, [0.5, 0.4])  # not increasing
        with pytest.raises(ValueError):
            bbm_sweep(interval128, u, 2, ahlfors1, [0.5, 1.0])  # outside (0,1)
        with pytest.raises(ValueError):
            nguyen_sweep(interval128, u, 2, ahlfors1, [0.1, 0.2])  # not decreasing
        with pytest.raises(ValueError):
            nguyen_sweep(interval128, u, 2, ahlfors1, [0.2, 0.0])

    @pytest.mark.parametrize("sweep, name", [("bbm_sweep", "s"), ("nguyen_sweep", "delta"),
                                             ("ks_sweep", "t")])
    def test_empty_grid_raises_before_any_work(self, monkeypatch, interval128, ahlfors1,
                                               sweep, name):
        """An empty grid leaves nothing to extrapolate: each sweep rejects it plainly and
        evaluates no energy."""
        def no_work(*args):
            raise AssertionError("an energy ran before the grid was checked")

        for energy in ("gagliardo_values", "nguyen_a_values", "scale_s_by_balls"):
            monkeypatch.setattr(nsl.sweeps, energy, no_work)
        u = ScalarField(interval128.coords[:, 0])
        args = (interval128, u, 2) if sweep == "ks_sweep" else (interval128, u, 2, ahlfors1)
        with pytest.raises(ValueError, match=f"^{name} grid is empty$"):
            getattr(nsl.sweeps, sweep)(*args, [])

    def test_ks_rejects_sub_mesh_scale(self, interval128):
        u = ScalarField(interval128.coords[:, 0])
        with pytest.raises(ValueError, match="singleton"):
            ks_sweep(interval128, u, 2, [interval128.min_distance / 2])
        # beyond the diameter the energy saturates; still well defined
        big = ks_sweep(interval128, u, 2, [interval128.diameter * 2]).values[0]
        assert big > 0

    def test_ks_two_point_closed_form(self, two_point, two_point_field):
        # S_t = 0.5 once the ball covers both points, so S_t / t^p = 0.5 / t^2
        sweep = ks_sweep(
            MetricMeasureSpace(two_point.dist * 0.5, two_point.weights),
            two_point_field,
            2,
            [0.9, 0.7],
        )
        assert sweep.values == pytest.approx([0.5 / 0.81, 0.5 / 0.49])

    def test_ks_interval_bracketed_by_surrogate(self):
        sp = build_space(SpaceSpec("interval", n=1024))
        u = ScalarField(sp.coords[:, 0])
        sweep = ks_sweep(sp, u, 2, [0.02, 0.05, 0.1, 0.2])
        # S_t / t^p stays within a constant band of the unit Dirichlet energy
        assert all(0.1 <= v <= 10.0 for v in sweep.values)
        est = extrapolate(sweep)
        assert est.window == tuple(sorted(sweep.grid)[:4])

    def test_permutation_invariance(self, ahlfors1):
        rng = np.random.default_rng(71)
        sp = build_space(SpaceSpec("circle", n=32))
        u = rng.normal(size=32)
        perm = rng.permutation(32)
        sp_perm = MetricMeasureSpace(sp.dist[np.ix_(perm, perm)], sp.weights[perm])
        a = bbm_sweep(sp, ScalarField(u), 2, ahlfors1, [0.4, 0.6]).values
        b = bbm_sweep(sp_perm, ScalarField(u[perm]), 2, ahlfors1, [0.4, 0.6]).values
        assert a == pytest.approx(b, rel=1e-12)

    def test_measure_scaling_exact(self, two_point, two_point_field, ahlfors1):
        scaled = MetricMeasureSpace(two_point.dist, 2.0 * two_point.weights)
        a = bbm_sweep(two_point, two_point_field, 2, ahlfors1, [0.25, 0.5, 0.75]).values
        b = bbm_sweep(scaled, two_point_field, 2, ahlfors1, [0.25, 0.5, 0.75]).values
        assert tuple(4.0 * np.array(a)) == b


class TestSerialization:
    def test_csv_round_trip(self, tmp_path, interval128, ahlfors1):
        u = ScalarField(interval128.coords[:, 0])
        sweep = nguyen_sweep(interval128, u, 2, ahlfors1, [0.4, 0.3, 0.2, 0.1])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        again = read_sweep_csv(path)
        assert again.parameter == "delta"
        assert again.grid == sweep.grid
        assert again.values == sweep.values

    def test_csv_is_lf_terminated(self, tmp_path, two_point, two_point_field, ahlfors1):
        sweep = nguyen_sweep(two_point, two_point_field, 2, ahlfors1, [0.5, 0.25])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_contains_estimate(self, tmp_path, interval128, ahlfors1):
        import json

        u = ScalarField(interval128.coords[:, 0])
        sweep = nguyen_sweep(interval128, u, 2, ahlfors1, [0.4, 0.3, 0.2, 0.1])
        est = extrapolate(sweep)
        path = tmp_path / "sweep.json"
        write_sweep_json(sweep, est, path)
        doc = json.loads(path.read_text())
        assert doc["parameter"] == "delta"
        assert doc["estimate"]["limit"] == est.limit
        assert doc["estimate"]["model"] in ("linear", "quadratic")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_sweep_csv(path)
