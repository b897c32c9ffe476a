import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nsl
from nsl import (
    MetricMeasureSpace,
    ScalarField,
    SpaceSpec,
    build_space,
    cheeger_surrogate,
    hajlasz_minimal,
    path_integral,
)
from nsl import gradients
from nsl.cli import parse_space_spec
from nsl.expr import parse_field_expr
from nsl.gradients import _knn_edges, _nnls, _pair_constraints

from conftest import hajlasz_oracle_p2, matrix_file_space, random_space, traced_peak


# float.hex() of the slope-scheme energy of sin(3x) + xy at p = 1.5 and 2, and a sha256 prefix
# of its gradient's bytes, written before the slopes took the shared per-point max: on the
# space's edges (its matrix copy keeps them), or on 4 nearest neighbours once they are dropped
SLOPE_PINS = {
    "sierpinski:4": ("0x1.4357c6169851fp+1", "0x1.dc5b4b8145e41p+1", "40fa69fba2d359d5"),
    "gauge_grid:12:square": ("0x1.aa99e66a1d93bp+1", "0x1.58a2ef9c34e47p+2", "9e86ac5dcbac304c"),
    "gauge_grid:12:square matrix": ("0x1.aa99e66a1d93bp+1", "0x1.58a2ef9c34e47p+2",
                                    "9e86ac5dcbac304c"),
    "sierpinski:4 knn": ("0x1.43c8e875279c7p+1", "0x1.dd499a3b74fb8p+1", "9b94330bad8ef145"),
}


class TestCheeger:
    @pytest.mark.parametrize("name", list(SLOPE_PINS))
    def test_slope_scheme_is_pinned(self, name):
        spec, _, copy = name.partition(" ")
        sp = build_space(SpaceSpec.parse(spec))
        if copy:
            sp = MetricMeasureSpace(sp.dist, sp.weights, coords=sp.coords,
                                    edges=sp.edges if copy == "matrix" else None)
        u = parse_field_expr("sin(3*x) + x*y").evaluate(sp.coords)
        low, _ = cheeger_surrogate(sp, u, 1.5, scheme="slope")
        energy, grad = cheeger_surrogate(sp, u, 2.0, scheme="slope")
        digest = hashlib.sha256(grad.values.tobytes()).hexdigest()[:16]
        assert (low.hex(), energy.hex(), digest) == SLOPE_PINS[name]

    def test_constant_zero(self, circle64):
        energy, grad = cheeger_surrogate(circle64, ScalarField(np.ones(64)), 2)
        assert energy == 0.0
        assert np.all(grad.values == 0.0)

    def test_linear_field_exact(self):
        sp = build_space(SpaceSpec("interval", n=1024))
        u = ScalarField(sp.coords[:, 0])
        for scheme in ("slope", "centered"):
            energy, grad = cheeger_surrogate(sp, u, 2, scheme=scheme)
            assert energy == pytest.approx(1.0, abs=1e-6)
            assert grad.values == pytest.approx(np.ones(1024), abs=1e-9)

    def test_circle_sine_quadrature(self):
        sp = build_space(SpaceSpec("circle", n=512))
        u = ScalarField(np.sin(sp.coords[:, 0]))
        energy, _ = cheeger_surrogate(sp, u, 2, scheme="centered")
        assert energy == pytest.approx(math.pi, rel=1e-4)
        slope_energy, _ = cheeger_surrogate(sp, u, 2, scheme="slope")
        assert slope_energy == pytest.approx(math.pi, rel=0.01)

    def test_torus_plane_wave(self):
        sp = build_space(SpaceSpec("torus2d", nx=32, ny=32))
        u = ScalarField(np.sin(2 * math.pi * sp.coords[:, 0]))
        energy, _ = cheeger_surrogate(sp, u, 2, scheme="centered")
        # centered differences carry the sinc^2(2 pi h) factor ~ 0.987 at n = 32
        assert energy == pytest.approx(2 * math.pi**2, rel=0.02)

    def test_slope_on_torus_reads_no_matrix(self):
        """The stencil's edge lengths come from the lattice table: the traced peak stays
        under a quarter of one n x n float64 matrix, and the value is bitwise the one read
        from the matrix."""
        sp = build_space(SpaceSpec.parse("torus2d:64x64"))
        x, y = sp.coords.T
        u = ScalarField(np.sin(2 * math.pi * x) * np.cos(4 * math.pi * y))
        (energy, grad), peak = traced_peak(lambda: cheeger_surrogate(sp, u, 2, scheme="slope"))
        assert sp._dist is None
        assert peak < sp.n**2 * 8 / 4
        sp.dist
        again, grad_again = cheeger_surrogate(sp, u, 2, scheme="slope")
        assert energy.hex() == again.hex()
        assert grad.values.tobytes() == grad_again.values.tobytes()

    def test_knn_fallback_on_matrix_space(self):
        rng = np.random.default_rng(51)
        sp = random_space(rng, 16)
        u = ScalarField(sp.coords[:, 0])
        energy, _ = cheeger_surrogate(sp, u, 2, scheme="slope", k=3)
        # unit slope everywhere, so the energy is the total mass
        assert energy == pytest.approx(sp.total_mass, rel=1e-9)

    def test_knn_edges_match_the_double_loop(self):
        sp = random_space(np.random.default_rng(52), 12)
        assert sp.edges is None
        order = np.argsort(sp.dist, axis=1, kind="stable")
        for k in (1, 3, 11, 20):
            kk = min(k, sp.n - 1)
            loop = [(x, int(y)) for x in range(sp.n) for y in order[x, 1 : kk + 1]]
            edges = _knn_edges(sp, k)
            assert edges.dtype == np.int64
            assert np.array_equal(edges, np.asarray(loop, dtype=np.int64))

    def test_isolated_point_error(self):
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        sp = MetricMeasureSpace(
            dist, np.ones(3), edges=np.array([[0, 1]]), name="dangling"
        )
        with pytest.raises(ValueError, match="isolated point 2"):
            cheeger_surrogate(sp, ScalarField(np.arange(3.0)), 2, scheme="slope")

    def test_centered_needs_grid(self, two_point):
        with pytest.raises(ValueError, match="grid"):
            cheeger_surrogate(two_point, ScalarField(np.array([0.0, 1.0])), 2, "centered")


class TestHajlasz:
    def test_constant_field(self, circle64):
        res = hajlasz_minimal(circle64, ScalarField(np.zeros(64)), 2)
        assert res.objective == 0.0
        assert res.converged

    def test_two_point_exact_optimum(self, two_point, two_point_field):
        res = hajlasz_minimal(two_point, two_point_field, 2)
        assert res.objective == pytest.approx(0.25, abs=1e-6)
        assert res.gradient.values == pytest.approx([0.5, 0.5], abs=1e-6)
        assert res.violation <= 1e-10
        assert res.converged

    def test_three_collinear_matches_oracle(self, three_collinear):
        u = ScalarField(three_collinear.coords[:, 0])
        res = hajlasz_minimal(three_collinear, u, 2)
        pairs = [(0, 1), (0, 2), (1, 2)]
        bounds = [1.0, 1.0, 1.0]
        oracle = hajlasz_oracle_p2(three_collinear.weights, pairs, bounds)
        assert oracle == pytest.approx(0.25, abs=1e-12)
        assert res.objective == pytest.approx(oracle, rel=1e-9)
        assert res.violation <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_small_spaces_match_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 6))
        sp = random_space(rng, n)
        u = ScalarField(rng.normal(size=n))
        res = hajlasz_minimal(sp, u, 2)
        iu, ju = np.triu_indices(n, k=1)
        pairs = list(zip(iu.tolist(), ju.tolist()))
        vals = u.values
        bounds = [abs(vals[i] - vals[j]) / sp.dist[i, j] for i, j in pairs]
        keep = [(pq, c) for pq, c in zip(pairs, bounds) if c > 0]
        oracle = hajlasz_oracle_p2(sp.weights, [pq for pq, _ in keep], [c for _, c in keep])
        assert res.objective == pytest.approx(oracle, rel=1e-9)
        assert res.violation <= 1e-10

    def test_objective_below_feasible_start(self, circle64):
        u = ScalarField(np.sin(circle64.coords[:, 0]))
        res = hajlasz_minimal(circle64, u, 2)
        # start g0(x) = sup_y |u(x)-u(y)|/d is feasible; solver must not regress
        g0 = np.zeros(64)
        vals = u.values
        for x in range(64):
            d = circle64.dist[x]
            mask = d > 0
            g0[x] = np.max(np.abs(vals[x] - vals[mask]) / d[mask])
        start_obj = float(np.sum(circle64.weights * g0**2))
        assert res.objective <= start_obj
        assert res.violation <= 1e-10

    def test_cutoff_restricts_constraints(self, three_collinear):
        u = ScalarField(three_collinear.coords[:, 0])
        res_full = hajlasz_minimal(three_collinear, u, 2)
        res_local = hajlasz_minimal(three_collinear, u, 2, cutoff=0.6)
        # dropping the long-range constraint can only lower the optimum
        assert res_local.objective <= res_full.objective + 1e-12

    def test_fractional_order(self, two_point, two_point_field):
        # sigma = 0.5, d = 1: same constraint, same optimum
        res = hajlasz_minimal(two_point, two_point_field, 2, sigma=0.5)
        assert res.objective == pytest.approx(0.25, abs=1e-6)

    def test_nonconvergence_is_reported(self, three_collinear):
        # p != 2 takes the descent, so a tiny iteration cap cannot satisfy
        # the stopping rule and must be reported
        u = ScalarField(three_collinear.coords[:, 0])
        with pytest.warns(RuntimeWarning, match="stopping rule"):
            res = hajlasz_minimal(three_collinear, u, 1.5, max_iter=5)
        assert not res.converged
        assert res.violation <= 1e-10  # the lift keeps iterates feasible regardless

    def test_refinement_marks_convergence_despite_small_cap(self, three_collinear):
        # small p = 2 problems take the exact route, which ignores max_iter
        u = ScalarField(three_collinear.coords[:, 0])
        res = hajlasz_minimal(three_collinear, u, 2, max_iter=5)
        assert res.converged
        assert res.objective == pytest.approx(0.25, abs=1e-10)

    def test_parameter_validation(self, two_point, two_point_field):
        with pytest.raises(ValueError):
            hajlasz_minimal(two_point, two_point_field, 0.5)
        with pytest.raises(ValueError):
            hajlasz_minimal(two_point, two_point_field, 2, sigma=1.5)

    @pytest.mark.parametrize("max_iter", [-5, -1, 2.5, "10", None])
    def test_max_iter_must_be_a_nonnegative_integer(self, two_point, two_point_field, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
            hajlasz_minimal(two_point, two_point_field, 2, max_iter=max_iter)

    def test_zero_iterations_is_the_refine_alone(self, three_collinear):
        # the exact route runs no descent iteration
        u = ScalarField(three_collinear.coords[:, 0])
        res = hajlasz_minimal(three_collinear, u, 2, max_iter=np.int64(0))
        assert res.iterations == 0
        assert res.converged
        assert res.objective == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("cutoff", [math.nan, 0.0, -1.0])
    def test_cutoff_must_be_positive(self, two_point, two_point_field, cutoff):
        with pytest.raises(ValueError, match="cutoff r must be > 0"):
            hajlasz_minimal(two_point, two_point_field, 2, cutoff=cutoff)


def _pin_field(space, kind):
    x = space.coords[:, 0]
    if kind == "sin":
        return np.sin(x)
    if kind == "wave":
        return np.sin(2 * np.pi * x) * np.cos(2 * np.pi * space.coords[:, 1])
    if kind == "ramp":  # constant below 0.5: with a cutoff, some points have no pair
        return np.maximum(x - 0.5, 0.0)
    if kind.startswith("bench"):  # perfbench's seed-0 inputs (workloads.Inputs.from_seed)
        rng = np.random.default_rng(0)
        phase = int(rng.integers(8))
        if kind == "bench_sin":
            return np.sin(x + 2 * np.pi * phase / 8)
        return rng.uniform(-1.0, 1.0, space.n)  # bench_csv: the field file's values
    return np.random.default_rng(int(kind[-1])).uniform(-1, 1, space.n)


# spec, field, p, sigma, cutoff, max_iter, repr(objective), repr(violation),
# iterations, converged, sha256 of the gradient's bytes
HAJLASZ_PINS = [
    # the verify bench's random-field task: runs to the iteration cap
    ("torus2d:8x8", "rng0", 2.0, 1.0, math.inf, 20000, "21.04278126644963", "0.0",
     20000, False, "230c04ef499a573b2d4cb5b6bb1e98921ce45483ea90997dcd9eff5bb667ce7c"),
    ("circle:256", "sin", 2.0, 1.0, math.inf, 20000, "1.2152889112348637", "0.0",
     310, True, "ed21993f7c913599c7859df03fe2a8d4cc0688e4005fc4d6ad45adf606673750"),
    ("sierpinski:3", "rng1", 2.0, 1.0, math.inf, 3000, "20.085862528980396", "0.0",
     3000, False, "9ce8c2013151852fb4483f6084d18a106e444a68b60ad02406e756ad6dfe68fa"),
    ("circle:64", "sin", 1.0, 1.0, math.inf, 20000, "2.7407156051046186", "0.0",
     56, True, "228281fba7094ca383f3a12f01de55f8640a46f2c92d9b7ef7b7158e799edb39"),
    ("circle:64", "sin", 1.5, 1.0, math.inf, 20000, "1.8212007643347987", "0.0",
     89, True, "6f07933234f24ed0fc0e03a9dba083e24aa2c8644c77020645249add290e3a2d"),
    ("interval:48", "rng2", 3.0, 1.0, math.inf, 2000, "8614.958743338862", "0.0",
     2000, False, "0f36f4cc99d3807b44daa80756ddf9850c916b350cd5c44dd6c257aca43c5a95"),
    ("circle:64", "sin", 2.5, 0.5, math.inf, 2000, "1.251672710024283", "0.0",
     2000, False, "c26564e589cf437cfffc7b4e213f46a736f89f357d57b9fe55229cd1fc4ec443"),
    ("gauge_grid:8:square", "rng3", 2.0, 0.7, math.inf, 2000, "5.196741180132587", "0.0",
     2000, False, "0ebd9d600dcc1ea507086c0a23d60d1e99683b0f33d65e38ace2c391d7f8824c"),
    ("torus2d:16x16", "wave", 2.0, 1.0, 0.2, 1000, "5.902048449148415", "0.0",
     1000, False, "3243f52a57fc267f1634011906e2e7621981488e92fb7001a5e073c68855a446"),
    ("interval:64", "ramp", 1.5, 1.0, 0.1, 2000, "0.18331256413330912", "0.0",
     2000, False, "2cb7fb08ea70ebb54af0ed12becc43f5428b9e8edfbfb25c9a2d7ee84f6cf15c"),
    # the verify bench's own fields: the circle refinement and the CSV task
    ("circle:512", "bench_sin", 2.0, 1.0, math.inf, 20000, "1.215310495551698", "0.0",
     561, True, "deb32e7b32bc81e1f487192cfa4bb023b224f8aa2c288f19968fa25302a6db3d"),
    ("torus2d:8x8", "bench_csv", 2.0, 1.0, math.inf, 20000, "20.838851172924443", "0.0",
     20000, False, "502a1730f76c3dac8dfb285e154adbbe87db27bc7cf9f3f619dcf3f6228dedab"),
    # m = 496 pairs: the exact p=2 route, whatever max_iter is
    ("interval:32", "rng4", 2.0, 1.0, math.inf, 500, "250.77158606527948", "0.0",
     0, True, "a4c3ced8a4ec09ae5c2fd423d025ed4c0511e1e50afb8953d91458ce7fee275b"),
    ("interval:32", "rng4", 2.0, 1.0, math.inf, 0, "250.77158606527948", "0.0",
     0, True, "a4c3ced8a4ec09ae5c2fd423d025ed4c0511e1e50afb8953d91458ce7fee275b"),
]


@pytest.mark.parametrize(
    "spec,kind,p,sigma,cutoff,max_iter,objective,violation,iterations,converged,digest",
    HAJLASZ_PINS,
    ids=[f"{c[0]}-{c[1]}-p{c[2]}-s{c[3]}-r{c[4]}-k{c[5]}" for c in HAJLASZ_PINS],
)
def test_hajlasz_iterates_are_pinned(
    spec, kind, p, sigma, cutoff, max_iter, objective, violation, iterations, converged, digest
):
    # bitwise: any change to either route's arithmetic moves the digest
    space = build_space(parse_space_spec(spec))
    u = _pin_field(space, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = hajlasz_minimal(space, u, p, sigma=sigma, cutoff=cutoff, max_iter=max_iter)
    assert repr(res.objective) == objective
    assert repr(res.violation) == violation
    assert res.iterations == iterations
    assert res.converged is converged
    assert hashlib.sha256(res.gradient.values.tobytes()).hexdigest() == digest


def _reference_descent(space, vals, p, sigma=1.0, cutoff=math.inf, max_iter=20000):
    """The projected-subgradient descent over every pair at every step: no screening."""
    i, j, c = _pair_constraints(space, vals, sigma, cutoff)
    w = space.weights

    def point_max(pair_vals):  # a dense n x n table, zeros where there is no pair
        table = np.zeros((space.n, space.n))
        table[i, j] = table[j, i] = pair_vals
        return table.max(axis=1)

    def objective(g):
        return float(np.sum(w * g**p))

    g = point_max(c)
    scale, best_g, best_obj, converged, k = math.sqrt(g.dot(g)), g, objective(g), False, 0
    history = [best_obj]
    for k in range(1, max_iter + 1):
        grad = p * w * g ** (p - 1.0)
        norm = math.sqrt(grad.dot(grad))
        if norm == 0.0:
            break
        g = np.maximum(g - (scale / k) * grad / norm, 0.0)
        g = g + 0.5 * point_max(np.maximum(c - g[i] - g[j], 0.0))
        g = g * float(np.max(c / (g[i] + g[j])))
        if objective(g) < best_obj:
            best_obj, best_g = objective(g), g
        history.append(best_obj)
        if k > gradients.STOP_WINDOW and (
            history[-1 - gradients.STOP_WINDOW] - best_obj
            <= gradients.STOP_TOL * max(best_obj, 1e-300)
        ):
            converged = True
            break
    return best_g, best_obj, k, converged


# spec, field, p, sigma, cutoff, max_iter; no p = 2 case is small enough for the exact route
DESCENT_CASES = [
    (spec, kind, p, sigma, math.inf, 1500)
    for spec, kind in [("circle:64", "sin"), ("torus2d:8x8", "rng0")]
    for p in (1.0, 1.5, 2.0, 3.0)
    for sigma in (0.5, 1.0)
] + [
    ("torus2d:12x12", "wave", 1.5, 1.0, 0.3, 1500),
    ("torus2d:12x12", "rng5", 2.0, 0.5, 0.4, 1500),
    ("interval:64", "ramp", 1.5, 1.0, 0.1, 1500),
    ("interval:64", "ramp", 3.0, 1.0, math.inf, 1500),
    ("gauge_grid:8:square", "rng3", 2.0, 0.7, math.inf, 1500),
]


@pytest.mark.parametrize(
    "spec,kind,p,sigma,cutoff,max_iter",
    DESCENT_CASES,
    ids=[f"{c[0]}-{c[1]}-p{c[2]}-s{c[3]}-r{c[4]}" for c in DESCENT_CASES],
)
def test_screened_descent_matches_the_plain_descent_bitwise(spec, kind, p, sigma, cutoff, max_iter):
    space = build_space(parse_space_spec(spec))
    vals = _pin_field(space, kind)
    g, objective, iterations, converged = _reference_descent(
        space, vals, p, sigma=sigma, cutoff=cutoff, max_iter=max_iter
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = hajlasz_minimal(space, vals, p, sigma=sigma, cutoff=cutoff, max_iter=max_iter)
    assert iterations > 0  # the descent ran, not the exact p = 2 route
    assert res.iterations == iterations
    assert res.converged is converged
    assert repr(res.objective) == repr(objective)
    digest = hashlib.sha256(res.gradient.values.tobytes()).hexdigest()
    assert digest == hashlib.sha256(g.tobytes()).hexdigest()


def test_descent_cases_cover_zero_constraints_and_zero_gradients():
    # sin on circle:64 and the ramp drop pairs with c == 0; the ramp's g reaches 0
    circle = build_space(parse_space_spec("circle:64"))
    assert _pair_constraints(circle, _pin_field(circle, "sin"), 1.0, math.inf)[2].size < 2016
    interval = build_space(parse_space_spec("interval:64"))
    ramp = _pin_field(interval, "ramp")
    assert _pair_constraints(interval, ramp, 1.0, math.inf)[2].size <= 2016 - 496
    g, *_ = _reference_descent(interval, ramp, 1.5, cutoff=0.1, max_iter=1500)
    assert np.any(g == 0.0)


@pytest.mark.parametrize("spec,kind,max_iter", [("circle:256", "sin", 20000),
                                                 ("torus2d:8x8", "rng0", 2000)])
def test_descent_passes_over_all_pairs_in_few_iterations(monkeypatch, spec, kind, max_iter):
    # structural, not timed: a descent that fell back to full passes fails this
    space = build_space(parse_space_spec(spec))
    vals = _pin_field(space, kind)
    m = _pair_constraints(space, vals, 1.0, math.inf)[2].size
    full = []
    point_max, worst_ratio = gradients._point_max, gradients._worst_ratio

    def counted_point_max(n, i, j, pair_vals):
        full.append(pair_vals.size == m)
        return point_max(n, i, j, pair_vals)

    def counted_worst_ratio(g, i, j, c):
        full.append(c.size == m)
        return worst_ratio(g, i, j, c)

    monkeypatch.setattr(gradients, "_point_max", counted_point_max)
    monkeypatch.setattr(gradients, "_worst_ratio", counted_worst_ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = hajlasz_minimal(space, vals, 2.0, max_iter=max_iter)
    assert res.iterations > 300
    assert len(full) >= 2 * res.iterations  # one lift and one rescale per step
    assert sum(full) < res.iterations / 10


def test_rescale_falls_back_when_the_working_set_misses_the_worst_pair(monkeypatch):
    space = build_space(parse_space_spec("circle:64"))
    vals = _pin_field(space, "sin")
    m = _pair_constraints(space, vals, 1.0, math.inf)[2].size
    worst_ratio = gradients._worst_ratio

    def full_only(g, i, j, c):  # every working-set ratio reads below the certificate's bound
        return worst_ratio(g, i, j, c) if c.size == m else 0.0

    monkeypatch.setattr(gradients, "_worst_ratio", full_only)
    g, objective, iterations, _ = _reference_descent(space, vals, 2.0, max_iter=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = hajlasz_minimal(space, vals, 2.0, max_iter=300)
    assert (res.iterations, repr(res.objective)) == (iterations, repr(objective))
    assert np.array_equal(res.gradient.values, g)


def test_exact_route_agrees_with_the_dual_coordinate_ascent_it_replaced():
    # 250.77158606526814 is what Hildreth's cyclic dual ascent gave on this pin
    space = build_space(parse_space_spec("interval:32"))
    res = hajlasz_minimal(space, _pin_field(space, "rng4"), 2.0)
    assert res.objective == pytest.approx(250.77158606526814, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_nnls_matches_scipy(seed):
    from scipy.optimize import nnls

    rng = np.random.default_rng(300 + seed)
    e = rng.normal(size=(int(rng.integers(3, 12)), int(rng.integers(2, 15))))
    f = rng.normal(size=e.shape[0])
    lam, optimal = _nnls(e, f)
    expected, _ = nnls(e, f)
    assert optimal
    assert np.all(lam >= 0.0)
    assert np.linalg.norm(e @ lam - f) == pytest.approx(np.linalg.norm(e @ expected - f), rel=1e-10)
    assert lam == pytest.approx(expected, abs=1e-9)


def test_uncertified_exact_route_is_reported(monkeypatch, three_collinear):
    # an NNLS that gives up leaves lam = 0, so g = 0 and the lift alone
    monkeypatch.setattr(gradients, "_nnls", lambda e, f: (np.zeros(e.shape[1]), False))
    u = ScalarField(three_collinear.coords[:, 0])
    with pytest.warns(RuntimeWarning, match="after 0 iterations"):
        res = hajlasz_minimal(three_collinear, u, 2)
    assert not res.converged
    assert res.violation <= 1e-10


def test_exact_route_does_not_import_scipy_optimize():
    code = (
        "import sys, numpy as np, nsl\n"
        "sp = nsl.build_space(nsl.SpaceSpec('circle', n=32))\n"
        "res = nsl.hajlasz_minimal(sp, np.sin(sp.coords[:, 0]), 2.0)\n"
        "assert res.iterations == 0 and res.converged\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(nsl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_pair_list_skips_the_pairs_a_cutoff_drops():
    space = build_space(parse_space_spec("torus2d:32x32"))
    vals = np.sin(2 * np.pi * space.coords[:, 0])
    iu, ju = np.triu_indices(space.n, k=1)
    keep = space.dist[iu, ju] <= 0.1
    (i, j, c), peak = traced_peak(lambda: _pair_constraints(space, vals, 1.0, 0.1))
    # all n(n-1)/2 index pairs alone would take 8.4 MB
    assert peak < 6e6
    c_all = np.abs(vals[iu[keep]] - vals[ju[keep]]) / space.dist[iu[keep], ju[keep]]
    active = c_all > 0.0
    assert np.array_equal(i, iu[keep][active]) and np.array_equal(j, ju[keep][active])
    assert np.array_equal(c, c_all[active])


@pytest.mark.parametrize("spec, cutoff", [("torus2d:8x8", math.inf), ("sierpinski:3", math.inf),
                                          ("interval:64", 0.2)])
def test_pair_constraints_are_the_upper_triangle_form(spec, cutoff):
    """Built a row block at a time, the pairs are bitwise those of one n x n triu mask."""
    space = build_space(parse_space_spec(spec))
    vals = np.sin(2 * np.pi * space.coords[:, 0])
    got = _pair_constraints(space, vals, 0.5, cutoff)
    iu, ju = np.nonzero(np.triu(space.dist <= cutoff, k=1))
    c = np.abs(vals[iu] - vals[ju]) / space.dist[iu, ju] ** 0.5
    active = c > 0.0
    for mine, want in zip(got, (iu[active], ju[active], c[active])):
        assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes()


def test_hajlasz_builds_no_distance_matrix():
    """A lattice's pairs come from its table: hajlasz_minimal leaves dist unbuilt."""
    space = build_space(parse_space_spec("torus2d:16x16"))
    hajlasz_minimal(space, np.sin(2 * np.pi * space.coords[:, 0]), 2.0)
    assert space._dist is None


class TestPathIntegral:
    def test_constant_gradient(self, circle64):
        g = ScalarField(np.full(64, 2.0))
        path = [0, 1, 2, 3]
        value, length = path_integral(circle64, g, path)
        assert length == pytest.approx(3 * 2 * math.pi / 64)
        assert value == pytest.approx(2.0 * length)

    def test_lattice_path_reads_no_matrix(self):
        sp = build_space(SpaceSpec.parse("torus2d:16x16"))
        g = ScalarField(np.random.default_rng(62).uniform(0, 1, sp.n))
        path = [0, 1, 17, 33, 32, 16 * 15 + 1, 16 * 15 + 15]
        lazy = path_integral(sp, g, path)
        assert sp._dist is None
        sp.dist
        assert lazy == path_integral(sp, g, path)

    def test_single_edge_trapezoid(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        sp = MetricMeasureSpace(dist, np.ones(2))
        value, length = path_integral(sp, ScalarField(np.array([1.0, 3.0])), [0, 1])
        assert value == pytest.approx(4.0)
        assert length == pytest.approx(2.0)

    def test_additive_over_edges(self, circle64):
        rng = np.random.default_rng(61)
        g = ScalarField(rng.uniform(0, 1, 64))
        whole, _ = path_integral(circle64, g, [0, 1, 2])
        a, _ = path_integral(circle64, g, [0, 1])
        b, _ = path_integral(circle64, g, [1, 2])
        assert whole == pytest.approx(a + b, rel=1e-15)

    def test_rejects_repeated_point(self, circle64):
        with pytest.raises(ValueError, match="distinct"):
            path_integral(circle64, ScalarField(np.zeros(64)), [0, 0, 1])

    @pytest.mark.parametrize("name", ["sierpinski:2", "circle:8", "matrix file"])
    @pytest.mark.parametrize("offset, position", [(-1, 0), (0, 1), (7, 2)])
    def test_rejects_ids_outside_the_space(self, name, offset, position):
        """An id below 0 or at n and past is named with its position, never wrapped or
        left to an IndexError."""
        sp = (matrix_file_space("sierpinski:2") if name == "matrix file"
              else build_space(SpaceSpec.parse(name)))
        path = [0, 1, 2]
        path[position] = -1 if offset < 0 else sp.n + offset
        with pytest.raises(ValueError, match=f"path point {path[position]} at position "
                                             rf"{position} is not a point id in \[0, {sp.n}\)$"):
            path_integral(sp, ScalarField(np.ones(sp.n)), path)

    def test_rejects_short_path(self, circle64):
        with pytest.raises(ValueError, match="two points"):
            path_integral(circle64, ScalarField(np.zeros(64)), [0])
