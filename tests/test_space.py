import hashlib
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse.csgraph
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

import nsl.space

from nsl import (
    EnergySpec,
    KernelSpec,
    MetricMeasureSpace,
    ScalarField,
    SpaceError,
    SpaceSpec,
    bbm_sweep,
    build_space,
    doubling_constant,
    gagliardo_p,
    h_energy,
    k_energy,
    load_space,
    mollify,
    nguyen_sweep,
    parse_body,
    save_space,
    scale_s_by_balls,
)
from nsl.kernels import _kernel_table, kernel_matrix
from nsl.space import _lattice_rows
from nsl.verify import check_mean_comparison

from conftest import (HEXAGON, ball_mass_rows, count_gasket_builds, matrix_file_space,
                      sierpinski_reference, traced_peak, write_old_file)


def brute_torus_dist(nx: int, ny: int) -> np.ndarray:
    """Flat-torus distances pair by pair from the wrapped integer index offsets."""
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    dx = np.abs(ix[:, None] - ix[None, :])
    dy = np.abs(iy[:, None] - iy[None, :])
    return np.hypot(np.minimum(dx, nx - dx) / nx, np.minimum(dy, ny - dy) / ny)


def brute_circle_dist(n: int) -> np.ndarray:
    """Arc-length distances pair by pair from the wrapped integer index offsets."""
    idx = np.arange(n)
    k = np.abs(idx[:, None] - idx[None, :])
    return 2.0 * math.pi * np.minimum(k, n - k).astype(np.float64) / n


def brute_gauge_grid_dist(n: int, body) -> np.ndarray:
    """Gauge-grid distances pair by pair from the signed integer index offsets."""
    ix, iy = np.divmod(np.arange(n * n), n)
    delta = np.stack([ix[None, :] - ix[:, None], iy[None, :] - iy[:, None]], axis=-1)
    return body.gauge(delta / n)


def brute_interval_dist(n: int) -> np.ndarray:
    """Interval distances pair by pair from the integer index offsets."""
    idx = np.arange(n, dtype=np.float64)
    return np.abs(idx[:, None] - idx[None, :]) / n


class TestGenerators:
    def test_circle4_by_definition(self):
        sp = build_space(SpaceSpec("circle", n=4))
        assert sp.n == 4
        offdiag = sorted(set(np.round(sp.dist[~np.eye(4, dtype=bool)], 12)))
        assert offdiag == pytest.approx([math.pi / 2, math.pi])
        assert sp.weights == pytest.approx(np.full(4, math.pi / 2))
        assert sp.total_mass == pytest.approx(2 * math.pi)

    def test_interval2_by_definition(self):
        sp = build_space(SpaceSpec("interval", n=2))
        assert sp.coords.ravel() == pytest.approx([0.25, 0.75])
        assert sp.dist[0, 1] == pytest.approx(0.5)
        assert sp.weights == pytest.approx([0.5, 0.5])

    def test_weighted_interval_density(self):
        sp = build_space(SpaceSpec("interval", n=8, alpha=1.0))
        x = sp.coords.ravel()
        assert sp.weights == pytest.approx(x / 8)

    def test_sierpinski_level1(self):
        sp = build_space(SpaceSpec("sierpinski", level=1))
        assert sp.n == 6
        assert sp.weights == pytest.approx(np.full(6, 1 / 6))
        # corner-to-corner geodesic along two half-edges
        assert sp.diameter == pytest.approx(1.0)

    def test_sierpinski_vertex_counts(self):
        for level, count in ((0, 3), (1, 6), (2, 15), (3, 42)):
            assert build_space(SpaceSpec("sierpinski", level=level)).n == count

    def test_torus_wraps(self):
        sp = build_space(SpaceSpec("torus2d", nx=4, ny=4))
        # first and last cell on a row are one step apart across the seam
        assert sp.dist[0, 12] == pytest.approx(0.25)
        assert sp.total_mass == pytest.approx(1.0)

    def test_graph_geodesic(self):
        sp = build_space(SpaceSpec("graph", edges=((0, 1, 1.0), (1, 2, 2.0))))
        assert sp.dist[0, 2] == pytest.approx(3.0)

    def test_gauge_grid_max_norm(self):
        from nsl import parse_body

        sp = build_space(SpaceSpec("gauge_grid", n=6, body=parse_body("square")))
        assert sp.n == 36
        assert sp.weights == pytest.approx(np.full(36, 1 / 36))
        # gauge of the square is the max norm
        delta = sp.coords[7] - sp.coords[20]
        assert sp.dist[7, 20] == pytest.approx(np.max(np.abs(delta)))

    def test_graph_disconnected_rejected(self):
        with pytest.raises(SpaceError, match="disconnected"):
            build_space(SpaceSpec("graph", edges=((0, 1, 1.0), (2, 3, 1.0))))

    @pytest.mark.parametrize("edges, pair", [
        (((0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)), "(0,1)"),
        (((0, 1, 1.0), (1, 2, 1.0), (1, 0, 3.0)), "(1,0)"),
        (((0, 1, 1.0), (1, 2, 1.0), (1, 1, 1.0)), "(1,1)"),
    ])
    def test_graph_pair_listed_twice_or_self_loop_rejected(self, edges, pair):
        """A sparse adjacency sums repeated entries, so a repeated row 0,1,1 made d(0,1) = 2;
        a self-loop reached the gradients as a zero-length neighbor edge."""
        message = f"graph edge {pair} is a self-loop or repeats a listed pair"
        with pytest.raises(SpaceError, match=re.escape(message)):
            SpaceSpec("graph", edges=edges).validate()

    def test_bad_specs_rejected(self):
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("interval", n=1))
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("interval", n=8, alpha=-1.0))
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("sierpinski", level=-1))
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("nonsense"))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, -1.0])
    def test_interval_exponent_finite_and_above_minus_one(self, alpha):
        """x^inf is 0 on (0, 1): inf once passed validate() and failed later at a zero weight."""
        with pytest.raises(SpaceError, match="exponent must be finite and > -1"):
            SpaceSpec("interval", n=8, alpha=alpha).validate()

    def test_gauge_grid_body_must_be_2d(self):
        """validate() rejects the body's dimension from the parameters, before any allocation."""
        with pytest.raises(SpaceError, match="gauge_grid needs a 2d body, got dim 3"):
            SpaceSpec.parse("gauge_grid:4:ball:3").validate()

    def test_desk_scale_budget(self):
        # validate() rejects from the parameters alone, before any allocation
        for spec in (
            SpaceSpec("interval", n=5000),
            SpaceSpec("circle", n=4097),
            SpaceSpec("torus2d", nx=65, ny=64),
            SpaceSpec("gauge_grid", n=65, body=parse_body("square")),
            SpaceSpec("sierpinski", level=8),
            SpaceSpec("sierpinski", level=10**9),
            SpaceSpec("graph", edges=((0, 4096, 1.0),)),
        ):
            with pytest.raises(SpaceError, match="4096-point"):
                spec.validate()
        SpaceSpec("sierpinski", level=7).validate()  # 3282 points
        SpaceSpec("torus2d", nx=64, ny=64).validate()


class TestLatticeDistances:
    """Lattice distances come from an offset table; each must equal its pairwise oracle."""

    @pytest.mark.parametrize("nx, ny", [(12, 10), (2, 5), (16, 16), (30, 17)])
    def test_torus_matches_index_oracle(self, nx, ny):
        sp = build_space(SpaceSpec("torus2d", nx=nx, ny=ny))
        assert np.array_equal(sp.dist, brute_torus_dist(nx, ny))

    @pytest.mark.parametrize("body", ["square", "ellipse:1:2", "ball:2", HEXAGON],
                             ids=["square", "ellipse", "ball", "hexagon"])
    @pytest.mark.parametrize("n", [6, 8, 9, 10, 12, 24])
    def test_gauge_grid_matches_pairwise_gauge(self, n, body):
        sp = build_space(SpaceSpec("gauge_grid", n=n, body=parse_body(body)))
        assert np.array_equal(sp.dist, brute_gauge_grid_dist(n, parse_body(body)))

    def test_gauge_grid_distances_are_exact(self):
        """One distance per sup-norm index offset, so the doubling constant is the grid's own:
        the ball of radius 2/6 about point (1, 1) is the 4 x 4 block at indices 0..3. Ball
        masses are prefix sums of 1/36, so they and their ratios hold a few roundings."""
        sp = build_space(SpaceSpec.parse("gauge_grid:6:square"))
        assert np.unique(sp.dist).size == 6
        assert sp.ball_masses(2 / 6)[7] == pytest.approx(16 / 36, rel=1e-14)
        assert doubling_constant(sp).c_d_hat == pytest.approx(9.0, rel=1e-14)

    @pytest.mark.parametrize("name", ["circle:2", "circle:3", "circle:33", "circle:64",
                                      "torus2d:2x2", "torus2d:3x5", "torus2d:8x8",
                                      "torus2d:24x40", "interval:2", "interval:65"])
    def test_window_copy_matches_pairwise_formula(self, name):
        """Rows are windows of a copy of row 0, bitwise equal to the pair-by-pair values."""
        spec = SpaceSpec.parse(name)
        expected = {"circle": lambda: brute_circle_dist(spec.n),
                    "torus2d": lambda: brute_torus_dist(spec.nx, spec.ny),
                    "interval": lambda: brute_interval_dist(spec.n)}[spec.generator]()
        sp = build_space(spec)
        assert sp.dist.flags.c_contiguous
        assert np.array_equal(sp.dist, expected)

    def test_min_distance_matches_masked_min(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, 300)
        sp = MetricMeasureSpace(np.abs(x[:, None] - x[None, :]), np.ones(300))
        assert sp.min_distance == np.min(sp.dist[~np.eye(300, dtype=bool)])
        assert MetricMeasureSpace(np.zeros((1, 1)), np.ones(1)).min_distance == 0.0

    @pytest.mark.parametrize("name", ["interval:2", "interval:65", "interval:65:0.5", "circle:2",
                                      "circle:33", "torus2d:2x2", "torus2d:3x5", "torus2d:8x8",
                                      "gauge_grid:5:square", f"gauge_grid:5:{HEXAGON}"])
    def test_lattice_extremes_from_row_zero(self, name):
        """The lattice table holds every index offset: min_distance and diameter are those of
        a full scan, and reading them builds no distance matrix."""
        sp = build_space(SpaceSpec.parse(name))
        extremes = sp.min_distance, sp.diameter
        assert sp._dist is None
        copy = MetricMeasureSpace(sp.dist, sp.weights)
        assert sp._table is not None and copy._table is None
        off = ~np.eye(sp.n, dtype=bool)
        assert extremes[0].hex() == copy.min_distance.hex() == np.min(sp.dist[off]).hex()
        assert extremes[1].hex() == copy.diameter.hex() == np.max(sp.dist).hex()

    def test_min_distance_allocates_no_square_copy(self):
        sp = build_space(SpaceSpec("interval", n=2048))
        min_distance, peak = traced_peak(lambda: sp.min_distance)
        assert min_distance == 1.0 / 2048
        assert peak < sp.dist.nbytes / 8


# sha256 prefixes of each lattice space's file document (json, sorted keys), name, and the
# bytes of its weights, coords, edges, lattice table and distance matrix, in that order.
SPACE_DIGESTS = {
    "interval:2": (
        "26626a3fd181dcd8", "c3b02e67a6cd8bb5", "606e5166986dd9f1", "a084810e7c2a939f",
        "9d34149fbd1fe777", "329d1b8878324cd1", "b80064f096da2a2d"),
    "interval:64:0.5": (
        "1601731c3f807414", "46a21d21b5c11c5d", "773014767cee1e61", "4a641b0486b218ec",
        "8854998891fcf899", "cc3e165446f6c06c", "1a92b67b5322306e"),
    "circle:2": (
        "04ba78da017d80e8", "ec47153a48e6ad47", "227ebb48ba706361", "5859787cf2f83aee",
        "db7f8e2aa97f8d23", "d1079283e1c6fb19", "6357b4132adad6dd"),
    "circle:33": (
        "3a74c4c328851450", "c65208e4fd8e7875", "cd7d9ee9ab0d6cd3", "d89042a2ee2f8f78",
        "04626b88e0f9aeae", "979134ffbd060132", "c4b7660b58c330f1"),
    "torus2d:2x2": (
        "9aa2431b3a7cfd21", "446d58a1cbed5fce", "5073e61eafb5e090", "9db050ce95549fb7",
        "345512db6b681d48", "413706678dea445f", "1bb9de78cc90ad59"),
    "torus2d:7x13": (
        "41203594b3565148", "90f2f489b4eb0ac7", "c16f69c8d1205a37", "c3916b2af065d1f3",
        "f712cca0dbf005a4", "d705868fd829a55d", "7b9b14bcea9cb196"),
    "gauge_grid:6:square": (
        "d0bcf86fd0117244", "941602aca352e2c5", "1211923806491eff", "b303d581b32a7b52",
        "915265bf2a9e3b42", "cd68e1ff4731a413", "797f65874a527b4b"),
    "gauge_grid:5:ellipse:1:2": (
        "4ba62882ad9cc04c", "2419a57c5154ddef", "bd69aa702fa15508", "64d7527b2052b911",
        "13d2be5a22f9a34e", "feab6e1e9c1c7cf1", "3c62b03ea73c552b"),
    f"gauge_grid:7:{HEXAGON}": (
        "7ffc90d621736111", "390dbed400ef982a", "64bbd97ff27ef4a6", "0c3cec432e9be44b",
        "63dae81cbf8a4292", "698aa8bc00c1c927", "9b409ce20426d550"),
}


class TestLatticeGenerator:
    """The four lattice generators write the same documents and arrays, byte for byte, as the
    pins recorded before they shared one builder, so old space files still load."""

    @pytest.mark.parametrize("text", list(SPACE_DIGESTS))
    def test_bitwise_pins(self, text):
        sp = build_space(SpaceSpec.parse(text))
        got = (json.dumps(nsl.space._document(sp), sort_keys=True).encode(), sp.name.encode(),
               *(arr.tobytes() for arr in (sp.weights, sp.coords, sp.edges, sp._table, sp.dist)))
        assert tuple(hashlib.sha256(b).hexdigest()[:16] for b in got) == SPACE_DIGESTS[text]

    @pytest.mark.parametrize("text", ["interval:5", "interval:64:0.5", "circle:33", "torus2d:7x13",
                                      "gauge_grid:6:square", f"gauge_grid:7:{HEXAGON}"])
    def test_shape_is_the_grid_shape(self, text):
        spec = SpaceSpec.parse(text)
        assert spec.shape == tuple(build_space(spec).grid["shape"])

    def test_no_shape_off_the_lattices(self):
        assert SpaceSpec("sierpinski", level=3).shape is None
        assert SpaceSpec("graph", edges=((0, 1, 1.0),)).shape is None

class TestSpecParse:
    @pytest.mark.parametrize(
        "text, spec",
        [
            ("interval:16", SpaceSpec("interval", n=16)),
            ("interval:16:0.5", SpaceSpec("interval", n=16, alpha=0.5)),
            ("circle:33", SpaceSpec("circle", n=33)),
            (" torus2d:4X6 ", SpaceSpec("torus2d", nx=4, ny=6)),
            ("sierpinski:2", SpaceSpec("sierpinski", level=2)),
            ("gauge_grid:4:ellipse:1:2", SpaceSpec("gauge_grid", n=4, body=parse_body("ellipse:1:2"))),
            ("gauge_grid:3:square", SpaceSpec("gauge_grid", n=3, body=parse_body("square"))),
        ],
    )
    def test_generators(self, text, spec):
        assert SpaceSpec.parse(text) == spec

    def test_graph_edge_file(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("# i,j,length\n0,1,0.5\n\n 1,2,1.5 \n")
        spec = SpaceSpec.parse(f"graph:{path}")
        assert spec == SpaceSpec("graph", edges=((0, 1, 0.5), (1, 2, 1.5)))
        assert build_space(spec).n == 3

    @pytest.mark.parametrize(
        "text",
        ["", "sphere:9", "circle", "circle:nan", "interval:8:x", "torus2d:4", "torus2d:4x",
         "torus2d:axb", "sierpinski:", "gauge_grid:4", "gauge_grid:4:blob", "graph",
         "circle:64:junk", "torus2d:4x4:9", "sierpinski:2:x", "interval:8:0.5:7",
         "gauge_grid:4:square:9", "gauge_grid:4:ball:2:3"],
    )
    def test_malformed_raises_space_error(self, text):
        with pytest.raises(SpaceError):
            SpaceSpec.parse(text)

    @pytest.mark.parametrize("rows", [None, "0,1\n", "0,1,1.0,2\n", "0,a,1.0\n", "0,1,x\n"])
    def test_bad_graph_file_raises_space_error(self, tmp_path, rows):
        path = tmp_path / "g.csv"
        if rows is not None:
            path.write_text(rows)
        with pytest.raises(SpaceError, match="bad space spec"):
            SpaceSpec.parse(f"graph:{path}")


class TestBallMeasure:
    def test_circle4_ball(self):
        sp = build_space(SpaceSpec("circle", n=4))
        assert sp.ball_masses(math.pi / 2)[0] == pytest.approx(3 * math.pi / 2)

    def test_zero_radius_is_own_weight(self, two_point):
        assert two_point.ball_masses(0.0)[0] == 0.5

    def test_full_radius_is_total_mass(self, circle64):
        assert circle64.ball_masses(circle64.diameter)[3] == pytest.approx(
            circle64.total_mass
        )

    def test_negative_radius(self, two_point):
        with pytest.raises(SpaceError):
            two_point.ball_masses(-0.1)

    @pytest.mark.parametrize("r", [math.nan, -0.1])
    def test_nan_or_negative_radius_rejected_everywhere(self, r):
        sp = build_space(SpaceSpec("circle", n=16))
        u = ScalarField(np.sin(sp.coords[:, 0]))
        with pytest.raises(SpaceError, match="radius"):
            sp.ball_masses(r)
        with pytest.raises(ValueError, match="scale t"):
            mollify(sp, u, r)
        with pytest.raises(ValueError, match="radius"):
            check_mean_comparison(sp, u, 2.0, [r])

    def test_ball_index_prefix_sums(self, interval128):
        """Equal weights share one read-only prefix row, which rises to the total mass;
        unequal ones have none, and their ball masses, the weights within r summed, never
        fall as r grows through the realized distances, and reach the total mass."""
        prefix = nsl.space._equal_prefix(interval128.weights)
        assert prefix.shape == (interval128.n,) and not prefix.flags.writeable
        assert np.all(np.diff(prefix) > 0) and prefix[-1] == pytest.approx(interval128.total_mass)
        weighted = build_space(SpaceSpec.parse("interval:128:0.5"))
        assert nsl.space._equal_prefix(weighted.weights) is None
        masses = np.stack([weighted.ball_masses(r) for r in np.unique(weighted.dist)])
        assert np.all(np.diff(masses, axis=0) >= 0) and np.all(np.diff(masses.sum(axis=1)) > 0)
        assert masses[0].tobytes() == weighted.weights.tobytes()
        assert masses[-1] == pytest.approx(weighted.total_mass)

    @pytest.mark.parametrize("name", ["circle:2", "circle:33", "circle:64", "torus2d:3x5",
                                      "torus2d:8x8", "torus2d:12x7"])
    def test_one_sorted_row_matches_full_index(self, name):
        """Circle and torus count row 0 only; every ball query equals that of a matrix space
        that counts every row, and the one gathered rho1 row is the copy's row 0."""
        sp = build_space(SpaceSpec.parse(name))
        copy = MetricMeasureSpace(sp.dist, sp.weights)  # a matrix space counts every row
        assert (sp._index_rows(), copy._index_rows()) == (1, sp.n)
        realized = np.unique(sp.dist)
        for r in np.concatenate([realized, realized / 2]):
            assert sp.ball_masses(r).tobytes() == copy.ball_masses(r).tobytes(), r
        radii = np.random.default_rng(sp.n).uniform(0.0, sp.diameter, (sp.n, sp.n))
        radii[:, :4] = sp.dist[:, :4]  # realized radii, where the index ties
        assert np.array_equal(ball_mass_rows(sp, radii), ball_mass_rows(copy, radii))
        assert doubling_constant(sp) == doubling_constant(copy)
        rho1 = KernelSpec("rho1")
        table, full = _kernel_table(sp, rho1), kernel_matrix(copy, rho1)
        mine = _lattice_rows(table, 0, 1)
        assert mine.shape == (1, sp.n) and full.shape == (sp.n, sp.n)
        assert mine.tobytes() == full[:1].tobytes()
        assert not table.flags.writeable and not full.flags.writeable
        assert np.array_equal(kernel_matrix(sp, KernelSpec("rho1")),
                              kernel_matrix(copy, KernelSpec("rho1")), equal_nan=True)

    @pytest.mark.parametrize("name, c_d_hat, witness", [
        ("torus2d:64x64", 9.0, (0, 0.011048543456039806)),
        ("circle:2048", 3.0, (0, 0.0015339807878856412)),
    ])
    def test_doubling_report_pinned(self, name, c_d_hat, witness):
        """The report of a scan over all n rows: ties keep point 0, the first witness."""
        report = doubling_constant(build_space(SpaceSpec.parse(name)))
        assert (report.c_d_hat, report.witness) == (c_d_hat, witness)

    @pytest.mark.parametrize("name", ["interval:2", "interval:65", "interval:300", "interval:4096",
                                      "interval:300:0.5"])
    def test_interval_masses_are_the_row_counts(self, name):
        """With equal weights the closed-form count of the points within k index steps is
        bitwise the prefix row at each row's count of distances within r; interval:N:0.5
        keeps the weights within r summed by rows. At realized distances, between them and
        beyond the diameter."""
        sp = build_space(SpaceSpec.parse(name))
        row0, prefix = sp.dist_rows(0, 1)[0], nsl.space._equal_prefix(sp.weights)
        ks = np.unique(np.clip([0, 1, 2, 3, sp.n // 7, sp.n // 2, sp.n - 2], 0, sp.n - 2))
        for r in np.concatenate([row0[ks], 0.5 * (row0[ks] + row0[ks + 1]), [sp.diameter, 2.0]]):
            rows = [sp.dist_rows(a, b) <= r for a, b in nsl.space.row_blocks(sp.n)]
            want = (np.concatenate([inside @ sp.weights for inside in rows]) if prefix is None
                    else prefix[np.concatenate([np.count_nonzero(i, axis=1) for i in rows]) - 1])
            assert sp.ball_masses(r).tobytes() == want.tobytes(), r
        assert sp._dist is None

    def test_ball_masses_allocate_no_square_array(self):
        """On the torus one distance row, counted into the prefix row, gives every mass: no
        n x n comparison is made and no distance matrix is built."""
        sp = build_space(SpaceSpec.parse("torus2d:64x64"))
        masses, peak = traced_peak(lambda: sp.ball_masses(0.1))
        assert peak < sp.n**2 / 8 and sp._dist is None
        assert np.all(masses == masses[0]) and masses.shape == (sp.n,)

    def test_step_function_of_radius(self, interval128):
        """Nondecreasing, piecewise constant, jumps exactly at realized distances."""
        x = 17
        realized = np.unique(interval128.dist[x])
        radii = np.sort(np.concatenate([realized, realized[1:] * 0.99, realized + 1e-9]))
        masses = [interval128.ball_masses(r)[x] for r in radii]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        # value just below a realized distance excludes it, at it includes it
        d = realized[3]
        below = interval128.ball_masses(d * (1 - 1e-12))[x]
        at = interval128.ball_masses(d)[x]
        assert at > below

    @pytest.mark.parametrize("name", ["interval:512", "interval:512:0.5"])
    def test_cache_holds_one_radius(self, name):
        """300 radii leave the cache holding what one radius did, and a repeated radius hands
        back the same read-only array, bitwise what a fresh space computes."""
        def held(obj) -> int:  # bytes of the arrays in the cache
            if isinstance(obj, dict):
                obj = list(obj.values())
            if isinstance(obj, (list, tuple)):
                return sum(held(v) for v in obj)
            return obj.nbytes if isinstance(obj, np.ndarray) else 0

        sp = build_space(SpaceSpec.parse(name))
        first = sp.ball_masses(0.25)
        one = held(sp._cache)
        for r in np.linspace(0.001, 0.5, 300):
            sp.ball_masses(r)
        assert held(sp._cache) == one
        again = sp.ball_masses(0.125)
        assert sp.ball_masses(0.125) is again and not again.flags.writeable
        fresh = build_space(SpaceSpec.parse(name))
        assert again.tobytes() == fresh.ball_masses(0.125).tobytes()
        assert first.tobytes() == fresh.ball_masses(0.25).tobytes()


class TestDoubling:
    def test_circle8_value_and_witness(self):
        rep = doubling_constant(build_space(SpaceSpec("circle", n=8)))
        assert rep.c_d_hat == pytest.approx(3.0)
        x, r = rep.witness
        sp = build_space(SpaceSpec("circle", n=8))
        assert sp.ball_masses(2 * r)[x] / sp.ball_masses(r)[x] == pytest.approx(3.0)

    def test_single_pair_brute_force(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        sp = MetricMeasureSpace(dist, np.array([1.0, 3.0]))
        rep = doubling_constant(sp)
        # enumerate the four realized ratios by hand
        ratios = []
        for x, w_own, w_other in ((0, 1.0, 3.0), (1, 3.0, 1.0)):
            for r in (2.0, 1.0):
                num = w_own + (w_other if 2 * r >= 2.0 else 0.0)
                den = w_own + (w_other if r >= 2.0 else 0.0)
                ratios.append(num / den)
        assert rep.c_d_hat == pytest.approx(max(ratios))

    def test_weight_dominated_graph_flagged(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        sp = MetricMeasureSpace(dist, np.array([1e-4, 10.0]))
        rep = doubling_constant(sp)
        assert rep.c_d_hat > 64.0
        assert rep.non_doubling_like

    def test_invariant_under_rescaling(self, circle64):
        rep = doubling_constant(circle64)
        scaled = MetricMeasureSpace(3.0 * circle64.dist, 7.0 * circle64.weights)
        assert doubling_constant(scaled).c_d_hat == pytest.approx(rep.c_d_hat, rel=1e-14)

    @pytest.mark.parametrize("name, c_d_hat, witness", [
        ("interval:4096", "0x1.8000000000000p+1", (1, 0.0001220703125)),
        ("interval:2048:0.5", "0x1.7fffff7fcff1ep+1", (2046, 0.000244140625)),
        ("gauge_grid:64:square", "0x1.2000000000000p+3", (65, 0.0078125)),
        ("sierpinski:7", "0x1.4000000000000p+2", (1, 0.00390625)),
        ("sierpinski:5+w", "0x1.770c77d08110ap+3", (92, 0.015625)),
    ])
    def test_scan_is_pinned(self, name, c_d_hat, witness):
        """c_d_hat and witness as the per-row sort scan gave them: bitwise with equal weights,
        to 1e-14 relative with unequal ones ("+w": a matrix copy with random weights), whose
        level sums add the weights in another order."""
        sp = build_space(SpaceSpec.parse(name.removesuffix("+w")))
        if name.endswith("+w"):
            sp = MetricMeasureSpace(sp.dist, np.random.default_rng(0).uniform(0.5, 1.5, sp.n))
        report = doubling_constant(sp)
        assert report.witness == witness
        if np.all(sp.weights == sp.weights[0]):
            assert report.c_d_hat.hex() == c_d_hat
        else:
            assert report.c_d_hat == pytest.approx(float.fromhex(c_d_hat), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", ["torus2d:7x13", "gauge_grid:16:square"])
    def test_lattice_levels_hold_with_a_flat_unique_inverse(self, name, monkeypatch):
        """NumPy 1.x returns np.unique's inverse flat, whatever the shape of its input: the
        codes of a 2-D lattice table, and so rho1 and the doubling scan, must not depend on it."""
        expected = build_space(SpaceSpec.parse(name))
        report, masses = doubling_constant(expected), kernel_matrix(expected, KernelSpec("rho1"))
        real = np.unique

        def unique(ar, *args, **kwargs):
            out = real(ar, *args, **kwargs)
            return (out[0], out[1].ravel()) if kwargs.get("return_inverse") else out

        monkeypatch.setattr(np, "unique", unique)
        sp = build_space(SpaceSpec.parse(name))
        assert doubling_constant(sp) == report
        np.testing.assert_array_equal(kernel_matrix(sp, KernelSpec("rho1")), masses)

    def test_unequal_weights_scan_holds_no_square_array(self):
        """With unequal weights the scan sums the weights per distance level a row block at a
        time, one family of ratios after the other: no n prefix rows, no distance matrix, and a
        peak under one n x n float array."""
        sp = build_space(SpaceSpec.parse("interval:1024:0.5"))
        _, peak = traced_peak(lambda: doubling_constant(sp))
        assert peak < 8 * sp.n**2 and sp._dist is None

    def test_exhaustive_oracle_small(self):
        """Sup over a dense radius sample never exceeds the reported sup."""
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 1, 9))
        dist = np.abs(x[:, None] - x[None, :])
        sp = MetricMeasureSpace(dist, rng.uniform(0.5, 2.0, 9))
        rep = doubling_constant(sp)
        dense = np.linspace(1e-6, 1.5, 4001)
        worst = max(float(np.max(sp.ball_masses(2 * r) / sp.ball_masses(r))) for r in dense)
        assert worst <= rep.c_d_hat + 1e-12
        assert rep.c_d_hat <= worst + 1e-9 or rep.c_d_hat == pytest.approx(worst, rel=1e-9)


# Schema faults in a torus2d:4x4 file as earlier releases wrote it, every array included
# (write_old_file); each mutates the document in place.
MALFORMED = {
    "no dim": lambda doc: doc.pop("dim"),
    "negative dim": lambda doc: doc.update(dim=-1),
    "no nx": lambda doc: doc["metric"]["params"].pop("nx"),
    "metric is a string": lambda doc: doc.update(metric="torus"),
    "metric without type": lambda doc: doc["metric"].pop("type"),
    "type not the generator's": lambda doc: doc["metric"].update(type="circle"),
    "unknown generator": lambda doc: doc["metric"]["params"].update(generator="sphere"),
    "short coords": lambda doc: doc.update(coords=doc["coords"][:-3]),
    "non-numeric weights": lambda doc: doc.update(weights=["heavy"] * 16),
    "weights not a list": lambda doc: doc.update(weights=0.5),
    "n not a number": lambda doc: doc.update(n="sixteen"),
    "n disagrees with params": lambda doc: doc.update(n=8, weights=doc["weights"][:8]),
    "edge id out of range": lambda doc: doc.update(edges=[[0, 99]]),
    "negative edge id": lambda doc: doc.update(edges=[[-1, 3]]),
    "edges not pairs": lambda doc: doc.update(edges=[0, 1, 2]),
    "grid not an object": lambda doc: doc.update(grid="torus2d"),
    "empty object": lambda doc: doc.clear(),
    # a closed-form file must match its generator's space in every field
    "doubled weights": lambda doc: doc.update(weights=[2.0 * w for w in doc["weights"]]),
    "shifted coords": lambda doc: doc.update(coords=[c + 0.01 for c in doc["coords"]]),
    "edges not the generator's": lambda doc: doc.update(edges=[[0, 5]]),
    "interval grid": lambda doc: doc.update(grid={"kind": "interval", "shape": [16]}),
    "grid without shape": lambda doc: doc["grid"].pop("shape"),
    "no coords": lambda doc: [doc.pop(key) for key in ("coords", "dim")],
}


# Faults in a compact torus2d:4x4 file, as save_space writes it (name, n, metric, grid); each
# mutates the document in place. Array keys that are the generator's own still make a partial
# file, checked in every field.
MALFORMED_COMPACT = {
    "n disagrees with params": lambda doc: doc.update(n=8),
    "n not a number": lambda doc: doc.update(n="sixteen"),
    "no n": lambda doc: doc.pop("n"),
    "no grid": lambda doc: doc.pop("grid"),
    "interval grid": lambda doc: doc.update(grid={"kind": "interval", "shape": [16]}),
    "grid shape transposed": lambda doc: doc["grid"].update(shape=[4, 2]),
    "no nx": lambda doc: doc["metric"]["params"].pop("nx"),
    "extra param": lambda doc: doc["metric"]["params"].update(level=3),
    "weights only": lambda doc: doc.update(weights=[1.0 / 16] * 16),
    "dim only": lambda doc: doc.update(dim=2),
    "edges only": lambda doc: doc.update(edges=[]),
    "all but edges": lambda doc: doc.update(
        {key: val for key, val in nsl.space._document(build_space(SpaceSpec.parse(
            "torus2d:4x4"))).items() if key in ("weights", "coords", "dim")}),
}


# Grids a matrix file (sierpinski:2's distances, 15 points with coords) may
# not carry; each mutates the document in place.
MALFORMED_GRIDS = {
    "no shape": lambda doc: doc.update(grid={"kind": "torus2d"}),
    "unknown kind": lambda doc: doc.update(grid={"kind": "hex", "shape": [15]}),
    "kind not a string": lambda doc: doc.update(grid={"kind": ["circle"], "shape": [15]}),
    "product not n": lambda doc: doc.update(grid={"kind": "torus2d", "shape": [4, 4]}),
    "negative axes": lambda doc: doc.update(grid={"kind": "torus2d", "shape": [-3, -5]}),
    "float axis": lambda doc: doc.update(grid={"kind": "grid2d", "shape": [3.0, 5]}),
    "bool axis": lambda doc: doc.update(grid={"kind": "grid2d", "shape": [True, 15]}),
    "shape not a list": lambda doc: doc.update(grid={"kind": "circle", "shape": 15}),
    "two axes on a circle": lambda doc: doc.update(grid={"kind": "circle", "shape": [3, 5]}),
    "one axis on a torus": lambda doc: doc.update(grid={"kind": "torus2d", "shape": [15]}),
    "interval without coords": lambda doc: [doc.pop("coords"), doc.pop("dim"),
                                            doc.update(grid={"kind": "interval", "shape": [15]})],
}


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, circle64):
        path = tmp_path / "c.space"
        save_space(circle64, path)
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, circle64.dist)
        assert np.array_equal(loaded.weights, circle64.weights)
        assert loaded.name == circle64.name

    def test_round_trip_matrix_space(self, tmp_path):
        sp = matrix_file_space("sierpinski:2")
        path = tmp_path / "s.space"
        save_space(sp, path)
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, sp.dist)
        assert np.array_equal(loaded.weights, sp.weights)

    @pytest.mark.parametrize(
        "spec",
        [
            SpaceSpec("interval", n=32, alpha=0.5),
            SpaceSpec("torus2d", nx=5, ny=7),
            SpaceSpec("circle", n=33),
        ],
    )
    def test_round_trip_closed_form_metrics(self, tmp_path, spec):
        sp = build_space(spec)
        path = tmp_path / "sp.space"
        save_space(sp, path)
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, sp.dist)
        assert np.array_equal(loaded.weights, sp.weights)

    def test_round_trip_gauge_metric(self, tmp_path):
        from nsl import parse_body

        sp = build_space(SpaceSpec("gauge_grid", n=4, body=parse_body("square")))
        path = tmp_path / "g.space"
        save_space(sp, path)
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, sp.dist)

    def test_sierpinski_file_is_its_generator_tag(self, tmp_path):
        sp = build_space(SpaceSpec("sierpinski", level=3))
        path = tmp_path / "s.space"
        write_old_file(sp, path)
        doc = json.loads(path.read_text())
        assert doc["metric"] == {"type": "geodesic", "params": {"generator": "sierpinski", "level": 3}}
        assert "matrix" not in doc
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, sp.dist)
        assert np.array_equal(loaded.coords, sp.coords)
        assert np.array_equal(loaded.edges, sp.edges)
        doc["coords"][4] += 1e-9
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="sierpinski generator in coords$"):
            load_space(path)

    def test_old_sierpinski_matrix_file_loads_verbatim(self, tmp_path):
        """Sierpinski files were once typed matrix: they keep their distances and are
        neither a lattice nor refinable."""
        sp = build_space(SpaceSpec("sierpinski", level=2))
        path = tmp_path / "s.space"
        save_space(matrix_file_space("sierpinski:2"), path)
        doc = json.loads(path.read_text())
        doc["metric"] = {"type": "matrix", "params": {"generator": "sierpinski", "level": 2}}
        path.write_text(json.dumps(doc))
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, sp.dist)
        assert SpaceSpec.from_metric(loaded.metric) is None and loaded.index_lattice() is None

    def test_matrix_tag_names_no_generator(self):
        params = {"generator": "interval", "n": 32, "alpha": 0.0}
        assert SpaceSpec.from_metric({"type": "matrix", "params": params}) is None
        assert SpaceSpec.from_metric({"type": "euclidean", "params": params}) == SpaceSpec(
            "interval", n=32)

    @pytest.mark.parametrize("dim", [1.5, True, "1", 0], ids=["float", "bool", "string", "zero"])
    def test_matrix_file_rejects_non_integer_dim(self, tmp_path, dim):
        """A one-axis matrix file once truncated dim 1.5 or true to 1 and loaded."""
        path = tmp_path / "i.space"
        save_space(matrix_file_space("interval:8"), path)
        doc = json.loads(path.read_text())
        doc["dim"] = dim
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="coordinate dimension must be an int >= 1"):
            load_space(path)

    def test_negative_weight_names_point(self, tmp_path):
        doc = {
            "name": "bad",
            "n": 2,
            "metric": {"type": "matrix", "params": {}},
            "weights": [1.0, -2.0],
            "matrix": [1.0],
        }
        path = tmp_path / "bad.space"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="point 1"):
            load_space(path)

    def test_asymmetric_matrix_names_pair(self, tmp_path):
        doc = {
            "name": "bad",
            "n": 2,
            "metric": {"type": "matrix", "params": {}},
            "weights": [1.0, 1.0],
            "matrix": [0.0, 1.0, 2.0, 0.0],  # full matrix, d(0,1) != d(1,0)
        }
        path = tmp_path / "bad.space"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match=r"d\(0,1\)"):
            load_space(path)

    def test_triangle_violation_names_triple(self, tmp_path):
        doc = {
            "name": "bad",
            "n": 3,
            "metric": {"type": "matrix", "params": {}},
            "weights": [1.0, 1.0, 1.0],
            "matrix": [1.0, 9.0, 1.0],  # d(0,2) = 9 > 1 + 1
        }
        path = tmp_path / "bad.space"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="triangle"):
            load_space(path)

    def test_zero_off_diagonal_distance_names_pair(self, tmp_path):
        doc = {
            "name": "bad",
            "n": 3,
            "metric": {"type": "matrix", "params": {}},
            "weights": [1.0, 1.0, 1.0],
            "matrix": [1.0, 1.0, 0.0],  # d(1,2) = 0
        }
        path = tmp_path / "bad.space"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match=r"\(1,2\)"):
            load_space(path)

    def test_nan_distance_names_pair(self, tmp_path):
        doc = {
            "name": "bad",
            "n": 3,
            "metric": {"type": "matrix", "params": {}},
            "weights": [1.0, 1.0, 1.0],
            "matrix": [1.0, float("nan"), 1.0],  # d(0,2) = NaN
        }
        path = tmp_path / "bad.space"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match=r"\(0,2\)"):
            load_space(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.space"
        path.write_text("{not json")
        with pytest.raises(SpaceError, match="malformed"):
            load_space(path)

    @pytest.mark.parametrize("fault", sorted(MALFORMED))
    def test_malformed_doc_raises_space_error(self, tmp_path, fault):
        path = tmp_path / "t.space"
        write_old_file(build_space(SpaceSpec("torus2d", nx=4, ny=4)), path)
        doc = json.loads(path.read_text())
        MALFORMED[fault](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError):
            load_space(path)

    @pytest.mark.parametrize("fault", sorted(MALFORMED_COMPACT))
    def test_malformed_compact_doc_raises_space_error(self, tmp_path, fault):
        path = tmp_path / "t.space"
        save_space(build_space(SpaceSpec("torus2d", nx=4, ny=4)), path)
        doc = json.loads(path.read_text())
        MALFORMED_COMPACT[fault](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError):
            load_space(path)

    def test_compact_file_names_differing_keys(self, tmp_path):
        """A compact file holding some of the arrays is checked, and named, in all of them."""
        path = tmp_path / "t.space"
        save_space(build_space(SpaceSpec("torus2d", nx=4, ny=4)), path)
        doc = json.loads(path.read_text())
        doc.update(weights=[1.0 / 16] * 16, n=8)
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="torus2d generator in n, coords, dim, edges$"):
            load_space(path)

    def test_compact_file_with_infinite_exponent(self, tmp_path):
        """A compact file carries no weights, so validate() alone rejects alpha = Infinity."""
        path = tmp_path / "i.space"
        save_space(build_space(SpaceSpec("interval", n=8, alpha=0.5)), path)
        text = path.read_text()
        assert '"alpha": 0.5' in text
        path.write_text(text.replace('"alpha": 0.5', '"alpha": Infinity'))
        with pytest.raises(SpaceError, match="exponent must be finite and > -1, got inf"):
            load_space(path)

    @pytest.mark.parametrize("text", ["torus2d:64x64", "sierpinski:6", "gauge_grid:32:square",
                                      "circle:2048", "interval:2048"])
    def test_closed_form_file_is_compact(self, tmp_path, text):
        """A closed-form file holds the display name, n, metric tag and grid (under 1 kB; the
        torus once wrote 266 kB of arrays), and loads bitwise to the generator's space."""
        sp = build_space(SpaceSpec.parse(text))
        sp.name = "renamed"
        path = tmp_path / "sp.space"
        save_space(sp, path)
        assert path.stat().st_size < 1000
        assert not set(json.loads(path.read_text())) & set(nsl.space.ARRAY_KEYS)
        loaded = load_space(path)
        for attr in ("dist", "weights", "coords", "edges"):
            got, want = getattr(loaded, attr), getattr(sp, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
        assert loaded.grid == sp.grid and loaded.name == "renamed"

    @pytest.mark.parametrize("text", ["interval:64:0.5", "circle:33", "torus2d:7x13",
                                      f"gauge_grid:7:{HEXAGON}", "sierpinski:3"])
    def test_old_file_loads_as_its_compact_file(self, tmp_path, text):
        """A file written whole, as before closed-form files were compact, loads bitwise to
        the same space as its compact file."""
        sp = build_space(SpaceSpec.parse(text))
        write_old_file(sp, tmp_path / "old.space")
        save_space(sp, tmp_path / "new.space")
        old, new = load_space(tmp_path / "old.space"), load_space(tmp_path / "new.space")
        for attr in ("dist", "weights", "coords", "edges"):
            assert getattr(old, attr).tobytes() == getattr(new, attr).tobytes(), attr
        assert (old.name, old.n, old.metric, old.grid) == (new.name, new.n, new.metric, new.grid)

    def test_matrix_file_is_written_whole(self, tmp_path):
        """A matrix file (a graph, or hand-made) keeps its arrays and distances."""
        sp = matrix_file_space("sierpinski:2")
        path = tmp_path / "s.space"
        save_space(sp, path)
        assert path.read_text() == json.dumps(nsl.space._document(sp)) + "\n"
        assert {"weights", "coords", "dim", "edges", "matrix"} <= set(json.loads(path.read_text()))

    @pytest.mark.parametrize("fault", sorted(MALFORMED_GRIDS))
    def test_matrix_file_bad_grid_raises_space_error(self, tmp_path, fault):
        path = tmp_path / "s.space"
        save_space(matrix_file_space("sierpinski:2"), path)
        doc = json.loads(path.read_text())
        MALFORMED_GRIDS[fault](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="grid"):
            load_space(path)

    @pytest.mark.parametrize("grid", [{"kind": "grid2d", "shape": [3, 5]},
                                      {"kind": "circle", "shape": [15]},
                                      {"kind": "interval", "shape": [15]}])
    def test_matrix_file_keeps_valid_grid(self, tmp_path, grid):
        path = tmp_path / "s.space"
        save_space(matrix_file_space("sierpinski:2"), path)
        doc = json.loads(path.read_text())
        doc["grid"] = grid
        path.write_text(json.dumps(doc))
        assert load_space(path).grid == grid

    def test_closed_form_file_names_differing_keys(self, tmp_path):
        path = tmp_path / "t.space"
        write_old_file(build_space(SpaceSpec("torus2d", nx=4, ny=4)), path)
        doc = json.loads(path.read_text())
        doc["weights"][3] *= 2.0
        del doc["grid"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError, match="torus2d generator in weights, grid$"):
            load_space(path)

    def test_closed_form_file_keeps_display_name(self, tmp_path):
        path = tmp_path / "c.space"
        save_space(build_space(SpaceSpec("circle", n=8)), path)
        doc = json.loads(path.read_text())
        doc["name"] = "my circle"
        path.write_text(json.dumps(doc))
        loaded = load_space(path)
        assert loaded.name == "my circle"
        assert np.array_equal(loaded.dist, build_space(SpaceSpec("circle", n=8)).dist)

    def test_loaded_space_keeps_structure(self, tmp_path, circle64):
        from nsl import ScalarField, cheeger_surrogate

        path = tmp_path / "c.space"
        save_space(circle64, path)
        loaded = load_space(path)
        assert loaded.grid == circle64.grid
        assert np.array_equal(loaded.edges, circle64.edges)
        u = ScalarField(np.sin(loaded.coords[:, 0]))
        energy, _ = cheeger_surrogate(loaded, u, 2, scheme="centered")
        assert energy == pytest.approx(math.pi, rel=0.01)


class TestInvariants:
    def test_distances_immutable(self, circle64):
        with pytest.raises(ValueError):
            circle64.dist[0, 1] = 99.0

    def test_ball_masses_immutable(self, circle64):
        masses = circle64.ball_masses(0.5)
        with pytest.raises(ValueError):
            masses[0] = 99.0
        want = ball_mass_rows(circle64, np.full((64, 1), 0.5))[:, 0]
        assert circle64.ball_masses(0.5).tobytes() == want.tobytes()

    def test_zero_diagonal_enforced(self):
        dist = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(SpaceError, match="diagonal"):
            MetricMeasureSpace(dist, np.array([1.0, 1.0]))

    def test_positive_weights_enforced(self):
        dist = np.zeros((2, 2))
        with pytest.raises(SpaceError, match="weight"):
            MetricMeasureSpace(dist, np.array([1.0, 0.0]))

    def test_infinite_weight_names_its_point(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SpaceError, match="weight at point 1: inf"):
            MetricMeasureSpace(dist, np.array([1.0, np.inf]))

    def test_overflowing_total_mass_rejected(self):
        """Finite weights whose sum overflows once gave c_d_hat 1.0 here, as every ratio of
        overflowed masses was NaN and skipped; the true value is 2."""
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(SpaceError, match="weights sum to inf"):
                MetricMeasureSpace(dist, np.array([1e308, 1e308]))
        assert doubling_constant(MetricMeasureSpace(dist, np.array([1e307, 1e307]))).c_d_hat == 2.0

    def test_file_with_overflowing_total_mass_rejected(self, tmp_path):
        path = tmp_path / "big.space"
        path.write_text(json.dumps({"name": "big", "n": 3, "metric": {"type": "matrix"},
                                    "weights": [1e308] * 3, "matrix": [1.0, 1.0, 1.0]}))
        with pytest.raises(SpaceError, match="weights sum to inf"):
            load_space(path)

    # Inputs a matrix file could not carry; the constructor once accepted each of them.
    @pytest.mark.parametrize("make, match", [
        (lambda: MetricMeasureSpace(np.array([[0, 1, -2], [1, 0, 1], [3, 1, 0]]), np.ones(3) / 3),
         r"off-diagonal distance: d\(0,2\)"),
        (lambda: MetricMeasureSpace(np.array([[0.0, np.nan], [np.nan, 0.0]]), np.ones(2)),
         r"off-diagonal distance: d\(0,1\)"),
        (lambda: MetricMeasureSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2),
                                    grid={"kind": "torus2d"}), "grid"),
        (lambda: MetricMeasureSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2),
                                    grid={"kind": "interval", "shape": [2]}), "with coords"),
        (lambda: MetricMeasureSpace(np.abs(np.arange(3.0)[:, None] - np.arange(3.0)), np.ones(3),
                                    coords=np.zeros((5, 1))), "for 3 points"),
    ], ids=["negative", "nan", "grid without shape", "interval grid without coords",
            "five coordinate rows"])
    def test_constructor_checks_what_a_file_must_pass(self, make, match):
        with pytest.raises(SpaceError, match=match):
            make()

    def test_graph_distances_symmetric_to_the_bit(self, tmp_path):
        """Dijkstra sums a path in opposite orders for d(i, j) and d(j, i); a graph's file
        stores the upper triangle, so the built space must mirror it to load as itself."""
        path = tmp_path / "g.space"
        for seed in range(20):
            rng = np.random.default_rng(seed)
            edges = {(i, i + 1) for i in range(59)}  # connected
            edges |= {tuple(sorted(rng.choice(60, 2, replace=False))) for _ in range(120)}
            spec = SpaceSpec("graph", edges=tuple(
                (int(i), int(j), float(rng.uniform(0.1, 3.0))) for i, j in sorted(edges)))
            sp = build_space(spec)
            save_space(sp, path)
            assert sp.dist.tobytes() == sp.dist.T.tobytes(), seed
            assert load_space(path).dist.tobytes() == sp.dist.tobytes(), seed

    def test_distances_with_a_generator_tag_rejected(self):
        """Lattice routes trust a closed-form tag over the distances: a relabelled circle:16
        built with the circle's tag gave a Gagliardo energy of 18.416, not its own 5.920."""
        sp = build_space(SpaceSpec("circle", n=16))
        perm = np.random.default_rng(0).permutation(16)
        dist, weights, coords = sp.dist[np.ix_(perm, perm)], sp.weights[perm], sp.coords[perm]
        with pytest.raises(SpaceError, match="matrix metric"):
            MetricMeasureSpace(dist, weights, coords=coords, metric=sp.metric)
        relabelled = MetricMeasureSpace(dist, weights, coords=coords,
                                        metric={"type": "matrix", "params": sp.metric["params"]})
        spec = EnergySpec(p=2.0, s=0.5)
        value = gagliardo_p(relabelled, ScalarField(np.sin(coords[:, 0])), spec)
        assert value == pytest.approx(gagliardo_p(sp, ScalarField(np.sin(sp.coords[:, 0])), spec),
                                      rel=1e-12)
        assert value == pytest.approx(5.920, abs=1e-3)


def eager_dist(name: str) -> np.ndarray:
    """The distance matrix of a generator spec, built eagerly: by its pairwise oracle on a
    lattice, and for a gasket as the eager graph space of its edges at length 2^-level."""
    spec = SpaceSpec.parse(name)
    if spec.generator == "sierpinski":
        sp = build_space(spec)
        edges = tuple((int(i), int(j), 2.0**-spec.level) for i, j in sp.edges)
        return build_space(SpaceSpec("graph", edges=edges)).dist
    return {"interval": lambda: brute_interval_dist(spec.n),
            "circle": lambda: brute_circle_dist(spec.n),
            "torus2d": lambda: brute_torus_dist(spec.nx, spec.ny),
            "gauge_grid": lambda: brute_gauge_grid_dist(spec.n, spec.body)}[spec.generator]()


class TestGasketRecursion:
    """The gasket's distances come from the three-copy recursion, not a graph search."""

    @pytest.mark.parametrize("level", range(8))
    def test_recursion_is_the_graph_search(self, level):
        """Bitwise the shortest paths over the gasket's own edge list, unit edges 2^-level."""
        sp = build_space(SpaceSpec("sierpinski", level=level))
        edges = [(int(i), int(j), 2.0**-level) for i, j in sp.edges]
        assert sp.dist.tobytes() == nsl.space._graph_distances(sp.n, edges).tobytes()

    @pytest.mark.parametrize("level", range(8))
    def test_vertices_and_edges_are_the_subdivision(self, level):
        """Coordinates, edges and weights byte for byte those of subdividing every triangle,
        with the generator's name and metric tag."""
        bary, edges = sierpinski_reference(level)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        sp = build_space(SpaceSpec("sierpinski", level=level))
        for got, want in ((sp.coords, bary @ corners / 2**level), (sp.edges, edges),
                          (sp.weights, np.full(len(bary), 1.0 / len(bary)))):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert sp.name == f"sierpinski({level})"
        assert sp.metric == {"type": "geodesic",
                             "params": {"generator": "sierpinski", "level": level}}

    def test_no_graph_search(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("dijkstra ran")

        # _graph_distances imports dijkstra when it runs, so patch it where it is read
        monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", ran)
        with pytest.raises(AssertionError, match="dijkstra ran"):
            nsl.space._graph_distances(2, [(0, 1, 1.0)])
        sp = build_space(SpaceSpec.parse("sierpinski:4"))
        assert sp.dist[0, 1] == 2.0**-4

    def test_build_holds_about_one_matrix(self):
        sp = build_space(SpaceSpec.parse("sierpinski:6"))
        dist, peak = traced_peak(lambda: sp.dist)
        assert dist.nbytes <= peak <= 1.45 * dist.nbytes


class TestLazyDistances:
    """Generator spaces build dist on its first read; row readers do not force it."""

    @pytest.mark.parametrize("name", ["interval:65:0.5", "circle:33", "circle:64", "torus2d:30x17",
                                      f"gauge_grid:9:{HEXAGON}", "sierpinski:3"])
    def test_rows_and_matrix_are_the_eager_matrix(self, name):
        """dist_rows blocks, also across lattice rows (multiples of the last axis length), and
        the matrix built on the first read are bitwise the eager matrix; the matrix is
        read-only."""
        expected = eager_dist(name)
        sp = build_space(SpaceSpec.parse(name))
        n = sp.n
        lattice = not name.startswith("sierpinski")
        for a, b in ((0, 1), (0, n), (5, min(40, n)), (7, 20), (n - 3, n), (n - 1, n)):
            assert np.array_equal(sp.dist_rows(a, b), expected[a:b]), (a, b)
            assert (sp._dist is None) == lattice  # a gasket's rows need its geodesics
        dist = sp.dist
        assert dist.tobytes() == expected.tobytes() and dist.flags.c_contiguous
        assert sp.dist is dist and not dist.flags.writeable
        with pytest.raises(ValueError):
            dist[0, 1] = 99.0
        assert np.array_equal(sp.dist_rows(7, 20), expected[7:20])

    @pytest.mark.parametrize("name", ["interval:65:0.5", "circle:33", "torus2d:30x17",
                                      f"gauge_grid:9:{HEXAGON}", "sierpinski:3"])
    def test_pair_reads_are_the_matrix_reads(self, name):
        """dist_pairs of random pairs, both orders and the diagonal, is bitwise dist[i, j],
        and on a lattice it reads the table without building the matrix."""
        expected = eager_dist(name)
        sp = build_space(SpaceSpec.parse(name))
        rng = np.random.default_rng(sp.n)
        i, j = rng.integers(0, sp.n, 400), rng.integers(0, sp.n, 400)
        i[:5] = j[:5]
        for a, b in ((i, j), (j, i)):
            assert sp.dist_pairs(a, b).tobytes() == expected[a, b].tobytes()
        assert (sp._dist is None) == (not name.startswith("sierpinski"))
        sp.dist
        assert sp.dist_pairs(i, j).tobytes() == expected[i, j].tobytes()

    @pytest.mark.parametrize("name", ["interval:2048", "circle:2048", "torus2d:64x64",
                                      "gauge_grid:64:square", "sierpinski:6"])
    def test_construction_builds_no_matrix(self, name):
        sp = build_space(SpaceSpec.parse(name))
        assert sp._dist is None
        _, peak = traced_peak(lambda: build_space(SpaceSpec.parse(name)))
        assert peak < sp.n**2 * 8 / 4

    def test_matrix_spaces_stay_eager(self, tmp_path):
        graph = build_space(SpaceSpec("graph", edges=((0, 1, 1.0), (1, 2, 2.0))))
        assert graph._dist is not None and not graph.dist.flags.writeable
        path = tmp_path / "m.space"
        save_space(matrix_file_space("circle:8"), path)
        assert load_space(path)._dist is not None

    def test_gen_load_energy_on_torus_builds_no_square(self, tmp_path, monkeypatch):
        """build_space -> save_space -> load_space -> gagliardo_p on torus2d:64x64 stays under
        a quarter of one n x n float64 matrix (at one worker: each worker holds its own
        blocks of 128 rows)."""
        monkeypatch.setenv("NSL_WORKERS", "1")
        path = tmp_path / "t.space"
        spec = EnergySpec(p=2.0, s=0.7, kernel=KernelSpec.parse("gauge-ahlfors:2"))

        def chain():
            save_space(build_space(SpaceSpec.parse("torus2d:64x64")), path)
            sp = load_space(path)
            return sp, gagliardo_p(sp, ScalarField(np.sin(2 * np.pi * sp.coords[:, 0])), spec)

        (sp, value), peak = traced_peak(chain)
        assert value > 0.0 and sp._dist is None
        assert peak < sp.n**2 * 8 / 4

    @pytest.mark.parametrize("name, t, energy", [
        *[("circle:2048", math.pi / 8, energy) for energy in ("k", "h", "s", "mollify")],
        ("torus2d:64x64", 0.1, "s")], ids=["k", "h", "s", "mollify", "torus2d-s"])
    def test_circle_energies_build_no_square(self, name, t, energy, monkeypatch):
        """K_t, H_t, S_t by balls and mollify on a fresh circle:2048 with rho1, and S_t by
        balls on a fresh torus2d:64x64."""
        monkeypatch.setenv("NSL_WORKERS", "1")
        spec = EnergySpec(p=2.0, t=t, kernel=KernelSpec("rho1"))
        run = {"k": lambda sp, u: k_energy(sp, u, spec), "h": lambda sp, u: h_energy(sp, u, spec),
               "s": lambda sp, u: scale_s_by_balls(sp, u, spec),
               "mollify": lambda sp, u: mollify(sp, u, t)}[energy]

        def fresh():
            sp = build_space(SpaceSpec.parse(name))
            return sp, run(sp, ScalarField(np.sin(sp.coords[:, 0])))

        (sp, _), peak = traced_peak(fresh)
        assert sp._dist is None
        assert peak < sp.n**2 * 8 / 4

    @pytest.mark.parametrize("sweep, grid", [(bbm_sweep, (0.5, 0.7, 0.9, 0.99)),
                                             (nguyen_sweep, (0.5, 0.2, 0.05))])
    def test_interval_sweeps_build_no_square(self, sweep, grid, monkeypatch):
        """BBM and Nguyen sweeps on a fresh interval:2048 with ahlfors:1."""
        monkeypatch.setenv("NSL_WORKERS", "1")

        def fresh():
            sp = build_space(SpaceSpec.parse("interval:2048"))
            return sp, sweep(sp, ScalarField(sp.coords[:, 0]), 2.0, KernelSpec("ahlfors", 1.0), grid)

        (sp, _), peak = traced_peak(fresh)
        assert sp._dist is None
        assert peak < sp.n**2 * 8 / 4

    @pytest.mark.parametrize("source", ["sierpinski:4", "graph"])
    def test_geodesics_skip_the_second_symmetrisation(self, source, tmp_path):
        """_graph_distances runs a directed search on its symmetric adjacency: bitwise the
        undirected search, on a gasket and on a graph file that lists some edges both ways."""
        if source == "graph":
            path = tmp_path / "g.csv"
            path.write_text("0,1,0.5\n1,2,1.5\n2,0,3.0\n3,2,0.25\n2,3,0.75\n4,3,1.0\n1,4,2.5\n")
            edges = SpaceSpec.parse(f"graph:{path}").edges
        else:
            sp = build_space(SpaceSpec.parse(source))
            edges = tuple((int(i), int(j), 2.0**-4) for i, j in sp.edges)
        n = max(max(i, j) for i, j, _ in edges) + 1
        i, j, length = zip(*edges)
        adj = coo_matrix((length, (i, j)), shape=(n, n))
        undirected = dijkstra(adj.maximum(adj.T).tocsr(), directed=False)
        assert nsl.space._graph_distances(n, edges).tobytes() == undirected.tobytes()

    @pytest.mark.parametrize("name", ["sierpinski:4", "sierpinski:5"])
    def test_gasket_read_in_mollify_builds_once(self, name, monkeypatch):
        """mollify reads a fresh gasket's distances at two workers: its geodesics are found
        once, and the values are bitwise those at one worker."""
        calls = count_gasket_builds(monkeypatch)
        values = {}
        for workers in ("2", "1"):
            monkeypatch.setenv("NSL_WORKERS", workers)
            sp = build_space(SpaceSpec.parse(name))
            assert not calls
            values[workers] = mollify(sp, ScalarField(sp.coords[:, 0]), 0.2).values
            assert len(calls) == 1
            calls.clear()
        assert values["2"].tobytes() == values["1"].tobytes()

    def test_first_read_in_workers_builds_once(self, monkeypatch):
        """Eight workers make the first read of a fresh sierpinski:5 together, inside S_t's
        row blocks, with a short switch interval and a slow build: the geodesics are found
        once, and S_t is bitwise its one-worker value."""
        calls = count_gasket_builds(monkeypatch, pause=0.05)
        spec = EnergySpec(p=2.0, t=0.2)
        values = []
        for workers in ("8", "1"):
            monkeypatch.setenv("NSL_WORKERS", workers)
            sp = build_space(SpaceSpec.parse("sierpinski:5"))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                values.append(scale_s_by_balls(sp, ScalarField(sp.coords[:, 0]), spec))
            finally:
                sys.setswitchinterval(interval)
            assert len(calls) == 1
            calls.clear()
        assert values[0].hex() == values[1].hex()
