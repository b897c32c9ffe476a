import hashlib
import math

import numpy as np
import pytest

import nsl.kernels

from nsl import (BodyError, ConvexBody, EnergySpec, KernelSpec, MetricMeasureSpace, ScalarField,
                 SpaceSpec, build_space, doubling_constant, gagliardo_p, kernel_comparability,
                 load_space, parse_body, save_space)
from nsl.kernels import _kernel_table, kernel_blocks, kernel_matrix
from nsl.space import _lattice_rows

from conftest import HEXAGON, assert_masses_match, ball_mass_rows, random_space, traced_peak


def brute_rho1(space):
    """Independent double loop: mass of B(x, d(x,y)) by direct counting."""
    n = space.n
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            out[x, y] = np.sum(space.weights[space.dist[x] <= space.dist[x, y]])
    return out


def brute_gauge_pow(space, body, exponent):
    """The gauge-Ahlfors kernel pair by pair: of the signed index offset (column minus row) on a
    gauge grid, of the nearest of the 9 translates of the wrapped index offset on a torus, of
    the coordinate difference elsewhere."""
    spec = SpaceSpec.from_metric(space.metric)
    gen = None if spec is None else spec.generator
    if gen in ("torus2d", "gauge_grid"):
        nx, ny = (spec.nx, spec.ny) if gen == "torus2d" else (spec.n, spec.n)
        ix, iy = np.divmod(np.arange(space.n), ny)
        kx, ky = ix[None, :] - ix[:, None], iy[None, :] - iy[:, None]
        shifts = (-1, 0, 1) if gen == "torus2d" else (0,)
        if gen == "torus2d":
            kx, ky = kx % nx, ky % ny
        best = np.full((space.n, space.n), np.inf)
        for sx in shifts:
            for sy in shifts:
                delta = np.stack([(kx + sx * nx) / nx, (ky + sy * ny) / ny], axis=-1)
                best = np.minimum(best, body.gauge(delta))
    else:
        best = body.gauge(space.coords[:, None, :] - space.coords[None, :, :])
    out = np.power(best, exponent)
    np.fill_diagonal(out, np.nan)
    return out


class TestLatticeKernels:
    """Torus and gauge-grid kernels come from an offset table; they must equal the oracle bitwise."""

    @pytest.mark.parametrize("exponent", [1.5, 2.0])
    @pytest.mark.parametrize("body", ["ball:2", "square", "ellipse:1:2", HEXAGON],
                             ids=["ball", "square", "ellipse", "hexagon"])
    @pytest.mark.parametrize("space", ["torus2d:12x10", "torus2d:2x5", "torus2d:16x16",
                                       "gauge_grid:12:square"])
    def test_offset_table_matches_brute_force(self, space, body, exponent):
        sp = build_space(SpaceSpec.parse(space))
        mat = kernel_matrix(sp, KernelSpec("gauge-ahlfors", exponent, parse_body(body)))
        assert np.array_equal(mat, brute_gauge_pow(sp, parse_body(body), exponent), equal_nan=True)

    @pytest.mark.parametrize("nx, ny", [(30, 17), (12, 10)])
    def test_torus_kernel_depends_on_the_wrapped_index_offset_alone(self, nx, ny):
        """Every entry equals row 0 at the pair's wrapped index offset, as the offset route reads it."""
        sp = build_space(SpaceSpec("torus2d", nx=nx, ny=ny))
        mat = kernel_matrix(sp, KernelSpec.parse("gauge-ahlfors:2"))
        ix, iy = np.divmod(np.arange(sp.n), ny)
        offset = ((ix[None, :] - ix[:, None]) % nx) * ny + (iy[None, :] - iy[:, None]) % ny
        assert np.array_equal(mat, mat[0][offset], equal_nan=True)

    def test_off_lattice_space_takes_direct_route(self):
        sp = build_space(SpaceSpec("sierpinski", level=3))
        body = ConvexBody("ball", dim=2)
        mat = kernel_matrix(sp, KernelSpec("gauge-ahlfors", 2.0, body))
        assert np.array_equal(mat, brute_gauge_pow(sp, body, 2.0), equal_nan=True)

    @pytest.mark.parametrize("space, body", [
        *(("sierpinski:4", body) for body in ("ball:2", "square", "ellipse:1:2", HEXAGON)),
        ("interval:300", "ball:1"),
        ("sierpinski:6", HEXAGON),
    ], ids=["sierpinski4-ball", "sierpinski4-square", "sierpinski4-ellipse",
            "sierpinski4-hexagon", "interval300-ball1", "sierpinski6-hexagon"])
    def test_off_lattice_kernel_is_the_gauge_distance_matrix(self, space, body):
        """Off the lattices the kernel comes from the chunked all-pairs gauge, bitwise.

        sierpinski:6 (1095 points) spans three row chunks of the gauge distance matrix.
        """
        sp = build_space(SpaceSpec.parse(space))
        mat = kernel_matrix(sp, KernelSpec("gauge-ahlfors", 1.5, parse_body(body)))
        assert np.array_equal(mat, brute_gauge_pow(sp, parse_body(body), 1.5), equal_nan=True)

    def test_torus_kernel_evaluates_the_gauge_once_per_offset(self, monkeypatch):
        """9 shifts on the 63 x 63 offset table, not on all 1024^2 pairs; counts, no timing."""
        sp = build_space(SpaceSpec("torus2d", nx=32, ny=32))
        vectors = []
        gauge = ConvexBody.gauge

        def counting(self, v):
            vectors.append(np.asarray(v).size // 2)
            return gauge(self, v)

        monkeypatch.setattr(ConvexBody, "gauge", counting)
        kernel_matrix(sp, KernelSpec.parse("gauge-ahlfors:2"))
        assert 0 < sum(vectors) <= 9 * 63**2


# Every kernel kind; the gauge-Ahlfors ones take a body of the space's dimension.
ROW_KERNELS = ["rho1", "rho2", "sum", "geom", "harm", "ahlfors:1", "ahlfors:1.5"]
ROW_GAUGES = {1: ["gauge-ahlfors:1:ball:1"],
              2: ["gauge-ahlfors:2", "gauge-ahlfors:1.5:square", f"gauge-ahlfors:1.5:{HEXAGON}"]}


def row_zero(sp, spec: KernelSpec) -> np.ndarray:
    """Row 0 of the kernel as kernel_blocks reads it."""
    return kernel_blocks(sp, spec)(0, 1)(lambda d, rho: rho)[0]


# sha256 prefixes of the bytes of kernel_matrix and of row 0 (row_zero), by (space, kernel).
KERNEL_DIGESTS = {
    ("circle:33", "rho1"): ("b0b3fdeb93c9cf36", "a3ac7157f909ca3d"),
    ("circle:33", "rho2"): ("b0b3fdeb93c9cf36", "a3ac7157f909ca3d"),
    ("circle:33", "sum"): ("1f0360995698bb4b", "d49eb408e28a2cee"),
    ("circle:33", "geom"): ("b0b3fdeb93c9cf36", "a3ac7157f909ca3d"),
    ("circle:33", "harm"): ("3e589b28bb9cf8e3", "501fb27e60b04361"),
    ("circle:33", "ahlfors:1"): ("a7f3ca2ecf794d0b", "e7e93ebcf0339e90"),
    ("circle:33", "ahlfors:1.5"): ("e7d6bb3b13694032", "361d0acd70d7dd5a"),
    ("circle:33", "gauge-ahlfors:1:ball:1"): ("a7f3ca2ecf794d0b", "e7e93ebcf0339e90"),
    ("torus2d:7x13", "rho1"): ("92a153ad546c6c18", "4f3d8052f388d328"),
    ("torus2d:7x13", "rho2"): ("92a153ad546c6c18", "4f3d8052f388d328"),
    ("torus2d:7x13", "sum"): ("4d4eb76e4fe048c4", "43de5993eb1dda70"),
    ("torus2d:7x13", "geom"): ("92a153ad546c6c18", "4f3d8052f388d328"),
    ("torus2d:7x13", "harm"): ("6bfbd793e5c82a30", "a337946a573e04c0"),
    ("torus2d:7x13", "ahlfors:1"): ("7094e678a8e3206b", "2d4530b882a14d31"),
    ("torus2d:7x13", "ahlfors:1.5"): ("71bd1efd0cf96b42", "1aeb1ab5d304ff56"),
    ("torus2d:7x13", "gauge-ahlfors:2"): ("55c87cef66f007d0", "c14837a757fd24e1"),
    ("torus2d:7x13", "gauge-ahlfors:1.5:square"): ("e1dcc234c9328a54", "6daa907632d0fc53"),
    ("torus2d:7x13", f"gauge-ahlfors:1.5:{HEXAGON}"): ("5faf0279324411a4", "f0bc072b5db6ed8a"),
    ("interval:65:0.5", "rho1"): ("f3d7414bc15fd88e", "87416f11d42f0cca"),
    ("interval:65:0.5", "rho2"): ("1642c19cdc439143", "e4ab3a98c4707751"),
    ("interval:65:0.5", "sum"): ("db54305e5354eb53", "c45842fdc31aa221"),
    ("interval:65:0.5", "geom"): ("f0120c2214311d6a", "a09d8cf99def317a"),
    ("interval:65:0.5", "harm"): ("a7518c737a58b808", "d1a0f9a0a0ffaa55"),
    ("interval:65:0.5", "ahlfors:1"): ("c4c0ad78718666eb", "e6d7968c488c99f0"),
    ("interval:65:0.5", "ahlfors:1.5"): ("38999f43448e0b4d", "01a5f786802dff1a"),
    ("interval:65:0.5", "gauge-ahlfors:1:ball:1"): ("56759cc56c34f35a", "e42795109c6871f6"),
    ("gauge_grid:6:square", "rho1"): ("883c2f83ba0816da", "5116036b9c7be340"),
    ("gauge_grid:6:square", "rho2"): ("587fc2a994eeacce", "adacf7e15e4f2daa"),
    ("gauge_grid:6:square", "sum"): ("1cd0def2f5f885dd", "8fdda3cf1d9f3fa8"),
    ("gauge_grid:6:square", "geom"): ("78abc698c38056eb", "0af27d6263baed40"),
    ("gauge_grid:6:square", "harm"): ("1f37931a233f5fac", "c7ef7d5f4a872200"),
    ("gauge_grid:6:square", "ahlfors:1"): ("e0e33ae68570a3b0", "16ab963fd2420e78"),
    ("gauge_grid:6:square", "ahlfors:1.5"): ("3e1ec3edeb7fe9e8", "c5a6aa6456956372"),
    ("gauge_grid:6:square", "gauge-ahlfors:2"): ("bb7b80fd04e50949", "a103a97db27b7204"),
    ("gauge_grid:6:square", "gauge-ahlfors:1.5:square"): ("3e1ec3edeb7fe9e8", "c5a6aa6456956372"),
    ("gauge_grid:6:square", f"gauge-ahlfors:1.5:{HEXAGON}"): ("7863830d1407a6f7", "936dcb45d4c9eafb"),
    ("sierpinski:3", "rho1"): ("8bb544e1712cccea", "be3b84859936b556"),
    ("sierpinski:3", "rho2"): ("a6dc2b8d977aaad0", "c00223e78d7aa00e"),
    ("sierpinski:3", "sum"): ("4d51da16494f2fa4", "f63abf61147c458e"),
    ("sierpinski:3", "geom"): ("6f9b56e5c6ee4a02", "9a7ca7f45b16f27d"),
    ("sierpinski:3", "harm"): ("989d65af16b0d97f", "ebc9e624d715c375"),
    ("sierpinski:3", "ahlfors:1"): ("5fd1735c755e2cc0", "193c28a730b34f8f"),
    ("sierpinski:3", "ahlfors:1.5"): ("46f69f7b68007931", "cda58139ab1281fc"),
    ("sierpinski:3", "gauge-ahlfors:2"): ("bb5cd8e94e93ca2b", "df267060751c28a0"),
    ("sierpinski:3", "gauge-ahlfors:1.5:square"): ("032955c56033cbcb", "192f822aa22d8bc3"),
    ("sierpinski:3", f"gauge-ahlfors:1.5:{HEXAGON}"): ("008e28f9a3e15116", "2899e6705a58a724"),
}


class TestKernelRow:
    """Row 0 of kernel_blocks is row 0 of kernel_matrix, bitwise. It builds no distance matrix,
    and no kernel matrix where the kernel has a lattice table or reads the distance levels."""

    @pytest.mark.parametrize("space", ["circle:2", "circle:33", "circle:64", "torus2d:2x2",
                                       "torus2d:6x6", "torus2d:7x13", "interval:2",
                                       "interval:65", "interval:65:0.5"])
    def test_row_zero_of_the_matrix(self, space):
        sp = build_space(SpaceSpec.parse(space))
        rows = {}
        for text in ROW_KERNELS + ROW_GAUGES[sp.coords.shape[1]]:
            rows[text] = row_zero(sp, KernelSpec.parse(text))
            # on the interval the combinations and gauges read slices of the kernel matrix
            matrix = not sp.index_lattice()[1] and text not in ("rho1", "ahlfors:1", "ahlfors:1.5")
            assert any(key[0] == "kernel" for key in sp._cache if isinstance(key, tuple)) == matrix
            sp._cache.clear()
        # every weight vector counts the levels of the lattice table, so no distance matrix
        # is built
        assert sp._dist is None
        for text, row in rows.items():
            assert np.isnan(row[0])
            want = kernel_matrix(sp, KernelSpec.parse(text))[0]
            assert row.tobytes() == want.tobytes(), text

    @pytest.mark.parametrize("space, kernel", list(KERNEL_DIGESTS))
    def test_bitwise_pins(self, space, kernel):
        """Each route, on its own fresh space, gives the bytes pinned before matrix and row
        shared one builder."""
        spec = KernelSpec.parse(kernel)
        got = (kernel_matrix(build_space(SpaceSpec.parse(space)), spec).tobytes(),
               row_zero(build_space(SpaceSpec.parse(space)), spec).tobytes())
        assert tuple(hashlib.sha256(b).hexdigest()[:16] for b in got) == KERNEL_DIGESTS[space, kernel]


class TestKernelTable:
    """A kernel that depends only on the signed index offset of a pair is one read-only
    signed-offset table, as the lattice distance is, and the kernel matrix is its windows."""

    @pytest.mark.parametrize("space", ["circle:33", "torus2d:7x13", "gauge_grid:16:square"])
    def test_matrix_is_the_table_windows(self, space):
        sp = build_space(SpaceSpec.parse(space))
        wrapped = sp.index_lattice() is not None  # circle and torus; the gauge grid is not
        for text in ROW_KERNELS + ROW_GAUGES[sp.coords.shape[1]]:
            spec = KernelSpec.parse(text)
            table = _kernel_table(sp, spec)
            assert (table is not None) == (wrapped or spec.kind == "gauge-ahlfors"), text
            if table is None:
                continue
            nan = np.isnan(table)
            assert table.shape == sp._table.shape and not table.flags.writeable
            assert nan[tuple(m // 2 for m in table.shape)] and np.count_nonzero(nan) == 1, text
            want = _lattice_rows(table, 0, sp.n)
            assert kernel_matrix(sp, spec).tobytes() == want.tobytes(), text
        assert sp._dist is None

    @pytest.mark.parametrize("kernel", ["rho1", "harm", "ahlfors:1.5", "gauge-ahlfors:2"])
    def test_energy_caches_nothing_larger_than_the_table(self, kernel):
        """One Gagliardo energy on torus2d:64x64 leaves no row, matrix or distance matrix in
        the cache: no cached array is larger than the kernel's table."""
        sp = build_space(SpaceSpec.parse("torus2d:64x64"))
        spec = EnergySpec(p=2.0, s=0.5, kernel=KernelSpec.parse(kernel))
        assert gagliardo_p(sp, ScalarField(np.sin(6.0 * sp.coords[:, 0])), spec) > 0.0
        held = [a for v in sp._cache.values() for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert max(a.nbytes for a in held) <= _kernel_table(sp, spec.kernel).nbytes
        assert sp._dist is None


class TestKernelReuse:
    """A whole kernel matrix reuses what the space and its cache already hold."""

    @pytest.mark.parametrize("kind", ["rho2", "sum", "geom", "harm"])
    @pytest.mark.parametrize("space", ["interval:65", "sierpinski:3", "interval:65:0.5"])
    def test_combination_builds_rho1_once(self, monkeypatch, space, kind):
        """One count of distance levels over the n distance rows gathers rho1, with equal
        weights or not, and it stays cached; the combination reads its transpose."""
        calls = spy_gathers(monkeypatch)
        sp = build_space(SpaceSpec.parse(space))
        kernel_matrix(sp, KernelSpec(kind))
        assert calls == [sp.n]
        assert ("kernel", "rho1") in sp._cache
        kernel_matrix(sp, KernelSpec("rho1"))
        assert len(calls) == 1

    @pytest.mark.parametrize("space, held", [("gauge_grid:32:square", 1.5),
                                             ("interval:1024", 1.5),
                                             ("interval:1024:0.5", 1.6)])
    def test_rho1_matrix_builds_no_distance_matrix(self, space, held):
        """The gather counts the lattice table's levels a row block at a time, with equal
        weights or unequal ones: no distance matrix, no sorted rows, no prefix rows and no
        n x n integer array, so the kernel and one block's temporaries (with unequal weights
        the tiled weights and the masses per level among them) stay under held n x n float
        blocks at the peak."""
        sp = build_space(SpaceSpec.parse(space))
        _, peak = traced_peak(lambda: kernel_matrix(sp, KernelSpec("rho1")))
        assert sp._dist is None and peak <= held * 8 * sp.n**2

    def test_rho1_sort_holds_one_block_of_temporaries(self):
        """A matrix space sorts dist a row block at a time for its codes: the equal-weight
        matrix copy, whose dist is already held, holds the kernel and one block's temporaries
        at the peak, so no n x n sort order, sorted copy or second distance matrix."""
        sp = build_space(SpaceSpec.parse("gauge_grid:32:square"))
        sp = MetricMeasureSpace(sp.dist, sp.weights)
        _, peak = traced_peak(lambda: kernel_matrix(sp, KernelSpec("rho1")))
        assert peak <= 1.5 * 8 * sp.n**2


def spy_argsort(monkeypatch) -> list[int]:
    """Record the rows of each np.argsort call: its first axis for a 2-d array, else 1."""
    rows = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        rows.append(np.shape(a)[0] if np.ndim(a) == 2 else 1)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return rows


def spy_gathers(monkeypatch) -> list[int]:
    """Record the rows of each rho1 gather: each level-sum reader (_level_sums) that kernels
    makes, behind the rho1 matrix and the rho1 lattice table."""
    calls = []
    level_sums = nsl.kernels._level_sums

    def levels(reader, m, weights):
        calls.append(m)
        return level_sums(reader, m, weights)

    monkeypatch.setattr(nsl.kernels, "_level_sums", levels)
    return calls


# Tie-heavy spaces for the rho1 gather; "+w" marks a generator's distances as a matrix
# space with random unequal weights.
GATHER_GENERATORS = ["sierpinski:3", "sierpinski:4", "sierpinski:5", "sierpinski:6",
                     "gauge_grid:16:square", f"gauge_grid:9:{HEXAGON}", "interval:257:0.5",
                     "circle:33", "torus2d:7x13", "torus2d:16x16"]
GATHER_SPACES = GATHER_GENERATORS + [f"{g}+w" for g in GATHER_GENERATORS] + ["graph", "matrix file"]


def gather_space(name: str, tmp_path) -> MetricMeasureSpace:
    """A fresh space of GATHER_SPACES, or "matrix file+e". The graph file has edge lengths 1
    and 2 only; the hand-made matrix file has distances 1 within blocks of four points and 2
    across them, and random weights ("+e": equal ones)."""
    rng = np.random.default_rng(7)
    if name == "matrix file+e":
        src = gather_space("matrix file", tmp_path)
        return MetricMeasureSpace(src.dist, np.full(src.n, 0.5))
    if name == "graph":
        path = tmp_path / "g.csv"
        path.write_text("".join(f"{i},{i + 1},{1 + i % 2}\n{i},{(i + 5) % 30},2\n"
                                for i in range(29)))
        return build_space(SpaceSpec.parse(f"graph:{path}"))
    if name == "matrix file":
        blocks = np.arange(24) // 4
        dist = np.where(blocks[:, None] == blocks[None, :], 1.0, 2.0)
        np.fill_diagonal(dist, 0.0)
        path = tmp_path / "m.space"
        save_space(MetricMeasureSpace(dist, rng.uniform(0.5, 1.5, 24)), path)
        return load_space(path)
    sp = build_space(SpaceSpec.parse(name.removesuffix("+w")))
    if name.endswith("+w"):
        return MetricMeasureSpace(sp.dist, rng.uniform(0.5, 1.5, sp.n))
    return sp


# The GATHER_SPACES whose rho1 counts distance levels with equal weights and sorts no row:
# generators with equal weights.
COUNTED = [g for g in GATHER_GENERATORS if g != "interval:257:0.5"]


def rho1_rows(sp) -> np.ndarray:
    """The rows of rho1 that a ball query scans (_index_rows): row 0 on circle and torus,
    whose rows permute it, else the whole kernel matrix."""
    return kernel_matrix(sp, KernelSpec("rho1"))[:sp._index_rows()]


class TestRho1Gather:
    """rho1 is gathered once, by counting distance levels on every space: a generator's closed
    form gives the codes, a matrix space's rows their dense ranks from one stable argsort.
    No per-row search, no second pass."""

    @pytest.mark.parametrize("name", COUNTED + ["gauge_grid:20:ball:2", "interval:2",
                                                "interval:2048", "sierpinski:1", "sierpinski:2"])
    def test_level_count_is_the_sort(self, monkeypatch, name):
        """Bitwise the masses of a stable sort of every distance row of dist, with no argsort
        and no distance matrix but the gasket's."""
        sp = build_space(SpaceSpec.parse(name))
        sorted_rows = spy_argsort(monkeypatch)
        got = rho1_rows(sp)
        assert sorted_rows == [] and (sp._dist is None) == (not name.startswith("sierpinski"))
        assert got.shape == (sp._index_rows(), sp.n) and not got.flags.writeable
        monkeypatch.undo()
        want = ball_mass_rows(sp, sp.dist)
        np.fill_diagonal(want, np.nan)
        assert got.tobytes() == want[:sp._index_rows()].tobytes()

    @pytest.mark.parametrize("name", [f"{g}+w" for g in GATHER_GENERATORS]
                             + ["interval:257:0.5", "graph", "matrix file", "matrix file+e"])
    def test_matrix_spaces_and_unequal_weights_sort(self, monkeypatch, tmp_path, name):
        """Unequal weights, graphs and matrix files, equal weights or not, gather rho1 by one
        count of levels over the n distance rows: a matrix space argsorts each row once for
        its codes, a generator with unequal weights none."""
        sp = gather_space(name, tmp_path)
        calls, sorted_rows = spy_gathers(monkeypatch), spy_argsort(monkeypatch)
        kernel_matrix(sp, KernelSpec("rho1"))
        kernel_matrix(sp, KernelSpec("harm"))
        assert calls == [sp.n]
        assert sum(sorted_rows) == (0 if name == "interval:257:0.5" else sp.n)

    @pytest.mark.parametrize("name", GATHER_SPACES)
    def test_gather_is_the_per_row_search(self, name, tmp_path):
        """One searchsorted per stably sorted distance row at the row's own distances, in the
        whole matrix and in row 0: bitwise with equal weights, to rounding with unequal
        ones."""
        sp = gather_space(name, tmp_path)
        want = ball_mass_rows(sp, sp.dist)
        np.fill_diagonal(want, np.nan)
        assert_masses_match(kernel_matrix(sp, KernelSpec("rho1")), want, sp.weights)
        sp = gather_space(name, tmp_path)
        assert_masses_match(row_zero(sp, KernelSpec("rho1")), want[0], sp.weights)

    @pytest.mark.parametrize("name", ["circle:33", "torus2d:7x13", "torus2d:64x64"])
    def test_wrapped_lattice_reads_no_distance_matrix(self, name):
        """On circle and torus the matrix is the lattice windows of the one-row index's row."""
        sp = build_space(SpaceSpec.parse(name))
        rho = kernel_matrix(sp, KernelSpec("rho1"))
        assert sp._dist is None and not rho.flags.writeable
        assert np.all(np.isnan(np.diagonal(rho)))

    @pytest.mark.parametrize("first", ["kernel", "ball_masses", "doubling"])
    @pytest.mark.parametrize("name", ["sierpinski:3", "gauge_grid:16:square", "interval:257:0.5",
                                      "circle:33", "torus2d:7x13", "sierpinski:3+w", "graph",
                                      "matrix file"])
    def test_rows_are_gathered_once(self, monkeypatch, tmp_path, name, first):
        """Whichever comes first, kernel_matrix(rho1) or a ball query, rho1 is gathered once
        in all, also with the combination kernels after. A matrix space argsorts each row once
        for rho1's codes and once for the doubling scan's, whatever the weights; a generator
        space sorts no row."""
        sp = gather_space(name, tmp_path)
        sorted_rows, gathers = spy_argsort(monkeypatch), spy_gathers(monkeypatch)
        steps = {"kernel": lambda: kernel_matrix(sp, KernelSpec("rho1")),
                 "ball_masses": lambda: sp.ball_masses(0.3),
                 "doubling": lambda: doubling_constant(sp)}
        for step in [first] + [s for s in steps if s != first]:
            steps[step]()
        kernel_blocks(sp, KernelSpec("harm"))(0, 1)
        kernel_matrix(sp, KernelSpec("geom"))
        matrix = name in ("sierpinski:3+w", "graph", "matrix file")
        assert gathers == [sp._index_rows()]
        assert sum(sorted_rows) == 2 * sp.n * matrix

    @pytest.mark.parametrize("name", GATHER_SPACES)
    def test_ball_queries_match_a_stable_sort_of_each_row(self, name, tmp_path):
        """ball_masses, rho1 and doubling_constant's c_d_hat equal a reference that argsorts
        every distance row stably and prefix-sums the weights in that order, bitwise with equal
        weights and to rounding with unequal ones; the doubling witness equals it."""
        sp = gather_space(name, tmp_path)
        dist, n = sp.dist, sp.n
        order = np.argsort(dist, axis=1, kind="stable")
        ranked = np.take_along_axis(dist, order, axis=1)
        prefix = np.cumsum(sp.weights[order], axis=1)

        def masses(radii):  # mu(B(x, radii[x, j])), one search per row
            return np.stack([prefix[x, np.searchsorted(ranked[x], radii[x], side="right") - 1]
                             for x in range(n)])

        realized = np.unique(dist)
        for r in [0.0, *realized[:: max(1, len(realized) // 6)], realized[1] / 2, sp.diameter]:
            assert_masses_match(sp.ball_masses(r), masses(np.full((n, 1), r))[:, 0], sp.weights)
        want = masses(dist)
        np.fill_diagonal(want, np.nan)
        assert_masses_match(kernel_matrix(sp, KernelSpec("rho1")), want, sp.weights)
        best = (1.0, 0, 0.0)
        for x in range(n):  # every row: rows that permute row 0 keep point 0, the first witness
            pos = ranked[x][ranked[x] > 0.0]
            cand = np.concatenate([pos, pos * 0.5])
            k_r, k_2r = (np.searchsorted(ranked[x], c, side="right") for c in (cand, 2.0 * cand))
            ratios = prefix[x, k_2r - 1] / prefix[x, k_r - 1]
            j = int(np.argmax(ratios))
            if ratios[j] > best[0]:
                best = (float(ratios[j]), x, float(cand[j]))
        report = doubling_constant(sp)
        assert report.witness == best[1:]
        assert_masses_match(np.array([report.c_d_hat]), np.array([best[0]]), sp.weights)

    @pytest.mark.parametrize("name", ["interval:300", "gauge_grid:16:square", "sierpinski:4",
                                      "circle:33", "torus2d:7x13", "graph", "matrix file+e"])
    def test_equal_weight_ball_queries_run_no_argsort(self, monkeypatch, tmp_path, name):
        """With equal weights ball queries count distances into the one prefix row and sort
        nothing; the doubling scan and rho1 count distance levels, each argsorting every row
        once on a graph or a matrix file for its codes."""
        sp = gather_space(name, tmp_path)
        calls = spy_argsort(monkeypatch)
        sp.ball_masses(0.3)
        sp.ball_masses(0.2)
        assert calls == []
        matrix = name in ("graph", "matrix file+e")
        doubling_constant(sp)
        assert sum(calls) == sp.n * matrix
        kernel_matrix(sp, KernelSpec("rho1"))
        assert sum(calls) == 2 * sp.n * matrix

    @pytest.mark.parametrize("name", ["interval:2048", "interval:2048:0.5"])
    def test_first_ball_query_on_a_long_interval_holds_no_square_array(self, name):
        """The first ball_masses on a long interval counts, or with unequal weights sums the
        weights within r, a row block at a time: its peak stays under n^2 bytes, an eighth of
        one n x n float block, and no distance matrix is built."""
        sp = build_space(SpaceSpec.parse(name))
        masses, peak = traced_peak(lambda: sp.ball_masses(0.1))
        assert peak < sp.n**2 and sp._dist is None
        assert_masses_match(masses, ball_mass_rows(sp, np.full((sp.n, 1), 0.1))[:, 0], sp.weights)


class TestKernelValues:
    def test_circle4_rho1_adjacent(self):
        sp = build_space(SpaceSpec("circle", n=4))
        rho = kernel_matrix(sp, KernelSpec("rho1"))
        assert rho[0, 1] == pytest.approx(3 * math.pi / 2)

    def test_interval2_ahlfors(self):
        sp = build_space(SpaceSpec("interval", n=2))
        rho = kernel_matrix(sp, KernelSpec("ahlfors", 1.0))
        assert rho[0, 1] == pytest.approx(0.5)

    def test_diagonal_rejected(self, circle64):
        """The kernel is undefined on the diagonal: every diagonal entry is NaN."""
        for spec in (KernelSpec("rho1"), KernelSpec("harm"), KernelSpec("ahlfors", 1.0)):
            assert np.all(np.isnan(np.diagonal(kernel_matrix(circle64, spec))))

    def test_rho1_stored_once(self, circle64):
        for kind in ("rho1", "rho2", "geom", "harm"):
            kernel_matrix(circle64, KernelSpec(kind))
        kernel_comparability(circle64, KernelSpec("harm"))  # reads rows: adds no square
        squares = [
            key
            for key, val in circle64._cache.items()
            if isinstance(val, np.ndarray) and val.shape == (64, 64)
        ]
        kinds = sorted(key[1] for key in squares)
        assert kinds == ["geom", "harm", "rho1", "rho2"]

    def test_rho1_matches_brute_force(self):
        rng = np.random.default_rng(3)
        sp = random_space(rng, 12)
        mat = kernel_matrix(sp, KernelSpec("rho1"))
        expected = brute_rho1(sp)
        off = ~np.eye(sp.n, dtype=bool)
        assert mat[off] == pytest.approx(expected[off], rel=1e-14)

    def test_combination_kernels(self):
        rng = np.random.default_rng(4)
        sp = random_space(rng, 10)
        r1 = kernel_matrix(sp, KernelSpec("rho1"))
        r2 = kernel_matrix(sp, KernelSpec("rho2"))
        off = ~np.eye(sp.n, dtype=bool)
        assert np.array_equal(r2[off], r1.T[off])
        s = kernel_matrix(sp, KernelSpec("sum"))
        assert s[off] == pytest.approx((r1 + r2)[off], rel=1e-15)
        h = kernel_matrix(sp, KernelSpec("harm"))
        assert h[off] == pytest.approx(((r1 + r2) / (r1 * r2))[off], rel=1e-14)

    def test_geom_squared_is_product_exactly(self):
        rng = np.random.default_rng(5)
        sp = random_space(rng, 10)
        g = kernel_matrix(sp, KernelSpec("geom"))
        r1 = kernel_matrix(sp, KernelSpec("rho1"))
        r2 = kernel_matrix(sp, KernelSpec("rho2"))
        off = ~np.eye(sp.n, dtype=bool)
        assert g[off] ** 2 == pytest.approx((r1 * r2)[off], rel=1e-15)

    def test_geom_bounded_by_max(self):
        rng = np.random.default_rng(6)
        sp = random_space(rng, 10)
        g = kernel_matrix(sp, KernelSpec("geom"))
        r1 = kernel_matrix(sp, KernelSpec("rho1"))
        r2 = kernel_matrix(sp, KernelSpec("rho2"))
        off = ~np.eye(sp.n, dtype=bool)
        assert np.all(g[off] <= np.maximum(r1, r2)[off] * (1 + 1e-15))

    def test_values_positive_off_diagonal(self, circle64):
        for spec in (KernelSpec("rho1"), KernelSpec("geom"), KernelSpec("ahlfors", 1.0)):
            mat = kernel_matrix(circle64, spec)
            off = ~np.eye(circle64.n, dtype=bool)
            assert np.all(mat[off] > 0)

    def test_gauge_ahlfors_ball_matches_torus_metric(self):
        sp = build_space(SpaceSpec("torus2d", nx=8, ny=8))
        mat = kernel_matrix(sp, KernelSpec("gauge-ahlfors", 2.0, ConvexBody("ball", dim=2)))
        off = ~np.eye(sp.n, dtype=bool)
        assert mat[off] == pytest.approx((sp.dist**2)[off], rel=1e-12)

    @pytest.mark.parametrize("n", [2, 33, 64])
    def test_circle_gauge_is_the_geodesic_angle(self, n):
        """The 1-D ball gauge of the geodesic angle is d^N, bitwise, at the seam too."""
        sp = build_space(SpaceSpec("circle", n=n))
        mat = kernel_matrix(sp, KernelSpec.parse("gauge-ahlfors:1.5:ball:1"))
        assert np.array_equal(mat, kernel_matrix(sp, KernelSpec("ahlfors", 1.5)), equal_nan=True)

    def test_gauge_ahlfors_needs_coords(self, two_point):
        with pytest.raises(ValueError, match="coordinates"):
            kernel_matrix(two_point, KernelSpec("gauge-ahlfors", 1.0))


# Which kernels of ROW_KERNELS + ROW_GAUGES read slices of the cached kernel matrix in
# kernel_blocks; the rest read lattice-table windows (circle, torus, gauge-ahlfors on the
# gauge grid) or the shared distance levels (rho1 and ahlfors off circle and torus).
COMBINATIONS = ["rho2", "sum", "geom", "harm"]
BLOCK_MATRIX_KERNELS = {
    "circle:33": [],
    "torus2d:7x13": [],
    "gauge_grid:12:square": COMBINATIONS,
    "interval:65:0.5": COMBINATIONS + ROW_GAUGES[1],
    "sierpinski:3": COMBINATIONS + ROW_GAUGES[2],
    "matrix copy": ROW_KERNELS + ROW_GAUGES[2],
}


class TestKernelBlocks:
    """kernel_blocks reads row blocks of d and rho, bitwise the rows of dist and of the kernel
    matrix, NaN diagonal included, from every source: wrapped lattice-table windows, the
    gauge grid's gauge table, the shared distance levels and the cached kernel matrix."""

    @pytest.mark.parametrize("space", list(BLOCK_MATRIX_KERNELS))
    def test_blocks_are_matrix_rows(self, space):
        if space == "matrix copy":  # a gauge grid's distances and coordinates as a matrix file
            grid = build_space(SpaceSpec.parse("gauge_grid:6:square"))
            sp = MetricMeasureSpace(grid.dist, grid.weights, coords=grid.coords)
        else:
            sp = build_space(SpaceSpec.parse(space))
        spans = [(0, sp.n), (0, 1), (5, 17), (sp.n - 3, sp.n), (sp.n - 1, sp.n)]
        got = {}
        for text in ROW_KERNELS + ROW_GAUGES[sp.coords.shape[1]]:
            spec = KernelSpec.parse(text)
            blocks = kernel_blocks(sp, spec)
            reads = [blocks(a, b) for a, b in spans]
            got[text] = [(read(lambda d, rho: d), read(lambda d, rho: rho)) for read in reads]
            cached = ("kernel", spec.key) in sp._cache
            assert cached == (text in BLOCK_MATRIX_KERNELS[space]), text
        lattice = space.split(":")[0] in ("circle", "torus2d", "gauge_grid", "interval")
        assert (sp._dist is None) == lattice
        dist = sp.dist
        for text, blocks in got.items():
            want = kernel_matrix(sp, KernelSpec.parse(text))
            for (a, b), (d, rho) in zip(spans, blocks):
                assert d.tobytes() == dist[a:b].tobytes(), (text, a)
                assert rho.tobytes() == want[a:b].tobytes(), (text, a)


def whole_comparability(space, spec: KernelSpec) -> tuple[float, tuple[int, int]]:
    """c_rho_hat and its first row-major witness from the whole ratio and inverse arrays."""
    ratio = kernel_matrix(space, spec) / kernel_matrix(space, KernelSpec("rho1"))
    inverse = 1.0 / ratio
    hi, lo = float(np.nanmax(ratio)), float(np.nanmax(inverse))
    x, y = np.unravel_index(np.nanargmax(ratio) if hi >= lo else np.nanargmax(inverse),
                            ratio.shape)
    return max(hi, lo), (int(x), int(y))


class TestComparability:
    @pytest.mark.parametrize("name, kind", [
        ("interval:300", "harm"), ("interval:300", "ahlfors:1"), ("interval:300", "rho1"),
        ("interval:257:0.5", "geom"), ("interval:257:0.5", "rho2"), ("sierpinski:5", "geom"),
        ("sierpinski:5+w", "rho2"), ("gauge_grid:16:square", "ahlfors:2"), ("matrix file", "harm"),
    ])
    def test_row_blocks_give_the_whole_array_extremes(self, tmp_path, name, kind):
        """Bitwise the constant and the first witness of the whole arrays, with ties (up to
        89700 pairs attain it) and witnesses past the first row block ((128, 0), (185, 183))."""
        sp, spec = gather_space(name, tmp_path), KernelSpec.parse(kind)
        rep = kernel_comparability(sp, spec)
        c_rho, witness = whole_comparability(sp, spec)
        assert (rep.c_rho_hat.hex(), rep.rho_witness) == (c_rho.hex(), witness)

    def test_row_blocks_hold_no_whole_ratio(self):
        """With the kernels and the doubling scan cached, the ratio and its inverse are held a
        row block at a time: under half an n x n float block on interval:1024."""
        sp, harm = build_space(SpaceSpec.parse("interval:1024")), KernelSpec("harm")
        kernel_matrix(sp, harm)
        doubling_constant(sp)
        rep, peak = traced_peak(lambda: kernel_comparability(sp, harm))
        assert rep.c_rho_hat > 1.0 and peak < 0.5 * 8 * sp.n**2

    def test_rho1_is_one(self, circle64):
        rep = kernel_comparability(circle64, KernelSpec("rho1"))
        assert rep.c_rho_hat == 1.0

    def test_circle_gauge_matches_ahlfors(self, circle64):
        """The seam pair (0, 63) is one angle step apart, not 2 pi minus one."""
        gauge = kernel_comparability(circle64, KernelSpec.parse("gauge-ahlfors:1:ball:1"))
        assert gauge.c_rho_hat == kernel_comparability(circle64, KernelSpec("ahlfors", 1.0)).c_rho_hat

    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in ("circle:64", "torus2d:8x8")
        for kind in ("rho1", "geom", "ahlfors:1",
                     "gauge-ahlfors:2" if name.startswith("torus") else "gauge-ahlfors:1:ball:1")
    ])
    def test_wrapped_lattice_reads_kernel_rows(self, name, kind):
        """On circle and torus row 0 gives the matrix route's constant and first witness,
        bitwise, and no n x n kernel is built."""
        sp = build_space(SpaceSpec.parse(name))
        spec = KernelSpec.parse(kind)
        rep = kernel_comparability(sp, spec)
        assert not [key for key in sp._cache if isinstance(key, tuple) and key[0] == "kernel"]
        # a matrix copy takes the matrix route over the lattice's own kernel matrices
        copy = MetricMeasureSpace(sp.dist, sp.weights, coords=sp.coords)
        for kernel in (spec, KernelSpec("rho1")):
            copy.cache(("kernel", kernel.key), lambda kernel=kernel: kernel_matrix(sp, kernel))
        want = kernel_comparability(copy, spec)
        assert rep.c_rho_hat.hex() == want.c_rho_hat.hex()
        assert rep.rho_witness == want.rho_witness
        assert rep.rho_witness[0] == 0
        assert (rep.c_d_hat, rep.witness) == (want.c_d_hat, want.witness)

    def test_ahlfors_on_uniform_interval_brute_force(self):
        sp = build_space(SpaceSpec("interval", n=64))
        rep = kernel_comparability(sp, KernelSpec("ahlfors", 1.0))
        rho = sp.dist.copy()
        r1 = brute_rho1(sp)
        off = ~np.eye(sp.n, dtype=bool)
        expected = max(np.max(rho[off] / r1[off]), np.max(r1[off] / rho[off]))
        assert rep.c_rho_hat == pytest.approx(expected, rel=1e-12)
        # closed balls count both atoms: the adjacent interior pair gives 3
        assert rep.c_rho_hat == pytest.approx(3.0)

    def test_witness_attains_the_constant(self):
        rng = np.random.default_rng(9)
        sp = random_space(rng, 16)
        r1 = kernel_matrix(sp, KernelSpec("rho1"))
        for kind in ("rho2", "geom", "harm"):
            rep = kernel_comparability(sp, KernelSpec(kind))
            x, y = rep.rho_witness
            ratio = kernel_matrix(sp, KernelSpec(kind))[x, y] / r1[x, y]
            assert x != y
            assert rep.c_rho_hat == max(ratio, 1.0 / ratio)

    def test_geom_bounded_by_measured_imbalance(self):
        rng = np.random.default_rng(8)
        sp = random_space(rng, 16)
        rep = kernel_comparability(sp, KernelSpec("geom"))
        r1 = kernel_matrix(sp, KernelSpec("rho1"))
        r2 = kernel_matrix(sp, KernelSpec("rho2"))
        off = ~np.eye(sp.n, dtype=bool)
        bound = float(np.max(np.sqrt(np.maximum(r2[off] / r1[off], r1[off] / r2[off]))))
        assert rep.c_rho_hat <= bound * (1 + 1e-12)

    def test_parse_round_trip(self):
        for tag in ("rho1", "rho2", "sum", "geom", "harm", "ahlfors:2"):
            assert KernelSpec.parse(tag).key == tag
        spec = KernelSpec.parse("gauge-ahlfors:2:ball:2")
        assert spec.kind == "gauge-ahlfors"
        assert spec.body.dim == 2

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            KernelSpec.parse("bogus")
        for text in ("rho1:2", "harm:x", "ahlfors:2:extra"):
            with pytest.raises(ValueError, match="bad kernel tag"):
                KernelSpec.parse(text)
        with pytest.raises(BodyError, match="bad body tag"):
            KernelSpec.parse("gauge-ahlfors:2:ball:2:7")
        with pytest.raises(ValueError):
            KernelSpec("bogus")
