import itertools
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nsl.space
from nsl import KernelSpec, MetricMeasureSpace, ScalarField, SpaceSpec, build_space
from nsl.kernels import kernel_matrix


# An origin-symmetric hexagon, as a body tag: a polygon gauge that is neither
# the square's max norm nor a quadratic form.
HEXAGON = "polygon:1,0;0.5,0.8;-0.5,0.8;-1,0;-0.5,-0.8;0.5,-0.8"


def traced_peak(fn):
    """fn()'s result and the peak bytes that tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_gasket_builds(monkeypatch, pause: float = 0.0) -> list[int]:
    """Count the calls of space._gasket_distances (each after a pause, if one is given)."""
    calls = []
    build = nsl.space._gasket_distances

    def counted(*args):
        calls.append(1)
        time.sleep(pause)
        return build(*args)

    monkeypatch.setattr(nsl.space, "_gasket_distances", counted)
    return calls


def sierpinski_reference(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-L gasket graph by subdividing all 3^level triangles at their midpoints:
    integer barycentric coordinates summing to 2^level, in the order the triangles first
    list them, and the sorted (i, j) edges with i < j. The reference the generator's
    three-copy recursion is held to."""
    scale = 2**level
    tris = [((scale, 0, 0), (0, scale, 0), (0, 0, scale))]
    for _ in range(level):
        nxt = []
        for a, b, c in tris:
            ab = tuple((a[k] + b[k]) // 2 for k in range(3))
            bc = tuple((b[k] + c[k]) // 2 for k in range(3))
            ca = tuple((c[k] + a[k]) // 2 for k in range(3))
            nxt.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c)])
        tris = nxt
    ids: dict[tuple[int, int, int], int] = {}
    edge_set: set[tuple[int, int]] = set()
    for tri in tris:
        for v in tri:
            if v not in ids:
                ids[v] = len(ids)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            i, j = ids[tri[u]], ids[tri[v]]
            edge_set.add((min(i, j), max(i, j)))
    return np.array(list(ids), dtype=np.int64), np.array(sorted(edge_set), dtype=np.int64)


def ball_mass_rows(space: MetricMeasureSpace, radii: np.ndarray) -> np.ndarray:
    """mu(B(x, radii[x, j])) for every point x, independent of the library's ball index: one
    stable argsort of each distance row of dist, a cumsum of the weights in that order and
    one searchsorted per row into the sorted distances."""
    order = np.argsort(space.dist, axis=1, kind="stable")
    ranked = np.take_along_axis(space.dist, order, axis=1)
    prefix = np.cumsum(space.weights[order], axis=1)
    out = np.empty_like(radii)
    for x in range(space.n):
        k = np.searchsorted(ranked[x], radii[x], side="right")
        out[x] = np.where(k > 0, prefix[x, np.maximum(k, 1) - 1], 0.0)
    return out


def assert_masses_match(got: np.ndarray, want: np.ndarray, weights: np.ndarray) -> None:
    """Bitwise with equal weights, whose prefix row any order of the points reads alike; to
    1e-14 relative with unequal ones, which the library sums per distance level and the
    stable-sort reference one point at a time. NaN (the diagonal) matches NaN."""
    if np.all(weights == weights[0]):
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.fixture
def no_ball_product(monkeypatch):
    """Make the general ball route, the block product energies._ball_product_totals, fail if
    it runs."""

    def ran(*args):
        raise AssertionError("the ball block product ran")

    monkeypatch.setattr("nsl.energies._ball_product_totals", ran)


@pytest.fixture
def two_point():
    """d = 1, both weights 1/2."""
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    return MetricMeasureSpace(dist, np.array([0.5, 0.5]), name="two-point")


@pytest.fixture
def two_point_field():
    return ScalarField(np.array([0.0, 1.0]))


@pytest.fixture
def three_collinear():
    """Points 0, 1/2, 1 on a line, uniform weights 1/3."""
    x = np.array([0.0, 0.5, 1.0])
    dist = np.abs(x[:, None] - x[None, :])
    return MetricMeasureSpace(dist, np.full(3, 1.0 / 3.0), coords=x, name="three-collinear")


@pytest.fixture
def circle64():
    return build_space(SpaceSpec("circle", n=64))


@pytest.fixture
def interval128():
    return build_space(SpaceSpec("interval", n=128))


@pytest.fixture
def ahlfors1():
    return KernelSpec("ahlfors", 1.0)


def matrix_file_space(spec: str) -> MetricMeasureSpace:
    """A hand-made matrix space: the generator's distances, weights, coordinates and edges
    with no generator tag, as a matrix file stores them."""
    sp = build_space(SpaceSpec.parse(spec))
    return MetricMeasureSpace(sp.dist, sp.weights, coords=sp.coords, edges=sp.edges)


def write_old_file(space: MetricMeasureSpace, path) -> None:
    """Write space's file as releases before compact closed-form files did: its whole document,
    every array included, even for a space whose metric tag names its generator."""
    text = json.dumps(nsl.space._document(space)) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def random_space(rng: np.random.Generator, n: int) -> MetricMeasureSpace:
    """Random points on a line: a genuine metric with nontrivial weights."""
    x = np.sort(rng.uniform(0.0, 1.0, n))
    while np.any(np.diff(x) < 1e-3):
        x = np.sort(rng.uniform(0.0, 1.0, n))
    dist = np.abs(x[:, None] - x[None, :])
    weights = rng.uniform(0.2, 1.0, n)
    return MetricMeasureSpace(dist, weights, coords=x, name="random-line")


def ball_average_oracle(space: MetricMeasureSpace, vals, t: float, p: float) -> np.ndarray:
    """Per center x', mu(B)^-2 sum_{x,y in B} |u(x)-u(y)|^p w w over B = closed B(x', t).

    Every ordered pair of each ball is summed term by term with math.fsum, with
    no rearrangement of the squares, so it is independent of the library route.
    """
    vals = np.asarray(vals, dtype=float)
    out = np.empty(space.n)
    for center in range(space.n):
        ball = np.nonzero(space.dist[center] <= t)[0]
        w, u = space.weights[ball], vals[ball]
        pairs = np.abs(np.subtract.outer(u, u)) ** p * np.outer(w, w)
        out[center] = math.fsum(pairs.ravel()) / math.fsum(w) ** 2
    return out


def s_oracle(space: MetricMeasureSpace, vals, t: float, p: float) -> float:
    """S_t from its definition: the center-weighted sum of ball_average_oracle."""
    return math.fsum(space.weights * ball_average_oracle(space, vals, t, p))


def ball_loop_totals(space: MetricMeasureSpace, vals, t: float, numer) -> np.ndarray:
    """Per center, sum_{x,y in B} numer(u_B)[x, y] w w over B = closed B(x', t), one
    center at a time, where numer maps the ball's values to its pair numerators."""
    w = space.weights
    totals = []
    for center in range(space.n):
        members = np.nonzero(space.dist[center] <= t)[0]
        ww = w[members]
        totals.append(float(np.sum(numer(vals[members]) * (ww[:, None] * ww[None, :]))))
    return np.array(totals)


def ball_loop_s(space: MetricMeasureSpace, vals, t: float, p: float) -> float:
    """S_t by the per-center loop: each ball's |B| x |B| gap matrix, one center at a time.
    The library's block product sums the same terms in another order, so the two agree to
    rounding, not bitwise."""
    totals = ball_loop_totals(space, vals, t, lambda sub: np.abs(sub[:, None] - sub[None, :]) ** p)
    return float(np.sum(space.weights * totals / space.ball_masses(t) ** 2))


def mean_comparison_oracle(space: MetricMeasureSpace, vals, t: float, p: float) -> float:
    """The ball-mean-comparison record's lhs, max over centers of
    max(low - mid, mid - high), with every sum over a ball taken term by term by
    math.fsum around the plain ball mean u_B."""
    vals = np.asarray(vals, dtype=float)
    worst = -math.inf
    for center in range(space.n):
        ball = np.nonzero(space.dist[center] <= t)[0]
        w, u = space.weights[ball], vals[ball]
        mass = math.fsum(w)
        mean = math.fsum(w * u) / mass
        low = mass * math.fsum(w * np.abs(u - mean) ** p)
        mid = math.fsum((np.abs(np.subtract.outer(u, u)) ** p * np.outer(w, w)).ravel())
        worst = max(worst, low - mid, mid - 2.0**p * low)
    return worst


def hajlasz_oracle_p2(weights, pairs, bounds):
    """Exact quadratic minimizer by active-set enumeration (small n only).

    Solves min g' diag(w) g subject to g_i + g_j >= c over all subsets of
    active constraints via the KKT system; dual-feasible solutions have
    g >= 0 automatically since c > 0.
    """
    n = len(weights)
    m = len(pairs)
    best = math.inf
    w = np.asarray(weights)
    for size in range(0, m + 1):
        for subset in itertools.combinations(range(m), size):
            a_mat = np.zeros((size, n))
            for row, idx in enumerate(subset):
                i, j = pairs[idx]
                a_mat[row, i] = 1.0
                a_mat[row, j] = 1.0
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = 2.0 * np.diag(w)
            kkt[:n, n:] = -a_mat.T
            kkt[n:, :n] = a_mat
            rhs = np.concatenate([np.zeros(n), [bounds[i] for i in subset]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            g, lam = sol[:n], sol[n:]
            if np.any(lam < -1e-9) or np.any(g < -1e-9):
                continue
            ok = all(g[i] + g[j] >= c - 1e-9 for (i, j), c in zip(pairs, bounds))
            if ok:
                best = min(best, float(np.sum(w * g**2)))
    return best


def _upper_pairs(space: MetricMeasureSpace, vals, kernel: KernelSpec):
    """d, gap and weight w(x) w(y) (1/rho(x,y) + 1/rho(y,x)) of every pair x < y, gathered at
    once over the whole upper triangle."""
    iu, ju = np.triu_indices(space.n, k=1)
    rho = kernel_matrix(space, kernel)
    weight = space.weights[iu] * space.weights[ju] * (1.0 / rho[iu, ju] + 1.0 / rho[ju, iu])
    return space.dist[iu, ju], np.abs(vals[iu] - vals[ju]), weight


def _group_sums(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ascending order and the sum of vals over each."""
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return uniq, np.add.reduceat(vals[order], starts)


def layer_cake_oracle(space: MetricMeasureSpace, vals, p: float, s: float,
                      kernel: KernelSpec) -> float:
    """The layer-cake side of check_fubini_identity as one step function over all pairs,
    one step per distinct distance."""
    d, gap, weight = _upper_pairs(space, vals, kernel)
    uniq, jumps = _group_sums(d, gap**p * weight)
    heads = uniq ** -(p * s)
    return float(np.sum(np.cumsum(jumps) * (heads - np.append(heads[1:], 0.0))))


def threshold_averaging_oracle(space: MetricMeasureSpace, vals, p: float, eps: float, r: float,
                               kernel: KernelSpec) -> float:
    """The segment-integral side of check_nguyen_averaging as one step function over all
    pairs, one step per distinct positive gap."""
    d, gap, weight = _upper_pairs(space, vals, kernel)
    positive = gap > 0
    uniq, per_gap = _group_sums(gap[positive], (weight / d**p)[positive])
    tails = np.cumsum(per_gap[::-1])[::-1]
    knots = np.minimum(np.append(0.0, uniq), r) ** (p + eps)
    return eps / (p + eps) * float(np.sum(tails * np.diff(knots)))
