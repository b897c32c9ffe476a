"""Discrete gradient surrogates, the minimal two-point gradient, and path sums.

cheeger_surrogate replaces the (uncomputable) minimal weak upper gradient by
a local slope: the max difference quotient over natural neighbors, or a
centered finite difference on 1d/2d grids. It anchors all energy ratios.

hajlasz_minimal solves the convex feasibility problem

    minimize sum_x w(x) g(x)^p
    subject to g(x) + g(y) >= |u(x) - u(y)| / d(x,y)^sigma
               for all pairs with 0 < d(x,y) <= r,  g >= 0

For p = 2 with at most EXACT_P2_MAX_PAIRS pairs this is a least-distance
program (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23),
solved exactly by their active-set NNLS in numpy: scipy.optimize.nnls would
add about 16 MB of imports to the resident set, where nsl otherwise imports
no scipy but scipy.sparse, and that only when a graph: space computes its
distances or verify's upper-gradient check builds its chains. Everything else
runs projected subgradient descent: steps of length scale/k along the
normalized gradient from the feasible start g0(x) = max_y |u(x)-u(y)|/d^sigma,
each followed by an equal-split lift (each endpoint absorbs half of its worst
deficit, which restores feasibility in one pass; it also makes the exact p = 2
answer feasible to rounding) and a ray rescale that makes the worst pair tight.

Each descent step pays only for a working set W of pairs, certified so that
every iterate is bitwise what a pass over all pairs gives (safe screening, as
in El Ghaoui, Viallon & Rabbani, Pacific J. Optim. 8, 2012). At a refresh
iterate g_r, W holds the pairs whose slack (g_r(x) + g_r(y)) - c is below
tau = SCREEN_KAPPA max c. A stepped iterate h with D = max|h - g_r| leaves
every other pair a slack of at least s = tau - 2D - mu, where mu = 16 eps
(max c + 2 max g_r + tau) covers rounding. While s > 0, each skipped pair's
c - h(x) - h(y) rounds to a negative number, so its deficit is exactly +0.0,
and a per-point max is exact and order-free: the scatter-max over W is the
full lift's. Otherwise the step lifts over all pairs and refreshes W at h.
The lift only raises g, so skipped pairs still have slack s at the lifted g,
and their ratios c/(g(x) + g(y)) are at most max c/(max c + s). A W ratio
above that (times 1 + 8 eps) is the global max for the ray rescale; else the
rescale takes all pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import _check_exponent
from .fields import ScalarField, as_values
from .parallel import row_blocks
from .space import MetricMeasureSpace

__all__ = ["cheeger_surrogate", "hajlasz_minimal", "HajlaszResult", "path_integral"]


def _knn_edges(space: MetricMeasureSpace, k: int) -> np.ndarray:
    """(x, y) for the k nearest y of each x, ties by ascending id: columns 1..k of each row's
    stable argsort (column 0 is x), sorted a row block at a time and cached per k."""
    k = min(k, space.n - 1)
    near = space.cache(("knn", k), lambda: np.concatenate([
        np.argsort(space.dist_rows(a, b), axis=1, kind="stable")[:, 1 : k + 1].copy()
        for a, b in row_blocks(space.n)]))
    return np.stack([np.repeat(np.arange(space.n), k), near.ravel()], 1)


def _slope_gradient(space: MetricMeasureSpace, vals: np.ndarray, k: int) -> np.ndarray:
    edges = space.edges if space.edges is not None else _knn_edges(space, k)
    i, j = edges[:, 0], edges[:, 1]
    d = space.dist_pairs(i, j)
    if np.any(d <= 0):
        raise ValueError("degenerate neighbor edge with zero length")
    ends = np.bincount(edges.ravel(), minlength=space.n)  # edge ends at each point
    if not np.all(ends):
        raise ValueError(f"isolated point {int(np.argmin(ends))}: no neighbors")
    return _point_max(space.n, i, j, np.abs(vals[i] - vals[j]) / d)


def _centered_gradient(space: MetricMeasureSpace, vals: np.ndarray) -> np.ndarray:
    kind = None if space.grid is None else space.grid.get("kind")
    if kind == "interval":
        x = space.coords[:, 0]
        return np.abs(np.gradient(vals, x))
    if kind == "circle":
        n = space.n
        h = 2.0 * np.pi / n
        return np.abs((np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * h))
    if kind in ("torus2d", "grid2d"):
        nx, ny = space.grid["shape"]
        grid_vals = vals.reshape(nx, ny)
        hx, hy = 1.0 / nx, 1.0 / ny
        if kind == "torus2d":
            gx = (np.roll(grid_vals, -1, axis=0) - np.roll(grid_vals, 1, axis=0)) / (2 * hx)
            gy = (np.roll(grid_vals, -1, axis=1) - np.roll(grid_vals, 1, axis=1)) / (2 * hy)
        else:
            gx = np.gradient(grid_vals, hx, axis=0)
            gy = np.gradient(grid_vals, hy, axis=1)
        return np.hypot(gx, gy).ravel()
    raise ValueError("centered differences need a 1d/2d grid structure")


def cheeger_surrogate(
    space: MetricMeasureSpace,
    u,
    p: float,
    scheme: str = "auto",
    k: int = 4,
) -> tuple[float, ScalarField]:
    """Local-slope Dirichlet energy and its gradient field.

    scheme "slope" takes the max difference quotient over neighbors (grid
    stencil, graph edges, or k nearest neighbors for generic spaces);
    "centered" uses centered finite differences on 1d/2d grids; "auto"
    prefers centered when a grid is available.
    """
    _check_exponent(p)
    vals = as_values(u, space.n)
    if scheme == "auto":
        scheme = "centered" if space.grid is not None else "slope"
    if scheme == "centered":
        grad = _centered_gradient(space, vals)
    elif scheme == "slope":
        grad = _slope_gradient(space, vals, k)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    energy = float(np.sum(space.weights * grad**p))
    return energy, ScalarField(grad, provenance=f"op:cheeger:{scheme}")


@dataclass(frozen=True)
class HajlaszResult:
    gradient: ScalarField
    objective: float
    violation: float
    iterations: int
    converged: bool


def _pair_constraints(
    space: MetricMeasureSpace, vals: np.ndarray, sigma: float, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs i < j within the cutoff whose c = |u(i) - u(j)| / d(i, j)^sigma is positive, row-major
    like np.triu_indices, a row block of dist_rows at a time: no n x n mask or distance matrix."""
    parts = []
    for a, b in row_blocks(space.n):
        rows = space.dist_rows(a, b)
        iu, ju = np.nonzero(np.triu(rows <= cutoff, k=a + 1))  # columns past the diagonal
        c = np.abs(vals[iu + a] - vals[ju]) / rows[iu, ju] ** sigma
        active = c > 0.0
        parts.append((iu[active] + a, ju[active], c[active]))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _point_max(n: int, i: np.ndarray, j: np.ndarray, pair_vals: np.ndarray) -> np.ndarray:
    """Max over the pairs incident to each point, +0.0 where there are none."""
    top = np.zeros(n)
    np.maximum.at(top, i, pair_vals)
    np.maximum.at(top, j, pair_vals)
    return top


def _worst_ratio(g: np.ndarray, i: np.ndarray, j: np.ndarray, c: np.ndarray) -> float:
    """The ray-rescale factor: max c / (g[i] + g[j]) over the pairs, 0.0 if none."""
    return float((c / (g[i] + g[j])).max(initial=0.0))


EXACT_P2_MAX_PAIRS = 600
FEAS_TOL = 1e-10  # worst constraint deficit a returned gradient may carry
STOP_TOL = 1e-8  # relative objective drop below which the descent has stalled
STOP_WINDOW = 50  # iterations over which that drop is measured
SCREEN_KAPPA = 0.02  # working-set slack threshold tau, as a share of max c
EPS = float(np.finfo(float).eps)


def _nnls(e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lawson-Hanson active set for min |e lam - f| over lam >= 0.

    Also says whether it stopped on its optimality test within 3m steps.
    Passive solves take the normal equations and one refinement step, as
    accurate as QR here and several times faster than np.linalg.lstsq.
    """
    m = e.shape[1]
    lam = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(e.shape) * float(np.max(np.abs(e).sum(axis=0)))
    for _ in range(3 * m):
        slope = np.where(passive, -np.inf, e.T @ (f - e @ lam))
        t = int(np.argmax(slope))
        if slope[t] <= tol:
            return lam, True
        passive[t] = True
        while True:
            cols = np.flatnonzero(passive)
            sub = e[:, cols]
            gram = sub.T @ sub
            try:
                z = np.linalg.solve(gram, sub.T @ f)
                z += np.linalg.solve(gram, sub.T @ (f - sub @ z))
            except np.linalg.LinAlgError:  # numerically dependent columns
                return lam, False
            if np.all(z > 0.0):
                lam[cols] = z
                break
            # step toward z until a multiplier reaches 0; it leaves the set
            x = lam[cols]
            blocked = np.flatnonzero(z <= 0.0)
            ratios = x[blocked] / np.maximum(x[blocked] - z[blocked], np.finfo(float).tiny)
            lam[cols] = x + float(np.min(ratios)) * (z - x)
            lam[cols[blocked[np.argmin(ratios)]]] = 0.0
            passive[cols[lam[cols] <= 0.0]] = False
            lam[~passive] = 0.0
    return lam, False


def _least_distance_p2(w, i, j, c) -> tuple[np.ndarray, bool]:
    """Minimizer of sum w g^2 under g_i + g_j >= c, and whether NNLS certified it.

    With x = W^(1/2) g this is min |x| subject to G x >= c, G = A W^(-1/2)
    for the pair-point incidence matrix A >= 0. The NNLS dual has E = [G^T ;
    c^T] and target e_last, and x = -r[:-1] / r[-1] >= 0 for r = E lam - e_last.
    """
    points, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    root = 1.0 / np.sqrt(w[points])
    e = np.zeros((points.size + 1, c.size))
    e[ends, np.tile(np.arange(c.size), 2)] = root[ends]
    e[-1] = c
    f = np.append(np.zeros(points.size), 1.0)
    lam, optimal = _nnls(e, f)
    r = e @ lam - f
    g = np.zeros(w.size)
    g[points] = root * (-r[:-1] / r[-1])
    return g, optimal


def hajlasz_minimal(
    space: MetricMeasureSpace,
    u,
    p: float,
    sigma: float = 1.0,
    cutoff: float = np.inf,
    max_iter: int = 20000,
) -> HajlaszResult:
    """Minimal-energy two-point gradient for u at fractional order sigma."""
    _check_exponent(p)
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"fractional order sigma must be in (0, 1], got {sigma}")
    if not cutoff > 0:
        raise ValueError(f"cutoff r must be > 0, got {cutoff}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    vals = as_values(u, space.n)
    w = space.weights
    i, j, c = _pair_constraints(space, vals, sigma, cutoff)

    if c.size == 0:
        zero = ScalarField(np.zeros(space.n), provenance="op:hajlasz")
        return HajlaszResult(zero, 0.0, 0.0, 0, True)

    def deficit(g: np.ndarray, i=i, j=j, c=c) -> np.ndarray:
        return np.maximum(c - g[i] - g[j], 0.0)

    def objective(g: np.ndarray) -> float:
        return float((w * g**p).sum())

    def lift(g: np.ndarray, i=i, j=j, c=c) -> np.ndarray:
        # each endpoint absorbs half of its worst deficit: one pass restores
        # g[x]+g[y] >= c on every pair (halving commutes with the max)
        return g + 0.5 * _point_max(space.n, i, j, deficit(g, i, j, c))

    iterations = 0
    if p == 2.0 and c.size <= EXACT_P2_MAX_PAIRS:
        exact, converged = _least_distance_p2(w, i, j, c)
        best_g = lift(exact)
        best_obj = objective(best_g)
    else:
        g = _point_max(space.n, i, j, c)  # feasible start g0(x) = max_y |u(x)-u(y)|/d^sigma
        scale = math.sqrt(g.dot(g))  # what np.linalg.norm computes
        pw = p * w
        best_g = g
        best_obj = objective(g)
        history = [best_obj]
        converged = False
        c_max = float(np.max(c))
        tau = SCREEN_KAPPA * c_max
        anchor = None  # the working set's refresh iterate (module docstring)

        for k_iter in range(1, max_iter + 1):
            iterations = k_iter
            # g >= +0.0 after every rescale, so no clamp is needed before the power
            grad = pw * g ** (p - 1.0)
            norm = math.sqrt(grad.dot(grad))
            if norm == 0.0:
                break
            g = np.maximum(g - (scale / k_iter) * grad / norm, 0.0)
            drift = math.inf if anchor is None else 2.0 * float(np.abs(g - anchor).max()) + mu
            if drift >= tau:
                anchor, mu = g, 16.0 * EPS * (c_max + 2.0 * float(g.max()) + tau)
                keep = (g[i] + g[j]) - c < tau
                ws, drift = (i[keep], j[keep], c[keep]), mu
                g = lift(g)
            else:
                g = lift(g, *ws)
            # the lift only raises g, so skipped pairs keep slack spare = tau - drift
            spare, ratio = tau - drift, _worst_ratio(g, *ws)
            if not (spare > 0.0 and ratio > c_max / (c_max + spare) * (1.0 + 8.0 * EPS)):
                ratio = _worst_ratio(g, i, j, c)
            g = g * ratio  # ray rescale: worst pair tight
            obj = objective(g)
            if obj < best_obj:
                best_obj = obj
                best_g = g
            history.append(best_obj)
            if k_iter > STOP_WINDOW:
                drop = history[-1 - STOP_WINDOW] - best_obj
                if drop <= STOP_TOL * max(best_obj, 1e-300):
                    converged = True
                    break

    worst = float(np.max(deficit(best_g), initial=0.0))
    if worst > FEAS_TOL:
        # never expected: the lift restores feasibility
        converged = False
    if not converged:
        warnings.warn(
            f"hajlasz_minimal stopped after {iterations} iterations without "
            f"meeting the stopping rule (objective {best_obj!r}, violation {worst!r})",
            RuntimeWarning,
            stacklevel=2,
        )
    return HajlaszResult(
        gradient=ScalarField(best_g, provenance="op:hajlasz"),
        objective=best_obj,
        violation=worst,
        iterations=iterations,
        converged=converged,
    )


def path_integral(space: MetricMeasureSpace, g, path) -> tuple[float, float]:
    """Trapezoid line sum of g along a chain; returns (integral, length)."""
    vals = as_values(g, space.n)
    nodes = np.asarray(path, dtype=np.int64)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("a path needs at least two points")
    outside = np.flatnonzero((nodes < 0) | (nodes >= space.n))
    if outside.size:
        k = int(outside[0])
        raise ValueError(
            f"path point {int(nodes[k])} at position {k} is not a point id in [0, {space.n})")
    if np.any(nodes[:-1] == nodes[1:]):
        k = int(np.nonzero(nodes[:-1] == nodes[1:])[0][0])
        raise ValueError(f"consecutive path points must be distinct (position {k})")
    a, b = nodes[:-1], nodes[1:]
    lengths = space.dist_pairs(a, b)
    total = float(np.sum(0.5 * (vals[a] + vals[b]) * lengths))
    return total, float(np.sum(lengths))
