"""Discrete gradient surrogates, the minimal two-point gradient, and path sums.

cheeger_surrogate replaces the (uncomputable) minimal weak upper gradient by
a local slope: the max difference quotient over natural neighbors, or a
centered finite difference on 1d/2d grids. It anchors all energy ratios.

hajlasz_minimal solves the convex feasibility problem

    minimize sum_x w(x) g(x)^p
    subject to g(x) + g(y) >= |u(x) - u(y)| / d(x,y)^sigma
               for all pairs with 0 < d(x,y) <= r,  g >= 0

by projected subgradient descent: normalized-gradient steps of length
scale/k from the always-feasible start g0(x) = max_y |u(x)-u(y)|/d^sigma,
with per-pair equal-split constraint repair (each endpoint absorbs half of
its worst deficit, which restores feasibility in one pass) followed by a ray
rescale that keeps the worst constraint tight.

For p = 2 on small constraint sets the result is then tightened by cyclic
dual coordinate ascent (closed-form per-pair multiplier updates, the
weighted-split counterpart of the repair step), which converges to the
exact quadratic optimum; the better feasible point wins. Everything is
deterministic with no external solver; exactness is certified against a
brute-force enumeration oracle on small spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, as_values
from .space import MetricMeasureSpace

__all__ = ["cheeger_surrogate", "hajlasz_minimal", "HajlaszResult", "path_integral"]


def _knn_edges(space: MetricMeasureSpace, k: int) -> np.ndarray:
    order = space.cache("knn_order", lambda: np.argsort(space.dist, axis=1, kind="stable"))
    k = min(k, space.n - 1)
    pairs = []
    for x in range(space.n):
        for y in order[x, 1 : k + 1]:
            pairs.append((x, int(y)))
    return np.asarray(pairs, dtype=np.int64)


def _slope_gradient(space: MetricMeasureSpace, vals: np.ndarray, k: int) -> np.ndarray:
    edges = space.edges if space.edges is not None else _knn_edges(space, k)
    grad = np.zeros(space.n)
    seen = np.zeros(space.n, dtype=bool)
    i, j = edges[:, 0], edges[:, 1]
    d = space.dist[i, j]
    if np.any(d <= 0):
        raise ValueError("degenerate neighbor edge with zero length")
    slope = np.abs(vals[i] - vals[j]) / d
    np.maximum.at(grad, i, slope)
    np.maximum.at(grad, j, slope)
    seen[i] = True
    seen[j] = True
    if not np.all(seen):
        raise ValueError(f"isolated point {int(np.nonzero(~seen)[0][0])}: no neighbors")
    return grad


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
    if not p >= 1:  # NaN fails too
        raise ValueError(f"exponent p must be >= 1, got {p}")
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
    iu, ju = np.triu_indices(space.n, k=1)
    d = space.dist[iu, ju]
    keep = d <= cutoff
    iu, ju, d = iu[keep], ju[keep], d[keep]
    c = np.abs(vals[iu] - vals[ju]) / d**sigma
    active = c > 0.0
    return iu[active], ju[active], c[active]


REFINE_MAX_CONSTRAINTS = 600


def _dual_refine_p2(
    w: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    c: np.ndarray,
    max_sweeps: int = 20000,
    tol: float = 1e-14,
) -> np.ndarray:
    """Exact minimizer of sum w g^2 under g_i + g_j >= c by dual coordinate ascent.

    Cyclic closed-form updates of one pair multiplier at a time (Hildreth's
    scheme): the pair deficit is split between the endpoints in inverse
    proportion to their weights, and slack pairs give back earlier
    over-repair. Converges linearly to the quadratic optimum.
    """
    lam = np.zeros(c.size)
    g = np.zeros(w.size)
    inv2w_i = 1.0 / (2.0 * w[i])
    inv2w_j = 1.0 / (2.0 * w[j])
    denom = inv2w_i + inv2w_j
    scale = float(np.max(c))
    order = range(c.size)
    for _ in range(max_sweeps):
        biggest = 0.0
        for m in order:
            a, b = i[m], j[m]
            step = (c[m] - g[a] - g[b]) / denom[m]
            if step < -lam[m]:
                step = -lam[m]
            if step != 0.0:
                lam[m] += step
                g[a] += step * inv2w_i[m]
                g[b] += step * inv2w_j[m]
                moved = abs(step) * denom[m]
                if moved > biggest:
                    biggest = moved
        if biggest <= tol * scale:
            break
    return g


def hajlasz_minimal(
    space: MetricMeasureSpace,
    u,
    p: float,
    sigma: float = 1.0,
    cutoff: float = np.inf,
    max_iter: int = 20000,
    feas_tol: float = 1e-10,
    stop_tol: float = 1e-8,
    stop_window: int = 50,
) -> HajlaszResult:
    """Minimal-energy two-point gradient for u at fractional order sigma."""
    if not p >= 1:  # NaN fails too
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"fractional order sigma must be in (0, 1], got {sigma}")
    vals = as_values(u, space.n)
    w = space.weights
    i, j, c = _pair_constraints(space, vals, sigma, cutoff)

    if c.size == 0:
        zero = ScalarField(np.zeros(space.n), provenance="op:hajlasz")
        return HajlaszResult(zero, 0.0, 0.0, 0, True)

    g0 = np.zeros(space.n)
    np.maximum.at(g0, i, c)
    np.maximum.at(g0, j, c)
    scale = float(np.linalg.norm(g0))

    def objective(g: np.ndarray) -> float:
        return float(np.sum(w * g**p))

    def violation(g: np.ndarray) -> float:
        return float(np.max(np.maximum(c - g[i] - g[j], 0.0), initial=0.0))

    def lift(g: np.ndarray) -> np.ndarray:
        # each endpoint absorbs half of its worst deficit: one pass restores
        # g[x]+g[y] >= c on every pair
        deficit = np.maximum(c - g[i] - g[j], 0.0)
        bump = np.zeros_like(g)
        np.maximum.at(bump, i, 0.5 * deficit)
        np.maximum.at(bump, j, 0.5 * deficit)
        return g + bump

    def repair(g: np.ndarray) -> np.ndarray:
        g = lift(g)
        # ray rescale: pull back until the worst constraint is tight
        tau = float(np.max(c / (g[i] + g[j])))
        return g * tau

    g = g0.copy()
    best_g = g.copy()
    best_obj = objective(g)
    history = [best_obj]
    converged = False
    iterations = 0

    for k_iter in range(1, max_iter + 1):
        iterations = k_iter
        grad = p * w * np.maximum(g, 0.0) ** (p - 1.0)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break
        g = np.maximum(g - (scale / k_iter) * grad / norm, 0.0)
        g = repair(g)
        obj = objective(g)
        if obj < best_obj:
            best_obj = obj
            best_g = g.copy()
        history.append(best_obj)
        if k_iter > stop_window:
            drop = history[-1 - stop_window] - best_obj
            if drop <= stop_tol * max(best_obj, 1e-300):
                converged = True
                break

    if p == 2.0 and c.size <= REFINE_MAX_CONSTRAINTS:
        # certify feasibility before accepting (dual iterates approach the
        # boundary from outside only in the limit)
        refined = lift(_dual_refine_p2(w, i, j, c))
        refined_obj = objective(refined)
        if violation(refined) <= feas_tol:
            if refined_obj < best_obj:
                best_obj = refined_obj
                best_g = refined
                converged = True
            elif refined_obj <= best_obj * (1.0 + 1e-9):
                # the exact route agrees with the incumbent: certified optimum
                converged = True

    worst = violation(best_g)
    if worst > feas_tol:
        # never expected: repair restores feasibility each iteration
        converged = False
    if not converged:
        import warnings

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
    if np.any(nodes[:-1] == nodes[1:]):
        k = int(np.nonzero(nodes[:-1] == nodes[1:])[0][0])
        raise ValueError(f"consecutive path points must be distinct (position {k})")
    a, b = nodes[:-1], nodes[1:]
    lengths = space.dist[a, b]
    total = float(np.sum(0.5 * (vals[a] + vals[b]) * lengths))
    return total, float(np.sum(lengths))
