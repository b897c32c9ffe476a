"""Finite metric measure spaces.

A space is a finite set of points with a symmetric distance matrix, one
positive weight per point (the measure of that atom), and a per-point
distance-sorted ball index for O(log n) closed-ball mass queries.

Balls are closed everywhere: B(x, r) = {y : d(x, y) <= r}. The theory of
doubling measures on finite spaces needs atoms counted consistently, and the
closed convention makes the ball mass a right-continuous step function of the
radius with jumps exactly at realized distances.

Generators cover the standard desk-scale test geometries: cell-centered
interval grids with a |x|^alpha weight density, circles with arc-length
geodesic distance, flat 2-tori, gauge-metric grids for convex bodies,
edge-weighted graphs with shortest-path distance, and graph approximations
of the Sierpinski gasket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .constants import ConvexBody, gauge_distance_matrix, parse_body

MAX_POINTS = 4096

__all__ = [
    "MetricMeasureSpace",
    "SpaceSpec",
    "DoublingReport",
    "build_space",
    "ball_measure",
    "doubling_constant",
    "save_space",
    "load_space",
]


class SpaceError(ValueError):
    """Invalid space parameters or space file."""


@dataclass(frozen=True)
class SpaceSpec:
    """Generator tag plus parameters for a bundled space.

    Generators, by the text form that parse() reads:
      interval:N[:ALPHA]   cell-centered grid on (0,1), weight x^alpha / n
      circle:N             n points on the unit circle, arc-length distance
      torus2d:NXxNY        cell-centered grid on the flat unit torus
      gauge_grid:N:BODY    grid on [0,1]^2 with the Minkowski gauge of BODY
      graph:EDGEFILE       edge-weighted graph, shortest-path distance; the
                           file holds CSV rows i,j,length and # comments
      sierpinski:LEVEL     level-m graph approximation of the gasket
    """

    generator: str
    n: int = 0
    alpha: float = 0.0
    nx: int = 0
    ny: int = 0
    level: int = 0
    body: ConvexBody | None = None
    edges: tuple[tuple[int, int, float], ...] = ()
    weights: tuple[float, ...] = ()

    def validate(self) -> None:
        """Check the parameters and the point budget; allocates nothing."""
        g = self.generator
        if g in ("interval", "circle", "gauge_grid"):
            if self.n < 2:
                raise SpaceError(f"{g} needs n >= 2, got {self.n}")
        if g == "interval" and not self.alpha > -1.0:
            raise SpaceError(f"interval weight exponent must be > -1, got {self.alpha}")
        if g == "torus2d" and (self.nx < 2 or self.ny < 2):
            raise SpaceError(f"torus2d needs nx, ny >= 2, got {self.nx}x{self.ny}")
        if g == "gauge_grid" and self.body is None:
            raise SpaceError("gauge_grid needs a convex body")
        if g == "sierpinski" and self.level < 0:
            raise SpaceError(f"sierpinski level must be >= 0, got {self.level}")
        if g == "graph" and not self.edges:
            raise SpaceError("graph needs a nonempty edge list")
        if g == "graph" and min(min(i, j) for i, j, _ in self.edges) < 0:
            raise SpaceError("graph vertex ids must be >= 0")
        if g not in ("interval", "circle", "torus2d", "gauge_grid", "graph", "sierpinski"):
            raise SpaceError(f"unknown generator {g!r}")
        count = self._point_count()
        if count > MAX_POINTS:
            raise SpaceError(f"{count} points exceeds the {MAX_POINTS}-point desk-scale budget")

    def _point_count(self) -> int:
        g = self.generator
        if g in ("interval", "circle"):
            return self.n
        if g == "torus2d":
            return self.nx * self.ny
        if g == "gauge_grid":
            return self.n**2
        if g == "sierpinski":
            # (3^(level+1) + 3) / 2 vertices; level 8 already has 9843, so
            # capping the level there keeps the power small
            return (3 ** (min(self.level, 8) + 1) + 3) // 2
        return max(max(i, j) for i, j, _ in self.edges) + 1

    @staticmethod
    def parse(text: str) -> SpaceSpec:
        """The spec of one text form listed above; any fault raises SpaceError."""
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            if kind == "interval":
                alpha = float(parts[2]) if len(parts) > 2 else 0.0
                return SpaceSpec("interval", n=int(parts[1]), alpha=alpha)
            if kind == "circle":
                return SpaceSpec("circle", n=int(parts[1]))
            if kind == "torus2d":
                nx, ny = parts[1].lower().split("x")
                return SpaceSpec("torus2d", nx=int(nx), ny=int(ny))
            if kind == "sierpinski":
                return SpaceSpec("sierpinski", level=int(parts[1]))
            if kind == "gauge_grid":
                return SpaceSpec("gauge_grid", n=int(parts[1]), body=parse_body(":".join(parts[2:])))
            if kind == "graph":
                edges = []
                for line in Path(parts[1]).read_text(encoding="utf-8").splitlines():
                    line = line.strip()
                    if line and not line.startswith("#"):
                        i, j, length = line.split(",")
                        edges.append((int(i), int(j), float(length)))
                return SpaceSpec("graph", edges=tuple(edges))
        except (IndexError, ValueError, OSError) as exc:
            raise SpaceError(f"bad space spec {text!r}: {exc}") from exc
        raise SpaceError(f"unknown space generator in {text!r}")

    @staticmethod
    def from_metric(metric: dict[str, Any]) -> SpaceSpec | None:
        """The spec whose generator writes this metric tag; None if none does."""
        params = metric.get("params")
        if not isinstance(params, dict):
            return None
        gen = params.get("generator")
        try:
            if gen == "interval":
                return SpaceSpec(gen, n=int(params["n"]), alpha=float(params["alpha"]))
            if gen == "circle":
                return SpaceSpec(gen, n=int(params["n"]))
            if gen == "torus2d":
                return SpaceSpec(gen, nx=int(params["nx"]), ny=int(params["ny"]))
            if gen == "gauge_grid":
                body = ConvexBody.from_dict(params["body"])
                return SpaceSpec(gen, n=int(params["n"]), body=body)
            if gen == "sierpinski":
                return SpaceSpec(gen, level=int(params["level"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpaceError(f"bad {gen} metric params {params!r}: {exc!r}") from exc
        return None

    def refined(self) -> SpaceSpec | None:
        """The same generator at twice the resolution; None if it has no refinement."""
        if self.generator in ("interval", "circle"):
            return replace(self, n=2 * self.n)
        if self.generator == "torus2d":
            return replace(self, nx=2 * self.nx, ny=2 * self.ny)
        if self.generator == "sierpinski":
            return replace(self, level=self.level + 1)
        return None


@dataclass
class DoublingReport:
    """Measured doubling diagnostics.

    c_d_hat is the exact supremum of mu(B(x,2r))/mu(B(x,r)) over all points
    and all radii (realized distances and their halves suffice because the
    ball mass is a step function of r). c_rho_hat is the two-sided
    comparability constant of a kernel against mu(B(x, d(x,y))).
    """

    c_d_hat: float = 1.0
    witness: tuple[int, float] | None = None
    c_rho_hat: float | None = None
    kernel: str | None = None
    rho_witness: tuple[int, int] | None = None
    non_doubling_like: bool = False

    def __post_init__(self) -> None:
        if self.c_d_hat < 1.0:
            raise ValueError(f"c_d_hat must be >= 1, got {self.c_d_hat}")
        if self.c_rho_hat is not None and self.c_rho_hat < 1.0 - 1e-12:
            raise ValueError(f"c_rho_hat must be >= 1, got {self.c_rho_hat}")


class MetricMeasureSpace:
    """Immutable finite metric measure space.

    Parameters
    ----------
    dist : (n, n) array
        Symmetric distances, zero exactly on the diagonal.
    weights : (n,) array
        Positive atom masses.
    coords : (n, dim) array, optional
        Point coordinates; required for expression-defined fields.
    name : str
        Display name.
    metric : dict
        Serialization tag: {"type": ..., "params": {...}}. Type "matrix"
        stores the distances verbatim; closed-form types rebuild them from
        coordinates on load.
    edges : (m, 2) int array, optional
        Natural neighbor structure (grid stencil or graph edges) for local
        gradient evaluators and discrete geodesics.
    grid : dict, optional
        Grid topology, e.g. {"kind": "circle"} or {"kind": "torus2d",
        "shape": [nx, ny]}; used by centered finite-difference evaluators.
    """

    def __init__(
        self,
        dist: np.ndarray,
        weights: np.ndarray,
        coords: np.ndarray | None = None,
        name: str = "space",
        metric: dict[str, Any] | None = None,
        edges: np.ndarray | None = None,
        grid: dict[str, Any] | None = None,
    ) -> None:
        dist = np.ascontiguousarray(dist, dtype=np.float64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        n = weights.shape[0]
        if dist.shape != (n, n):
            raise SpaceError(f"distance matrix shape {dist.shape} does not match {n} weights")
        if n > MAX_POINTS:
            raise SpaceError(f"{n} points exceeds the {MAX_POINTS}-point desk-scale budget")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            bad = int(np.argmin(weights))
            raise SpaceError(f"nonpositive weight at point {bad}: {weights[bad]}")
        if np.any(np.diagonal(dist) != 0.0):
            bad = int(np.nonzero(np.diagonal(dist))[0][0])
            raise SpaceError(f"nonzero diagonal distance at point {bad}")
        if edges is not None:
            edges = np.asarray(edges, dtype=np.int64)
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise SpaceError(f"edges must be an (m, 2) array of point ids, got {edges.shape}")
            if edges.size and (edges.min() < 0 or edges.max() >= n):
                raise SpaceError(f"edge point ids must lie in [0, {n})")

        self.name = name
        self.n = n
        self.dist = dist
        self.weights = weights
        self.coords = None if coords is None else np.ascontiguousarray(coords, dtype=np.float64)
        if self.coords is not None and self.coords.ndim == 1:
            self.coords = self.coords[:, None]
        self.metric = metric or {"type": "matrix", "params": {}}
        self.edges = None if edges is None else np.ascontiguousarray(edges, dtype=np.int64)
        self.grid = grid
        self.total_mass = float(np.sum(weights))
        for arr in (self.dist, self.weights, self.coords, self.edges):
            if arr is not None:
                arr.setflags(write=False)
        self._cache: dict[Any, Any] = {}

    # -- basic geometry ------------------------------------------------------

    @property
    def points(self) -> range:
        return range(self.n)

    @property
    def dim(self) -> int | None:
        return None if self.coords is None else self.coords.shape[1]

    @property
    def diameter(self) -> float:
        if "diameter" not in self._cache:
            self._cache["diameter"] = float(np.max(self.dist))
        return self._cache["diameter"]

    @property
    def min_distance(self) -> float:
        """Smallest positive distance (the mesh scale)."""
        if "min_distance" not in self._cache:
            d = self.dist[~np.eye(self.n, dtype=bool)]
            self._cache["min_distance"] = float(np.min(d)) if d.size else 0.0
        return self._cache["min_distance"]

    # -- ball index ----------------------------------------------------------

    def _ball_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-point sorted distances and prefix-summed masses.

        Ties are broken by ascending point id (stable sort), so the index is
        deterministic. prefix[x, k] is the mass of the k+1 nearest points.
        """
        if "ball_index" not in self._cache:
            order = np.argsort(self.dist, axis=1, kind="stable")
            sorted_d = np.take_along_axis(self.dist, order, axis=1)
            prefix = np.cumsum(self.weights[order], axis=1)
            self._cache["ball_index"] = (sorted_d, prefix)
        return self._cache["ball_index"]

    def ball_mass(self, x: int, r: float) -> float:
        """Mass of the closed ball B(x, r)."""
        if not 0 <= x < self.n:
            raise SpaceError(f"unknown point id {x}")
        if r < 0:
            raise SpaceError(f"radius must be >= 0, got {r}")
        sorted_d, prefix = self._ball_index()
        k = int(np.searchsorted(sorted_d[x], r, side="right"))
        return 0.0 if k == 0 else float(prefix[x, k - 1])

    def ball_masses(self, r: float) -> np.ndarray:
        """Vector of closed-ball masses mu(B(x, r)) for every point."""
        key = ("ball_masses", float(r))
        if key not in self._cache:
            sorted_d, prefix = self._ball_index()
            counts = np.sum(sorted_d <= r, axis=1)
            counts = np.maximum(counts, 1)  # diagonal 0 <= r for r >= 0
            masses = prefix[np.arange(self.n), counts - 1]
            masses.setflags(write=False)
            self._cache[key] = masses
        return self._cache[key]

    def ball_mass_rows(self, a: int, b: int, radii: np.ndarray) -> np.ndarray:
        """mu(B(x, radii[x - a, j])) for rows a..b; radii is (b-a, n)."""
        sorted_d, prefix = self._ball_index()
        out = np.empty_like(radii)
        for i, x in enumerate(range(a, b)):
            k = np.searchsorted(sorted_d[x], radii[i], side="right")
            out[i] = np.where(k > 0, prefix[x, np.maximum(k, 1) - 1], 0.0)
        return out

    def cache(self, key: Any, build) -> Any:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self) -> str:
        return f"MetricMeasureSpace({self.name!r}, n={self.n}, mass={self.total_mass:.6g})"


# -- public query wrappers ----------------------------------------------------


def ball_measure(space: MetricMeasureSpace, x: int, r: float) -> float:
    """Mass of the closed ball {y : d(x, y) <= r}."""
    return space.ball_mass(x, r)


def doubling_constant(
    space: MetricMeasureSpace, non_doubling_threshold: float = 64.0
) -> DoublingReport:
    """Exact supremum of mu(B(x,2r))/mu(B(x,r)) over points and radii.

    Radii r in {d(x,y)} union {d(x,y)/2} are sufficient: both ball masses are
    right-continuous step functions of r jumping only at realized distances,
    so the ratio is piecewise constant and attains its sup at one of these
    breakpoints.
    """
    if space.n < 2:
        raise SpaceError("doubling constant needs at least two points")

    def work() -> tuple[float, int, float]:
        sorted_d, prefix = space._ball_index()
        best = 1.0
        best_x, best_r = 0, 0.0
        for x in range(space.n):
            pos = sorted_d[x][sorted_d[x] > 0.0]
            if pos.size == 0:
                continue
            cand = np.concatenate([pos, pos * 0.5])
            k_r = np.searchsorted(sorted_d[x], cand, side="right")
            k_2r = np.searchsorted(sorted_d[x], 2.0 * cand, side="right")
            num = prefix[x, k_2r - 1]
            den = prefix[x, k_r - 1]
            ratios = num / den
            j = int(np.argmax(ratios))
            if ratios[j] > best:
                best = float(ratios[j])
                best_x, best_r = x, float(cand[j])
        return best, best_x, best_r

    best, best_x, best_r = space.cache("doubling", work)
    return DoublingReport(
        c_d_hat=best,
        witness=(best_x, best_r),
        non_doubling_like=best > non_doubling_threshold,
    )


# -- generators ---------------------------------------------------------------


def _interval(n: int, alpha: float) -> MetricMeasureSpace:
    x = (np.arange(n) + 0.5) / n
    # distances from integer index deltas: exact, so realized radii dedupe
    idx = np.arange(n, dtype=np.float64)
    dist = np.abs(idx[:, None] - idx[None, :]) / n
    weights = x**alpha / n
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return MetricMeasureSpace(
        dist,
        weights,
        coords=x,
        name=f"interval({n},alpha={alpha:g})",
        metric={"type": "euclidean", "params": {"generator": "interval", "n": n, "alpha": alpha}},
        edges=edges,
        grid={"kind": "interval", "shape": [n]},
    )


def _circle(n: int) -> MetricMeasureSpace:
    theta = 2.0 * math.pi * np.arange(n) / n
    # geodesic arc length from integer index deltas: exactly symmetric
    idx = np.arange(n)
    k = np.abs(idx[:, None] - idx[None, :])
    k = np.minimum(k, n - k)
    dist = 2.0 * math.pi * k.astype(np.float64) / n
    weights = np.full(n, 2.0 * math.pi / n)
    edges = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return MetricMeasureSpace(
        dist,
        weights,
        coords=theta,
        name=f"circle({n})",
        metric={"type": "circle", "params": {"generator": "circle", "n": n}},
        edges=edges,
        grid={"kind": "circle", "shape": [n]},
    )


def _torus_dist_from_indices(nx: int, ny: int) -> np.ndarray:
    """Pairwise flat-torus distances from integer index deltas (exact wrap)."""
    n = nx * ny
    ix = np.repeat(np.arange(nx), ny)
    iy = np.tile(np.arange(ny), nx)
    out = np.empty((n, n))
    for a in range(0, n, 256):
        b = min(a + 256, n)
        dx = np.abs(ix[a:b, None] - ix[None, :])
        dx = np.minimum(dx, nx - dx) / nx
        dy = np.abs(iy[a:b, None] - iy[None, :])
        dy = np.minimum(dy, ny - dy) / ny
        out[a:b] = np.hypot(dx, dy)
    return out


def _torus2d(nx: int, ny: int) -> MetricMeasureSpace:
    xs = (np.arange(nx) + 0.5) / nx
    ys = (np.arange(ny) + 0.5) / ny
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    coords = np.stack([gx.ravel(), gy.ravel()], axis=1)
    n = nx * ny
    dist = _torus_dist_from_indices(nx, ny)
    weights = np.full(n, 1.0 / n)
    idx = np.arange(n).reshape(nx, ny)
    right = np.stack([idx.ravel(), np.roll(idx, -1, axis=0).ravel()], axis=1)
    up = np.stack([idx.ravel(), np.roll(idx, -1, axis=1).ravel()], axis=1)
    edges = np.concatenate([right, up], axis=0)
    return MetricMeasureSpace(
        dist,
        weights,
        coords=coords,
        name=f"torus2d({nx}x{ny})",
        metric={"type": "torus", "params": {"generator": "torus2d", "nx": nx, "ny": ny}},
        edges=edges,
        grid={"kind": "torus2d", "shape": [nx, ny]},
    )


def _gauge_grid(n: int, body: ConvexBody) -> MetricMeasureSpace:
    if body.dim != 2:
        raise SpaceError(f"gauge_grid needs a 2d body, got dim {body.dim}")
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    coords = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dist = gauge_distance_matrix(body, coords, coords)
    np.fill_diagonal(dist, 0.0)
    m = n * n
    weights = np.full(m, 1.0 / m)
    idx = np.arange(m).reshape(n, n)
    horiz = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    vert = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    edges = np.concatenate([horiz, vert], axis=0)
    return MetricMeasureSpace(
        dist,
        weights,
        coords=coords,
        name=f"gauge_grid({n},{body.tag})",
        metric={"type": "gauge", "params": {"generator": "gauge_grid", "n": n, "body": body.to_dict()}},
        edges=edges,
        grid={"kind": "grid2d", "shape": [n, n]},
    )


def _graph_distances(n: int, edges: Iterable[tuple[int, int, float]]) -> np.ndarray:
    rows, cols, vals = [], [], []
    for i, j, length in edges:
        if not 0.0 < length < math.inf:
            raise SpaceError(f"edge ({i},{j}) length must be positive and finite, got {length}")
        rows.append(i)
        cols.append(j)
        vals.append(length)
    adj = coo_matrix((vals, (rows, cols)), shape=(n, n))
    adj = adj.maximum(adj.T).tocsr()
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise SpaceError(f"graph is disconnected ({n_comp} components)")
    return dijkstra(adj, directed=False)


def _graph(edges: Sequence[tuple[int, int, float]], weights: Sequence[float]) -> MetricMeasureSpace:
    n = max(max(i, j) for i, j, _ in edges) + 1
    dist = _graph_distances(n, edges)
    w = np.full(n, 1.0 / n) if not weights else np.asarray(weights, dtype=float)
    if w.shape[0] != n:
        raise SpaceError(f"{w.shape[0]} weights for {n} graph vertices")
    edge_arr = np.array([(i, j) for i, j, _ in edges], dtype=np.int64)
    return MetricMeasureSpace(
        dist,
        w,
        name=f"graph(n={n})",
        metric={"type": "matrix", "params": {"generator": "graph"}},
        edges=edge_arr,
    )


def _sierpinski(level: int) -> MetricMeasureSpace:
    """Level-m gasket graph: unit edges scaled by 2^-level, uniform mass 1.

    Vertices carry exact integer barycentric coordinates summing to 2^level,
    so midpoint identification is exact. Distance is the intrinsic graph
    geodesic on the level graph.
    """
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

    n = len(ids)
    edge_len = 1.0 / scale
    edges = [(i, j, edge_len) for i, j in sorted(edge_set)]
    dist = _graph_distances(n, edges)
    weights = np.full(n, 1.0 / n)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    bary = np.array([v for v, _ in sorted(ids.items(), key=lambda kv: kv[1])], dtype=float)
    coords = bary @ corners / scale
    return MetricMeasureSpace(
        dist,
        weights,
        coords=coords,
        name=f"sierpinski({level})",
        metric={"type": "matrix", "params": {"generator": "sierpinski", "level": level}},
        edges=np.array([(i, j) for i, j, _ in edges], dtype=np.int64),
    )


def build_space(spec: SpaceSpec) -> MetricMeasureSpace:
    """Construct a bundled space from its generator spec."""
    spec.validate()
    g = spec.generator
    if g == "interval":
        return _interval(spec.n, spec.alpha)
    if g == "circle":
        return _circle(spec.n)
    if g == "torus2d":
        return _torus2d(spec.nx, spec.ny)
    if g == "gauge_grid":
        return _gauge_grid(spec.n, spec.body)
    if g == "graph":
        return _graph(spec.edges, spec.weights)
    return _sierpinski(spec.level)


# -- persistence --------------------------------------------------------------


def _check_triangle_sampled(dist: np.ndarray, samples: int = 20000, seed: int = 0) -> None:
    n = dist.shape[0]
    if n < 3:
        return
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, samples)
    b = rng.integers(0, n, samples)
    c = rng.integers(0, n, samples)
    slack = dist[a, c] - dist[a, b] - dist[b, c]
    tol = 1e-12 * max(1.0, float(np.max(dist)))
    worst = int(np.argmax(slack))
    if slack[worst] > tol:
        raise SpaceError(
            "triangle inequality violated on triple "
            f"({int(a[worst])},{int(b[worst])},{int(c[worst])}): "
            f"d(a,c)={dist[a[worst], c[worst]]!r} > "
            f"d(a,b)+d(b,c)={dist[a[worst], b[worst]] + dist[b[worst], c[worst]]!r}"
        )


# Fields of a closed-form file that must equal what its generator's space writes.
CLOSED_FORM_KEYS = ("n", "metric", "weights", "coords", "dim", "edges", "grid")


def _document(space: MetricMeasureSpace) -> dict[str, Any]:
    """The JSON document of a space file; distances only for "matrix" metrics."""
    doc: dict[str, Any] = {
        "name": space.name,
        "n": space.n,
        "metric": space.metric,
        "weights": space.weights.tolist(),
    }
    if space.coords is not None:
        doc["coords"] = space.coords.ravel().tolist()
        doc["dim"] = space.coords.shape[1]
    if space.metric["type"] == "matrix":
        iu = np.triu_indices(space.n, k=1)
        doc["matrix"] = space.dist[iu].tolist()
    if space.edges is not None:
        doc["edges"] = space.edges.tolist()
    if space.grid is not None:
        doc["grid"] = space.grid
    return doc


def save_space(space: MetricMeasureSpace, path: str | Path) -> None:
    """Write a space file (JSON document, full-precision floats)."""
    text = json.dumps(_document(space))
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def load_space(path: str | Path) -> MetricMeasureSpace:
    """Read a space file; every fault in it raises SpaceError.

    A closed-form file (any metric type but "matrix") loads as the space its
    generator builds, under the file's display name, and must agree with
    that space's document in every one of CLOSED_FORM_KEYS. A "matrix" file
    carries its distances, which are checked for symmetry, positivity and
    sampled triangles.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SpaceError(f"malformed space file {path}: {exc}") from exc
    metric = doc.get("metric") if isinstance(doc, dict) else None
    if not isinstance(metric, dict) or "type" not in metric:
        raise SpaceError(f"space file {path} has no metric tag with a type")
    if metric["type"] != "matrix":
        spec = SpaceSpec.from_metric(metric)
        if spec is None:
            raise SpaceError(f"metric {metric!r} names no closed-form generator")
        space = build_space(spec)
        expected = _document(space)
        differ = [key for key in CLOSED_FORM_KEYS if doc.get(key) != expected.get(key)]
        if differ:
            raise SpaceError(
                f"space file {path} differs from its {spec.generator} generator in "
                + ", ".join(differ)
            )
        space.name = str(doc.get("name", space.name))
        return space

    try:
        n = int(doc["n"])
        weights = np.asarray(doc["weights"], dtype=float)
        coords = None
        if "coords" in doc:
            dim = int(doc["dim"])
            if dim < 1:
                raise ValueError(f"coordinate dimension must be >= 1, got {dim}")
            coords = np.asarray(doc["coords"], dtype=float).reshape(n, dim)
        tri = np.asarray(doc.get("matrix", []), dtype=float)
        edges = np.asarray(doc["edges"], dtype=np.int64) if "edges" in doc else None
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SpaceError(f"space file {path} has a missing or malformed field: {exc!r}") from exc
    if n < 1 or weights.shape != (n,):
        raise SpaceError(f"{weights.size} weights for n={n}")
    bad = np.nonzero(~(weights > 0.0))[0]
    if bad.size:
        raise SpaceError(f"nonpositive weight at point {int(bad[0])}: {weights[bad[0]]!r}")
    grid = doc.get("grid")
    if grid is not None and not isinstance(grid, dict):
        raise SpaceError(f"grid must be an object, got {grid!r}")

    expect = n * (n - 1) // 2
    if tri.size == n * n:
        dist = tri.reshape(n, n)
        asym = np.abs(dist - dist.T)
        if np.max(asym) > 0.0:
            i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
            raise SpaceError(
                f"asymmetric matrix: d({i},{j})={dist[i, j]!r} != d({j},{i})={dist[j, i]!r}"
            )
    elif tri.size == expect:
        dist = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        dist[iu] = tri
        dist = dist + dist.T
    else:
        raise SpaceError(f"matrix has {tri.size} entries, expected {expect} or {n * n}")
    bad = ~(np.isfinite(dist) & (dist > 0.0))
    np.fill_diagonal(bad, False)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise SpaceError(f"nonpositive or non-finite off-diagonal distance at pair ({i},{j})")
    _check_triangle_sampled(dist)
    return MetricMeasureSpace(dist, weights, coords=coords, name=doc.get("name", "space"),
                              metric=metric, edges=edges, grid=grid)
