"""Finite metric measure spaces.

A space is a finite set of points with a symmetric distance matrix and one
positive weight per point (the measure of that atom). A ball query counts a
row's distances within a radius into one prefix row of masses with equal
weights, or sums the weights within it otherwise. The rho1 kernel
mu(B(x, d(x, y))) and the doubling constant read the sums over each row's
distance levels (_level_sums). A generator space keeps its distances in
closed form, a lattice table over signed index offsets or the gasket's
three-copy recursion, and builds the matrix on the first read of its whole;
readers of row blocks or single pairs take a lattice's from its table.

Balls are closed everywhere: B(x, r) = {y : d(x, y) <= r}. The theory of
doubling measures on finite spaces needs atoms counted consistently, and the
closed convention makes the ball mass a right-continuous step function of the
radius with jumps exactly at realized distances.

Generators (SpaceSpec) cover the standard desk-scale test geometries. The four
lattice generators share one builder, _lattice, which writes the offset grid,
the neighbour stencil and the tags once; the gasket's vertices, edges and
distances share the copy maps of one recursion.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import ConvexBody, parse_body
from .parallel import row_blocks

MAX_POINTS = 4096
NON_DOUBLING_THRESHOLD = 64.0  # c_d_hat above this flags non_doubling_like

__all__ = [
    "MetricMeasureSpace",
    "SpaceSpec",
    "DoublingReport",
    "build_space",
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

    def validate(self) -> None:
        """Check the parameters and the point budget; allocates nothing."""
        g = self.generator
        if g in ("interval", "circle", "gauge_grid"):
            if self.n < 2:
                raise SpaceError(f"{g} needs n >= 2, got {self.n}")
        if g == "interval" and not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise SpaceError(f"interval weight exponent must be finite and > -1, got {self.alpha}")
        if g == "torus2d" and (self.nx < 2 or self.ny < 2):
            raise SpaceError(f"torus2d needs nx, ny >= 2, got {self.nx}x{self.ny}")
        if g == "gauge_grid" and self.body is None:
            raise SpaceError("gauge_grid needs a convex body")
        if g == "gauge_grid" and self.body.dim != 2:
            raise SpaceError(f"gauge_grid needs a 2d body, got dim {self.body.dim}")
        if g == "sierpinski" and self.level < 0:
            raise SpaceError(f"sierpinski level must be >= 0, got {self.level}")
        if g == "graph" and not self.edges:
            raise SpaceError("graph needs a nonempty edge list")
        if g == "graph" and min(min(i, j) for i, j, _ in self.edges) < 0:
            raise SpaceError("graph vertex ids must be >= 0")
        pairs: set[tuple[int, int]] = set()
        for i, j, _ in self.edges:  # only a graph has edges: one per unordered pair, no loop
            pair = (min(i, j), max(i, j))
            if i == j or pair in pairs:
                raise SpaceError(f"graph edge ({i},{j}) is a self-loop or repeats a listed pair")
            pairs.add(pair)
        if g not in ("interval", "circle", "torus2d", "gauge_grid", "graph", "sierpinski"):
            raise SpaceError(f"unknown generator {g!r}")
        count = self._point_count()
        if count > MAX_POINTS:
            raise SpaceError(f"{count} points exceeds the {MAX_POINTS}-point desk-scale budget")

    @property
    def shape(self) -> tuple[int, ...] | None:
        """The grid shape of a lattice generator; None for any other generator."""
        return {"interval": (self.n,), "circle": (self.n,), "torus2d": (self.nx, self.ny),
                "gauge_grid": (self.n, self.n)}.get(self.generator)

    def _point_count(self) -> int:
        g, shape = self.generator, self.shape
        if shape is not None:
            return math.prod(shape)
        if g == "sierpinski":
            # (3^(level+1) + 3) / 2 vertices; level 8 already has 9843, so
            # capping the level there keeps the power small
            return (3 ** (min(self.level, 8) + 1) + 3) // 2
        return max(max(i, j) for i, j, _ in self.edges) + 1

    @staticmethod
    def parse(text: str) -> SpaceSpec:
        """The spec of one text form listed above; any fault raises SpaceError."""
        kind, *fields = text.strip().split(":")
        try:
            if kind == "interval" and len(fields) in (1, 2):
                alpha = float(fields[1]) if len(fields) > 1 else 0.0
                return SpaceSpec("interval", n=int(fields[0]), alpha=alpha)
            if kind == "circle" and len(fields) == 1:
                return SpaceSpec("circle", n=int(fields[0]))
            if kind == "torus2d" and len(fields) == 1:
                nx, ny = fields[0].lower().split("x")
                return SpaceSpec("torus2d", nx=int(nx), ny=int(ny))
            if kind == "sierpinski" and len(fields) == 1:
                return SpaceSpec("sierpinski", level=int(fields[0]))
            if kind == "gauge_grid" and fields:  # the body takes the rest of the text
                return SpaceSpec("gauge_grid", n=int(fields[0]), body=parse_body(":".join(fields[1:])))
            if kind == "graph" and fields:  # so does the edge file's path
                edges = []
                for line in Path(":".join(fields)).read_text(encoding="utf-8").splitlines():
                    line = line.strip()
                    if line and not line.startswith("#"):
                        i, j, length = line.split(",")
                        edges.append((int(i), int(j), float(length)))
                return SpaceSpec("graph", edges=tuple(edges))
        except (ValueError, OSError) as exc:
            raise SpaceError(f"bad space spec {text!r}: {exc}") from exc
        raise SpaceError(f"bad space spec {text!r}: unknown generator or wrong number of fields")

    @staticmethod
    def from_metric(metric: dict[str, Any]) -> SpaceSpec | None:
        """The spec whose generator writes this metric tag; None if none does, as for "matrix"."""
        params = metric.get("params")
        if metric.get("type") == "matrix" or not isinstance(params, dict):
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
    """Measured doubling diagnostics: c_d_hat, the supremum of mu(B(x,2r))/mu(B(x,r))
    (doubling_constant), and c_rho_hat, the two-sided comparability constant of a kernel
    against mu(B(x, d(x,y)))."""

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


# Grid kinds with their axis counts, as the centered-difference evaluators read them.
GRID_KINDS = (("interval", 1), ("circle", 1), ("torus2d", 2), ("grid2d", 2))


class MetricMeasureSpace:
    """Immutable finite metric measure space.

    Parameters
    ----------
    dist : (n, n) array
        Distances: symmetric bit for bit, zero exactly on the diagonal, finite
        and positive off it.
    weights : (n,) array
        Positive atom masses.
    coords : (n, dim) array, optional
        Point coordinates, one row per point; required for expression-defined
        fields.
    name : str
        Display name.
    metric : dict
        Serialization tag: {"type": ..., "params": {...}}. Type "matrix"
        stores the distances verbatim; every other type names a generator and
        its parameters, from which load_space rebuilds the whole space. Only
        generators write those, so this constructor takes "matrix" alone.
    edges : (m, 2) int array, optional
        Natural neighbor structure (grid stencil or graph edges) for local
        gradient evaluators and discrete geodesics.
    grid : dict, optional
        Grid topology, e.g. {"kind": "circle", "shape": [n]} or {"kind":
        "torus2d", "shape": [nx, ny]}; used by centered finite-difference
        evaluators. Its kind is one of GRID_KINDS with as many axes, its shape
        lists positive ints whose product is n, and an interval grid needs
        coords.

    Every fault in these raises SpaceError, the same one load_space raises for
    a file that carries it.
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
        if metric and metric.get("type") != "matrix":  # only generators write closed-form tags
            raise SpaceError(f"a space built from distances has a matrix metric, not {metric!r}")
        self._setup(weights, coords, name, metric, edges, grid)
        off = ~np.eye(n, dtype=bool)
        for fault, bad in (("nonzero diagonal distance", ~off & (dist != 0.0)),
                           ("nonpositive or non-finite off-diagonal distance",
                            off & ~(np.isfinite(dist) & (dist > 0.0))),
                           ("asymmetric matrix", dist != dist.T)):
            if np.any(bad):
                i, j = np.argwhere(bad)[0]
                pair = dist.item(i, j), dist.item(j, i)  # floats: a numpy repr names its type
                raise SpaceError(f"{fault}: d({i},{j})={pair[0]!r}, d({j},{i})={pair[1]!r}")
        dist.setflags(write=False)
        self._dist, self._table, self._build = dist, None, None

    @classmethod
    def _generated(
        cls,
        weights: np.ndarray,
        table: np.ndarray | None = None,
        build: Callable[[], np.ndarray] | None = None,
        **fields: Any,
    ) -> MetricMeasureSpace:
        """A generator's space, whose dist is built on its first read: from table, a lattice
        table (_lattice_rows) that serves dist_rows until then, or else by build()."""
        space = cls.__new__(cls)
        space._setup(np.ascontiguousarray(weights, dtype=np.float64), **fields)
        space._dist, space._table, space._build = None, table, build
        return space

    def _setup(
        self,
        weights: np.ndarray,
        coords: np.ndarray | None = None,
        name: str = "space",
        metric: dict[str, Any] | None = None,
        edges: np.ndarray | None = None,
        grid: dict[str, Any] | None = None,
    ) -> None:
        """Check and store everything but the distances."""
        n = weights.shape[0]
        if n > MAX_POINTS:
            raise SpaceError(f"{n} points exceeds the {MAX_POINTS}-point desk-scale budget")
        bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0.0)))
        if bad.size:
            raise SpaceError(f"nonpositive or non-finite weight at point {bad[0]}: "
                             f"{float(weights[bad[0]])!r}")
        if edges is not None:
            edges = np.asarray(edges, dtype=np.int64)
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise SpaceError(f"edges must be an (m, 2) array of point ids, got {edges.shape}")
            if edges.size and (edges.min() < 0 or edges.max() >= n):
                raise SpaceError(f"edge point ids must lie in [0, {n})")
        if coords is not None:
            coords = np.ascontiguousarray(coords, dtype=np.float64)
            coords = coords[:, None] if coords.ndim == 1 else coords
            if coords.ndim != 2 or coords.shape[0] != n:
                raise SpaceError(f"coordinates of shape {coords.shape} for {n} points")
        shape = grid.get("shape") if isinstance(grid, dict) else None
        if grid is not None and not (
            isinstance(shape, list) and (grid.get("kind"), len(shape)) in GRID_KINDS
            and all(type(k) is int and k > 0 for k in shape) and math.prod(shape) == n
            and (grid["kind"] != "interval" or coords is not None)
        ):
            raise SpaceError(f"grid {grid!r} must be an interval (with coords), circle, torus2d or "
                             f"grid2d grid whose shape lists positive ints with product n={n}")

        self.name = name
        self.n = n
        self.weights = weights
        self.coords = coords
        self.metric = metric or {"type": "matrix", "params": {}}
        self.edges = None if edges is None else np.ascontiguousarray(edges, dtype=np.int64)
        self.grid = grid
        with np.errstate(over="ignore"):  # an overflow is the fault reported below
            self.total_mass = float(np.sum(weights))
        if not math.isfinite(self.total_mass):
            raise SpaceError(f"the weights sum to {self.total_mass!r}: no finite total mass")
        for arr in (self.weights, self.coords, self.edges):
            if arr is not None:
                arr.setflags(write=False)
        self._cache: dict[Any, Any] = {}
        self._lock = threading.Lock()

    # -- basic geometry ------------------------------------------------------

    @property
    def dist(self) -> np.ndarray:
        """The read-only n x n distance matrix; a generator space builds it on this first read."""
        if self._dist is None:
            with self._lock:  # map_blocks workers may make the first read together
                if self._dist is None:
                    dist = (self._build() if self._table is None
                            else _lattice_rows(self._table, 0, self.n))
                    dist.setflags(write=False)
                    self._dist = dist
        return self._dist

    def dist_rows(self, a: int, b: int) -> np.ndarray:
        """Rows a..b of dist, bitwise; a copy from the lattice table until the matrix exists."""
        if self._dist is None and self._table is not None:
            return _lattice_rows(self._table, a, b)
        return self.dist[a:b]

    def dist_pairs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """d(i[k], j[k]) per pair, bitwise dist[i, j]; read from the lattice table at each
        pair's signed index offset until the matrix exists."""
        if self._dist is None and self._table is not None:
            shape = tuple((m + 1) // 2 for m in self._table.shape)
            at = zip(np.unravel_index(i, shape), np.unravel_index(j, shape), shape)
            return self._table[tuple(b - a + k - 1 for a, b, k in at)]
        return self.dist[i, j]

    def _every_distance(self) -> np.ndarray:
        """A lattice's table, which holds every distance once per index offset; else dist."""
        return self.dist if self._table is None else self._table

    @property
    def diameter(self) -> float:
        return self.cache("diameter", lambda: float(np.max(self._every_distance())))

    @property
    def min_distance(self) -> float:
        """Smallest positive distance (the mesh scale); 0 for a single point."""

        def scan() -> float:
            rows = self._every_distance()
            return float(min(  # no n x n mask or copy; the only zeros are the diagonal's
                np.min(rows[a:b], initial=np.inf, where=rows[a:b] > 0)
                for a, b in row_blocks(len(rows))))

        return self.cache("min_distance", scan) if self.n > 1 else 0.0

    def index_lattice(self) -> tuple[tuple[int, ...], bool] | None:
        """(shape, wrapped) of the generator lattice whose distances depend only on the index
        offset of a pair: circle and torus (wrapped), interval (not); else None.

        Only a closed-form generator tag counts, never the grid field: matrix
        files, which may carry one, store their distances verbatim.
        """
        gen = SpaceSpec.from_metric(self.metric)
        if gen is None or gen.generator not in ("interval", "circle", "torus2d"):
            return None
        return gen.shape, gen.generator != "interval"

    # -- ball index ----------------------------------------------------------

    def _index_rows(self) -> int:
        """1 on a wrapped lattice (circle, torus), whose rows of dist all permute row 0 with
        equal weights, else n: the distance rows of ball queries, x reading x % _index_rows()."""
        lattice = self.index_lattice()
        return 1 if lattice is not None and lattice[1] else self.n

    def _level_rows(self) -> tuple[Callable[[int, int], np.ndarray], np.ndarray | None]:
        """A reader of the codes (_level_sums) of rows a..b of dist and the levels they index,
        None where each row has its own: a lattice table's ranks among its distinct entries,
        read as the table is (_lattice_rows); the gasket's hops d * 2^L, exact as its unit
        edges are 2^-L; a matrix space's (graph, file) dense ranks of each row, per block."""
        if self._table is not None:
            values = self.cache("level_values", lambda: np.unique(self._table))
            codes = self.cache("level_table", lambda: np.searchsorted(values, self._table))
            return (lambda a, b: _lattice_rows(codes, a, b)), values
        spec = SpaceSpec.from_metric(self.metric)
        if spec is not None and spec.generator == "sierpinski":
            scale = 2.0**spec.level  # unit edges are 1 / scale
            values = np.arange(round(self.diameter * scale) + 1) / scale
            return (lambda a, b: (self.dist_rows(a, b) * scale).astype(np.intp)), values

        def ranks(a: int, b: int) -> np.ndarray:
            rows = self.dist_rows(a, b)
            order = np.argsort(rows, axis=1)  # dense ranks do not depend on the order of ties
            ranked = np.take_along_axis(rows, order, axis=1)
            steps = np.zeros(order.shape, dtype=np.int32)  # 1 where a sorted row rises
            np.greater(ranked[:, 1:], ranked[:, :-1], out=steps[:, 1:])
            codes = np.empty(order.shape, dtype=np.intp)
            np.put_along_axis(codes, order, np.cumsum(steps, axis=1, out=steps), axis=1)
            return codes

        return ranks, None

    def ball_masses(self, r: float) -> np.ndarray:
        """Vector of closed-ball masses mu(B(x, r)) for every point: with equal weights the
        prefix mass at the count of distances within r, else the weights within r summed.
        On the equal-weight interval, whose distances grow with the index gap, the count
        is closed-form: the points within k of x, k the positive offsets within r on row 0.
        Only the latest radius is cached; each caller reads its radius back to back."""
        if not r >= 0:  # NaN fails too
            raise SpaceError(f"radius must be >= 0, got {r}")
        latest = self._cache.get("ball_masses")
        if latest is not None and latest[0] == r:
            return latest[1]
        prefix, m, lattice = _equal_prefix(self.weights), self._index_rows(), self.index_lattice()
        if prefix is not None and lattice is not None and not lattice[1]:
            k, x = np.count_nonzero(self.dist_rows(0, 1)[0] <= r) - 1, np.arange(self.n)
            masses = prefix[np.minimum(x + k, self.n - 1) - np.maximum(x - k, 0)]
        elif prefix is None:
            masses = np.concatenate([(self.dist_rows(a, b) <= r) @ self.weights
                                     for a, b in row_blocks(m)])
        else:
            counts = np.concatenate([np.count_nonzero(self.dist_rows(a, b) <= r, axis=1)
                                     for a, b in row_blocks(m)])
            masses = prefix[counts - 1]
        masses = np.resize(masses, self.n)  # one mass for every point if m is 1
        masses.setflags(write=False)
        self._cache["ball_masses"] = (float(r), masses)
        return masses

    def cache(self, key: Any, build) -> Any:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self) -> str:
        return f"MetricMeasureSpace({self.name!r}, n={self.n}, mass={self.total_mass:.6g})"


def _equal_prefix(weights: np.ndarray) -> np.ndarray | None:
    """cumsum(full(n, w0)), read-only, if every weight is w0, else None: then the prefix
    masses of the points in any order, bitwise, as a cumsum adds in sequence."""
    if not np.all(weights == weights[0]):
        return None
    prefix = np.cumsum(np.full(len(weights), weights[0]))
    prefix.setflags(write=False)
    return prefix


def _level_sums(levels: Callable[[int, int], np.ndarray], m: int,
                weights: np.ndarray) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """A reader of (sums, slots) of a block of the m scanned rows: each row's mass at or
    below each level, and the block's codes from levels (MetricMeasureSpace._level_rows)
    turned into flat slots of the sums.

    Codes are equal exactly where a row's distances are and ordered like them, and
    index the levels that every row shares or the row's own distances. One bincount over
    (row, code), of w[y] unless the weights are equal, and one cumsum along the codes
    give the sums, so a level a row misses repeats the sum below it; with equal
    weights each is the prefix row at the count, bitwise what a stable sort reads.
    """
    prefix = _equal_prefix(weights)
    tiled = None if prefix is not None else np.tile(weights, row_blocks(m)[0][1])  # w[y] by rows

    def sums(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        codes = levels(a, b)
        top = int(codes.max()) + 1
        codes += top * np.arange(b - a)[:, None]  # each row's own range of bincount slots
        upto = np.bincount(codes.ravel(), None if tiled is None else tiled[:codes.size],
                           (b - a) * top).reshape(b - a, top)
        np.cumsum(upto, axis=1, out=upto)
        return upto if prefix is None else prefix[np.subtract(upto, 1, out=upto)], codes

    return sums


# -- doubling -----------------------------------------------------------------


def doubling_constant(space: MetricMeasureSpace) -> DoublingReport:
    """Supremum of mu(B(x,2r))/mu(B(x,r)) over the distinct distance rows x (_index_rows) and
    r in {v} union {v/2}, v each positive level x realizes: the masses, level sums
    (_level_sums), jump only at realized distances, so the ratio attains its sup there. The
    sums at 2v and v/2 are those at the last levels within them, from one searchsorted if
    the rows share their levels, else one per row. The witness is the first x, then every
    v before every v/2, least first; on circle and torus point 0 alone is scanned."""
    if space.n < 2:
        raise SpaceError("doubling constant needs at least two points")

    def work() -> tuple[float, int, float]:
        (levels, shared), m = space._level_rows(), space._index_rows()
        sums, best = _level_sums(levels, m, space.weights), (1.0, 0, 0.0)
        for a, b in row_blocks(m):
            upto, slots = sums(a, b)
            values = shared[:upto.shape[1]] if shared is not None else np.full(upto.shape, np.inf)
            if shared is None:  # each row's own levels: its distances at their codes, then inf
                values.ravel()[slots.ravel()] = space.dist_rows(a, b).ravel()
            skip = np.bincount(slots.ravel(), minlength=upto.size).reshape(upto.shape) == 0
            skip[:, 0] = True  # besides the levels a row misses, level 0: d(x, x)

            def at(radii: np.ndarray) -> np.ndarray:  # each row's sum at its last level <= radii
                if values.ndim == 1:
                    return upto[:, np.searchsorted(values, radii, side="right") - 1]
                last = [np.searchsorted(v, r, side="right") for v, r in zip(values, radii)]
                return np.take_along_axis(upto, np.stack(last) - 1, axis=1)

            def pick(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                ratios[skip] = 0.0
                return ratios.max(axis=1), ratios.argmax(axis=1)

            found = [pick(at(2.0 * values) / upto), pick(upto / at(0.5 * values))]  # r = v, v/2
            ratio = np.maximum(found[0][0], found[1][0])
            x = int(np.argmax(ratio))
            if ratio[x] > best[0]:
                half = int(found[1][0][x] > found[0][0][x])  # every v before every v/2
                v = float(np.broadcast_to(values, upto.shape)[x, found[half][1][x]])
                best = (float(ratio[x]), a + x, v * 0.5 if half else v)
        return best

    best, x, r = space.cache("doubling", work)
    return DoublingReport(c_d_hat=best, witness=(x, r),
                          non_doubling_like=best > NON_DOUBLING_THRESHOLD)


# -- generators ---------------------------------------------------------------


def _lattice_offsets(shape: tuple[int, ...]) -> list[np.ndarray]:
    """The signed index offsets of a lattice table, 1 - k .. k - 1 on each axis of length k,
    one integer array per axis on the table's shape, as broadcast views not to be written."""
    return np.meshgrid(*(np.arange(1 - k, k) for k in shape), indexing="ij", copy=False)


def _lattice_rows(table: np.ndarray, a: int, b: int) -> np.ndarray:
    """Rows a..b of the n x n matrix whose entry (i, j) is table at the index offset j - i of
    points i and j, as one copy.

    table holds one entry per signed offset (_lattice_offsets), so any wrap or
    mirror rule is the generator's own formula. Row i is the window of table
    that starts at offset -i, so row 0 is table[k-1:, ...].
    """
    shape = tuple((m + 1) // 2 for m in table.shape)
    windows = sliding_window_view(table, shape)[(slice(None, None, -1),) * table.ndim]
    return windows[np.unravel_index(np.arange(a, b), shape)].reshape(b - a, -1)


# Metric type and grid kind of each lattice generator's tags.
_LATTICE_TAGS = {"interval": ("euclidean", "interval"), "circle": ("circle", "circle"),
                 "torus2d": ("torus", "torus2d"), "gauge_grid": ("gauge", "grid2d")}


def _lattice(spec: SpaceSpec) -> MetricMeasureSpace:
    """The space of a lattice generator (interval, circle, torus2d, gauge_grid) on the grid
    spec.shape, its distances in a lattice table (_lattice_rows).

    Written once for all four: the signed index offsets k and the per-axis |k|, wrapped to
    min(|k|, m - |k|) on an axis of length m of the circle and the torus; the neighbour
    stencil, axis 0 then axis 1, across the seam when wrapped; the grid and metric tags. Each
    generator's branch holds only its table formula, coordinates, weights, name and params.
    The table's keys are integers, so pairs at one offset get bitwise the same distance.
    """
    g, shape = spec.generator, spec.shape
    wrapped = g in ("circle", "torus2d")
    signed = _lattice_offsets(shape)
    k = [np.abs(o) for o in signed]
    if wrapped:
        k = [np.minimum(d, size - d) for d, size in zip(k, shape)]
    m = math.prod(shape)
    if g == "interval":  # cell centres of (0, 1), weight x^alpha / n
        n, alpha = spec.n, spec.alpha
        coords = (np.arange(n) + 0.5) / n
        table, weights = k[0] / n, coords**alpha / n
        name, params = f"interval({n},alpha={alpha:g})", {"n": n, "alpha": alpha}
    elif g == "circle":  # geodesic arc length
        n = spec.n
        table, coords = 2.0 * math.pi * k[0] / n, 2.0 * math.pi * np.arange(n) / n
        weights = np.full(n, 2.0 * math.pi / n)
        name, params = f"circle({n})", {"n": n}
    else:  # cell centres of the unit square, equal weights
        axes = np.meshgrid(*((np.arange(a) + 0.5) / a for a in shape), indexing="ij")
        coords, weights = np.stack([c.ravel() for c in axes], axis=1), np.full(m, 1.0 / m)
        if g == "torus2d":
            nx, ny = shape
            table = np.hypot(k[0] / nx, k[1] / ny)
            name, params = f"torus2d({nx}x{ny})", {"nx": nx, "ny": ny}
        else:  # gauge_grid, from the signed offsets: polygon gauges need not be axis-symmetric
            n, body = spec.n, spec.body
            table = body.gauge(np.stack(signed, axis=-1) / n)
            name, params = f"gauge_grid({n},{body.tag})", {"n": n, "body": body.to_dict()}
    idx = np.arange(m).reshape(shape)
    pairs = []
    for axis, a in enumerate(shape):  # each point and the next along the axis
        head = (slice(None),) * axis
        ends = ((idx, np.take(idx, np.arange(1, a + 1), axis=axis, mode="wrap")) if wrapped
                else (idx[head + (slice(-1),)], idx[head + (slice(1, None),)]))
        pairs.append(np.stack([e.ravel() for e in ends], axis=1))
    mtype, kind = _LATTICE_TAGS[g]
    return MetricMeasureSpace._generated(
        weights, table, coords=coords, name=name, edges=np.concatenate(pairs),
        metric={"type": mtype, "params": {"generator": g, **params}},
        grid={"kind": kind, "shape": list(shape)})


def _adjacency(n: int, i, j, lengths):
    """The neighbor graph as a symmetric CSR matrix, each edge's length both ways."""
    from scipy.sparse import coo_matrix
    adj = coo_matrix((lengths, (i, j)), shape=(n, n))
    return adj.maximum(adj.T).tocsr()


def _graph_distances(n: int, edges: Sequence[tuple[int, int, float]]) -> np.ndarray:
    from scipy.sparse.csgraph import connected_components, dijkstra
    for i, j, length in edges:
        if not 0.0 < length < math.inf:
            raise SpaceError(f"edge ({i},{j}) length must be positive and finite, got {length}")
    adj = _adjacency(n, *zip(*edges))  # the rows, columns and lengths of the edges
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise SpaceError(f"graph is disconnected ({n_comp} components)")
    dist = dijkstra(adj, directed=True)  # adj is symmetric already
    # a path is summed in opposite orders for d(i, j) and d(j, i): keep the upper
    # triangle, as save_space stores it
    lower = np.tril_indices(n, -1)
    dist[lower] = dist.T[lower]
    return dist


def _graph(edges: Sequence[tuple[int, int, float]]) -> MetricMeasureSpace:
    n = max(max(i, j) for i, j, _ in edges) + 1
    dist = _graph_distances(n, edges)
    edge_arr = np.array([(i, j) for i, j, _ in edges], dtype=np.int64)
    return MetricMeasureSpace(
        dist,
        np.full(n, 1.0 / n),
        name=f"graph(n={n})",
        metric={"type": "matrix", "params": {"generator": "graph"}},
        edges=edge_arr,
    )


def _gasket_copies(level: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Vertices (integer barycentric coordinates summing to 2^level), sorted edges and copy
    maps of the level-L gasket graph, from the three corners of level 0 (ids 0, 1, 2) up.

    Level k + 1 is copies 0, 1 and 2 of level k, copy a moved by 2^k e_a, so copy a's corner
    b is copy b's corner a; ids count, copy by copy, the rows that no earlier copy holds. As
    midpoint subdivision commutes with the copy maps, these are the ids in which the
    subdivided triangles first list their vertices. Each step holds level k's three id maps
    into level k + 1 and its corner ids.
    """
    bary, corners, steps = np.eye(3, dtype=np.int64), np.arange(3), []
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    for k in range(level):
        ids, rows = [], []
        for a in range(3):  # copy a's corners 0..a-1 were listed by copies 0..a-1
            kept = np.ones(len(bary), dtype=bool)
            kept[corners[:a]] = False
            ids.append(sum(map(len, rows)) + np.cumsum(kept) - 1)
            ids[a][corners[:a]] = [ids[b][corners[a]] for b in range(a)]
            rows.append(bary[kept] + (np.eye(3, dtype=np.int64)[a] << k))
        steps.append((ids, corners))
        bary, corners = np.concatenate(rows), np.array([ids[a][corners[a]] for a in range(3)])
        edges = np.concatenate([ids[a][edges] for a in range(3)])
    edges.sort(axis=1)
    return bary, edges[np.lexsort(edges.T[::-1])], steps


def _gasket_distances(steps: list) -> np.ndarray:
    """Geodesic distances of the level-L gasket graph, unit edges scaled by 2^-L, in the ids
    of _gasket_copies, from its L steps: hop counts from level 0 up, then scaled once, exact,
    so bitwise the distances a graph search finds.

    Within a copy of level k, of side h = 2^k, hops are the copy's own; for u in copy a and
    v in copy b, with c the third copy, a path leaves copy a at m_ab (its corner b) or m_ac,
    so d(u, v) = min(d_a(u, m_ab) + d_b(m_ab, v), d_a(u, m_ac) + h + d_b(m_bc, v)).
    A shared corner is written twice, with equal values.
    """
    hops = 1.0 - np.eye(3)
    for k, (ids, corners) in enumerate(steps):
        h, to_corner = 2**k, hops[:, corners].T  # hops to corners 0, 1 and 2
        out = np.empty((3 * len(hops) - 3,) * 2)
        for a, b in np.ndindex(3, 3):
            if a == b:
                block = hops
            else:
                c = 3 - a - b
                block = to_corner[b, :, None] + to_corner[a]
                np.minimum(block, to_corner[c, :, None] + (h + to_corner[c]), out=block)
            out[np.ix_(ids[a], ids[b])] = block
        hops = out
    hops *= 1.0 / 2 ** len(steps)
    return hops


def _sierpinski(level: int) -> MetricMeasureSpace:
    """Level-m gasket graph: unit edges scaled by 2^-level, uniform mass 1. Vertices, edges
    and, on the first read of dist, the graph geodesics come from one three-copy recursion
    (_gasket_copies, _gasket_distances), with no graph search.
    """
    bary, edges, steps = _gasket_copies(level)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    return MetricMeasureSpace._generated(
        np.full(len(bary), 1.0 / len(bary)),
        build=lambda: _gasket_distances(steps),
        coords=bary @ corners / 2**level,
        name=f"sierpinski({level})",
        metric={"type": "geodesic", "params": {"generator": "sierpinski", "level": level}},
        edges=edges,
    )


def build_space(spec: SpaceSpec) -> MetricMeasureSpace:
    """Construct a bundled space from its generator spec."""
    spec.validate()
    if spec.shape is not None:
        return _lattice(spec)
    if spec.generator == "graph":
        return _graph(spec.edges)
    return _sierpinski(spec.level)


# -- persistence --------------------------------------------------------------


def _check_triangle_sampled(dist: np.ndarray, samples: int = 20000, seed: int = 0) -> None:
    n = dist.shape[0]
    if n < 3:
        return
    a, b, c = np.random.default_rng(seed).integers(0, n, (3, samples))
    slack = dist[a, c] - dist[a, b] - dist[b, c]
    worst = int(np.argmax(slack))
    if slack[worst] > 1e-12 * max(1.0, float(np.max(dist))):
        a, b, c = int(a[worst]), int(b[worst]), int(c[worst])
        raise SpaceError(  # floats: a numpy scalar's repr names its type
            f"triangle inequality violated on triple ({a},{b},{c}): d(a,c)={dist.item(a, c)!r} > "
            f"d(a,b)+d(b,c)={dist.item(a, b) + dist.item(b, c)!r}")


# Fields of a closed-form file that must equal what its generator's space writes. save_space
# writes n, metric and grid; the arrays (ARRAY_KEYS) are only in files written before it left
# them out, or in edited ones, and a file that holds any of them is checked in every field.
CLOSED_FORM_KEYS = ("n", "metric", "weights", "coords", "dim", "edges", "grid")
ARRAY_KEYS = ("weights", "coords", "dim", "edges")


def _document(space: MetricMeasureSpace, arrays: bool = True) -> dict[str, Any]:
    """The JSON document of a space file, whole: distances only for "matrix" metrics. With
    arrays false it is the compact closed-form document, the display name, n, metric and grid,
    which leaves out every one of ARRAY_KEYS."""
    doc: dict[str, Any] = {"name": space.name, "n": space.n, "metric": space.metric}
    if arrays:
        doc["weights"] = space.weights.tolist()
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
    """Write a space file (JSON document, full-precision floats).

    A closed-form space (any metric type but "matrix", which only generators write) is written
    as its compact document, about 200 bytes, as load_space rebuilds the rest from the metric
    tag; a "matrix" space is written whole.
    """
    doc = _document(space, arrays=space.metric["type"] == "matrix")
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8", newline="\n")


def load_space(path: str | Path) -> MetricMeasureSpace:
    """Read a space file; every fault in it raises SpaceError.

    A closed-form file (any metric type but "matrix") loads as the space its
    generator builds, under the file's display name. A compact file, one with
    none of ARRAY_KEYS, must agree with that space in n, metric and grid, and no
    array is read or compared; a file with any of them (as written before files
    were compact, or edited) must agree with the space's whole document in every
    one of CLOSED_FORM_KEYS. A "matrix" file carries its distances; the
    constructor checks them and the other fields as it checks any space's, and
    sampled triangles are checked here.
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
        expected = _document(space, arrays=any(key in doc for key in ARRAY_KEYS))
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
            dim = doc["dim"]
            if type(dim) is not int or dim < 1:
                raise ValueError(f"coordinate dimension must be an int >= 1, got {dim!r}")
            coords = np.asarray(doc["coords"], dtype=float).reshape(n, dim)
        tri = np.asarray(doc.get("matrix", []), dtype=float)
        edges = np.asarray(doc["edges"], dtype=np.int64) if "edges" in doc else None
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SpaceError(f"space file {path} has a missing or malformed field: {exc!r}") from exc
    if n < 1 or weights.shape != (n,):
        raise SpaceError(f"{weights.size} weights for n={n}")
    expect = n * (n - 1) // 2
    if tri.size == n * n:
        dist = tri.reshape(n, n)
    elif tri.size == expect:
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, k=1)] = tri
        dist += dist.T
    else:
        raise SpaceError(f"matrix has {tri.size} entries, expected {expect} or {n * n}")
    space = MetricMeasureSpace(dist, weights, coords=coords, name=doc.get("name", "space"),
                               metric=metric, edges=edges, grid=doc.get("grid"))
    _check_triangle_sampled(space.dist)
    return space
