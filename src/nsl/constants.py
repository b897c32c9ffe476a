"""Euclidean limit constants and Minkowski gauges of convex bodies.

k_pn(p, N) is the sphere average (1/p) * int_{S^{N-1}} |w . x|^p dH^{N-1}
with w a fixed unit vector; it is the constant relating the s->1 limit of the
fractional energy to the Dirichlet energy in R^N. zstar_norm evaluates the
anisotropic replacement ((N+p)/p * int_K |xi . x|^p dx)^{1/p} for a symmetric
convex body K; on balls and ellipses (linear images of the disk) it is k_pn
in closed form.

k_pn itself is closed form through Gamma. The polygon integrals use
composite Gauss-Legendre panels of fixed order, doubled once; panels are
split at the kinks of |linear form|^p so the rule converges spectrally. Only
origin-symmetric bodies are accepted: an asymmetric gauge would not be a
metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.polynomial.legendre import leggauss

GL_ORDER = 64

__all__ = [
    "ConvexBody",
    "BodyError",
    "parse_body",
    "k_pn",
    "zstar_norm",
    "gauge_distance",
    "gauge_distance_matrix",
]


class BodyError(ValueError):
    """Degenerate or asymmetric convex body."""


def _check_exponent(p: float) -> None:
    if not 1 <= p < np.inf:  # NaN fails too
        raise ValueError(f"exponent p must be >= 1 and finite, got {p}")


def _gl_panels(breaks: list[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):  # strictly increasing breaks
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * x)
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


@dataclass(frozen=True)
class ConvexBody:
    """Origin-symmetric convex body: ball(N), ellipse(a, b), or polygon.

    Polygon vertices must be in counterclockwise convex position with the
    origin strictly interior; symmetry is verified through the gauge itself.
    """

    kind: str
    dim: int = 2
    a: float = 1.0
    b: float = 1.0
    vertices: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "ball":
            if self.dim not in (1, 2, 3):
                raise BodyError(f"ball dimension must be 1, 2, or 3, got {self.dim}")
        elif self.kind == "ellipse":
            if not (0 < self.a < np.inf and 0 < self.b < np.inf):  # NaN fails too
                raise BodyError(
                    f"ellipse semi-axes must be positive and finite, got ({self.a},{self.b})"
                )
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(self.gauge(np.eye(2)))):  # 1/a, 1/b or their squares
                    raise BodyError(f"ellipse semi-axes ({self.a},{self.b}) are so small "
                                    "that the gauge overflows")
        elif self.kind == "polygon":
            self._validate_polygon()
        else:
            raise BodyError(f"unknown body kind {self.kind!r}")

    def _validate_polygon(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise BodyError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(verts)):
            raise BodyError("polygon vertices must be finite")
        rolled = np.roll(verts, -1, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = verts[:, 0] * rolled[:, 1] - verts[:, 1] * rolled[:, 0]
            normals, offsets = self._polygon_facets()
        if not np.all(np.isfinite(cross) & np.isfinite(offsets)):
            raise BodyError("polygon vertices are so large that the cross products or the "
                            "facet offsets overflow")
        if np.any(cross <= 0):
            raise BodyError("polygon vertices must be in counterclockwise convex position")
        if np.any(offsets <= 0):
            raise BodyError("origin must be strictly interior to the polygon")
        # symmetric iff every reflected vertex sits on the boundary
        g = self.gauge(-verts)
        if np.max(np.abs(g - 1.0)) > 1e-9:
            raise BodyError("polygon is not origin-symmetric; its gauge is not a metric")

    def _polygon_facets(self) -> tuple[np.ndarray, np.ndarray]:
        verts = np.asarray(self.vertices, dtype=float)
        edge = np.roll(verts, -1, axis=0) - verts
        normals = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
        offsets = np.sum(normals * verts, axis=1)
        return normals, offsets

    @property
    def tag(self) -> str:
        if self.kind == "ball":
            return f"ball:{self.dim}"
        if self.kind == "ellipse":
            return f"ellipse:{self.a:g}:{self.b:g}"
        pts = ";".join(f"{x:g},{y:g}" for x, y in self.vertices)
        return f"polygon:{pts}"

    def gauge(self, v: np.ndarray) -> np.ndarray:
        """Minkowski gauge inf{lam > 0 : v in lam*K}, vectorized over v."""
        v = np.asarray(v, dtype=float)
        if self.kind == "ball":
            if self.dim == 1:
                return np.abs(v[..., 0] if v.ndim > 1 else v)
            return np.sqrt(np.sum(v**2, axis=-1))
        if self.kind == "ellipse":
            return np.sqrt((v[..., 0] / self.a) ** 2 + (v[..., 1] / self.b) ** 2)
        normals, offsets = self._polygon_facets()
        ratios = np.tensordot(v, normals, axes=([-1], [1])) / offsets
        return np.max(ratios, axis=-1)

    def to_dict(self) -> dict[str, Any]:
        if self.kind == "ball":
            return {"kind": "ball", "dim": self.dim}
        if self.kind == "ellipse":
            return {"kind": "ellipse", "a": self.a, "b": self.b}
        return {"kind": "polygon", "vertices": [list(v) for v in self.vertices]}

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "ConvexBody":
        kind = doc["kind"]
        if kind == "ball":
            return ConvexBody("ball", dim=int(doc["dim"]))
        if kind == "ellipse":
            return ConvexBody("ellipse", a=float(doc["a"]), b=float(doc["b"]))
        return ConvexBody("polygon", vertices=tuple(tuple(v) for v in doc["vertices"]))


_SQUARE = ((1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))


def parse_body(text: str) -> ConvexBody:
    """Parse a body tag: ball:N, ellipse:a:b, square, or polygon:x,y;x,y;..."""
    kind, *fields = text.strip().split(":")
    if kind == "square" and not fields:
        return ConvexBody("polygon", vertices=_SQUARE)
    if kind == "ball" and len(fields) <= 1:
        return ConvexBody("ball", dim=int(fields[0]) if fields else 2)
    if kind == "ellipse" and len(fields) == 2:
        return ConvexBody("ellipse", a=float(fields[0]), b=float(fields[1]))
    if kind == "polygon" and len(fields) == 1:
        verts = []
        for chunk in fields[0].split(";"):
            x, y = chunk.split(",")
            verts.append((float(x), float(y)))
        return ConvexBody("polygon", vertices=tuple(verts))
    raise BodyError(f"bad body tag {text!r}; expected ball[:N], ellipse:A:B, square or "
                    "polygon:x,y;x,y;...")


# -- limit constants -----------------------------------------------------------


def k_pn(p: float, n_dim: int) -> float:
    """(1/p) * int_{S^{N-1}} |e1 . x|^p dH^{N-1}, N in {1, 2, 3}, in closed form:
    2 pi^((N-1)/2) Gamma((p+1)/2) / (p Gamma((N+p)/2)); at N = 1 exactly 2/p."""
    _check_exponent(p)
    if n_dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension N={n_dim}; expected 1, 2, or 3")
    a, b = 0.5 * (p + 1), 0.5 * (n_dim + p)
    # Gamma's own ratio is the more accurate, up to where Gamma overflows; 1 at N = 1
    ratio = 1.0 if a == b else (math.gamma(a) / math.gamma(b) if b < 171.0
                                else math.exp(math.lgamma(a) - math.lgamma(b)))
    return 2.0 * math.pi ** (0.5 * (n_dim - 1)) * ratio / p


def _polygon_power_integral(body: ConvexBody, p: float, xi: np.ndarray, order: int) -> float:
    """int_K |xi . x|^p dx for a polygon K."""
    # fan triangulation from the interior origin; on each triangle (0, u, v)
    # the integral reduces to a radial moment times a 1d edge integral of
    # |linear|^p, split at the root of the linear form.
    verts = np.asarray(body.vertices, dtype=float)
    s, ws = _gl_panels([0.0, 1.0], order)
    radial = float(np.sum(ws * s ** (p + 1)))
    total = 0.0
    for u, v in zip(verts, np.roll(verts, -1, axis=0)):
        det = u[0] * v[1] - u[1] * v[0]
        area2 = abs(det)
        lu, lv = float(np.dot(xi, u)), float(np.dot(xi, v))
        breaks = [0.0, 1.0]
        if lu != lv:
            root = lv / (lv - lu)  # L(w) = w*lu + (1-w)*lv
            if 0.0 < root < 1.0:
                breaks = [0.0, root, 1.0]
        w_nodes, w_w = _gl_panels(breaks, order)
        edge = float(np.sum(w_w * np.abs(w_nodes * lu + (1.0 - w_nodes) * lv) ** p))
        total += area2 * radial * edge
    return total


def zstar_norm(body: ConvexBody, p: float, xi) -> float:
    """((N+p)/p * int_K |xi . x|^p dx)^(1/p); 1-homogeneous in xi."""
    _check_exponent(p)
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (body.dim,):
        raise ValueError(f"xi has shape {xi.shape}, body dimension is {body.dim}")
    if np.all(xi == 0.0):
        return 0.0
    if body.kind != "polygon":
        # int_B |xi . x|^p dx = |xi|^p * p * k_pn / (N + p) in polar coordinates;
        # an ellipse is the disk mapped by D = diag(a, b), so xi -> D xi, dx -> ab dy
        d = np.array([body.a, body.b]) if body.kind == "ellipse" else np.ones(body.dim)
        return float(np.linalg.norm(d * xi)) * (float(np.prod(d)) * k_pn(p, body.dim)) ** (1 / p)
    integral = _polygon_power_integral(body, p, xi, 2 * GL_ORDER)
    return float(((body.dim + p) / p * integral) ** (1.0 / p))


# -- gauges ---------------------------------------------------------------------


def gauge_distance(body: ConvexBody, x, y) -> float:
    """Minkowski gauge distance ||x - y||_K between two points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (body.dim,) or y.shape != (body.dim,):
        raise ValueError(f"points must have the body dimension {body.dim}")
    return float(body.gauge((x - y)[None, :])[0])


def gauge_distance_matrix(body: ConvexBody, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise gauge distances between two point sets, chunked by rows."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((a.shape[0], b.shape[0]))
    # 2^19 pairs per chunk: a polygon gauge holds one value per pair and facet
    step = max(1, 2**19 // max(1, b.shape[0]))
    for start in range(0, a.shape[0], step):
        stop = min(start + step, a.shape[0])
        out[start:stop] = body.gauge(a[start:stop, None, :] - b[None, :, :])
    return out
