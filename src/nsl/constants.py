"""Euclidean limit constants and Minkowski gauges of convex bodies.

k_pn(p, N) is the sphere average (1/p) * int_{S^{N-1}} |w . x|^p dH^{N-1}
with w a fixed unit vector; it is the constant relating the s->1 limit of the
fractional energy to the Dirichlet energy in R^N. zstar_norm evaluates the
anisotropic replacement ((N+p)/p * int_K |xi . x|^p dx)^{1/p} for a symmetric
convex body K.

All integrals use composite Gauss-Legendre panels of fixed order, doubled
once; panels are split at the kinks of |linear form|^p so the rule converges
spectrally. Only origin-symmetric bodies are accepted: an asymmetric gauge
would not be a metric.
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


def _gl_panel(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _gl_panels(breaks: list[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            x, w = _gl_panel(a, b, order)
            xs.append(x)
            ws.append(w)
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
            if self.a <= 0 or self.b <= 0:
                raise BodyError(f"ellipse semi-axes must be positive, got ({self.a},{self.b})")
        elif self.kind == "polygon":
            self._validate_polygon()
        else:
            raise BodyError(f"unknown body kind {self.kind!r}")

    def _validate_polygon(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
            raise BodyError("polygon needs at least 3 planar vertices")
        rolled = np.roll(verts, -1, axis=0)
        cross = verts[:, 0] * rolled[:, 1] - verts[:, 1] * rolled[:, 0]
        if np.any(cross <= 0):
            raise BodyError("polygon vertices must be in counterclockwise convex position")
        normals, offsets = self._polygon_facets()
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
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "square":
        return ConvexBody("polygon", vertices=_SQUARE)
    if kind == "ball":
        return ConvexBody("ball", dim=int(parts[1]) if len(parts) > 1 else 2)
    if kind == "ellipse":
        if len(parts) != 3:
            raise BodyError(f"ellipse tag needs two semi-axes, got {text!r}")
        return ConvexBody("ellipse", a=float(parts[1]), b=float(parts[2]))
    if kind == "polygon":
        if len(parts) != 2:
            raise BodyError(f"polygon tag needs a vertex list, got {text!r}")
        verts = []
        for chunk in parts[1].split(";"):
            x, y = chunk.split(",")
            verts.append((float(x), float(y)))
        return ConvexBody("polygon", vertices=tuple(verts))
    raise BodyError(f"unknown body tag {text!r}")


# -- limit constants -----------------------------------------------------------


def _abs_cos_power_integral(p: float, order: int) -> float:
    """int_0^{2pi} |cos t|^p dt, panels split at the kinks pi/2 and 3pi/2."""
    t, w = _gl_panels([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi], order)
    return float(np.sum(w * np.abs(np.cos(t)) ** p))


def k_pn(p: float, n_dim: int) -> float:
    """(1/p) * int_{S^{N-1}} |e1 . x|^p dH^{N-1}, N in {1, 2, 3}."""
    if not p >= 1:  # NaN fails too
        raise ValueError(f"exponent p must be >= 1, got {p}")
    if n_dim == 1:
        # S^0 = {-1, +1} with counting measure
        return 2.0 / p
    if n_dim == 2:
        return _abs_cos_power_integral(p, 2 * GL_ORDER) / p
    if n_dim == 3:
        # polar angle from e1; the azimuthal integral is 2*pi exactly
        phi, w = _gl_panels([0.0, 0.5 * math.pi, math.pi], 2 * GL_ORDER)
        integral = 2.0 * math.pi * float(np.sum(w * np.abs(np.cos(phi)) ** p * np.sin(phi)))
        return integral / p
    raise ValueError(f"unsupported dimension N={n_dim}; expected 1, 2, or 3")


def _body_linear_power_integral(body: ConvexBody, p: float, xi: np.ndarray, order: int) -> float:
    """int_K |xi . x|^p dx for an ellipse or a polygon."""
    if body.kind == "ellipse":
        a, b = body.a, body.b
        # map of the unit disk, jacobian a*b*r
        r, wr = _gl_panel(0.0, 1.0, order)
        radial = float(np.sum(wr * r ** (p + 1)))
        cx, cy = a * float(xi[0]), b * float(xi[1])
        amp = math.hypot(cx, cy)
        if amp == 0.0:
            return 0.0
        phase = math.atan2(cy, cx)
        kinks = sorted(
            ((phase + 0.5 * math.pi + k * math.pi) % (2.0 * math.pi) for k in range(2))
        )
        breaks = [0.0] + kinks + [2.0 * math.pi]
        t, wt = _gl_panels(breaks, order)
        angular = float(np.sum(wt * np.abs(np.cos(t - phase)) ** p)) * amp**p
        return a * b * radial * angular
    # polygon: fan triangulation from the interior origin; on each triangle
    # (0, u, v) the integral reduces to a radial moment times a 1d edge
    # integral of |linear|^p, split at the root of the linear form.
    verts = np.asarray(body.vertices, dtype=float)
    s, ws = _gl_panel(0.0, 1.0, order)
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
    if not p >= 1:  # NaN fails too
        raise ValueError(f"exponent p must be >= 1, got {p}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (body.dim,):
        raise ValueError(f"xi has shape {xi.shape}, body dimension is {body.dim}")
    if np.all(xi == 0.0):
        return 0.0
    if body.kind == "ball":
        # int_B |xi . x|^p dx = |xi|^p * p * k_pn / (N + p) in polar coordinates
        return float(np.linalg.norm(xi)) * k_pn(p, body.dim) ** (1.0 / p)
    integral = _body_linear_power_integral(body, p, xi, 2 * GL_ORDER)
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
    step = max(1, 2**22 // max(1, b.shape[0]))
    for start in range(0, a.shape[0], step):
        stop = min(start + step, a.shape[0])
        out[start:stop] = body.gauge(a[start:stop, None, :] - b[None, :, :])
    return out
