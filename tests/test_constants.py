import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsl import BodyError, ConvexBody, gauge_distance, k_pn, parse_body, zstar_norm

from conftest import HEXAGON


class TestKpn:
    def test_analytic_values(self):
        assert k_pn(2, 1) == pytest.approx(1.0, abs=1e-8)
        assert k_pn(1, 1) == pytest.approx(2.0, abs=1e-8)
        assert k_pn(2, 2) == pytest.approx(math.pi / 2, abs=1e-8)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_dimension_one_closed_form(self, p):
        assert k_pn(p, 1) == pytest.approx(2.0 / p, abs=1e-12)

    def test_p2_sphere_area_formula(self):
        # for p = 2 the sphere average is |S^{N-1}| / (2N)
        assert k_pn(2, 2) == pytest.approx(2 * math.pi / 4, abs=1e-8)
        assert k_pn(2, 3) == pytest.approx(4 * math.pi / 6, abs=1e-8)

    def test_dimension_three_closed_form(self):
        # int_{S^2} |x1|^p = 4 pi / (p + 1)
        for p in (1.0, 2.0, 2.5):
            assert k_pn(p, 3) == pytest.approx(4 * math.pi / (p + 1) / p, abs=1e-8)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 4.5, 10.0, 50.0])
    def test_exact_to_1e13(self, p):
        """int_0^{2pi} |cos|^p = 2 sqrt(pi) Gamma((p+1)/2) / Gamma(p/2 + 1) and
        int_{S^2} |x1|^p = 4 pi / (p + 1); a quadrature across the |cos|^p endpoint
        singularity was 8.3e-12 and 1.8e-11 off at p = 1.5."""
        circle = 2 * math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)
        assert k_pn(p, 1) == 2.0 / p
        assert k_pn(p, 2) == pytest.approx(circle / p, rel=1e-13, abs=0)
        assert k_pn(p, 3) == pytest.approx(4 * math.pi / (p + 1) / p, rel=1e-13, abs=0)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="N=4"):
            k_pn(2, 4)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            k_pn(0.5, 2)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_exponent(self, p):
        with pytest.raises(ValueError, match="p must be >= 1 and finite"):
            k_pn(p, 2)
        with pytest.raises(ValueError, match="p must be >= 1 and finite"):
            zstar_norm(parse_body("square"), p, (1.0, 0.0))


# float.hex() of zstar_norm(body, p, (0.3, -0.7)) at p = 1, 1.5, 2, 3, written before the radial
# and edge rules came from one panel routine
ZSTAR_PINS = {
    "square": ("0x1.1d41d41d41d52p+2", "0x1.cf95e04f518aep+0", "0x1.3e5fe1beb8bb6p+0",
               "0x1.d86a12a9b530bp-1"),
    HEXAGON: ("0x1.feac52090eb09p+0", "0x1.e9ef7ffcf221ep-1", "0x1.6cf8ac075cff6p-1",
              "0x1.24e5f868438edp-1"),
}


class TestZstar:
    @pytest.mark.parametrize("body", list(ZSTAR_PINS), ids=["square", "hexagon"])
    def test_polygon_values_are_pinned(self, body):
        got = tuple(zstar_norm(parse_body(body), p, (0.3, -0.7)).hex() for p in (1, 1.5, 2, 3))
        assert got == ZSTAR_PINS[body]

    def test_disk(self):
        assert zstar_norm(ConvexBody("ball", dim=2), 2, (1.0, 0.0)) == pytest.approx(
            math.sqrt(math.pi / 2), abs=1e-6
        )

    def test_square(self):
        sq = parse_body("square")
        assert zstar_norm(sq, 2, (1.0, 0.0)) == pytest.approx(math.sqrt(8 / 3), abs=1e-6)

    def test_zero_vector(self):
        assert zstar_norm(ConvexBody("ball", dim=2), 2, (0.0, 0.0)) == 0.0

    def test_homogeneous(self):
        body = parse_body("square")
        xi = np.array([0.3, -0.7])
        assert zstar_norm(body, 2, 3.0 * xi) == pytest.approx(
            3.0 * zstar_norm(body, 2, xi), rel=1e-12
        )

    def test_rotation_invariant_on_disk(self):
        body = ConvexBody("ball", dim=2)
        base = zstar_norm(body, 2.5, (1.0, 0.0))
        for angle in (0.3, 1.1, 2.0, 4.5):
            xi = (math.cos(angle), math.sin(angle))
            assert zstar_norm(body, 2.5, xi) == pytest.approx(base, rel=1e-6)

    def test_reduces_to_sphere_constant(self):
        # for the disk and p = 2, zstar(xi)^2 = k_pn(2,2) |xi|^2
        body = ConvexBody("ball", dim=2)
        xi = np.array([0.6, 0.8])
        assert zstar_norm(body, 2, xi) ** 2 == pytest.approx(k_pn(2, 2), abs=1e-6)

    def test_interval_body(self):
        # K = [-1, 1]: integral 2 |xi|^p / (p+1), prefactor (1+p)/p
        assert zstar_norm(ConvexBody("ball", dim=1), 2, (1.0,)) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_ball3(self):
        # (3+p)/p * |xi|^p * 4 pi / ((p+2+1)(p+1))-type closed form at p=2:
        # int_{B^3} x1^2 = 4 pi / 15; zstar^2 = (5/2)(4 pi/15) = 2 pi / 3
        assert zstar_norm(ConvexBody("ball", dim=3), 2, (1.0, 0.0, 0.0)) == pytest.approx(
            math.sqrt(2 * math.pi / 3), abs=1e-6
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            zstar_norm(ConvexBody("ball", dim=2), 2, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("a,b", [(2.0, 0.5), (3.0, 1.7), (0.2, 5.0)])
    @pytest.mark.parametrize("xi", [(1.0, 0.0), (0.3, -0.7), (0.0, 2.0)])
    def test_ellipse_p2_closed_form(self, a, b, xi):
        # int_E (xi . x)^2 dx = (pi/4) a b (a^2 xi1^2 + b^2 xi2^2), prefactor (2+2)/2
        expected = 0.5 * math.pi * a * b * (a**2 * xi[0] ** 2 + b**2 * xi[1] ** 2)
        body = ConvexBody("ellipse", a=a, b=b)
        assert zstar_norm(body, 2, xi) ** 2 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_unit_ellipse_is_the_disk(self, p):
        xi = (0.6, -0.35)
        disk = zstar_norm(ConvexBody("ball", dim=2), p, xi)
        assert zstar_norm(parse_body("ellipse:1:1"), p, xi) == pytest.approx(disk, rel=1e-12)


class TestGauge:
    def test_ball_is_euclidean(self):
        body = ConvexBody("ball", dim=2)
        assert gauge_distance(body, (3.0, 4.0), (0.0, 0.0)) == pytest.approx(5.0)

    def test_square_is_max_norm(self):
        sq = parse_body("square")
        assert gauge_distance(sq, (3.0, 1.0), (0.0, 0.0)) == pytest.approx(3.0)

    def test_ellipse_axis_scaling(self):
        body = ConvexBody("ellipse", a=2.0, b=1.0)
        assert gauge_distance(body, (2.0, 0.0), (0.0, 0.0)) == pytest.approx(1.0)

    def test_hexagon_unit_on_vertices(self):
        angles = [k * math.pi / 3 for k in range(6)]
        hexagon = ConvexBody(
            "polygon", vertices=tuple((math.cos(a), math.sin(a)) for a in angles)
        )
        for a in angles:
            assert gauge_distance(hexagon, (math.cos(a), math.sin(a)), (0.0, 0.0)) == (
                pytest.approx(1.0, rel=1e-12)
            )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_triangle_inequality(self, flat):
        sq = parse_body("square")
        x, y, z = np.array(flat[0:2]), np.array(flat[2:4]), np.array(flat[4:6])
        lhs = gauge_distance(sq, x, z)
        rhs = gauge_distance(sq, x, y) + gauge_distance(sq, y, z)
        assert lhs <= rhs + 1e-12

    def test_asymmetric_polygon_rejected(self):
        with pytest.raises(BodyError, match="symmetric"):
            ConvexBody("polygon", vertices=((1.0, -0.5), (1.0, 1.0), (-1.0, 1.0), (-1.0, -0.5)))

    def test_origin_outside_rejected(self):
        with pytest.raises(BodyError):
            ConvexBody("polygon", vertices=((1.0, 1.0), (2.0, 1.0), (1.5, 2.0)))

    def test_clockwise_rejected(self):
        with pytest.raises(BodyError, match="counterclockwise"):
            ConvexBody(
                "polygon", vertices=((1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
            )

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
    def test_ellipse_semi_axis_outside_open_half_line_rejected(self, a):
        with pytest.raises(BodyError, match="semi-axes must be positive and finite"):
            ConvexBody("ellipse", a=a, b=1.0)
        with pytest.raises(BodyError, match="semi-axes must be positive and finite"):
            ConvexBody("ellipse", a=1.0, b=a)

    @pytest.mark.parametrize("a", [1e-320, 1e-300, 1e-155])
    def test_ellipse_whose_gauge_overflows_rejected(self, a):
        """1/a overflows, or its square does: the gauge of a unit vector would be inf."""
        for axes in ((a, 1.0), (1.0, a)):
            with pytest.raises(BodyError, match="so small that the gauge overflows"):
                ConvexBody("ellipse", a=axes[0], b=axes[1])

    def test_smallest_ellipse_whose_gauge_is_finite_accepted(self):
        body = ConvexBody("ellipse", a=1e-150, b=1.0)
        assert body.gauge(np.array([1.0, 0.0])) == pytest.approx(1e150)

    @pytest.mark.parametrize("scale", [1e200, 1e160, 1e308])
    def test_polygon_whose_facets_overflow_rejected(self, scale):
        verts = tuple((scale * x, scale * y) for x, y in ((1, -1), (1, 1), (-1, 1), (-1, -1)))
        with pytest.raises(BodyError, match="cross products or the facet offsets overflow"):
            ConvexBody("polygon", vertices=verts)

    def test_large_polygon_whose_facets_are_finite_accepted(self):
        verts = tuple((1e150 * x, 1e150 * y) for x, y in ((1, -1), (1, 1), (-1, 1), (-1, -1)))
        assert ConvexBody("polygon", vertices=verts).gauge(np.array([1e150, 0.0])) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_polygon_vertex_rejected(self, bad):
        verts = ((1.0, -1.0), (1.0, bad), (-1.0, 1.0), (-1.0, -1.0))
        with pytest.raises(BodyError, match="vertices must be finite"):
            ConvexBody("polygon", vertices=verts)

    def test_parse_errors(self):
        with pytest.raises(BodyError):
            parse_body("blob:1")
        with pytest.raises(BodyError):
            parse_body("ellipse:2")
        for text in ("ball:2:3", "square:1"):
            with pytest.raises(BodyError, match="bad body tag"):
                parse_body(text)

    def test_round_trip_dict(self):
        for body in (
            ConvexBody("ball", dim=3),
            ConvexBody("ellipse", a=2.0, b=0.5),
            parse_body("square"),
        ):
            again = ConvexBody.from_dict(body.to_dict())
            assert again == body
