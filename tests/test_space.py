import json
import math

import numpy as np
import pytest

from nsl import (
    MetricMeasureSpace,
    SpaceError,
    SpaceSpec,
    ball_measure,
    build_space,
    doubling_constant,
    load_space,
    parse_body,
    save_space,
)


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

    def test_bad_specs_rejected(self):
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("interval", n=1))
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("interval", n=8, alpha=-1.0))
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("sierpinski", level=-1))
        with pytest.raises(SpaceError):
            build_space(SpaceSpec("nonsense"))

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
         "torus2d:axb", "sierpinski:", "gauge_grid:4", "gauge_grid:4:blob", "graph"],
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
        assert ball_measure(sp, 0, math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_zero_radius_is_own_weight(self, two_point):
        assert ball_measure(two_point, 0, 0.0) == 0.5

    def test_full_radius_is_total_mass(self, circle64):
        assert ball_measure(circle64, 3, circle64.diameter) == pytest.approx(
            circle64.total_mass
        )

    def test_unknown_point(self, two_point):
        with pytest.raises(SpaceError, match="unknown point"):
            ball_measure(two_point, 5, 1.0)

    def test_negative_radius(self, two_point):
        with pytest.raises(SpaceError):
            ball_measure(two_point, 0, -0.1)

    def test_ball_index_prefix_sums(self, interval128):
        sorted_d, prefix = interval128._ball_index()
        assert np.all(np.diff(prefix, axis=1) > 0)
        assert prefix[:, -1] == pytest.approx(interval128.total_mass)
        assert np.all(np.diff(sorted_d, axis=1) >= 0)

    def test_step_function_of_radius(self, interval128):
        """Nondecreasing, piecewise constant, jumps exactly at realized distances."""
        x = 17
        realized = np.unique(interval128.dist[x])
        radii = np.sort(np.concatenate([realized, realized[1:] * 0.99, realized + 1e-9]))
        masses = [ball_measure(interval128, x, r) for r in radii]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        # value just below a realized distance excludes it, at it includes it
        d = realized[3]
        below = ball_measure(interval128, x, d * (1 - 1e-12))
        at = ball_measure(interval128, x, d)
        assert at > below


class TestDoubling:
    def test_circle8_value_and_witness(self):
        rep = doubling_constant(build_space(SpaceSpec("circle", n=8)))
        assert rep.c_d_hat == pytest.approx(3.0)
        x, r = rep.witness
        sp = build_space(SpaceSpec("circle", n=8))
        assert ball_measure(sp, x, 2 * r) / ball_measure(sp, x, r) == pytest.approx(3.0)

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
        rep = doubling_constant(sp, non_doubling_threshold=64.0)
        assert rep.c_d_hat > 64.0
        assert rep.non_doubling_like

    def test_invariant_under_rescaling(self, circle64):
        rep = doubling_constant(circle64)
        scaled = MetricMeasureSpace(3.0 * circle64.dist, 7.0 * circle64.weights)
        assert doubling_constant(scaled).c_d_hat == pytest.approx(rep.c_d_hat, rel=1e-14)

    def test_exhaustive_oracle_small(self):
        """Sup over a dense radius sample never exceeds the reported sup."""
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0, 1, 9))
        dist = np.abs(x[:, None] - x[None, :])
        sp = MetricMeasureSpace(dist, rng.uniform(0.5, 2.0, 9))
        rep = doubling_constant(sp)
        dense = np.linspace(1e-6, 1.5, 4001)
        worst = max(
            ball_measure(sp, i, 2 * r) / ball_measure(sp, i, r)
            for i in range(9)
            for r in dense
        )
        assert worst <= rep.c_d_hat + 1e-12
        assert rep.c_d_hat <= worst + 1e-9 or rep.c_d_hat == pytest.approx(worst, rel=1e-9)


# Schema faults in a saved torus2d:4x4 file; each mutates the document in place.
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


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, circle64):
        path = tmp_path / "c.space"
        save_space(circle64, path)
        loaded = load_space(path)
        assert np.array_equal(loaded.dist, circle64.dist)
        assert np.array_equal(loaded.weights, circle64.weights)
        assert loaded.name == circle64.name

    def test_round_trip_matrix_space(self, tmp_path):
        sp = build_space(SpaceSpec("sierpinski", level=2))
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
        save_space(build_space(SpaceSpec("torus2d", nx=4, ny=4)), path)
        doc = json.loads(path.read_text())
        MALFORMED[fault](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SpaceError):
            load_space(path)

    def test_closed_form_file_names_differing_keys(self, tmp_path):
        path = tmp_path / "t.space"
        save_space(build_space(SpaceSpec("torus2d", nx=4, ny=4)), path)
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
        assert circle64.ball_masses(0.5)[0] == circle64.ball_mass(0, 0.5)

    def test_zero_diagonal_enforced(self):
        dist = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(SpaceError, match="diagonal"):
            MetricMeasureSpace(dist, np.array([1.0, 1.0]))

    def test_positive_weights_enforced(self):
        dist = np.zeros((2, 2))
        with pytest.raises(SpaceError, match="weight"):
            MetricMeasureSpace(dist, np.array([1.0, 0.0]))
