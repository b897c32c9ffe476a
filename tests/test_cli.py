import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nsl import __version__, build_space, cli, parallel, save_space
from nsl.cli import main, parse_grid, parse_space_spec
from nsl.kernels import KERNEL_KINDS
from nsl.verify import CHECKS

from conftest import ball_loop_s, count_gasket_builds, matrix_file_space, write_old_file


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


class TestGen:
    def test_gen_and_reload(self, runner, tmp_path):
        out = tmp_path / "c16.space"
        result = invoke(runner, ["gen", "--spec", "circle:16", "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()
        from nsl import load_space

        assert load_space(out).n == 16

    def test_version_is_the_package_version(self, runner):
        result = invoke(runner, ["--version"])
        assert result.exit_code == 0
        assert result.output.strip() == f"nsl, version {__version__}"

    @pytest.mark.parametrize("space, kernel", [
        ("circle:64:junk", "rho1"), ("interval:8:0.5:7", "rho1"), ("circle:64", "rho1:2"),
        ("circle:64", "ahlfors:2:extra"), ("circle:64", "gauge-ahlfors:1:ball:1:7"),
    ])
    def test_trailing_spec_fields_exit_2(self, runner, space, kernel):
        result = invoke(runner, ["energy", "--space", space, "--kernel", kernel,
                                 "--functional", "k", "--t", "0.5", "--field", "sin(x)"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: bad ") and "Traceback" not in result.output

    def test_gen_bad_spec_exit_2(self, runner, tmp_path):
        result = invoke(runner, ["gen", "--spec", "sphere:9", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "error" in result.output

    def test_gen_gauge_grid_3d_body_exit_2(self, runner, tmp_path):
        out = tmp_path / "x"
        result = invoke(runner, ["gen", "--spec", "gauge_grid:4:ball:3", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == "error: gauge_grid needs a 2d body, got dim 3\n"
        assert not out.exists()

    def test_gen_gauge_grid_non_finite_body_exit_2(self, runner, tmp_path):
        out = tmp_path / "x"
        result = invoke(runner, ["gen", "--spec", "gauge_grid:4:ellipse:nan:1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "ellipse semi-axes must be positive and finite" in result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0,1,1\n1,2,1\n0,1,1\n", "0,1,1\n1,2,1\n1,0,3\n",
                                      "0,1,1\n1,2,1\n1,1,1\n"])
    def test_gen_graph_pair_listed_twice_or_self_loop_exit_2(self, runner, tmp_path, rows):
        edge_file = tmp_path / "edges.csv"
        edge_file.write_text(rows)
        out = tmp_path / "g.space"
        result = invoke(runner, ["gen", "--spec", f"graph:{edge_file}", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: graph edge ") and result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec", ["interval:16:1.0", "torus2d:4x6", "sierpinski:2", "gauge_grid:4:square"]
    )
    def test_gen_all_generators(self, runner, tmp_path, spec):
        out = tmp_path / "sp.space"
        result = invoke(runner, ["gen", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        from nsl import load_space

        assert load_space(out).n >= 3


    def test_sierpinski_file_is_its_generator_tag(self, runner, tmp_path, monkeypatch):
        """sierpinski:6 (1095 points) once wrote its 598965 distances, 5.5 MB, and then its
        weights, coordinates and edges, 84 kB. gen finds no geodesics and writes the tag alone;
        the whole document is still byte for byte the file the eager build wrote."""
        from nsl import load_space

        out = tmp_path / "s6.space"
        calls = count_gasket_builds(monkeypatch)
        result = invoke(runner, ["gen", "--spec", "sierpinski:6", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert not calls
        assert out.stat().st_size < 1e3
        assert out.read_bytes() == (
            b'{"name": "sierpinski(6)", "n": 1095, "metric": {"type": "geodesic", '
            b'"params": {"generator": "sierpinski", "level": 6}}}\n')
        old = tmp_path / "old.space"
        write_old_file(build_space(parse_space_spec("sierpinski:6")), old)
        digest = hashlib.sha256(old.read_bytes()).hexdigest()
        assert digest == "e7a754188c3dfa6a8aab6c348b36fd8ff63ebf3c4f2fb4047db9013fc11f336e"
        built = build_space(parse_space_spec("sierpinski:6"))
        assert np.array_equal(load_space(out).dist, built.dist)
        assert np.array_equal(load_space(old).dist, built.dist)

    def test_gen_rewrites_an_old_file_compact(self, runner, tmp_path):
        """gen --spec OLD.space loads (and so checks) a file written whole and writes it compact."""
        from nsl import load_space

        sp = build_space(parse_space_spec("torus2d:16x8"))
        old, new = tmp_path / "old.space", tmp_path / "new.space"
        write_old_file(sp, old)
        result = invoke(runner, ["gen", "--spec", str(old), "--out", str(new)])
        assert result.exit_code == 0, result.output
        assert new.stat().st_size < 1e3 < old.stat().st_size
        assert json.loads(new.read_text()) == {key: val for key, val in json.loads(
            old.read_text()).items() if key in ("name", "n", "metric", "grid")}
        for attr in ("dist", "weights", "coords", "edges"):
            assert getattr(load_space(new), attr).tobytes() == getattr(sp, attr).tobytes()

    def test_infinite_interval_exponent_exit_2(self, runner, tmp_path):
        """inf once passed the spec check and failed at a zero weight x^inf."""
        out = tmp_path / "i.space"
        result = invoke(runner, ["gen", "--spec", "interval:16:inf", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == "error: interval weight exponent must be finite and > -1, got inf\n"
        assert not out.exists()


class TestEnergy:
    def test_pipeline_prints_one_number(self, runner, tmp_path):
        space = tmp_path / "c.space"
        invoke(runner, ["gen", "--spec", "circle:64", "--out", str(space)])
        result = invoke(
            runner,
            ["energy", "--space", str(space), "--field", "sin(x)", "--p", "2",
             "--kernel", "rho1", "--s", "0.9"],
        )
        assert result.exit_code == 0
        value = float(result.output.strip())
        assert value > 0

    def test_inline_spec_and_functionals(self, runner):
        for args, check in (
            (["--functional", "nguyen", "--delta", "0.5"], lambda v: v >= 0),
            (["--functional", "cheeger"], lambda v: abs(v - math.pi) < 0.1),
            (["--functional", "s", "--t", "0.5"], lambda v: v > 0),
        ):
            result = invoke(
                runner,
                ["energy", "--space", "circle:64", "--field", "sin(x)"] + args,
            )
            assert result.exit_code == 0, result.output
            assert check(float(result.output.strip()))

    def test_scale_functionals_compute_only_their_energy(self, runner, monkeypatch,
                                                          no_ball_product):
        import nsl.cli
        from nsl import EnergySpec, ScalarField, scale_energies

        built = []

        def build(spec):
            built.append(build_space(spec))
            return built[-1]

        # at p = 2 S_t takes two sums over each ball, never the block product (no_ball_product)
        monkeypatch.setattr(nsl.cli, "build_space", build)
        args = ["energy", "--space", "circle:64", "--field", "sin(x)", "--t", "0.5"]
        outputs = {}
        for functional in ("h", "s", "k"):
            result = invoke(runner, args + ["--functional", functional])
            assert result.exit_code == 0, result.output
            outputs[functional] = result.output.strip()
            # on the circle K reads row 0 of its kernel's lattice table, never the matrix
            kernels = [key for key in built[-1]._cache if isinstance(key, tuple)
                       and key[0] in ("kernel", "kernel_table")]
            assert kernels == ([("kernel_table", "rho1")] if functional == "k" else [])
        sp = build_space(parse_space_spec("circle:64"))
        se = scale_energies(sp, ScalarField(np.sin(sp.coords[:, 0])), EnergySpec(p=2, t=0.5))
        assert outputs == {"k": repr(se.k), "h": repr(se.h), "s": repr(se.s)}

    def test_s_at_p3_runs_one_ball_product_per_radius(self, runner, monkeypatch):
        import nsl.energies

        radii = []
        original = nsl.energies._ball_product_totals

        def counted(space, t, *args):
            radii.append(t)
            return original(space, t, *args)

        monkeypatch.setattr(nsl.energies, "_ball_product_totals", counted)
        result = invoke(
            runner,
            ["energy", "--space", "circle:64", "--field", "sin(x)", "--t", "0.5",
             "--functional", "s", "--p", "3"],
        )
        assert result.exit_code == 0, result.output
        assert radii == [0.5]
        sp = build_space(parse_space_spec("circle:64"))
        want = ball_loop_s(sp, np.sin(sp.coords[:, 0]), 0.5, 3.0)
        assert abs(float(result.output) - want) <= 1e-12 * want

    def test_field_csv(self, runner, tmp_path):
        csv_path = tmp_path / "u.csv"
        csv_path.write_text("\n".join(str(v) for v in np.linspace(0, 1, 16)) + "\n")
        result = invoke(
            runner,
            ["energy", "--space", "circle:16", "--field-csv", str(csv_path),
             "--functional", "nguyen", "--delta", "0.3"],
        )
        assert result.exit_code == 0

    def test_field_csv_length_mismatch_exit_2(self, runner, tmp_path):
        csv_path = tmp_path / "u.csv"
        csv_path.write_text("1.0\n2.0\n")
        result = invoke(
            runner,
            ["energy", "--space", "circle:16", "--field-csv", str(csv_path),
             "--functional", "nguyen", "--delta", "0.3"],
        )
        assert result.exit_code == 2

    def test_missing_field_exit_2(self, runner):
        result = invoke(runner, ["energy", "--space", "circle:16"])
        assert result.exit_code == 2

    def test_expression_on_coordinate_free_space_exit_2(self, runner, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1,1.0\n1,2,1.0\n")
        result = invoke(
            runner,
            ["energy", "--space", f"graph:{edges}", "--field", "x",
             "--functional", "nguyen", "--delta", "0.5"],
        )
        assert result.exit_code == 2
        assert "coordinates" in result.output

    def test_determinism_across_worker_flags(self, runner):
        outputs = set()
        for w in ("1", "2", "8"):
            result = invoke(
                runner,
                ["energy", "--space", "circle:300", "--field", "sin(x)",
                 "--s", "0.7", "--workers", w],
            )
            assert result.exit_code == 0
            outputs.add(result.output)
        assert len(outputs) == 1

    def test_self_check_determinism(self, runner):
        result = invoke(
            runner,
            ["energy", "--space", "circle:64", "--field", "sin(x)", "--s", "0.5",
             "--workers", "4", "--self-check-determinism"],
        )
        assert result.exit_code == 0

    def test_self_check_determinism_recomputes_at_one_worker_under_env(self, runner, monkeypatch):
        """NSL_WORKERS outranks set_workers, so the recomputation once ran at the same count."""
        seen = []
        real = cli.gagliardo_p

        def spy(*args):
            seen.append(parallel.get_workers())
            return real(*args)

        monkeypatch.setattr(cli, "gagliardo_p", spy)
        monkeypatch.setenv("NSL_WORKERS", "2")
        result = invoke(runner, ["energy", "--space", "circle:300", "--field", "sin(x)",
                                 "--s", "0.5", "--self-check-determinism"])
        assert result.exit_code == 0, result.output
        assert seen == [2, 1]
        assert os.environ["NSL_WORKERS"] == "2"

    def test_env_workers_override(self, runner, monkeypatch):
        base = invoke(
            runner, ["energy", "--space", "circle:300", "--field", "sin(x)", "--s", "0.6"]
        )
        monkeypatch.setenv("NSL_WORKERS", "3")
        env = invoke(
            runner, ["energy", "--space", "circle:300", "--field", "sin(x)", "--s", "0.6"]
        )
        monkeypatch.delenv("NSL_WORKERS")
        assert base.output == env.output


class TestSweepAndReport:
    def test_sweep_writes_csv_with_full_grid(self, runner, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        result = invoke(
            runner,
            ["sweep", "--mode", "bbm", "--space", "interval:128", "--field", "x",
             "--kernel", "ahlfors:1", "--s-grid", "0.5:0.99:0.01",
             "--out-csv", str(csv_path), "--out-json", str(json_path)],
        )
        assert result.exit_code == 0, result.output
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "s,value"
        assert len(rows) == 1 + 50
        doc = json.loads(json_path.read_text())
        assert doc["estimate"]["limit"] is not None
        assert "limit=" in result.output

    def test_report_round_trips_csv(self, runner, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        invoke(
            runner,
            ["sweep", "--mode", "nguyen", "--space", "interval:128", "--field", "x",
             "--kernel", "ahlfors:1", "--delta-grid", "0.5:0.1:-0.1",
             "--out-csv", str(csv_path)],
        )
        result = invoke(runner, ["report", "--sweep-csv", str(csv_path)])
        assert result.exit_code == 0
        assert "delta-sweep" in result.output

    def test_ks_sweep(self, runner, tmp_path):
        result = invoke(
            runner,
            ["sweep", "--mode", "ks", "--space", "interval:64", "--field", "x",
             "--t-grid", "0.3:0.1:-0.1"],
        )
        assert result.exit_code == 0

    def test_ks_sweep_at_p2_runs_no_ball_loop(self, runner, no_ball_product):
        result = invoke(
            runner,
            ["sweep", "--mode", "ks", "--space", "circle:64", "--field", "sin(x)",
             "--t-grid", "0.8:0.2:-0.2", "--p", "2"],
        )
        assert result.exit_code == 0, result.output
        assert "ks: 4 points" in result.output

    @pytest.mark.parametrize("text, last", [("0.5:0.99:0.05", 0.95), ("0.5:0.95:0.05", 0.95),
                                            ("0.5:0.99:0.01", 0.99), ("0.8:0.2:-0.2", 0.2)])
    def test_grid_stops_at_b(self, text, last):
        """Whole steps only: 0.5:0.99:0.05 ends at 0.95, not at 1.0."""
        grid = parse_grid(text)
        assert grid[-1] == pytest.approx(last, abs=1e-12)
        assert len(grid) == 1 + round((last - grid[0]) / (grid[1] - grid[0]))

    def test_bbm_sweep_with_grid_short_of_a_step(self, runner):
        result = invoke(
            runner,
            ["sweep", "--mode", "bbm", "--space", "circle:32", "--field", "sin(x)",
             "--s-grid", "0.5:0.99:0.05"],
        )
        assert result.exit_code == 0, result.output
        assert "bbm: 10 points" in result.output

    def test_bad_grid_exit_2(self, runner):
        result = invoke(
            runner,
            ["sweep", "--mode", "bbm", "--space", "circle:16", "--field", "x",
             "--s-grid", "oops"],
        )
        assert result.exit_code == 2


class TestVerify:
    def test_suite_passes_exit_0(self, runner, tmp_path):
        json_path = tmp_path / "report.json"
        result = invoke(
            runner,
            ["verify", "--suite", "all", "--space", "circle:64", "--field", "sin(x)",
             "--p", "2", "--out-json", str(json_path)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(json_path.read_text())
        assert doc["passed"] is True
        assert "PASS" in result.output

    def test_named_checks(self, runner):
        result = invoke(
            runner,
            ["verify", "--suite", "fubini,nguyen-avg", "--space", "interval:64",
             "--field", "x", "--kernel", "ahlfors:1"],
        )
        assert result.exit_code == 0
        assert result.output.count("PASS") == 2

    def test_failing_check_exit_1(self, runner, tmp_path):
        # a step field cannot be averaged to within the mollifier default
        # tolerance at coarse scales: the suite must fail with exit code 1
        csv_path = tmp_path / "step.csv"
        vals = (np.linspace(0, 1, 32, endpoint=False) + 0.5 / 32 > 0.5).astype(float)
        csv_path.write_text("\n".join(str(v) for v in vals) + "\n")
        result = invoke(
            runner,
            ["verify", "--suite", "mollifier", "--space", "interval:32",
             "--field-csv", str(csv_path)],
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_constant_field_passes_the_mean_check(self, runner):
        result = invoke(
            runner, ["verify", "--suite", "mean", "--space", "interval:100", "--field", "0.3"]
        )
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_unknown_check_exit_2(self, runner):
        result = invoke(
            runner, ["verify", "--suite", "bogus", "--space", "circle:16", "--field", "x"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--suite", ","], ["--informational", "bogus"], ["--suite", "mean,bogus"],
    ])
    def test_no_check_or_unknown_check_exit_2_before_any_check(self, runner, monkeypatch, args):
        ran = []
        monkeypatch.setattr("nsl.verify.check_mean_comparison", lambda *a: ran.append(a))
        result = invoke(runner, ["verify", *args, "--space", "circle:16", "--field", "sin(x)"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        assert not ran

    def test_suite_help_lists_every_check(self, runner):
        result = invoke(runner, ["verify", "--help"])
        assert ",".join(CHECKS) in "".join(result.output.split())

    @pytest.mark.parametrize("suite", ["hks", "all"])
    @pytest.mark.parametrize("space", [
        "circle:8", "circle:16", "circle:17", "interval:8", "torus2d:8x8", "sierpinski:1",
        "sierpinski:2", "sierpinski:3", "gauge_grid:6:square", "gauge_grid:8:square",
    ])
    def test_small_spaces_are_not_input_errors(self, runner, space, suite):
        """Suite radii at or below the mesh scale make a check not applicable, not an error."""
        result = invoke(runner, ["verify", "--suite", suite, "--space", space, "--field", "x"])
        assert result.exit_code in (0, 1), result.output

    def test_refinement_past_the_budget_skips_stability(self, runner):
        """interval:4096 refines to 8192 points: the ratios are computed and the stability
        clause is skipped with the budget's message, not an input error."""
        result = invoke(runner, ["verify", "--space", "interval:4096", "--field", "x",
                                 "--kernel", "ahlfors:1", "--suite", "two-sided"])
        assert result.exit_code in (0, 1), result.output
        assert ("note: 8192 points exceeds the 4096-point desk-scale budget; "
                "stability clause skipped") in result.output

    def test_informational_flag_downgrades_failure(self, runner, tmp_path):
        csv_path = tmp_path / "step.csv"
        vals = (np.linspace(0, 1, 32, endpoint=False) + 0.5 / 32 > 0.5).astype(float)
        csv_path.write_text("\n".join(str(v) for v in vals) + "\n")
        result = invoke(
            runner,
            ["verify", "--suite", "mollifier", "--informational", "mollifier",
             "--space", "interval:32", "--field-csv", str(csv_path)],
        )
        assert result.exit_code == 0
        assert "SKIP" in result.output


def _csv(tmp_path, text: str) -> str:
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    return str(path)


NGUYEN = ["sweep", "--mode", "nguyen", "--space", "interval:16", "--field", "x",
          "--delta-grid", "0.4:0.1:-0.1"]
# case -> (tmp_path, a valid sweep CSV) -> (arguments, text the error line carries)
FILE_FAULTS = {
    "report-empty-csv": lambda d, good: (
        ["report", "--sweep-csv", _csv(d, "")], "expected header"),
    "report-one-field-row": lambda d, good: (
        ["report", "--sweep-csv", _csv(d, "s,value\n0.5,1.0\n0.6\n")],
        "sweep.csv:3: expected 2 fields, got 1"),
    "report-three-field-row": lambda d, good: (
        ["report", "--sweep-csv", _csv(d, "s,value\n0.5,1.0,7\n")],
        "sweep.csv:2: expected 2 fields, got 3"),
    "report-csv-is-a-directory": lambda d, good: (
        ["report", "--sweep-csv", str(d)], "Is a directory"),
    "report-out-json-missing-dir": lambda d, good: (
        ["report", "--sweep-csv", good, "--out-json", str(d / "no" / "r.json")],
        "No such file or directory"),
    "gen-out-directory": lambda d, good: (
        ["gen", "--spec", "circle:8", "--out", str(d)], "Is a directory"),
    "gen-out-missing-dir": lambda d, good: (
        ["gen", "--spec", "circle:8", "--out", str(d / "no" / "c.space")],
        "No such file or directory"),
    "sweep-out-csv-directory": lambda d, good: (
        NGUYEN + ["--out-csv", str(d)], "Is a directory"),
    "sweep-out-json-missing-dir": lambda d, good: (
        NGUYEN + ["--out-json", str(d / "no" / "s.json")], "No such file or directory"),
    "verify-out-json-directory": lambda d, good: (
        ["verify", "--suite", "mean", "--space", "circle:16", "--field", "sin(x)",
         "--out-json", str(d)], "Is a directory"),
}


class TestBadInput:
    @pytest.mark.parametrize("grid", [{"kind": "torus2d"}, {"kind": "interval"}])
    def test_edited_closed_form_file_exit_2(self, runner, tmp_path, grid):
        path = tmp_path / "c16.space"
        invoke(runner, ["gen", "--spec", "circle:16", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["grid"] = grid
        path.write_text(json.dumps(doc))
        result = invoke(
            runner,
            ["energy", "--space", str(path), "--field", "sin(x)", "--functional", "cheeger"],
        )
        assert result.exit_code == 2, result.output
        assert "generator in grid" in result.output
        assert "Traceback" not in result.output

    def test_edited_sierpinski_file_exit_2(self, runner, tmp_path):
        path = tmp_path / "s2.space"
        write_old_file(build_space(parse_space_spec("sierpinski:2")), path)
        doc = json.loads(path.read_text())
        doc["coords"][0] += 0.25
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["energy", "--space", str(path), "--field", "x",
                                 "--functional", "gagliardo", "--s", "0.5"])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: space file {path} differs from its sierpinski generator in coords\n"

    @pytest.mark.parametrize("command", [
        ["energy", "--field", "x", "--space"], ["verify", "--field", "x", "--space"],
        ["gen", "--out", "out.space", "--spec"],
    ], ids=["energy", "verify", "gen"])
    def test_missing_space_file_exit_2(self, runner, tmp_path, command):
        """A missing file was read as a spec: "bad space spec ...: unknown generator"."""
        path = tmp_path / "missing.space"
        result = invoke(runner, command + [str(path)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: no space file at {path}\n"

    @pytest.mark.parametrize("dim", [1.5, True])
    def test_matrix_file_non_integer_dim_exit_2(self, runner, tmp_path, dim):
        path = tmp_path / "i8.space"
        save_space(matrix_file_space("interval:8"), path)
        doc = json.loads(path.read_text())
        doc["dim"] = dim
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["energy", "--space", str(path), "--field", "x",
                                 "--functional", "gagliardo", "--s", "0.5"])
        assert result.exit_code == 2, result.output
        assert "coordinate dimension must be an int >= 1" in result.output

    def test_matrix_file_with_bad_grid_exit_2(self, runner, tmp_path):
        path = tmp_path / "s2.space"
        save_space(matrix_file_space("sierpinski:2"), path)
        doc = json.loads(path.read_text())
        doc["grid"] = {"kind": "torus2d"}
        path.write_text(json.dumps(doc))
        result = invoke(
            runner,
            ["energy", "--space", str(path), "--field", "sin(x)", "--functional", "cheeger"],
        )
        assert result.exit_code == 2, result.output
        assert "grid" in result.output
        assert "Traceback" not in result.output

    def test_matrix_file_with_infinite_weight_exit_2(self, runner, tmp_path):
        path = tmp_path / "inf.space"
        doc = {"name": "inf", "n": 2, "metric": {"type": "matrix", "params": {}},
               "weights": [1.0, math.inf], "matrix": [1.0]}
        path.write_text(json.dumps(doc))  # json writes the weight as Infinity
        result = invoke(runner, ["energy", "--space", str(path), "--field-csv", str(path),
                                 "--functional", "cheeger"])
        assert result.exit_code == 2, result.output
        assert "weight at point 1" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args", [
        ["verify", "--suite", "annuli"],
        ["energy", "--kernel", "rho1", "--functional", "gagliardo", "--s", "0.5"],
    ], ids=["verify", "energy"])
    def test_matrix_file_whose_weights_overflow_exit_2(self, runner, tmp_path, args):
        """Each weight is finite but their sum is not: the load stops with one error line and
        no numpy warning, where verify once failed on an all-NaN slice and energy reported
        an overflowed energy."""
        path = tmp_path / "big.space"
        path.write_text(json.dumps({"name": "big", "n": 3, "metric": {"type": "matrix"},
                                    "weights": [1e308] * 3, "matrix": [1.0, 1.0, 1.0]}))
        field = _csv(tmp_path, "0\n1\n2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = invoke(runner, args + ["--space", str(path), "--field-csv", field])
        assert result.exit_code == 2, result.output
        assert result.output == "error: the weights sum to inf: no finite total mass\n"
        assert caught == []

    def test_matrix_file_breaking_the_triangle_inequality_exit_2(self, runner, tmp_path):
        """The error line prints both sides of the broken inequality as plain floats."""
        path = tmp_path / "tri.space"
        doc = {"name": "tri", "n": 3, "metric": {"type": "matrix", "params": {}},
               "weights": [1.0, 1.0, 1.0], "matrix": [1.0, 9.0, 1.0]}  # d(0,2) = 9 > 1 + 1
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["energy", "--space", str(path), "--field", "x",
                                 "--functional", "gagliardo", "--s", "0.5"])
        assert result.exit_code == 2, result.output
        assert result.output == ("error: triangle inequality violated on triple (2,1,0): "
                                 "d(a,c)=9.0 > d(a,b)+d(b,c)=2.0\n")

    @pytest.mark.parametrize("p", ["0", "0.5", "nan", "-2", "inf"])
    @pytest.mark.parametrize(
        "command",
        [["energy", "--functional", "cheeger"], ["energy", "--functional", "hajlasz"],
         ["verify", "--suite", "annuli"], ["verify", "--suite", "mean"]],
        ids=["cheeger", "hajlasz", "verify-annuli", "verify-mean"],
    )
    def test_bad_exponent_exit_2(self, runner, command, p):
        result = invoke(runner, command + ["--space", "circle:16", "--field", "sin(x)", "--p", p])
        assert result.exit_code == 2, result.output
        assert "exponent p must be >= 1" in result.output

    @pytest.mark.parametrize(
        "command",
        [["energy", "--functional", "gagliardo", "--s", "0.5"],
         ["energy", "--functional", "nguyen", "--delta", "0.5"],
         ["energy", "--functional", "k", "--t", "0.5"],
         ["sweep", "--mode", "bbm", "--s-grid", "0.5:0.9:0.1"]],
        ids=["gagliardo", "nguyen", "k", "sweep-bbm"],
    )
    def test_infinite_exponent_exit_2(self, runner, command):
        """p = inf made the pair sums NaN, printed with exit 0."""
        result = invoke(runner, command + ["--space", "circle:16", "--field", "sin(x)",
                                           "--p", "inf"])
        assert result.exit_code == 2, result.output
        assert "exponent p must be >= 1 and finite, got inf" in result.output
        assert "Warning" not in result.output

    @pytest.mark.parametrize("functional", ["gagliardo", "cheeger", "hajlasz"])
    def test_overflowing_energy_exit_2(self, runner, functional):
        """One error line: the overflow and solver warnings behind it are not shown."""
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            result = invoke(runner, ["energy", "--space", "circle:16", "--field", "1e200*sin(x)",
                                     "--functional", functional, "--s", "0.5"])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: the {functional} energy overflowed: inf\n"
        assert [str(w.message) for w in shown] == []

    @pytest.mark.parametrize("suite, check", [
        ("annuli", "annuli"), ("mean", "mean"), ("all", "annuli"), ("hks", "hks"),
        ("fubini,nguyen-avg", "fubini"),
    ])
    def test_overflowing_exponent_verify_exit_2(self, runner, suite, check):
        """One error line naming the check and p: 2.0**p once raised a bare OverflowError
        message, and the pair sums gave NaN records reported as failed checks at exit 1."""
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            result = invoke(runner, ["verify", "--space", "circle:16", "--field", "sin(x)",
                                     "--p", "2000", "--suite", suite])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: the {check} check overflowed at p = 2000.0\n"
        assert [str(w.message) for w in shown] == []

    @pytest.mark.parametrize("space, field", [("circle:2", "sin(x)"), ("torus2d:2x2", "x")])
    def test_degenerate_two_sided_check_reports_the_suite(self, runner, tmp_path, space, field):
        """A zero local-slope energy is one failing two-sided record, informational in the full
        suite, not an error: every report is printed and written, and Hajlasz's degenerate
        record fails the run."""
        path = tmp_path / "v.json"
        result = invoke(runner, ["verify", "--space", space, "--field", field, "--suite", "all",
                                 "--out-json", str(path)])
        assert result.exit_code == 1, result.output
        assert "error:" not in result.output
        doc = json.loads(path.read_text())
        names = [rep["name"] for rep in doc["reports"]]
        assert len(names) == len(CHECKS)
        assert all(f"{name} " in result.output for name in names)
        two_sided = doc["reports"][names.index("two-sided-limits")]
        assert [rec["note"] for rec in two_sided["records"]] == [
            "degenerate: zero local-slope energy"]
        assert not two_sided["applicable"] and "informational only" in two_sided["note"]

    def test_warnings_of_a_finite_suite_are_shown(self, runner, monkeypatch):
        def unconverged(*args):
            warnings.warn("stopped early", RuntimeWarning)
            return []

        monkeypatch.setattr("nsl.cli.run_suite", unconverged)
        with pytest.warns(RuntimeWarning, match="stopped early"):
            result = invoke(runner, ["verify", "--space", "circle:16", "--field", "sin(x)"])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_overflowing_s_energy_reads_inf(self, runner, p):
        """At p = 2 the two sums over each ball once met as inf - inf, printed as nan."""
        result = invoke(runner, ["energy", "--space", "circle:64", "--field", "1e200*sin(x)",
                                 "--functional", "s", "--t", "0.5", "--p", p])
        assert result.exit_code == 2, result.output
        assert result.output == "error: the s energy overflowed: inf\n"

    def test_warnings_of_a_finite_energy_are_shown(self, runner, monkeypatch):
        def unconverged(space, u, p):
            warnings.warn("stopped early", RuntimeWarning)
            return 1.5, None

        monkeypatch.setattr("nsl.cli.cheeger_surrogate", unconverged)
        with pytest.warns(RuntimeWarning, match="stopped early"):
            result = invoke(runner, ["energy", "--space", "circle:16", "--field", "sin(x)",
                                     "--functional", "cheeger"])
        assert result.exit_code == 0, result.output
        assert result.output == "1.5\n"

    @pytest.mark.parametrize("r", ["nan", "0", "-1"])
    def test_bad_hajlasz_cutoff_exit_2(self, runner, r):
        result = invoke(runner, ["energy", "--functional", "hajlasz", "--space", "circle:16",
                                 "--field", "sin(x)", "--r", r])
        assert result.exit_code == 2, result.output
        assert "cutoff r must be > 0" in result.output


    @pytest.mark.parametrize(
        "field",
        ["(" * 300 + "x" + ")" * 300, "-" * 3000 + "x", "x" + "+x" * 1000],
        ids=["parentheses", "unary-minus", "flat-sum"],
    )
    def test_deeply_nested_field_exit_2(self, runner, field):
        result = invoke(runner, ["energy", "--functional", "cheeger", "--space", "circle:16",
                                 "--field", field])
        assert result.exit_code == 2, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "nested too deeply" in lines[0]

    @pytest.mark.parametrize("case", sorted(FILE_FAULTS))
    def test_file_fault_exit_2_with_one_line(self, runner, tmp_path, case):
        good = tmp_path / "good.csv"
        good.write_text("delta,value\n0.4,1.0\n0.3,1.1\n0.2,1.2\n0.1,1.3\n")
        args, message = FILE_FAULTS[case](tmp_path, str(good))
        result = invoke(runner, args)
        assert result.exit_code == 2, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.output
        assert message in lines[0]

    @pytest.mark.parametrize("command", [
        ["energy", "--s", "0.7"],
        ["sweep", "--mode", "bbm", "--s-grid", "0.5:0.9:0.1"],
        ["verify", "--suite", "fubini"],
    ])
    @pytest.mark.parametrize("count", ["abc", "0", "-1"])
    def test_bad_env_workers_exit_2(self, runner, command, count):
        """The offset route on the torus reads no worker count, yet the count is checked."""
        result = invoke(runner, [*command, "--space", "torus2d:16x16", "--field", "x"],
                        env={"NSL_WORKERS": count})
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: NSL_WORKERS must be ")
        assert result.output.count("\n") == 1 and "Traceback" not in result.output

    @pytest.mark.parametrize("expr, shown", [("1/0", "inf"), ("-1/0", "-inf"), ("0/0", "nan")])
    def test_non_finite_field_names_a_plain_float(self, runner, expr, shown):
        result = invoke(runner, ["energy", "--space", "circle:64", "--field", expr, "--s", "0.5"])
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"error: field {expr!r}: non-finite field value at point 0: {shown}\n"
        )


SHARED_OPTIONS = ("space_arg", "field", "field_csv", "p", "kernel", "workers")


def test_problem_commands_share_six_options():
    """energy, sweep and verify declare the space, field, p, kernel and workers options once."""
    def shared(command):
        return [(o.name, o.opts, o.help, o.default, o.required, o.show_default)
                for o in main.commands[command].params if o.name in SHARED_OPTIONS]

    assert [o[0] for o in shared("energy")] == list(SHARED_OPTIONS)
    assert shared("energy") == shared("sweep") == shared("verify")


def test_bad_space_is_reported_before_a_bad_kernel(runner):
    result = invoke(runner, ["energy", "--space", "nope:3", "--kernel", "bogus", "--field", "x"])
    assert result.exit_code == 2
    assert result.output == (
        "error: bad space spec 'nope:3': unknown generator or wrong number of fields\n"
    )


class TestConstants:
    def test_kpn(self, runner):
        result = invoke(runner, ["constants", "--kpn", "2", "2"])
        assert result.exit_code == 0
        assert float(result.output.strip()) == pytest.approx(math.pi / 2, abs=1e-8)

    def test_zstar(self, runner):
        result = invoke(runner, ["constants", "--zstar", "square", "2", "1,0"])
        assert float(result.output.strip()) == pytest.approx(math.sqrt(8 / 3), abs=1e-6)

    def test_gauge(self, runner):
        result = invoke(runner, ["constants", "--gauge", "square", "3,1", "0,0"])
        assert float(result.output.strip()) == pytest.approx(3.0)

    def test_no_selection_exit_2(self, runner):
        result = invoke(runner, ["constants"])
        assert result.exit_code == 2

    def test_infinite_dimension_exit_2(self, runner):
        result = invoke(runner, ["constants", "--kpn", "2", "inf"])
        assert result.exit_code == 2
        assert result.output == "error: cannot convert float infinity to integer\n"

    def test_fractional_dimension_exit_2(self, runner):
        result = invoke(runner, ["constants", "--kpn", "2", "2.5"])
        assert result.exit_code == 2
        assert result.output == "error: dimension N must be an integer, got 2.5\n"

    @pytest.mark.parametrize("dim", ["2", "2.0"])
    def test_integral_dimension_spellings_agree(self, runner, dim):
        result = invoke(runner, ["constants", "--kpn", "2", dim])
        assert result.exit_code == 0
        assert result.output == "1.5707963267948966\n"

    @pytest.mark.parametrize("args", [
        ["--zstar", "square", "2", "1e400,0"],
        ["--zstar", "ball:2", "2", "nan,1"],
        ["--gauge", "square", "1e400,0", "0,0"],
        ["--gauge", "square", "0,0", "1,-inf"],
    ])
    def test_non_finite_coordinate_exit_2(self, runner, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            result = invoke(runner, ["constants", *args])
        assert result.exit_code == 2
        assert result.output.startswith("error: coordinates must be finite")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--kpn", "inf", "2"],
        ["--zstar", "square", "inf", "1,0"],
    ])
    def test_infinite_exponent_exit_2(self, runner, args):
        result = invoke(runner, ["constants", *args])
        assert result.exit_code == 2
        assert result.output == "error: exponent p must be >= 1 and finite, got inf\n"

    @pytest.mark.parametrize("body", ["ellipse:nan:1", "ellipse:inf:1"])
    def test_non_finite_semi_axis_exit_2(self, runner, body):
        result = invoke(runner, ["constants", "--gauge", body, "1,0", "0,0"])
        assert result.exit_code == 2
        assert result.output.startswith("error: ellipse semi-axes must be positive and finite")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("body, message", [
        ("ellipse:1e-320:1", "error: ellipse semi-axes (1e-320,1.0) are so small"),
        ("ellipse:1:1e-300", "error: ellipse semi-axes (1.0,1e-300) are so small"),
        ("polygon:1e200,-1e200;1e200,1e200;-1e200,1e200;-1e200,-1e200",
         "error: polygon vertices are so large"),
    ])
    def test_overflowing_body_exit_2(self, runner, body, message):
        """A finite body whose gauge overflows gives no metric: once inf or 0.0 at exit 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            result = invoke(runner, ["constants", "--gauge", body, "1,0", "0,0"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(message) and result.output.count("\n") == 1

    def test_overflowing_body_writes_no_space(self, runner, tmp_path):
        out = tmp_path / "F"
        result = invoke(runner, ["gen", "--spec", "gauge_grid:4:ellipse:1e-320:1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: bad space spec 'gauge_grid:4:ellipse:1e-320:1': "
                                        "ellipse semi-axes (1e-320,1.0) are so small")
        assert result.output.count("\n") == 1
        assert not out.exists()


# -- fuzzing: malformed input exits 2 without a traceback ------------------------

JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=20)
GENERATORS = ("interval", "circle", "torus2d", "sierpinski", "gauge_grid", "graph")
DROP = "<drop>"
# Values that no field of a space file accepts.
BAD_VALUES = (None, "x", [], {}, [["a"]], {"type": 1}, -1, 0, 1e300, "nan")
# (path, required) for the fields of each tiny base space's file, as earlier releases wrote it
# with every array, or as save_space writes it for a "compact:" base; required fields may also
# be dropped.
FILE_FIELDS = {
    "torus2d:4x4": (
        (("n",), True), (("metric",), True), (("weights",), True), (("dim",), True),
        (("metric", "type"), True), (("metric", "params"), True),
        (("metric", "params", "generator"), True), (("metric", "params", "nx"), True),
        (("coords",), False), (("edges",), False),
    ),
    "circle:8": (
        (("n",), True), (("weights",), True), (("dim",), True),
        (("metric", "params"), True), (("metric", "params", "n"), True),
        (("coords",), False), (("edges",), False),
    ),
    "compact:torus2d:4x4": (
        (("n",), True), (("metric",), True), (("grid",), True), (("metric", "type"), True),
        (("metric", "params"), True), (("metric", "params", "generator"), True),
        (("metric", "params", "nx"), True),
    ),
    "matrix:sierpinski:1": (  # a hand-made matrix file of sierpinski:1's distances
        (("n",), True), (("metric",), True), (("weights",), True), (("matrix",), True),
        (("metric", "type"), True), (("dim",), True), (("edges",), False),
    ),
}


# Grids that no 6-point matrix file accepts: a product of axes
# other than 6, or no grid object with a known kind at all.
BAD_GRIDS = st.one_of(
    st.sampled_from(BAD_VALUES[1:]),  # None means "no grid", which is fine
    st.fixed_dictionaries({
        "kind": st.sampled_from(["interval", "circle", "torus2d", "grid2d"]),
        "shape": st.lists(st.integers(-2, 7), max_size=3).filter(lambda s: math.prod(s) != 6),
    }),
    st.sampled_from([{"kind": "torus2d"}, {"kind": "hex", "shape": [6]},
                     {"kind": "torus2d", "shape": [-2, -3]}, {"kind": "grid2d", "shape": [2.0, 3]},
                     {"kind": "circle", "shape": [2, 3]}, {"kind": "torus2d", "shape": [6]}]),
)


@st.composite
def bad_field_cases(draw):
    base = draw(st.sampled_from(sorted(FILE_FIELDS)))
    path, required = draw(st.sampled_from(FILE_FIELDS[base]))
    value = draw(st.sampled_from(BAD_VALUES + ((DROP,) if required else ())))
    return ("field", base, path, value)


def _space_size(low_bad: int, high_bad: int):
    """Sizes a generator rejects: below its minimum or past the point budget."""
    return st.one_of(st.integers(-3, low_bad), st.integers(high_bad, 10**12))


FUZZ_CASES = st.one_of(
    bad_field_cases(),
    st.tuples(st.just("field"), st.just("matrix:sierpinski:1"), st.just(("grid",)), BAD_GRIDS),
    st.tuples(
        st.just("truncated"), st.sampled_from(sorted(FILE_FIELDS)), st.integers(0, 10**9)
    ),
    st.tuples(
        st.just("spec"),
        st.one_of(
            _space_size(1, 4097).map(lambda n: f"interval:{n}"),
            _space_size(1, 4097).map(lambda n: f"circle:{n}"),
            st.tuples(_space_size(1, 4097), st.integers(2, 8)).map(
                lambda t: f"torus2d:{t[0]}x{t[1]}"
            ),
            _space_size(1, 65).map(lambda n: f"gauge_grid:{n}:square"),
            _space_size(-1, 8).map(lambda level: f"sierpinski:{level}"),
            st.sampled_from(
                ["interval", "interval:8:-1", "interval:8:nan", "circle:nan", "torus2d:4",
                 "torus2d:4x", "gauge_grid:4", "gauge_grid:4:blob", "sierpinski:",
                 "graph:missing.csv", "circle:64:junk", "torus2d:4x4:9", "sierpinski:2:x",
                 "interval:8:0.5:7", "gauge_grid:4:square:9"]
            ),
            JUNK.filter(lambda t: t.strip().split(":")[0] not in GENERATORS),
        ),
    ),
    st.tuples(
        st.just("grid"),
        st.one_of(
            st.tuples(*[st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e300, -1e300,
                                         0.5, 2.0, -0.5])] * 3).map(
                lambda t: ":".join(repr(v) for v in t)
            ),
            JUNK.filter(lambda t: t.count(":") != 2),
        ),
    ),
    st.tuples(
        st.just("kernel"),
        st.one_of(
            st.sampled_from(
                ["ahlfors", "ahlfors:x", "ahlfors:nan", "ahlfors:inf", "ahlfors:-1",
                 "ahlfors:0", "gauge-ahlfors", "gauge-ahlfors:2:blob",
                 "gauge-ahlfors:nan:square", "gauge-ahlfors:2:ball:3", "rho1:2",
                 "ahlfors:2:extra", "gauge-ahlfors:2:ball:2:7"]
            ),
            JUNK.filter(lambda t: t.strip().split(":")[0] not in KERNEL_KINDS),
        ),
    ),
)


def _fuzz_args(case) -> list[str]:
    """CLI arguments for one fuzz case; space files are written to the cwd."""
    kind = case[0]
    energy = ["energy", "--field", "sin(x)", "--s", "0.5"]
    if kind in ("field", "truncated"):
        base = case[1]
        if base.startswith("compact:"):
            save_space(build_space(parse_space_spec(base[len("compact:"):])), "base.space")
        else:
            write_old_file(matrix_file_space(base[len("matrix:"):]) if base.startswith("matrix:")
                           else build_space(parse_space_spec(base)), "base.space")
        text = Path("base.space").read_text()
        if kind == "truncated":
            # every proper prefix of the JSON object (the file ends in "}\n") is invalid
            text = text[: case[2] % (len(text) - 1)]
        else:
            doc = json.loads(text)
            *parents, key = case[2]
            target = doc
            for name in parents:
                target = target[name]
            if case[3] == DROP:
                del target[key]
            else:
                target[key] = case[3]
            text = json.dumps(doc)
        Path("bad.space").write_text(text)
        return energy + ["--space", "bad.space"]
    if kind == "spec":
        return energy + ["--space", case[1]]
    if kind == "grid":
        return ["sweep", "--mode", "bbm", "--space", "circle:16", "--field", "sin(x)",
                "--s-grid", case[1]]
    return energy + ["--space", "circle:16", "--kernel", case[1]]


class TestMalformedInputFuzz:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=FUZZ_CASES)
    def test_exit_2_without_traceback(self, case):
        runner = CliRunner()
        with runner.isolated_filesystem():
            args = _fuzz_args(case)
            result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output, result.exception)
        assert "Traceback" not in result.output


def _sparse_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter holds scipy.sparse after running ``code``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1] == "True"


def _run_main(args: list[str]) -> str:
    return f"import nsl.cli\nnsl.cli.main({args!r}, standalone_mode=False)"


class TestStartup:
    """scipy.sparse loads only in graph specs and verify's upper-gradient chains."""

    def test_import_loads_no_sparse(self):
        assert not _sparse_loaded_after("import nsl.cli")

    @pytest.mark.parametrize("args", [
        ["energy", "--space", "circle:64", "--field", "sin(x)", "--s", "0.7"],
        ["sweep", "--mode", "bbm", "--space", "interval:64", "--field", "x",
         "--s-grid", "0.5:0.9:0.1"],
    ])
    def test_commands_load_no_sparse(self, args):
        assert not _sparse_loaded_after(_run_main(args))

    def test_graph_spec_loads_sparse(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("0,1,1.0\n1,2,1.0\n")
        args = ["gen", "--spec", f"graph:{edges}", "--out", str(tmp_path / "g.space")]
        assert _sparse_loaded_after(_run_main(args))

    def test_upper_gradient_check_loads_sparse(self):
        args = ["verify", "--space", "torus2d:8x8", "--field", "x", "--suite", "upper-gradient"]
        assert _sparse_loaded_after(_run_main(args))
