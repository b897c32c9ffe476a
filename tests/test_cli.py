import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nsl import build_space, save_space
from nsl.cli import main, parse_space_spec
from nsl.kernels import KERNEL_KINDS


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

    def test_gen_bad_spec_exit_2(self, runner, tmp_path):
        result = invoke(runner, ["gen", "--spec", "sphere:9", "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "error" in result.output

    @pytest.mark.parametrize(
        "spec", ["interval:16:1.0", "torus2d:4x6", "sierpinski:2", "gauge_grid:4:square"]
    )
    def test_gen_all_generators(self, runner, tmp_path, spec):
        out = tmp_path / "sp.space"
        result = invoke(runner, ["gen", "--spec", spec, "--out", str(out)])
        assert result.exit_code == 0, result.output
        from nsl import load_space

        assert load_space(out).n >= 3


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

    def test_scale_functionals_compute_only_their_energy(self, runner, monkeypatch):
        import nsl.cli
        from nsl import EnergySpec, ScalarField, scale_energies

        built = []

        def build(spec):
            built.append(build_space(spec))
            return built[-1]

        def no_ball_loop(*args):
            raise AssertionError("the per-center ball loop ran")

        monkeypatch.setattr(nsl.cli, "build_space", build)
        args = ["energy", "--space", "circle:64", "--field", "sin(x)", "--t", "0.5"]
        outputs = {}
        for functional in ("h", "s", "k"):
            with monkeypatch.context() as m:
                if functional != "s":
                    m.setattr("nsl.energies._ball_pair_totals", no_ball_loop)
                result = invoke(runner, args + ["--functional", functional])
            assert result.exit_code == 0, result.output
            outputs[functional] = result.output.strip()
            kernels = [key for key in built[-1]._cache if isinstance(key, tuple)
                       and key[0] == "kernel"]
            assert kernels == ([("kernel", "rho1")] if functional == "k" else [])
        sp = build_space(parse_space_spec("circle:64"))
        se = scale_energies(sp, ScalarField(np.sin(sp.coords[:, 0])), EnergySpec(p=2, t=0.5))
        assert outputs == {"k": repr(se.k), "h": repr(se.h), "s": repr(se.s)}

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

    def test_unknown_check_exit_2(self, runner):
        result = invoke(
            runner, ["verify", "--suite", "bogus", "--space", "circle:16", "--field", "x"]
        )
        assert result.exit_code == 2

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

    @pytest.mark.parametrize("p", ["0", "0.5", "nan", "-2"])
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


# -- fuzzing: malformed input exits 2 without a traceback ------------------------

JUNK = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=20)
GENERATORS = ("interval", "circle", "torus2d", "sierpinski", "gauge_grid", "graph")
DROP = "<drop>"
# Values that no field of a space file accepts.
BAD_VALUES = (None, "x", [], {}, [["a"]], {"type": 1}, -1, 0, 1e300, "nan")
# (path, required) for the fields of each tiny base space's saved file;
# required fields may also be dropped.
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
    "sierpinski:1": (
        (("n",), True), (("metric",), True), (("weights",), True), (("matrix",), True),
        (("metric", "type"), True), (("dim",), True), (("edges",), False),
    ),
}


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
                 "graph:missing.csv"]
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
                 "gauge-ahlfors:nan:square", "gauge-ahlfors:2:ball:3"]
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
        save_space(build_space(parse_space_spec(case[1])), "base.space")
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
