"""The harness's own tests, at the smoke size: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_reports_every_metric(trace, kind):
    proc = run("--workload", "all", "--size", "smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (workload, proc.stdout)
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_traced_verify_covers_the_task_time():
    proc = run("--workload", "verify", "--size", "smoke", "--seconds", "0", "--trace", "1")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["gradients.hajlasz_minimal.calls"]["value"] >= 1
    assert metrics["trace.coverage"]["value"] >= 0.95


def test_other_seed_matches_seed0_reference():
    proc = run("--workload", "all", "--size", "smoke", "--seconds", "0", "--seed", "5")
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(r["correct"] for r in results.values()), proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
