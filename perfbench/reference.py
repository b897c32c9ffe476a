"""Seed-0 reference values and the check of a run's values against them.

reference.json holds, per size and task, the values one pass printed at
seed 0: energy values, sweep values and limits, and each verify report's
status with every record's lhs, rhs and ok flag. A run's values must match
them: numbers to RTOL relative, everything else exactly. A speed-up that
changes the numbers is then a failed task, not a gain.

Other seeds rotate the expression fields by whole grid steps (see
workloads.Inputs), so energies, sweeps and the field-free verify checks still
match the seed-0 numbers up to rounding. What a rotation does change is
compared by structure only: the report names, statuses, record counts and ok
flags. These are the records of checks that follow a field through a fixed
random path set or an iterative solver (upper-gradient, hajlasz), and every
record of the CSV-field task, whose field is drawn from the seed.

Regenerate after an intended change of numbers with
``python3 perfbench/make_reference.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9
PATH = Path(__file__).with_name("reference.json")

# Verify reports whose records depend on more than the field's rotation class.
SEED_DEPENDENT_REPORTS = {"upper-gradient-scale", "hajlasz-vs-cheeger"}
SEED_DEPENDENT_TASKS = {"torus_hajlasz_csv"}


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def _same(expected, actual, path: str, out: list[str]) -> None:
    if isinstance(expected, float) or isinstance(actual, float):
        a, b = float(expected), float(actual)
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        if abs(a - b) <= RTOL * max(abs(a), abs(b)):
            return
        out.append(f"{path}: expected {a!r}, got {b!r}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: expected {len(expected)} items, got {len(actual)}")
            return
        for k, (e, a) in enumerate(zip(expected, actual)):
            _same(e, a, f"{path}[{k}]", out)
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            out.append(f"{path}: keys {sorted(expected)} != {sorted(actual)}")
            return
        for key in expected:
            _same(expected[key], actual[key], f"{path}.{key}", out)
    elif expected != actual:
        out.append(f"{path}: expected {expected!r}, got {actual!r}")


def _seed_invariant(task: str, values: dict) -> dict:
    """The part of a task's values that every seed shares with seed 0."""
    if "reports" not in values:
        return values
    whole_task = task in SEED_DEPENDENT_TASKS
    reports = [
        [name, status, [ok for _, _, ok in records]]
        if whole_task or name in SEED_DEPENDENT_REPORTS else [name, status, records]
        for name, status, records in values["reports"]
    ]
    return {"reports": reports} if whole_task else {**values, "reports": reports}


def mismatches(task: str, expected: dict, actual: dict, seed: int) -> list[str]:
    """Differences between a task's values and its seed-0 reference."""
    out: list[str] = []
    if seed != 0:
        expected, actual = _seed_invariant(task, expected), _seed_invariant(task, actual)
    _same(expected, actual, task, out)
    return out
