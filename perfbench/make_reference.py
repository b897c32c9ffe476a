"""Write perfbench/reference.json: the values of one seed-0 pass per workload and size.

    python3 perfbench/make_reference.py

Run it only when a change of nsl's numbers is intended, and say so in the
change: the benchmark counts every task that no longer matches as failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    doc = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for size in workloads.SIZES:
            ctx = workloads.prepare(size, 0, Path(tmp) / size)
            doc[size] = {}
            for workload in workloads.WORKLOADS:
                done = child.run_pass(workload, ctx, None, 0)
                if done["failures"]:
                    sys.exit(f"{size} {workload} failed: {done['failures']}")
                doc[size].update(done["values"])
    reference.PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {reference.PATH}")


if __name__ == "__main__":
    main()
