"""Smoke test of the benchmark itself: output schema and metric names, not timings.

Run from the repository root:

    python3 perfbench/smoke.py

Each workload runs at its smallest size (one pass, ``--seconds 1``) with
tracing off and twice with tracing on.  The last output line must be the
result object with exactly the keys and metric names that BENCHMARK.json
declares, every job must pass its output checks, and the count metrics of
the two traced runs must agree exactly.  Finally the benchmark must refuse,
with a non-zero exit and no result line, to run in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".bytes_written", ".files_written", ".calls_per_frame",
                  ".calls_per_face_frame")


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(expected), set(metrics) ^ set(expected)
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}, name
        assert entry["unit"] == expected[name], (name, entry["unit"])
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name
    return metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        result_of(bench(ROOT, name, 0), e2e)
        first, second = (result_of(bench(ROOT, name, 1), layers) for _ in range(2))
        counts = [k for k in layers if k.endswith(COUNT_SUFFIXES)]
        diff = [k for k in counts if first[k]["value"] != second[k]["value"]]
        assert not diff, f"{name}: counts differ between identical traced runs: {diff}"
        print(f"smoke: {name} ok")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "runs"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("smoke: refuses to run without the sources")
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
