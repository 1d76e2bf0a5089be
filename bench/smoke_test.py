"""Smoke test of the benchmark itself.

Runs each workload for one second with a fixed seed, untraced and traced, and
asserts that every metric BENCHMARK.json names is reported and that no answer
was wrong.  Also checks that the benchmark refuses to run without the program
source.  Takes about a minute:

    python3 bench/smoke_test.py        (or: python3 -m pytest bench/smoke_test.py)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / BENCH.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_every_workload_reports_every_metric_and_no_failures():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs.jsonl"
        for workload in WORKLOADS:
            for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
                proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", trace, "--out", str(out))
                assert proc.returncode == 0, proc.stderr
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                assert set(result["metrics"]) == set(names), (workload, trace)
                assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        report = subprocess.run([sys.executable, str(BENCH / "run.py"), "--report", str(out)],
                                capture_output=True, text=True, timeout=60, check=True)
        for workload in WORKLOADS:
            assert f"{workload} " in report.stdout


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
