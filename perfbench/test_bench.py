"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import _covered  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_emits_every_metric(trace):
    # --smoke itself fails unless each BENCHMARK.json metric of the mode is
    # emitted with its unit and no operation failed
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--workload", "all", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=BENCH_DIR.parent,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]
    for workload in run.WORKLOADS:
        for name in names:
            assert f"{workload}.{name}" in result["metrics"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 109)]
    assert run.tail_percentile(len(samples)) == 90
    assert run.percentile(samples, 90) == 98.0
    assert run.tail_percentile(5) == 50
    assert run.percentile(samples[:5], 50) == 3.0


def test_covered_merges_overlapping_children_and_clips():
    assert _covered([(0, 4), (2, 6), (8, 9)], 1, 10) == 6
    assert _covered([], 0, 10) == 0
