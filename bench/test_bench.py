"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py

A short run of every workload must print every metric BENCHMARK.json names,
with its unit, and pass its checks; a deliberately wrong reference value must
surface as failed ops; and a directory without the package must make the
benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, seconds: str = "1"):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc, lines, result = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert any(line.startswith(m["name"] + " ") for line in lines), m["name"]
    if not trace:
        assert any(line.startswith("error_rate 0 ") for line in lines)
        values = [v["value"] for v in result["metrics"].values()]
        assert all(v > 0 for v in values), result["metrics"]


def test_wrong_reference_counts_as_failure(tmp_path):
    root = copy_checkout(tmp_path)
    refs = root / "bench" / "refs" / "batch.json"
    doc = json.loads(refs.read_text(encoding="utf-8"))
    doc["cases"][0]["ref"]["max_log_bf"] += 1e-6  # the z=2 paper example
    refs.write_text(json.dumps(doc), encoding="utf-8")
    proc, lines, result = bench(root, "batch-reanalysis", 0)
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("error_rate ") and not line.startswith("error_rate 0 ")
               for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc, lines, _ = bench(root, "batch-reanalysis", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
