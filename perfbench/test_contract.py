"""BENCHMARK.json agrees with what run.py prints, and run.py refuses to run
without the program's sources.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    names = [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(workloads.WORKLOADS)


def test_per_layer_metrics_match():
    declared = [(m["name"], m["unit"]) for m in _benchmark()["per_layer"]]
    assert declared == run.PER_LAYER_PRINTED


def test_end_to_end_metrics_match():
    declared = [(m["name"], m["unit"]) for m in _benchmark()["end_to_end"]]
    assert declared == run.END_TO_END_PRINTED
    assert all(0 < m["bound"] <= 0.25 for m in _benchmark()["end_to_end"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate-20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
