"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_shape():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert 2 <= len(s["workloads"]) <= 8
    names = [w["name"] for w in s["workloads"]] + [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in s["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in s["end_to_end"])
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in s["end_to_end"] + s["per_layer"])


@pytest.mark.parametrize("workload", ["train-ref", "train-wide", "predict-ref"])
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    done = run_bench(ROOT, workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    # held-out documents longer than the training windows fail on train-wide (ROADMAP 4a)
    assert result["failed"] == 0 or workload == "train-wide"
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert "# check FAIL" not in done.stdout


def test_untraced_smoke_run_reports_every_end_to_end_metric():
    done = run_bench(ROOT, "predict-ref", trace=0)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("setup_s", "peak_rss_mb", "failure_rate", "predict_docs_per_s", "predict_doc_ms_p50",
                 "predict_doc_ms_p90", "predict_f1_strict", "frame_exact_match"):
        assert re.search(rf"^{re.escape(name)}\s", done.stdout, re.M), name


def test_reference_clock_rescales_each_chunk_by_its_kernel_times(monkeypatch):
    sys.path.insert(0, HERE)
    try:
        import calibration
    finally:
        sys.path.remove(HERE)
    clock = calibration.RefClock()
    kernel_times = iter([0.010, 0.020, 0.005])
    monkeypatch.setattr(clock.kernel, "run", lambda: next(kernel_times))
    clock.start()
    clock.boundary()  # not due yet: the chunk stays open
    assert clock.chunk == 0
    clock.boundary(force=True)
    clock.boundary(force=True)
    clock.chunk_wall[:] = [1.0, 2.0]
    assert clock.scale(0) == pytest.approx(0.010 / 0.015)
    assert clock.scale(1) == pytest.approx(0.010 / 0.0125)
    assert clock.ref_seconds(0, 2) == pytest.approx(1.0 * 0.010 / 0.015 + 2.0 * 0.010 / 0.0125)


def test_fails_without_the_program():
    # a directory holding only BENCHMARK.json and perfbench/ has no medrex to measure
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    root = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "results"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=shutil.ignore_patterns("results", "__pycache__"))
        done = run_bench(root, "train-ref", trace=0)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(root)
