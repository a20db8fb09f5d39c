"""medrex benchmark: one workload per call, each stage in a fresh single-threaded process.

    python3 perfbench/run.py --workload train-ref --seed 7 --seconds 15 --trace 0

Prints the workload's end-to-end metrics by name with their units, the run
manifest and the output checks, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the workload runs once untraced and once traced, and the metrics are the
per-layer metrics of BENCHMARK.json plus the tracing overhead. Every timing
is printed twice, on the wall clock and on the reference clock of
calibration.py (suffix ``_refclock``); BENCHMARK.json's timings are the
reference-clock ones. Spans and the full result go to perfbench/results/. ``--smoke`` shrinks every input for a
quick functional check. See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("train-ref", "train-wide", "predict-ref")
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
RUN_BUDGET_S = 170.0  # all stages of one call end within 180 s
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> None:
    """Turn off address-space randomisation for the worker about to be exec'd (Linux only).

    With it on, the same input generation ran 21-43 ms from one process to the
    next on the same machine; with it off, 21-31 ms. It changes only this
    process's personality, which the exec'd worker inherits.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # the worker then runs with the default layout; its manifest says so


class StageFailed(RuntimeError):
    pass


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (exclusive method); needs at least two samples."""
    return statistics.quantiles(samples, n=100)[q - 1]


def run_stage(stage: str, args, workdir: str, deadline: float, trace: int, ckpt: str | None = None) -> dict:
    """Run one worker stage to completion; raise StageFailed unless it exits 0 in time."""
    label = f"{stage}-trace{trace}"
    out = os.path.join(workdir, f"{label}.json")
    spans = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}-{stage}.json")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--stage", stage, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--workdir", workdir, "--out", out, "--spans", spans,
    ]
    if ckpt:
        command += ["--ckpt", ckpt]
    if args.smoke:
        command.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise StageFailed(f"no time left for {label}")
    try:
        # run() kills the worker on timeout and waits for it before raising
        completed = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout,
                                   preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired as exc:
        raise StageFailed(f"{label} timed out after {exc.timeout:.0f} s") from exc
    if completed.returncode != 0:
        raise StageFailed(f"{label} exited with code {completed.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(plain: dict, fixture: dict | None, key: str) -> float:
    """Median set-up of the measure stage, plus the fixture's set-up where there is one."""
    return statistics.median(plain[key]) + (fixture[key][0] if fixture else 0.0)


def timings(prefix: str, rate_name: str, result: dict, suffix: str) -> dict:
    """Throughput, p50 and p90 of one stage on one clock (suffix "" wall, "_refclock" reference)."""
    samples = result["samples_ref_ms" if suffix else "samples_ms"]
    timed = result["timed_ref_s" if suffix else "timed_s"]
    n = len(samples)
    return {
        f"{rate_name}{suffix}": {"value": result["items"] / timed if timed else math.nan, "unit": "1/s"},
        f"{prefix}_ms_p50{suffix}": {"value": statistics.median(samples) if samples else math.nan,
                                     "unit": "ms", "n": n},
        f"{prefix}_ms_p90{suffix}": {"value": percentile(samples, 90) if n >= 2 else math.nan,
                                     "unit": "ms", "n": n},
    }


def named_metrics(workload: str, plain: dict, fixture: dict | None) -> dict:
    """Every end-to-end metric of one untraced measure stage, under its workload-specific name."""
    setup_n = len(plain["setup_s"])
    metrics = {
        "setup_s": {"value": setup_seconds(plain, fixture, "setup_s"), "unit": "s", "n": setup_n},
        "setup_s_refclock": {"value": setup_seconds(plain, fixture, "setup_ref_s"), "unit": "s", "n": setup_n},
        "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        "failure_rate": {"value": plain["failed"] / max(1, plain["attempted"]), "unit": "share",
                         "failed": plain["failed"], "attempted": plain["attempted"],
                         "by_type": plain["failures"]},
        "kernel_ms": {"value": plain["kernel_ms_median"], "unit": "ms"},
    }
    quality = plain["quality"]
    train = workload.startswith("train")
    prefix, rate = ("train_step", "train_segments_per_s") if train else ("predict_doc", "predict_docs_per_s")
    for suffix in ("", "_refclock"):
        metrics.update(timings(prefix, rate, plain, suffix))
    if train:
        metrics["train_loss_final"] = {"value": quality.get("train_loss_final", math.nan), "unit": "nats"}
        if "heldout_f1_strict" in quality:
            metrics["heldout_f1_strict"] = {"value": quality["heldout_f1_strict"], "unit": "share",
                                            "failed_docs": quality["heldout_failed"],
                                            "docs": quality["heldout_docs"]}
    else:
        metrics["predict_f1_strict"] = {"value": quality.get("predict_f1_strict", math.nan), "unit": "share"}
        metrics["frame_exact_match"] = {"value": quality.get("frame_exact_match", math.nan), "unit": "share"}
    return metrics


def end_to_end(workload: str, named: dict) -> dict:
    """BENCHMARK.json's end-to-end metrics: one name per quantity, on every workload, timed on the reference clock."""
    kind = "train_step" if workload.startswith("train") else "predict_doc"
    rate = "train_segments_per_s" if workload.startswith("train") else "predict_docs_per_s"
    return {
        "setup_s": named["setup_s_refclock"],
        "peak_rss_mb": named["peak_rss_mb"],
        "op_ms_p50": named[f"{kind}_ms_p50_refclock"],
        "op_ms_p90": named[f"{kind}_ms_p90_refclock"],
        "items_per_s": named[f"{rate}_refclock"],
    }


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, metric in metrics.items():
        extra = {k: v for k, v in metric.items() if k not in ("value", "unit")}
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:36s} {shown:>14s} {metric['unit']}" + (f"  {json.dumps(extra)}" if extra else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description="medrex benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no sample minimum")
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    spec = benchmark_spec()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        fixture = ckpt = None
        if args.workload == "predict-ref":
            ckpt = os.path.join(workdir, "fixture.ckpt")
            fixture = run_stage("fixture", args, workdir, deadline, args.trace, ckpt)
        plain = run_stage("measure", args, workdir, deadline, 0, ckpt)
        traced = run_stage("measure", args, workdir, deadline, 1, ckpt) if args.trace else None
    except StageFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stages = [(label, s) for label, s in (("fixture", fixture), ("measure", plain), ("measure traced", traced))
              if s is not None]
    named = named_metrics(args.workload, plain, fixture)
    checks = [dict(c, stage=label) for label, s in stages for c in s["checks"]]
    attempted = sum(s["attempted"] for label, s in stages if label != "fixture")
    failed = sum(s["failed"] for label, s in stages if label != "fixture")

    layers, unobserved = None, []
    if args.trace:
        layers = dict(traced["layers"])
        if fixture:
            layers["checkpoint.save_ms"] = fixture["layers"]["checkpoint.save_ms"]
        per_op = [s["timed_ref_s"] / sum(s["ops_by_repeat"]) for s in (plain, traced)]
        layers["trace.overhead_share"] = {"value": (per_op[1] - per_op[0]) / per_op[0], "unit": "share"}
        wanted = [m["name"] for m in spec["per_layer"]]
        # a hook that saw no calls has no number; leaving it out shows that it was bypassed
        unobserved = [name for name in wanted if layers[name]["value"] == "unobserved"]
        chosen = {name: layers[name] for name in wanted if name not in unobserved}
    else:
        chosen = end_to_end(args.workload, named)
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in chosen.items()}
    correct = all(c["ok"] for c in checks) and all(math.isfinite(m["value"]) for m in metrics.values())

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "manifest": plain["manifest"], "checks": checks, "named": named,
        "layers": layers, "unobserved": unobserved,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# manifest {json.dumps(plain['manifest'], sort_keys=True)}")
    for c in checks:
        print(f"# check {'ok  ' if c['ok'] else 'FAIL'} [{c['stage']}] {c['name']}" + (f": {c['detail']}" if c["detail"] else ""))
    print_metrics(f"{args.workload} end-to-end (untraced run)", named)
    if args.trace:
        print_metrics(f"{args.workload} per layer (traced run)", layers)
        for name in unobserved:
            print(f"# warning: per-layer metric {name} saw no calls on {args.workload}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
