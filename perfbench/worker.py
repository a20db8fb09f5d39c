"""One workload stage in one process: set-up, timed repeats, output checks.

run.py starts this file in a fresh interpreter whose BLAS thread variables are
already pinned, and reads the JSON it writes to ``--out``. Stages:

- ``fixture`` trains and saves the model that ``predict-ref`` loads (its own
  process, so the training peak does not hide the prediction phase's memory);
- ``measure`` runs a workload's timed phase repeatedly until ``--seconds``
  have passed, at least two repeats, and (outside smoke mode) at least
  ``MIN_SAMPLES`` latency samples, so that ten or more lie beyond p90.

Every timing is kept twice: on the wall clock, and on the reference clock of
calibration.py, which rescales each chunk of work by a fixed kernel timed at
its ends. The kernel's own time is left out of both.

With ``--trace 1`` every layer boundary is wrapped (see tracing.py), spans
are written to ``--spans`` and per-layer metrics are added to the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
MIN_REPEATS = 2  # exact counts are compared across repeats
MAX_MEASURE_S = 75.0  # stop repeating here even if MIN_SAMPLES is not reached
SETUP_MIN_REPEATS = 5  # set-up repeats until both minimums are met; its time is their median
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 50

# ROADMAP's reference training settings
BATCH_SIZE = 10
PEAK_LR = 1e-3
NULL_CLASS_WEIGHT = 0.3


@dataclass(frozen=True)
class Sizes:
    train_docs: int
    train_ref_epochs: int
    train_wide_epochs: int
    heldout_docs: int
    fixture_epochs: int
    predict_docs: int


FULL = Sizes(train_docs=50, train_ref_epochs=3, train_wide_epochs=4, heldout_docs=200,
             fixture_epochs=4, predict_docs=1000)
SMOKE = Sizes(train_docs=12, train_ref_epochs=2, train_wide_epochs=2, heldout_docs=10,
              fixture_epochs=2, predict_docs=20)
FIXTURE_PEAK_LR = 3e-3  # four epochs at 3e-3 give a model that predicts relations (strict F1 ~0.6)


# -- helpers ---------------------------------------------------------------


class Run:
    """Everything one stage reports back to run.py."""

    def __init__(self, args, tracer):
        from calibration import RefClock

        self.args = args
        self.tracer = tracer
        self.clock = RefClock()
        self.clock.start()
        self.setup_s: list[float] = []
        self.setup_ref_s: list[float] = []
        # (wall milliseconds, clock chunk) of each latency sample; rescaled once its chunk has closed
        self.samples: list[tuple[float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.items = 0
        self.timed_s = 0.0
        self.timed_ref_s = 0.0
        self.ops_by_repeat: list[int] = []
        self.quality: dict = {}
        self.checks: list[dict] = []
        self.extra: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def fail(self, exc: BaseException) -> None:
        self.failures[type(exc).__name__] += 1
        self.failed += 1

    def keep_repeating(self, started: float, smoke: bool) -> bool:
        repeats = len(self.ops_by_repeat)
        if repeats < MIN_REPEATS:
            return True
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S:
            return False
        enough_samples = smoke or len(self.samples) >= MIN_SAMPLES
        return elapsed < self.args.seconds or not enough_samples

    def timed(self, work):
        """Run ``work()`` as timed phase: add its wall and reference seconds; return its result."""
        clock = self.clock
        clock.boundary(force=True)
        first = clock.chunk
        try:
            return work()
        finally:
            clock.boundary(force=True)
            self.timed_s += sum(clock.chunk_wall[first:clock.chunk])
            self.timed_ref_s += clock.ref_seconds(first, clock.chunk)

    def sample_lists(self) -> tuple[list[float], list[float]]:
        """Latency samples in wall and in reference milliseconds."""
        self.clock.boundary(force=True)
        wall = [ms for ms, _ in self.samples]
        return wall, [ms * self.clock.scale(chunk) for ms, chunk in self.samples]


def workload_seeds(workload: str, seed: int) -> dict:
    """Seeds of every input; training always uses ROADMAP's seed-7 corpus.

    --seed varies the training seed (order, initialisation, dropout) of train-ref,
    the held-out corpus of train-wide and the prediction corpus of predict-ref.
    train-wide and predict-ref's fixture train with seed 0: the peak memory of
    wide training is set by its largest batch, which the training order moves by
    ~10%, more than a memory bound could then allow.
    """
    seeds = {"argument": seed, "train_corpus": 7, "train": 0}
    if workload == "train-ref":
        seeds["train"] = seed
    elif workload == "train-wide":
        seeds["heldout_corpus"] = seed + 14  # --seed 7 holds out the seed-21 corpus
    else:
        seeds["predict_corpus"] = 1000 + seed
    return seeds


def timed_setup(run: Run, make):
    """Run ``make`` until the set-up minimums are met; record each duration, return the last result."""
    clock, result = run.clock, None
    clock.boundary(force=True)
    while len(run.setup_s) < SETUP_MAX_REPEATS and (
            len(run.setup_s) < SETUP_MIN_REPEATS or sum(run.setup_s) < SETUP_MIN_S):
        chunk = clock.chunk
        result = make()
        clock.boundary(force=True)
        run.setup_s.append(clock.chunk_wall[chunk])
        run.setup_ref_s.append(clock.ref_seconds(chunk, chunk + 1))
    return result


def generate(tracer, seed: int, docs: int):
    from medrex.synth import GenConfig, generate_corpus

    config = GenConfig(seed=seed, doc_count=docs)
    with tracer.span("synth.generate"):
        return generate_corpus(config), config.schema()


def epoch_losses(run_log: list[dict], epochs: int) -> list[float]:
    per_epoch = len(run_log) // epochs
    return [statistics.fmean(r["loss"] for r in run_log[e * per_epoch:(e + 1) * per_epoch]) for e in range(epochs)]


def check_run_log(run: Run, result, epochs: int, segments: int) -> None:
    steps = epochs * math.ceil(segments / BATCH_SIZE)
    log = result.run_log
    run.check("run log has one entry per step", len(log) == steps and [r["step"] for r in log] == list(range(steps)),
              f"{len(log)} entries for {steps} steps")
    run.check("run log losses are finite", all(math.isfinite(r["loss"]) for r in log))
    run.check("encoder forwards == segments x epochs", result.model.encoder_forwards == segments * epochs,
              f"{result.model.encoder_forwards} forwards, {segments} segments x {epochs} epochs")
    losses = epoch_losses(log, epochs)
    run.check("final-epoch loss below first-epoch loss", losses[-1] < losses[0], f"{losses[0]:.4f} -> {losses[-1]:.4f}")


class StepClock:
    """Step times: intervals between successive ``adam_step`` calls, seen through medrex.train's binding.

    Each call closes a chunk of the reference clock, so one interval is one
    chunk. With tracing on, each interval's self time is the interval minus
    the top-level spans and op calls that finished inside it.
    """

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.marks: list[tuple[int, float]] = []  # (chunk closed by the call, tracer busy seconds)
        self._original = None

    def install(self) -> None:
        from medrex import train

        self._original = original = train.adam_step

        def adam_step(*args, **kwargs):
            chunk = self.clock.chunk
            self.clock.boundary(force=True)
            self.marks.append((chunk, self.tracer.busy))
            try:
                return original(*args, **kwargs)
            finally:
                self.tracer.op = len(self.marks)

        train.adam_step = adam_step

    def uninstall(self) -> None:
        from medrex import train

        train.adam_step = self._original

    def take(self) -> tuple[list[tuple[float, int]], list[float]]:
        """(wall milliseconds, chunk) of each step and its self milliseconds, from the marks so far; clears them."""
        steps, selfs = [], []
        for (_, busy0), (chunk, busy1) in zip(self.marks, self.marks[1:]):
            wall = self.clock.chunk_wall[chunk]
            steps.append((wall * 1000.0, chunk))
            selfs.append((wall - (busy1 - busy0)) * 1000.0)
        self.marks = []
        return steps, selfs


def predict_docs(run: Run, bundle, docs, count_ops: bool) -> dict:
    """Closed loop, one caller: predict each document with its own entities; failures are counted."""
    predictions = {}
    for index, doc in enumerate(docs):
        run.tracer.op = index
        started = time.perf_counter()
        try:
            predicted = bundle.predict(doc, entities=list(doc.entities))
        except Exception as exc:  # a failed document is counted by type and the loop goes on
            run.fail(exc)
            predicted = []
        else:
            if count_ops:
                run.samples.append(((time.perf_counter() - started) * 1000.0, run.clock.chunk))
        run.attempted += 1
        predictions[doc.doc_id] = predicted
        run.clock.boundary()
    return predictions


def gold_relation_count(docs, schema) -> int:
    return sum(1 for doc in docs for r in doc.relations if r.rtype in schema.relation_types)


def check_predictions_reference_entities(run: Run, docs, predictions) -> None:
    stray = 0
    for doc in docs:
        ids = {e.id for e in doc.entities}
        stray += sum(1 for p in predictions[doc.doc_id] if p.source.id not in ids or p.target.id not in ids)
    run.check("predictions reference only provided entities", stray == 0, f"{stray} stray endpoints")


def check_eval_totals(run: Run, reports: dict, gold: int) -> None:
    for mode, report in reports.items():
        run.check(f"{mode}: tp + fn == gold relations", report.micro.tp + report.micro.fn == gold,
                  f"tp {report.micro.tp} + fn {report.micro.fn} vs {gold} gold")


def prediction_key(predictions: dict) -> list:
    return [
        (doc_id, p.rtype, p.source.id, p.target.id, p.prob)
        for doc_id in sorted(predictions) for p in predictions[doc_id]
    ]


# -- workloads ---------------------------------------------------------------


def measure_train(run: Run, sizes: Sizes) -> None:
    from medrex.evaluate import evaluate
    from medrex.train import InferenceBundle, TrainConfig, train
    from medrex.windowing import segment_corpus

    args, tracer = run.args, run.tracer
    wide = args.workload == "train-wide"
    window = 1000 if wide else 300
    seeds = workload_seeds(args.workload, args.seed)
    epochs = sizes.train_wide_epochs if wide else sizes.train_ref_epochs

    def make_inputs():
        docs, schema = generate(tracer, seeds["train_corpus"], sizes.train_docs)
        heldout = generate(tracer, seeds["heldout_corpus"], sizes.heldout_docs)[0] if wide else []
        return docs, schema, heldout

    docs, schema, heldout = timed_setup(run, make_inputs)
    config = TrainConfig(epochs=epochs, batch_size=BATCH_SIZE, peak_lr=PEAK_LR,
                         null_class_weight=NULL_CLASS_WEIGHT, window_chars=window, seed=seeds["train"])
    segments = segment_corpus(docs, config.window_chars, config.stride_chars)[0]
    pair_rows = sum(len(s.entities) * (len(s.entities) - 1) for s in segments)

    clock = StepClock(tracer, run.clock)
    clock.install()
    losses_by_repeat, self_ms, result = [], [], None
    started = time.perf_counter()
    try:
        while run.keep_repeating(started, args.smoke):
            tracer.repeat, tracer.op = len(run.ops_by_repeat), 0
            try:
                result = run.timed(lambda: train(docs, schema, config))
            except Exception as exc:  # the step that raised failed; later repeats would fail alike
                run.fail(exc)
                run.attempted += len(clock.take()[0]) + 2  # the completed steps, then the failed one
                break
            steps, selfs = clock.take()
            run.samples.extend(steps)
            self_ms.extend(selfs)
            run.ops_by_repeat.append(len(result.run_log))
            run.attempted += len(result.run_log)
            run.items += len(segments) * epochs
            losses_by_repeat.append([r["loss"] for r in result.run_log])
    finally:
        tracer.repeat = tracer.op = None
        clock.uninstall()
    if result is None:
        run.check("training completed", False, repr(dict(run.failures)))
        return

    check_run_log(run, result, epochs, len(segments))
    run.check("losses identical across repeats", all(x == losses_by_repeat[0] for x in losses_by_repeat))
    run.quality["train_loss_final"] = epoch_losses(result.run_log, epochs)[-1]
    run.extra.update(expected_pairs_per_repeat=pair_rows * epochs,
                     expected_forwards_per_repeat=len(segments) * epochs, step_self_ms=self_ms)

    if wide:
        # the run ends with one prediction pass over held-out documents at the same window;
        # documents longer than the training max_positions fail (ROADMAP 4a) and stay counted
        bundle = InferenceBundle(result.model, result.vocab, result.class_map, schema,
                                 config.window_chars, config.stride_chars)
        before = run.failed
        predictions = predict_docs(run, bundle, heldout, count_ops=False)
        report = evaluate(heldout, predictions, "strict", schema)
        check_predictions_reference_entities(run, heldout, predictions)
        check_eval_totals(run, {"strict": report}, gold_relation_count(heldout, schema))
        run.quality["heldout_f1_strict"] = report.micro.f1
        run.quality["heldout_failed"] = run.failed - before
        run.quality["heldout_docs"] = len(heldout)


def run_fixture(run: Run, sizes: Sizes) -> None:
    from medrex.train import TrainConfig, save_bundle, train

    args, tracer = run.args, run.tracer
    seeds = workload_seeds(args.workload, args.seed)
    config = TrainConfig(epochs=sizes.fixture_epochs, batch_size=BATCH_SIZE, peak_lr=FIXTURE_PEAK_LR,
                         null_class_weight=NULL_CLASS_WEIGHT, window_chars=300, seed=seeds["train"])

    def make_fixture():
        docs, schema = generate(tracer, seeds["train_corpus"], sizes.train_docs)
        result = train(docs, schema, config)
        save_bundle(args.ckpt, result)
        return result

    # training closes a reference-clock chunk at every step, so the set-up is timed as the timed phase is
    steps = StepClock(tracer, run.clock)
    steps.install()
    try:
        result = run.timed(make_fixture)
    finally:
        steps.uninstall()
    run.setup_s.append(run.timed_s)
    run.setup_ref_s.append(run.timed_ref_s)
    check_run_log(run, result, config.epochs, result.window_report.segments_emitted)


def measure_predict(run: Run, sizes: Sizes) -> None:
    from medrex.evaluate import evaluate, frame_exact_match
    from medrex.standoff import Document, Relation, read_corpus_dir, write_corpus_dir
    from medrex.train import load_bundle
    from medrex.windowing import make_segments

    args, tracer = run.args, run.tracer
    work = tempfile.mkdtemp(prefix="predict-", dir=args.workdir)
    gold_dir = os.path.join(work, "gold")

    def make_inputs():
        docs, _ = generate(tracer, workload_seeds(args.workload, args.seed)["predict_corpus"], sizes.predict_docs)
        shutil.rmtree(gold_dir, ignore_errors=True)
        write_corpus_dir(docs, gold_dir)
        return docs

    try:
        generated = timed_setup(run, make_inputs)
        keys, forwards, out_dir = [], [], None
        started = time.perf_counter()
        while run.keep_repeating(started, args.smoke):
            repeat = len(run.ops_by_repeat)
            tracer.repeat, tracer.op = repeat, None
            out_dir = os.path.join(work, f"pred{repeat}")

            def phase():
                bundle = load_bundle(args.ckpt)
                with tracer.span("standoff.read"):
                    docs = read_corpus_dir(gold_dir, bundle.schema)
                predictions = predict_docs(run, bundle, docs, count_ops=True)
                tracer.op = None
                pred_docs = [
                    Document(doc.doc_id, doc.text, doc.entities, tuple(
                        Relation(f"R{i}", p.rtype, p.source.id, p.target.id)
                        for i, p in enumerate(predictions[doc.doc_id], start=1)))
                    for doc in docs
                ]
                with tracer.span("standoff.write"):
                    write_corpus_dir(pred_docs, out_dir)
                reports = {}
                for mode in ("strict", "lenient"):
                    with tracer.span(f"evaluate.{mode}"):
                        reports[mode] = evaluate(docs, predictions, mode, bundle.schema)
                exact = frame_exact_match(docs, predictions, bundle.schema)
                return bundle, docs, predictions, reports, exact

            bundle, docs, predictions, reports, exact = run.timed(phase)
            run.ops_by_repeat.append(len(docs))
            run.items += len(docs)
            forwards.append(bundle.model.encoder_forwards)
            keys.append(prediction_key(predictions))
            if tracer.enabled:
                tracer.count("standoff.bytes", dir_bytes(gold_dir) + dir_bytes(out_dir))
            if repeat:
                shutil.rmtree(os.path.join(work, f"pred{repeat - 1}"))
        tracer.repeat = None

        schema = bundle.schema
        run.check("read corpus equals generated corpus (relation ids aside)",
                  [corpus_key(d) for d in docs] == [corpus_key(d) for d in generated])
        run.check("predictions identical across repeats", all(k == keys[0] for k in keys))
        run.check("encoder forwards identical across repeats", len(set(forwards)) == 1, str(forwards))
        windows = [make_segments(doc, bundle.window_chars, bundle.stride_chars) for doc in docs]
        expected_forwards = sum(len(w) for w in windows)
        if run.failed:  # a failed document stops part-way through its windows
            run.check("encoder forwards == windows scored", True, f"not checked: {run.failed} documents failed")
        else:
            run.check("encoder forwards == windows scored", forwards[0] == expected_forwards,
                      f"{forwards[0]} forwards, {expected_forwards} windows")
            run.extra.update(
                expected_forwards_per_repeat=expected_forwards,
                expected_pairs_per_repeat=sum(len(s.entities) * (len(s.entities) - 1) for w in windows for s in w),
            )
        check_predictions_reference_entities(run, docs, predictions)
        read_back = {d.doc_id: d for d in read_corpus_dir(out_dir, schema)}
        written = {doc.doc_id: [(p.rtype, p.source.id, p.target.id) for p in predictions[doc.doc_id]] for doc in docs}
        back = {doc_id: [(r.rtype, r.source, r.target) for r in d.relations] for doc_id, d in read_back.items()}
        same_entities = all(read_back[doc.doc_id].entities == doc.entities for doc in docs)
        run.check("written predictions read back unchanged", back == written and same_entities)
        check_eval_totals(run, reports, gold_relation_count(docs, schema))
        run.quality["predict_f1_strict"] = reports["strict"].micro.f1
        run.quality["frame_exact_match"] = exact
    finally:
        shutil.rmtree(work, ignore_errors=True)


def corpus_key(doc) -> tuple:
    # serialization renumbers relation ids, so relations compare as triples
    return doc.doc_id, doc.text, doc.entities, tuple((r.rtype, r.source, r.target) for r in doc.relations)


def dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path))


# -- per-layer metrics -------------------------------------------------------

# metric -> span or op-time key; reported as milliseconds per operation (step or document)
PER_OP_MS = {
    "autograd.backward_ms": "autograd.backward",
    "model.encode_ms": "model.encode",
    "model.fuse_ms": "model.fuse",
    "model.pair_head_ms": "model.pair_head",
    "model.loss_ms": "model.loss",
    "optim.adam_ms": "optim.adam",
    "windowing.segment_ms": "windowing.segment",
    "windowing.encode_ms": "windowing.encode",
    "standoff.read_ms": "standoff.read",
    "standoff.write_ms": "standoff.write",
    "evaluate.strict_ms": "evaluate.strict",
    "evaluate.lenient_ms": "evaluate.lenient",
    "frames.decode_ms": "frames.decode",
    "checkpoint.load_ms": "checkpoint.load",
}
# counters reported as exact totals per repeat
PER_REPEAT_COUNTS = (
    "model.encoder_forwards", "model.pairs_scored", "windowing.segments", "windowing.tokens",
    "standoff.bytes", "checkpoint.bytes",
)
UNOBSERVED = "unobserved"


def layer_metrics(run: Run) -> dict:
    """Per-layer metrics of a traced stage: {name: {"value": number or "unobserved", "unit": ...}}."""
    from tracing import OP_KINDS

    tracer, repeats = run.tracer, range(len(run.ops_by_repeat))
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_op_ms(key, calls_key):
        if not any(tracer.counts[r][calls_key] for r in repeats):
            return UNOBSERVED
        return statistics.median(tracer.seconds[r][key] * 1000.0 / run.ops_by_repeat[r] for r in repeats)

    for name, key in PER_OP_MS.items():
        put(name, per_op_ms(key, key + ".calls"), "ms")
    for kind in OP_KINDS.values():
        calls = f"autograd.ops.{kind}"
        observed = any(tracer.counts[r][calls] for r in repeats)
        put(calls, statistics.median(tracer.counts[r][calls] / run.ops_by_repeat[r] for r in repeats)
            if observed else UNOBSERVED, "count")
        put(f"autograd.op_ms.{kind}", per_op_ms(f"autograd.op.{kind}", calls), "ms")
    for name in PER_REPEAT_COUNTS:
        totals = [tracer.counts[r][name] for r in repeats]
        put(name, totals[0] if totals and totals[0] else UNOBSERVED, "count")
    candidates = [tracer.counts[r]["windowing.candidate_windows"] for r in repeats]
    put("windowing.windows_kept_share",
        tracer.counts[0]["windowing.segments"] / candidates[0] if candidates and candidates[0] else UNOBSERVED,
        "share")

    setup_spans = [s for s in tracer.spans if s[4] is None and s[2] is not None]
    for name, key in (("synth.generate_ms", "synth.generate"), ("checkpoint.save_ms", "checkpoint.save")):
        durations = [(s[2] - s[1]) * 1000.0 for s in setup_spans if s[0] == key]
        put(name, statistics.median(durations) if durations else UNOBSERVED, "ms")
    step_self = run.extra.get("step_self_ms")
    put("train.step_self_ms", statistics.median(step_self) if step_self else UNOBSERVED, "ms")
    return out


def check_repeat_counts(run: Run) -> None:
    """Every exact count must be identical in every repeat; forwards and pairs must match the windows."""
    tracer, repeats = run.tracer, range(len(run.ops_by_repeat))
    first = tracer.counts[0]
    differing = sorted(k for r in repeats for k in set(first) | set(tracer.counts[r])
                       if tracer.counts[r][k] != first[k])
    run.check("exact counts identical across repeats", not differing, ", ".join(differing[:5]))
    for counter, expected_key in (("model.encoder_forwards", "expected_forwards_per_repeat"),
                                  ("model.pairs_scored", "expected_pairs_per_repeat")):
        expected = run.extra.get(expected_key)
        if expected is not None:
            run.check(f"traced {counter} == expected", first[counter] == expected,
                      f"{first[counter]} vs {expected}")


# -- manifest ----------------------------------------------------------------


def manifest(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as exc:  # older numpy has no dict mode; the manifest records why
        blas = {"error": f"{type(exc).__name__}: {exc}"}
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor() or None,
        "aslr_disabled": aslr_disabled(),
        "git": git_state(),
        "seeds": workload_seeds(args.workload, args.seed),
        "smoke": args.smoke,
    }


def aslr_disabled() -> bool | None:
    try:
        with open("/proc/self/personality", encoding="ascii") as fh:
            return bool(int(fh.read(), 16) & 0x0040000)
    except (OSError, ValueError):
        return None


def git_state() -> dict:
    # only the checkout's own repository: git must not look in parent directories
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"commit": None, "dirty": None, "note": f"{type(exc).__name__}: {exc}"}
    return {"commit": commit, "dirty": bool(status.strip())}


# -- entry -------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=("fixture", "measure"), required=True)
    parser.add_argument("--workload", choices=("train-ref", "train-wide", "predict-ref"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--ckpt", help="fixture checkpoint path (predict-ref)")
    parser.add_argument("--workdir", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spans", help="span JSON path (trace 1)")
    args = parser.parse_args()

    unpinned = [name for name in THREAD_VARS if os.environ.get(name) != "1"]
    if unpinned or "numpy" in sys.modules:
        raise SystemExit(f"worker needs BLAS pinned to one thread before numpy loads: {unpinned}")
    import medrex

    expected = os.path.join(ROOT, "src", "medrex")
    if os.path.dirname(os.path.abspath(medrex.__file__)) != expected:
        raise SystemExit(f"medrex imported from {medrex.__file__}, not from this checkout's src/")

    from tracing import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    tracer.install()
    run = Run(args, tracer)
    sizes = SMOKE if args.smoke else FULL
    try:
        if args.stage == "fixture":
            run_fixture(run, sizes)
        elif args.workload == "predict-ref":
            measure_predict(run, sizes)
        else:
            measure_train(run, sizes)
    finally:
        tracer.uninstall()

    samples_ms, samples_ref_ms = run.sample_lists()
    result = {
        "stage": args.stage,
        "workload": args.workload,
        "setup_s": run.setup_s,
        "setup_ref_s": run.setup_ref_s,
        "samples_ms": samples_ms,
        "samples_ref_ms": samples_ref_ms,
        "kernel_ms_median": run.clock.kernel_ms_median(),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": dict(run.failures),
        "items": run.items,
        "timed_s": run.timed_s,
        "timed_ref_s": run.timed_ref_s,
        "ops_by_repeat": run.ops_by_repeat,
        "quality": run.quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest": manifest(args),
    }
    if args.trace:
        if args.stage == "measure":
            check_repeat_counts(run)
        result["layers"] = layer_metrics(run)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "stage": args.stage, "seed": args.seed,
                       "spans": tracer.span_records()}, fh)
    result["checks"] = run.checks
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
