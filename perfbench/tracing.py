"""Spans and counters recorded at medrex's layer boundaries, from outside the program.

``Tracer.install`` replaces the public functions of each layer with wrappers
that time and count their calls; ``uninstall`` puts the originals back. The
program itself is not modified. Autograd ops are called ~1,000 times per
training step, so they are aggregated per kind (calls and seconds) instead
of kept as individual spans; every other boundary keeps one span per call.

Work is attributed to the current *repeat* (one full pass of a workload's
timed phase) and *op* (one training step or one predicted document), which
the workload sets. Spans outside any repeat belong to set-up or to the
run's tail.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

# autograd function name -> op kind reported (the kind ``_node`` records)
OP_KINDS = {
    "matmul": "matmul",
    "add": "add",
    "mul": "mul",
    "gather_rows": "gather_rows",
    "layer_norm": "layer_norm",
    "gelu": "gelu",
    "dropout": "dropout",
    "row_softmax": "row_softmax",
    "concat": "concat",
    "reshape": "reshape",
    "transpose": "transpose",
    "cross_entropy": "cross_entropy",
    "reduce_mean": "mean",
}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_s, end_s, parent index, repeat, op]
        self.repeat: int | None = None
        self.op: int | None = None
        # seconds of finished top-level work (spans and op calls outside any span);
        # the step clock subtracts it to get a step's self time
        self.busy = 0.0
        self.counts: dict[int | None, Counter] = defaultdict(Counter)
        self.seconds: dict[int | None, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.repeat, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        record = self.spans[index]
        record[2] = end
        self._stack.pop()
        duration = end - record[1]
        self.seconds[self.repeat][record[0]] += duration
        self.counts[self.repeat][record[0] + ".calls"] += 1
        if not self._stack:
            self.busy += duration

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[self.repeat][name] += amount

    # -- hooks -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _spanning(self, name: str, after=None):
        def factory(fn):
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper
        return factory

    def _op_counter(self, kind: str):
        calls, seconds = f"autograd.ops.{kind}", f"autograd.op.{kind}"

        def factory(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - start
                    repeat = self.repeat
                    self.counts[repeat][calls] += 1
                    self.seconds[repeat][seconds] += duration
                    if not self._stack:
                        self.busy += duration
            return wrapper
        return factory

    def install(self) -> None:
        """Wrap each layer's public functions where the calling module looks them up."""
        if not self.enabled:
            return
        from medrex import autograd, evaluate, model, train, windowing

        for fn_name, kind in OP_KINDS.items():
            self._patch(autograd, fn_name, self._op_counter(kind))
        self._patch(autograd, "backward", self._spanning("autograd.backward"))

        def pairs_scored(args, kwargs, result):
            self.count("model.pairs_scored", int(result.shape[0]))

        def one_forward(args, kwargs, result):
            self.count("model.encoder_forwards")

        self._patch(model.PairwiseREModel, "encode_tokens", self._spanning("model.encode", one_forward))
        self._patch(model.PairwiseREModel, "fuse_and_attend", self._spanning("model.fuse"))
        self._patch(model.PairwiseREModel, "pair_logits", self._spanning("model.pair_head", pairs_scored))
        self._patch(train, "masked_loss", self._spanning("model.loss"))
        self._patch(train, "adam_step", self._spanning("optim.adam"))

        def corpus_windows(args, kwargs, result):
            segments, report = result
            self._count_segments(segments, report.segments_emitted + report.segments_excluded)

        def doc_windows(args, kwargs, result):
            doc, window_chars, stride_chars = args[:3]
            candidates = len(windowing.window_starts(len(doc.text), window_chars, stride_chars))
            self._count_segments(result, candidates)

        # training segments the corpus in one call; prediction one document at a time
        self._patch(train, "segment_corpus", self._spanning("windowing.segment", corpus_windows))
        self._patch(model, "make_segments", self._spanning("windowing.segment", doc_windows))
        self._patch(train, "encode_segment", self._spanning("windowing.encode"))
        self._patch(model, "encode_segment", self._spanning("windowing.encode"))
        self._patch(evaluate, "decode_frames", self._spanning("frames.decode"))

        def checkpoint_bytes(args, kwargs, result):
            self.count("checkpoint.bytes", os.path.getsize(args[0]))

        self._patch(train, "save_checkpoint", self._spanning("checkpoint.save", checkpoint_bytes))
        self._patch(train, "load_checkpoint", self._spanning("checkpoint.load", checkpoint_bytes))

    def _count_segments(self, segments, candidates: int) -> None:
        self.count("windowing.segments", len(segments))
        self.count("windowing.tokens", sum(len(seg.tokens) for seg in segments))
        self.count("windowing.candidate_windows", candidates)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"name": name, "start_s": start, "end_s": end, "parent": parent, "repeat": repeat, "op": op}
            for name, start, end, parent, repeat, op in self.spans
        ]
