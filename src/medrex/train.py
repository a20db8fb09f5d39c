"""Training loop, checkpoint bundles, computational-cost report.

Training is single threaded and fully seeded: epoch-level shuffling, model
initialisation, and dropout all derive from the run seed, so identical
configurations produce bit-identical checkpoints. The optimiser follows the
warmup-then-decay schedule; the loss is the masked pairwise cross entropy,
averaged over the segments of each batch. Each segment's loss term is
backpropagated as soon as its forward ends, and backward frees its graph
before the next segment's forward, so one segment's graph is alive at a time;
the per-pair baseline does the same per pair. Training, loaded bundles and the
cost report compute in float32 (``autograd.float32_compute``); checkpoints
store those values exactly as float64 payloads.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass

from . import autograd as ag
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .frames import augment_document
from .model import (
    BaselinePairModel,
    InferenceBundle,
    ModelConfig,
    PairwiseREModel,
    masked_loss,
)
from .optim import adam_step, lr_at
from .schema import SAME_FRAME, SchemaProfile
from .standoff import Document, validate_document
from .windowing import (
    EncodedSegment,
    Vocabulary,
    WindowReport,
    encode_segment,
    ordered_entity_pairs,
    relation_classes,
    segment_corpus,
)


class TrainingError(ValueError):
    """Unusable training inputs or configuration."""


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    peak_lr: float = 1e-4
    warmup_fraction: float = 0.1
    window_chars: int = 300
    stride_chars: int | None = None  # defaults to window_chars // 2
    frame_augmentation: bool = False
    null_class_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError("epochs must be at least 1")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be at least 1")
        if self.stride_chars is None:
            self.stride_chars = max(1, self.window_chars // 2)
        if not 0 < self.stride_chars <= self.window_chars:
            raise TrainingError("need 0 < stride_chars <= window_chars")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise TrainingError("warmup_fraction must lie in [0, 1]")
        for name in ("peak_lr", "null_class_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise TrainingError(f"{name} must be finite and at least 0, got {value}")
        if self.seed < 0:
            raise TrainingError(f"seed must be at least 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult(InferenceBundle):
    """A trained bundle with the run that made it."""

    train_config: TrainConfig
    window_report: WindowReport
    run_log: list[dict]
    epoch_seconds: list[float]

    @property
    def total_seconds(self) -> float:
        return sum(self.epoch_seconds)


def _prepare_segments(
    corpus: list[Document],
    schema: SchemaProfile,
    config: TrainConfig,
) -> tuple[list[EncodedSegment], Vocabulary, tuple[str, ...], WindowReport]:
    for doc in corpus:
        violations = validate_document(doc, schema)
        if violations:
            raise TrainingError(f"document {doc.doc_id} fails validation: {violations[0]}")
    docs = [augment_document(d, schema) for d in corpus] if config.frame_augmentation else list(corpus)
    vocab = Vocabulary.build(docs)
    class_map = relation_classes(schema, config.frame_augmentation)
    segments, report = segment_corpus(docs, config.window_chars, config.stride_chars)
    relations_by_doc = {d.doc_id: d.relations for d in docs}
    encoded = [
        encode_segment(seg, vocab, schema, relations_by_doc[seg.doc_id], class_map)
        for seg in segments
    ]
    if not encoded:
        raise TrainingError("no trainable segments: every window holds fewer than two entities")
    return encoded, vocab, class_map, report


def _model_config(
    vocab: Vocabulary,
    class_map: tuple[str, ...],
    schema: SchemaProfile,
    config: TrainConfig,
    encoded: list[EncodedSegment],
    overrides: dict | None,
) -> ModelConfig:
    longest = max(len(seg.token_ids) for seg in encoded)
    fields = dict(
        vocab_size=len(vocab),
        num_entity_types=len(schema.entity_types),
        num_classes=len(class_map),
        max_positions=longest + 8,  # headroom for the baseline's four markers
        seed=config.seed,
    )
    if overrides:
        fields.update(overrides)
    return ModelConfig(**fields)


def _fit(model, encoded: list[EncodedSegment], config: TrainConfig, batch_terms) -> tuple[list[dict], list[float]]:
    """The training loop: seeded epoch shuffles, batches, warmup/decay Adam steps.

    ``batch_terms`` maps a batch of segments to its number of loss terms and
    an iterator that builds them one at a time; the models differ only
    there. A batch's loss is the mean of its terms. Each term is
    backpropagated, scaled by 1/n, as soon as its forward ends, so one term's
    graph is alive at a time and only the parameter gradients carry over to
    the next term. Returns the per-step run log and the epoch seconds.
    """
    steps_per_epoch = math.ceil(len(encoded) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    warmup_steps = int(round(config.warmup_fraction * total_steps))
    shuffler = random.Random(config.seed)
    run_log: list[dict] = []
    epoch_seconds: list[float] = []
    step = 0
    for _ in range(config.epochs):
        epoch_start = time.perf_counter()
        order = list(range(len(encoded)))
        shuffler.shuffle(order)
        for batch_start in range(0, len(order), config.batch_size):
            n_terms, terms = batch_terms([encoded[i] for i in order[batch_start:batch_start + config.batch_size]])
            total = None
            for term in terms:
                ag.backward(ag.mul(term, 1.0 / n_terms))
                total = term.values if total is None else total + term.values
            # the same float32 chain as summing the terms' graph, then scaling it
            loss = total * ag.compute_dtype().type(1.0 / n_terms)
            lr = lr_at(step, config.peak_lr, warmup_steps, total_steps)
            adam_step(model.params, lr)
            run_log.append({
                "step": step,
                "lr": lr,
                "loss": float(loss),
                "forwards": model.encoder_forwards,
            })
            step += 1
        epoch_seconds.append(time.perf_counter() - epoch_start)
    return run_log, epoch_seconds


def _pairwise_terms(model: PairwiseREModel, config: TrainConfig):
    """One loss term per segment."""
    return lambda batch: (len(batch), (
        masked_loss(model.forward(seg, train=True), seg.class_ids, config.null_class_weight)
        for seg in batch
    ))


def _baseline_terms(model: BaselinePairModel, config: TrainConfig):
    """One loss term per ordered entity pair: the baseline re-encodes the segment for each."""
    def batch_terms(batch: list[EncodedSegment]):
        pairs = [
            (seg, class_id, a, b)
            for seg in batch
            for (a, b), class_id in zip(ordered_entity_pairs(len(seg.entities)), seg.class_ids)
        ]
        return len(pairs), (
            masked_loss(model.forward_pair(seg, a, b, train=True), (class_id,), config.null_class_weight)
            for seg, class_id, a, b in pairs
        )

    return batch_terms


@ag.float32_compute()
def train(
    corpus: list[Document],
    schema: SchemaProfile,
    config: TrainConfig,
    model_overrides: dict | None = None,
) -> TrainResult:
    """Train the pairwise model; returns it as a bundle that predicts, with the run's log and reports."""
    encoded, vocab, class_map, report = _prepare_segments(corpus, schema, config)
    model_config = _model_config(vocab, class_map, schema, config, encoded, model_overrides)
    model = PairwiseREModel(model_config)
    run_log, epoch_seconds = _fit(model, encoded, config, _pairwise_terms(model, config))
    return TrainResult(
        model=model,
        vocab=vocab,
        class_map=class_map,
        schema=schema,
        window_chars=config.window_chars,
        stride_chars=config.stride_chars,
        train_config=config,
        window_report=report,
        run_log=run_log,
        epoch_seconds=epoch_seconds,
    )


def save_bundle(path: str, result: TrainResult) -> None:
    config = {
        "model": result.model.config.to_dict(),
        "schema": result.schema.to_dict(),
        "vocab": result.vocab.tokens,
        "include_same_frame": SAME_FRAME in result.class_map,
        "window_chars": result.window_chars,
        "stride_chars": result.stride_chars,
        "train": result.train_config.to_dict(),
    }
    save_checkpoint(path, {name: p.values for name, p in result.model.params.items()}, config)


def _header_values(config: dict) -> tuple[Vocabulary, int, int, bool]:
    """A checkpoint config's vocabulary, window settings and SAME_FRAME flag.

    A bad value raises ValueError naming its key.
    """
    try:
        vocab = Vocabulary(config["vocab"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"key 'vocab': {exc}") from None
    window, stride = config["window_chars"], config["stride_chars"]
    for key, value in (("window_chars", window), ("stride_chars", stride)):
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValueError(f"key {key!r} must be a positive integer, got {value!r}")
    if stride > window:
        raise ValueError(f"key 'stride_chars' ({stride}) exceeds 'window_chars' ({window})")
    same_frame = config["include_same_frame"]
    if not isinstance(same_frame, bool):
        raise ValueError(f"key 'include_same_frame' must be true or false, got {same_frame!r}")
    return vocab, window, stride, same_frame


@ag.float32_compute()
def load_bundle(path: str) -> InferenceBundle:
    """Rebuild a trained bundle; a config header that cannot describe one raises CheckpointError."""
    params, config = load_checkpoint(path)
    try:
        schema = SchemaProfile.from_dict(config["schema"])
        vocab, window_chars, stride_chars, same_frame = _header_values(config)
        bundle = InferenceBundle(
            model=PairwiseREModel(ModelConfig.from_dict(config["model"])),
            vocab=vocab,
            class_map=relation_classes(schema, same_frame),
            schema=schema,
            window_chars=window_chars,
            stride_chars=stride_chars,
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint config has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: checkpoint config: {exc}") from None
    bundle.model.params.load_values(params)
    return bundle


@dataclass
class CostReport:
    """Encoder forwards and wall-clock seconds of one training budget, pairwise model against the per-pair baseline.

    ``analytic_ratio`` is exact. ``measured_ratio`` is a one-epoch wall-clock
    ratio: three runs of the same code gave 35.0, 29.2 and 37.9, so it shows
    that the pairwise model is cheaper but cannot compare one version of the
    code with another.
    """

    segments: int
    epochs: int
    pairwise_forwards: int
    baseline_forwards: int
    pairwise_forwards_analytic: int
    baseline_forwards_analytic: int
    pairwise_seconds: float
    baseline_seconds: float

    @property
    def analytic_ratio(self) -> float:
        return self.baseline_forwards_analytic / self.pairwise_forwards_analytic

    @property
    def measured_ratio(self) -> float:
        return self.baseline_seconds / self.pairwise_seconds if self.pairwise_seconds else float("inf")

    def to_dict(self) -> dict:
        return {**asdict(self), "analytic_ratio": self.analytic_ratio, "measured_ratio": self.measured_ratio}


@ag.float32_compute()
def cost_report(
    corpus: list[Document],
    schema: SchemaProfile,
    config: TrainConfig,
    model_overrides: dict | None = None,
) -> CostReport:
    """Identical-epoch-budget training cost of the pairwise model vs the per-pair baseline.

    The pairwise side is ``train()``; the baseline takes its model config and
    trains on the same segments through the same loop and loss, so
    ``null_class_weight`` weights both. Forward counts come from instrumented
    counters; the analytic values are S segments per epoch for the pairwise
    model and the sum of m*(m-1) over segments per epoch for the baseline.
    Timings are single-threaded wall clock.
    """
    pairwise = train(corpus, schema, config, model_overrides)
    encoded, _, _, _ = _prepare_segments(corpus, schema, config)
    pair_sum = sum(len(seg.entities) * (len(seg.entities) - 1) for seg in encoded)
    baseline = BaselinePairModel(pairwise.model.config)
    _, baseline_epoch_seconds = _fit(baseline, encoded, config, _baseline_terms(baseline, config))

    return CostReport(
        segments=len(encoded),
        epochs=config.epochs,
        pairwise_forwards=pairwise.model.encoder_forwards,
        baseline_forwards=baseline.encoder_forwards,
        pairwise_forwards_analytic=len(encoded) * config.epochs,
        baseline_forwards_analytic=pair_sum * config.epochs,
        pairwise_seconds=pairwise.total_seconds,
        baseline_seconds=sum(baseline_epoch_seconds),
    )
