"""Training loop, checkpoint bundles, computational-cost report, end-to-end glue.

Training is single threaded and fully seeded: epoch-level shuffling, model
initialisation, and dropout all derive from the run seed, so identical
configurations produce bit-identical checkpoints. The optimiser follows the
warmup-then-decay schedule; the loss is the masked pairwise cross entropy,
averaged over the segments of each batch.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluate import EvalReport, evaluate
from .frames import FrameSet, augment_document, decode_frames
from .model import (
    BaselinePairModel,
    ModelConfig,
    PairwiseREModel,
    PredictedRelation,
    masked_loss,
    predict_relations,
)
from .optim import LrSchedule, adam_step, lr_at
from .schema import SchemaProfile
from .standoff import Document, Entity, validate_document
from .evaluate import predictions_to_relations
from .windowing import (
    EncodedSegment,
    RelationClassMap,
    Vocabulary,
    WindowReport,
    encode_segment,
    ordered_entity_pairs,
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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    model: PairwiseREModel
    vocab: Vocabulary
    class_map: RelationClassMap
    schema: SchemaProfile
    train_config: TrainConfig
    window_report: WindowReport
    run_log: list[dict] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.epoch_seconds)

    def losses(self) -> list[float]:
        return [record["loss"] for record in self.run_log]


def _prepare_segments(
    corpus: list[Document],
    schema: SchemaProfile,
    config: TrainConfig,
) -> tuple[list[EncodedSegment], Vocabulary, RelationClassMap, WindowReport]:
    for doc in corpus:
        violations = validate_document(doc, schema)
        if violations:
            raise TrainingError(f"document {doc.doc_id} fails validation: {violations[0]}")
    docs = [augment_document(d, schema) for d in corpus] if config.frame_augmentation else list(corpus)
    vocab = Vocabulary.build(docs)
    class_map = RelationClassMap(schema, include_same_frame=config.frame_augmentation)
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
    class_map: RelationClassMap,
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


def _mean_loss(losses: list[ag.Tensor]) -> ag.Tensor:
    total = losses[0]
    for item in losses[1:]:
        total = ag.add(total, item)
    return ag.scale(total, 1.0 / len(losses))


def _fit(model, encoded: list[EncodedSegment], config: TrainConfig, batch_loss) -> tuple[list[dict], list[float]]:
    """The training loop: seeded epoch shuffles, batches, warmup/decay Adam steps.

    ``batch_loss`` maps a batch of segments to its scalar loss; the models
    differ only there. Returns the per-step run log and the epoch seconds.
    """
    steps_per_epoch = math.ceil(len(encoded) / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    schedule = LrSchedule(
        peak_lr=config.peak_lr,
        warmup_steps=int(round(config.warmup_fraction * total_steps)),
        total_steps=total_steps,
    )
    shuffler = random.Random(config.seed)
    run_log: list[dict] = []
    epoch_seconds: list[float] = []
    step = 0
    for _ in range(config.epochs):
        epoch_start = time.perf_counter()
        order = list(range(len(encoded)))
        shuffler.shuffle(order)
        for batch_start in range(0, len(order), config.batch_size):
            loss = batch_loss([encoded[i] for i in order[batch_start:batch_start + config.batch_size]])
            ag.backward(loss)
            lr = lr_at(schedule, step)
            adam_step(model.params, lr)
            run_log.append({
                "step": step,
                "lr": lr,
                "loss": loss.item(),
                "forwards": model.encoder_forwards,
            })
            step += 1
        epoch_seconds.append(time.perf_counter() - epoch_start)
    return run_log, epoch_seconds


def _pairwise_loss(model: PairwiseREModel, config: TrainConfig):
    return lambda batch: _mean_loss([
        masked_loss(model.forward(seg, train=True), seg.targets, config.null_class_weight)
        for seg in batch
    ])


def _baseline_loss(model: BaselinePairModel):
    def batch_loss(batch: list[EncodedSegment]) -> ag.Tensor:
        pair_losses: list[ag.Tensor] = []
        for seg in batch:
            for row, (a, b) in enumerate(ordered_entity_pairs(len(seg.entities))):
                logits = model.forward_pair(seg, a, b, train=True)
                target = np.asarray([seg.targets[row].class_id], dtype=np.intp)
                pair_losses.append(ag.reduce_mean(ag.cross_entropy(logits, target)))
        return _mean_loss(pair_losses)

    return batch_loss


def train(
    corpus: list[Document],
    schema: SchemaProfile,
    config: TrainConfig,
    model_overrides: dict | None = None,
) -> TrainResult:
    """Train the pairwise model; returns the model plus everything inference needs."""
    encoded, vocab, class_map, report = _prepare_segments(corpus, schema, config)
    model_config = _model_config(vocab, class_map, schema, config, encoded, model_overrides)
    model = PairwiseREModel(model_config)
    run_log, epoch_seconds = _fit(model, encoded, config, _pairwise_loss(model, config))
    return TrainResult(
        model=model,
        vocab=vocab,
        class_map=class_map,
        schema=schema,
        train_config=config,
        window_report=report,
        run_log=run_log,
        epoch_seconds=epoch_seconds,
    )


@dataclass
class InferenceBundle:
    model: PairwiseREModel
    vocab: Vocabulary
    class_map: RelationClassMap
    schema: SchemaProfile
    window_chars: int
    stride_chars: int

    def predict(self, doc: Document, entities: list[Entity] | None = None) -> list[PredictedRelation]:
        return predict_relations(
            self.model, doc, self.schema, self.vocab, self.class_map,
            self.window_chars, self.stride_chars, entities=entities,
        )

    def predict_corpus(
        self, docs: list[Document], entities_map: dict[str, list[Entity]] | None = None
    ) -> dict[str, list[PredictedRelation]]:
        return {
            doc.doc_id: self.predict(doc, entities_map.get(doc.doc_id) if entities_map else None)
            for doc in docs
        }

    def decode_frame_sets(
        self, docs: list[Document], predictions: dict[str, list[PredictedRelation]],
        entities_map: dict[str, list[Entity]] | None = None,
    ) -> dict[str, FrameSet]:
        out = {}
        for doc in docs:
            entities = entities_map.get(doc.doc_id) if entities_map else list(doc.entities)
            out[doc.doc_id] = decode_frames(
                entities, predictions_to_relations(predictions.get(doc.doc_id, [])),
                self.schema, doc_id=doc.doc_id,
            )
        return out


def save_bundle(path: str, result: TrainResult) -> None:
    config = {
        "model": result.model.config.to_dict(),
        "schema": result.schema.to_dict(),
        "vocab": result.vocab.tokens,
        "include_same_frame": result.class_map.include_same_frame,
        "window_chars": result.train_config.window_chars,
        "stride_chars": result.train_config.stride_chars,
        "train": result.train_config.to_dict(),
    }
    save_checkpoint(path, {name: p.values for name, p in result.model.params.items()}, config)


def load_bundle(path: str) -> InferenceBundle:
    params, config = load_checkpoint(path)
    schema = SchemaProfile.from_dict(config["schema"])
    model = PairwiseREModel(ModelConfig.from_dict(config["model"]))
    model.params.load_values(params)
    return InferenceBundle(
        model=model,
        vocab=Vocabulary(list(config["vocab"])),
        class_map=RelationClassMap(schema, include_same_frame=config["include_same_frame"]),
        schema=schema,
        window_chars=config["window_chars"],
        stride_chars=config["stride_chars"],
    )


@dataclass
class CostReport:
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
        return {
            "segments": self.segments,
            "epochs": self.epochs,
            "pairwise_forwards": self.pairwise_forwards,
            "baseline_forwards": self.baseline_forwards,
            "pairwise_forwards_analytic": self.pairwise_forwards_analytic,
            "baseline_forwards_analytic": self.baseline_forwards_analytic,
            "analytic_ratio": self.analytic_ratio,
            "pairwise_seconds": self.pairwise_seconds,
            "baseline_seconds": self.baseline_seconds,
            "measured_ratio": self.measured_ratio,
        }


def cost_report(
    corpus: list[Document],
    schema: SchemaProfile,
    config: TrainConfig,
    model_overrides: dict | None = None,
) -> CostReport:
    """Identical-epoch-budget training cost of the pairwise model vs the per-pair baseline.

    Both models share the encoder configuration. Forward counts come from
    instrumented counters; the analytic values are S segments per epoch for
    the pairwise model and the sum of m*(m-1) over segments per epoch for the
    baseline. Timings are single-threaded wall clock.
    """
    encoded, vocab, class_map, _ = _prepare_segments(corpus, schema, config)
    model_config = _model_config(vocab, class_map, schema, config, encoded, model_overrides)

    pair_sum = sum(len(seg.entities) * (len(seg.entities) - 1) for seg in encoded)

    pairwise = PairwiseREModel(model_config)
    _, pairwise_epoch_seconds = _fit(pairwise, encoded, config, _pairwise_loss(pairwise, config))
    baseline = BaselinePairModel(model_config)
    _, baseline_epoch_seconds = _fit(baseline, encoded, config, _baseline_loss(baseline))

    return CostReport(
        segments=len(encoded),
        epochs=config.epochs,
        pairwise_forwards=pairwise.encoder_forwards,
        baseline_forwards=baseline.encoder_forwards,
        pairwise_forwards_analytic=len(encoded) * config.epochs,
        baseline_forwards_analytic=pair_sum * config.epochs,
        pairwise_seconds=sum(pairwise_epoch_seconds),
        baseline_seconds=sum(baseline_epoch_seconds),
    )


def end_to_end(
    gold_docs: list[Document],
    entities_map: dict[str, list[Entity]],
    bundle: InferenceBundle,
) -> tuple[dict[str, list[PredictedRelation]], dict[str, FrameSet], dict[str, EvalReport]]:
    """Predict with externally provided entities and score against gold, both modes."""
    missing = [doc.doc_id for doc in gold_docs if doc.doc_id not in entities_map]
    if missing:
        raise TrainingError(f"missing entity files for documents: {', '.join(sorted(missing))}")
    predictions = bundle.predict_corpus(gold_docs, entities_map)
    frame_sets = bundle.decode_frame_sets(gold_docs, predictions, entities_map)
    reports = {
        mode: evaluate(gold_docs, predictions, mode, bundle.schema)
        for mode in ("strict", "lenient")
    }
    return predictions, frame_sets, reports
