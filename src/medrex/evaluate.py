"""Relation scoring: per-type and micro-averaged precision/recall/F1.

A predicted relation counts as a true positive when its type matches a gold
relation and both endpoint entities match the gold endpoints — strict mode
requires identical offsets and entity type, lenient mode any character
overlap with the same entity type. Each gold relation can be claimed by at
most one prediction; ties are resolved by maximum bipartite matching per
document and relation type, so the count equals what exhaustive alignment
enumeration would find. Precision with no predictions is reported as zero
and flagged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .frames import FrameSet, build_frames, decode_frames
from .model import PredictedRelation
from .schema import SAME_FRAME, SchemaProfile
from .standoff import Document, Entity, Relation

STRICT, LENIENT = "strict", "lenient"


class EvaluationError(ValueError):
    """Malformed evaluation inputs."""


def entities_match(predicted: Entity, gold: Entity, mode: str) -> bool:
    if predicted.etype != gold.etype:
        return False
    if mode == STRICT:
        return predicted.start == gold.start and predicted.end == gold.end
    if mode == LENIENT:
        return predicted.start < gold.end and gold.start < predicted.end
    raise EvaluationError(f"unknown matching mode {mode!r} (use {STRICT!r} or {LENIENT!r})")


def _max_matching(adjacency: list[list[int]], n_right: int) -> int:
    """Size of a maximum bipartite matching (augmenting paths)."""
    match_right = [-1] * n_right
    def try_assign(left: int, seen: set[int]) -> bool:
        for right in adjacency[left]:
            if right in seen:
                continue
            seen.add(right)
            if match_right[right] < 0 or try_assign(match_right[right], seen):
                match_right[right] = left
                return True
        return False

    return sum(1 for left in range(len(adjacency)) if try_assign(left, set()))


@dataclass
class EvalRow:
    rtype: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    undefined_precision: bool = False

    @property
    def support(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def to_dict(self) -> dict:
        return {
            "type": self.rtype,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "support": self.support,
            "undefined_precision": self.undefined_precision,
        }


@dataclass
class EvalReport:
    mode: str
    rows: list[EvalRow] = field(default_factory=list)
    micro: EvalRow = field(default_factory=lambda: EvalRow("micro"))

    def row_for(self, rtype: str) -> EvalRow | None:
        for row in self.rows:
            if row.rtype == rtype:
                return row
        return None

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "micro": self.micro.to_dict(),
            "per_type": [row.to_dict() for row in self.rows],
        }


def format_report(report: EvalReport) -> str:
    """Aligned text table; footnotes flagged rows."""
    header = f"{'relation':<24} {'P':>7} {'R':>7} {'F1':>7} {'support':>8}"
    lines = [f"matching mode: {report.mode}", header, "-" * len(header)]
    flagged = False
    for row in report.rows + [report.micro]:
        star = "*" if row.undefined_precision else " "
        flagged = flagged or row.undefined_precision
        lines.append(
            f"{row.rtype:<24} {row.precision:>7.3f} {row.recall:>7.3f} {row.f1:>7.3f} {row.support:>8d}{star}"
        )
    if flagged:
        lines.append("* precision undefined (no predictions); reported as 0")
    return "\n".join(lines)


def evaluate(
    gold_docs: list[Document],
    predictions: dict[str, list[PredictedRelation]],
    mode: str,
    schema: SchemaProfile,
    include_same_frame: bool = False,
) -> EvalReport:
    """Score predictions against gold relations.

    Only the schema's annotated relation inventory is scored by default;
    SAME_FRAME edges are synthesized auxiliaries and join the scored set only
    on request. Matching respects ``mode`` for both endpoints of a relation.
    """
    scored_types = set(schema.relation_types) | ({SAME_FRAME} if include_same_frame else set())
    tallies: dict[str, EvalRow] = {}

    def row(rtype: str) -> EvalRow:
        if rtype not in tallies:
            tallies[rtype] = EvalRow(rtype)
        return tallies[rtype]

    for doc in gold_docs:
        by_id = doc.entity_index()
        gold_by_type: dict[str, list[tuple[Entity, Entity]]] = defaultdict(list)
        for r in doc.relations:
            if r.rtype in scored_types:
                gold_by_type[r.rtype].append((by_id[r.source], by_id[r.target]))
        pred_by_type: dict[str, list[PredictedRelation]] = defaultdict(list)
        for p in predictions.get(doc.doc_id, []):
            if p.rtype in scored_types:
                pred_by_type[p.rtype].append(p)
        for rtype in sorted(set(gold_by_type) | set(pred_by_type)):
            golds = gold_by_type.get(rtype, [])
            preds = pred_by_type.get(rtype, [])
            adjacency = [
                [
                    g_idx
                    for g_idx, (g_src, g_tgt) in enumerate(golds)
                    if entities_match(p.source, g_src, mode) and entities_match(p.target, g_tgt, mode)
                ]
                for p in preds
            ]
            matched = _max_matching(adjacency, len(golds))
            r = row(rtype)
            r.tp += matched
            r.fp += len(preds) - matched
            r.fn += len(golds) - matched

    rows = [tallies[rtype] for rtype in sorted(tallies)]
    micro = EvalRow("micro")
    for r in rows:
        micro.tp += r.tp
        micro.fp += r.fp
        micro.fn += r.fn
        r.undefined_precision = (r.tp + r.fp) == 0
    micro.undefined_precision = (micro.tp + micro.fp) == 0
    return EvalReport(mode=mode, rows=rows, micro=micro)


def predictions_to_relations(predictions: list[PredictedRelation]) -> list[Relation]:
    """Relation records (entity ids) from prediction objects, for frame decoding."""
    return [
        Relation(f"P{i}", p.rtype, p.source.id, p.target.id)
        for i, p in enumerate(predictions, start=1)
    ]


def _frame_shape(fs: FrameSet) -> dict[str, tuple]:
    """Per drug, the multiset of frames as (attribute id, link type) groups."""
    grouped: dict[str, list] = defaultdict(list)
    for f in fs.frames:
        grouped[f.drug].append(tuple(sorted(f.links)))
    return {drug: tuple(sorted(groups)) for drug, groups in grouped.items()}


def frame_exact_match(
    gold_docs: list[Document],
    predictions: dict[str, list[PredictedRelation]],
    schema: SchemaProfile,
) -> float:
    """Fraction of gold drugs whose decoded frame group equals the gold frames.

    Assumes predictions reference the gold entity inventory (gold-label runs),
    so drugs correspond by entity id.
    """
    total = 0
    exact = 0
    for doc in gold_docs:
        gold_shape = _frame_shape(build_frames(doc, schema))
        decoded = decode_frames(
            list(doc.entities),
            predictions_to_relations(predictions.get(doc.doc_id, [])),
            schema,
            doc_id=doc.doc_id,
        )
        pred_shape = _frame_shape(decoded)
        for drug, gold_frames in gold_shape.items():
            total += 1
            if pred_shape.get(drug) == gold_frames:
                exact += 1
    return exact / total if total else 0.0
