"""Corpus tallies: entity/relation counts per type and the multi-frame drug fraction."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

from .frames import build_frames
from .schema import SchemaProfile
from .standoff import Document


@dataclass
class CorpusStats:
    doc_count: int = 0
    entity_total: int = 0
    entity_counts: dict[str, int] = field(default_factory=dict)
    relation_total: int = 0
    relation_counts: dict[str, int] = field(default_factory=dict)
    multi_frame_drug_fraction: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def corpus_stats(corpus: list[Document], schema: SchemaProfile) -> CorpusStats:
    """Exact tallies over the corpus.

    The multi-frame fraction counts drugs that trigger at least two frames,
    over drugs that trigger at least one frame with at least one attribute;
    drugs with no linked attributes are excluded from the denominator.
    """
    entity_counts: Counter[str] = Counter()
    relation_counts: Counter[str] = Counter()
    framed_drugs = 0
    multi_frame_drugs = 0
    for doc in corpus:
        for e in doc.entities:
            entity_counts[e.etype] += 1
        for r in doc.relations:
            relation_counts[r.rtype] += 1
        fs = build_frames(doc, schema)
        framed_drugs += len({frame.drug for frame in fs.frames if frame.links})
        multi_frame_drugs += len(fs.multi_frame_drugs())  # only an attribute-less drug has an empty frame

    return CorpusStats(
        doc_count=len(corpus),
        entity_total=sum(entity_counts.values()),
        entity_counts=dict(sorted(entity_counts.items())),
        relation_total=sum(relation_counts.values()),
        relation_counts=dict(sorted(relation_counts.items())),
        multi_frame_drug_fraction=(multi_frame_drugs / framed_drugs) if framed_drugs else 0.0,
    )
