"""Tokenization, character sliding windows, label alignment, pair targets.

Windows start at 0, stride, 2*stride, ... and stop with the first window
whose nominal span reaches the end of the text, so stride <= window size
guarantees every character is covered exactly by construction. Window
boundaries are snapped outward to token boundaries so no token is split;
the stored bounds are the snapped ones and may exceed the nominal size by
at most one token overhang per side.

Windows containing fewer than two fully contained entities are dropped.
Relations whose endpoints never co-occur inside one emitted window are
counted as unreachable in the corpus report.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .schema import OTHER_TYPE, SAME_FRAME, SchemaProfile
from .standoff import Document, Entity, Relation

# Newlines are their own tokens (they delimit clinical note sentences); other
# whitespace separates; punctuation splits off as single characters.
_TOKEN_RE = re.compile(r"\n|\w+|[^\w\s]")

NULL_REL = "NULL_REL"

# Reserved vocabulary slots. The four markers bracket candidate entity pairs
# in the per-pair baseline; the shared vocabulary keeps both encoders
# identically configured for cost comparisons.
UNK_TOKEN = "<unk>"
E1_OPEN, E1_CLOSE, E2_OPEN, E2_CLOSE = "<e1>", "</e1>", "<e2>", "</e2>"
SPECIAL_TOKENS = (UNK_TOKEN, E1_OPEN, E1_CLOSE, E2_OPEN, E2_CLOSE)


class WindowingError(ValueError):
    """Segment construction failed (overlaps, inconsistent gold relations)."""


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


@dataclass(frozen=True)
class Segment:
    doc_id: str
    window_start: int
    window_end: int
    tokens: tuple[Token, ...]
    entities: tuple[Entity, ...]  # fully contained, schema-typed, offset order


@dataclass(frozen=True)
class PairTarget:
    i: int  # head token index of the source entity
    j: int  # head token index of the target entity
    class_id: int  # 0 is always the null class


def window_starts(text_length: int, window_chars: int, stride_chars: int) -> list[int]:
    """Nominal window origins; generation stops once a window reaches the end."""
    if not 0 < stride_chars <= window_chars:
        raise WindowingError(f"need 0 < stride <= window, got stride={stride_chars}, window={window_chars}")
    starts = [0]
    while starts[-1] + window_chars < text_length:
        starts.append(starts[-1] + stride_chars)
    return starts


def make_segments(doc: Document, window_chars: int, stride_chars: int) -> list[Segment]:
    tokens = tokenize(doc.text)
    entities = sorted(
        (e for e in doc.entities if e.etype != OTHER_TYPE),
        key=lambda e: (e.start, e.end, e.id),
    )
    segments: list[Segment] = []
    for nominal_start in window_starts(len(doc.text), window_chars, stride_chars):
        nominal_end = min(nominal_start + window_chars, len(doc.text))
        inside_tokens = tuple(t for t in tokens if t.end > nominal_start and t.start < nominal_end)
        if inside_tokens:
            snapped_start = min(nominal_start, inside_tokens[0].start)
            snapped_end = max(nominal_end, inside_tokens[-1].end)
        else:
            snapped_start, snapped_end = nominal_start, nominal_end
        contained = tuple(e for e in entities if e.start >= snapped_start and e.end <= snapped_end)
        if len(contained) < 2:
            continue
        segments.append(Segment(doc.doc_id, snapped_start, snapped_end, inside_tokens, contained))
    return segments


@dataclass
class WindowReport:
    segments_emitted: int = 0
    segments_excluded: int = 0
    unreachable_relations: int = 0
    tokens_per_segment: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "segments_emitted": self.segments_emitted,
            "segments_excluded": self.segments_excluded,
            "unreachable_relations": self.unreachable_relations,
            "tokens_per_segment": {str(k): v for k, v in sorted(self.tokens_per_segment.items())},
        }


def count_unreachable_relations(doc: Document, segments: list[Segment]) -> int:
    """Relations whose two endpoints never co-occur in one emitted segment."""
    reachable: set[str] = set()
    by_id = doc.entity_index()
    for seg in segments:
        ids = {e.id for e in seg.entities}
        for r in doc.relations:
            if r.source in ids and r.target in ids:
                reachable.add(r.id)
    return sum(1 for r in doc.relations if r.id not in reachable and r.source in by_id and r.target in by_id)


def segment_corpus(
    docs: list[Document], window_chars: int, stride_chars: int
) -> tuple[list[Segment], WindowReport]:
    """Deterministic concatenation: document order, then window order."""
    all_segments: list[Segment] = []
    report = WindowReport()
    histogram: Counter[int] = Counter()
    for doc in docs:
        candidate_windows = len(window_starts(len(doc.text), window_chars, stride_chars))
        segments = make_segments(doc, window_chars, stride_chars)
        report.segments_emitted += len(segments)
        report.segments_excluded += candidate_windows - len(segments)
        report.unreachable_relations += count_unreachable_relations(doc, segments)
        for seg in segments:
            histogram[len(seg.tokens)] += 1
        all_segments.extend(segments)
    report.tokens_per_segment = dict(sorted(histogram.items()))
    return all_segments, report


class LabelMap:
    """Per-token label ids: 0 is the outside label, entity types follow sorted."""

    def __init__(self, schema: SchemaProfile):
        self.names = ["O"] + schema.entity_type_list()
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def id_for(self, etype: str) -> int:
        return self.index[etype]


def align_labels(segment: Segment, schema: SchemaProfile) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Label id per token plus each entity's (first, last) token index span.

    A token belongs to an entity when their character spans overlap; the
    entity head is its first token. Overlapping entities are rejected.
    """
    label_map = LabelMap(schema)
    for prev, nxt in zip(segment.entities, segment.entities[1:]):
        if nxt.start < prev.end:
            raise WindowingError(f"entities {prev.id} and {nxt.id} overlap; labels are ambiguous")
    labels = [0] * len(segment.tokens)
    spans: list[tuple[int, int]] = []
    for e in segment.entities:
        first, last = None, None
        for idx, t in enumerate(segment.tokens):
            if t.start < e.end and e.start < t.end:
                if first is None:
                    first = idx
                last = idx
        if first is None:
            raise WindowingError(f"entity {e.id} covers no token in its segment")
        for idx in range(first, last + 1):
            labels[idx] = label_map.id_for(e.etype)
        spans.append((first, last))
    return tuple(labels), tuple(spans)


class RelationClassMap:
    """Class ids for pair classification: 0 = no relation, then sorted types."""

    def __init__(self, schema: SchemaProfile, include_same_frame: bool = False):
        self.names = [NULL_REL] + schema.relation_type_list()
        if include_same_frame:
            self.names.append(SAME_FRAME)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.include_same_frame = include_same_frame

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, rtype: str) -> bool:
        return rtype in self.index

    def id_for(self, rtype: str) -> int:
        return self.index[rtype]

    def name_for(self, class_id: int) -> str:
        return self.names[class_id]


def ordered_entity_pairs(n_entities: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n_entities) for b in range(n_entities) if a != b]


def build_pair_targets(
    segment: Segment,
    gold_relations: list[Relation] | tuple[Relation, ...],
    class_map: RelationClassMap,
    entity_spans: tuple[tuple[int, int], ...],
) -> tuple[PairTarget, ...]:
    """One target per ordered pair of distinct entity heads (m*(m-1) in total).

    The class comes from the unique gold relation on that ordered entity pair;
    pairs without one get the null class. Relations whose type the class map
    does not know (SAME_FRAME while frame augmentation is off) are ignored.
    Two gold relations of different types on one ordered pair are a corpus
    inconsistency and raise.
    """
    position = {e.id: k for k, e in enumerate(segment.entities)}
    gold: dict[tuple[int, int], str] = {}
    for r in gold_relations:
        if r.rtype not in class_map:
            continue
        if r.source in position and r.target in position:
            key = (position[r.source], position[r.target])
            existing = gold.get(key)
            if existing is not None and existing != r.rtype:
                raise WindowingError(
                    f"conflicting gold relations {existing!r} and {r.rtype!r} on pair "
                    f"{r.source}->{r.target} in {segment.doc_id}"
                )
            gold[key] = r.rtype
    targets = []
    for a, b in ordered_entity_pairs(len(segment.entities)):
        rtype = gold.get((a, b))
        class_id = class_map.id_for(rtype) if rtype is not None else 0
        targets.append(PairTarget(entity_spans[a][0], entity_spans[b][0], class_id))
    return tuple(targets)


class Vocabulary:
    """Token surface to id mapping built from a training corpus; unseen -> UNK."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the reserved special tokens")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_for(self, surface: str) -> int:
        return self.index.get(surface, 0)

    @classmethod
    def build(cls, docs: list[Document]) -> "Vocabulary":
        counts: Counter[str] = Counter()
        for doc in docs:
            for token in tokenize(doc.text):
                counts[token.surface] += 1
        ordered = sorted(counts, key=lambda s: (-counts[s], s))
        return cls(list(SPECIAL_TOKENS) + ordered)


@dataclass(frozen=True)
class EncodedSegment:
    doc_id: str
    window_start: int
    window_end: int
    token_ids: tuple[int, ...]
    label_ids: tuple[int, ...]
    entities: tuple[Entity, ...]
    entity_spans: tuple[tuple[int, int], ...]  # (first, last) token index per entity
    targets: tuple[PairTarget, ...]


def encode_segment(
    segment: Segment,
    vocab: Vocabulary,
    schema: SchemaProfile,
    relations: list[Relation] | tuple[Relation, ...],
    class_map: RelationClassMap,
) -> EncodedSegment:
    labels, spans = align_labels(segment, schema)
    targets = build_pair_targets(segment, relations, class_map, spans)
    return EncodedSegment(
        doc_id=segment.doc_id,
        window_start=segment.window_start,
        window_end=segment.window_end,
        token_ids=tuple(vocab.id_for(t.surface) for t in segment.tokens),
        label_ids=labels,
        entities=segment.entities,
        entity_spans=spans,
        targets=targets,
    )
