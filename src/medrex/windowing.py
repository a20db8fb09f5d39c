"""Token tables, character sliding windows, label alignment, pair class ids.

A text is tokenized once, into a ``TokenTable``; its ``cover`` is the one
rule for which tokens a character span covers (those that overlap it).
Windows start at 0, stride, 2*stride, ... and stop with the first window
whose nominal span reaches the end of the text, so stride <= window size
guarantees every character is covered exactly by construction. Window
bounds snap outward to the edges of the tokens they cut, so no token is
split and a bound may exceed the nominal one by at most one token per side.

Prediction also caps a window's tokens at the model's ``max_positions``:
a longer window is cut into overlapping pieces of at most that many tokens.
Windows and pieces containing fewer than two fully contained entities are
dropped. Before windowing, prediction admits its entities: one that covers no
token is skipped, and of two that overlap or share a token or an id only one
is kept.
Relations whose endpoints never co-occur inside one emitted window are
counted as unreachable in the corpus report.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
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
MARKER_TOKENS = ("<e1>", "</e1>", "<e2>", "</e2>")  # source open/close, target open/close
SPECIAL_TOKENS = (UNK_TOKEN, *MARKER_TOKENS)


class WindowingError(ValueError):
    """Segment construction failed (overlaps, inconsistent gold relations)."""


@dataclass(frozen=True)
class TokenTable:
    """A text's tokens, in text order: each one's surface and [start, end) character offsets."""

    surfaces: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    @classmethod
    def of(cls, text: str) -> "TokenTable":
        matches = list(_TOKEN_RE.finditer(text))
        return cls(tuple(m[0] for m in matches), tuple(m.start() for m in matches), tuple(m.end() for m in matches))

    def cover(self, lo: int, hi: int) -> tuple[int, int]:
        """The tokens that overlap the characters [lo, hi), as the index range [first, stop); empty when none do."""
        return bisect_right(self.ends, lo), bisect_left(self.starts, hi)


@dataclass(frozen=True)
class Segment:
    doc_id: str
    window_start: int
    window_end: int
    tokens: tuple[str, ...]  # surfaces
    entities: tuple[Entity, ...]  # fully contained, schema-typed, offset order
    entity_spans: tuple[tuple[int, int], ...]  # (first, last) token index per entity; first > last when it covers none


def window_starts(text_length: int, window_chars: int, stride_chars: int) -> list[int]:
    """Nominal window origins; generation stops once a window reaches the end."""
    if not 0 < stride_chars <= window_chars:
        raise WindowingError(f"need 0 < stride <= window, got stride={stride_chars}, window={window_chars}")
    starts = [0]
    while starts[-1] + window_chars < text_length:
        starts.append(starts[-1] + stride_chars)
    return starts


def make_segments(
    doc: Document, window_chars: int, stride_chars: int, max_tokens: int | None = None,
    table: TokenTable | None = None,
) -> list[Segment]:
    """The document's windows that hold at least two entities, in window order.

    ``max_tokens`` caps a segment's length: a window with more tokens is cut
    into pieces at ``window_starts(len(tokens), max_tokens, max(1, max_tokens // 2))``.
    Each piece spans its first token's start to its last token's end, holds
    the entities fully inside that span, and is dropped, like a window, when
    it holds fewer than two. ``table`` is ``TokenTable.of(doc.text)``, if the caller has it.
    """
    table = table or TokenTable.of(doc.text)
    entities = sorted((e for e in doc.entities if e.etype != OTHER_TYPE), key=lambda e: (e.start, e.end, e.id))
    segments: list[Segment] = []
    for window_start in window_starts(len(doc.text), window_chars, stride_chars):
        window_end = min(window_start + window_chars, len(doc.text))
        first, stop = table.cover(window_start, window_end)
        if first < stop:  # snap outward to the edges of the tokens the window cuts
            window_start, window_end = min(window_start, table.starts[first]), max(window_end, table.ends[stop - 1])
        pieces = [(window_start, window_end, first, stop)]
        if max_tokens is not None and stop - first > max_tokens:
            lows = [first + s for s in window_starts(stop - first, max_tokens, max(1, max_tokens // 2))]
            highs = [min(lo + max_tokens, stop) for lo in lows]
            pieces = [(table.starts[lo], table.ends[hi - 1], lo, hi) for lo, hi in zip(lows, highs)]
        for start, end, lo, hi in pieces:
            contained = tuple(e for e in entities if e.start >= start and e.end <= end)
            if len(contained) >= 2:
                spans = tuple((a - lo, b - 1 - lo) for a, b in (table.cover(e.start, e.end) for e in contained))
                segments.append(Segment(doc.doc_id, start, end, table.surfaces[lo:hi], contained, spans))
    return segments


def admit_entities(table: TokenTable, entities) -> tuple[Entity, ...]:
    """The typed entities that prediction labels: no two overlap, share a token or share an id.

    ``OTHER`` entities and entities that cover no token are left out. The rest
    are taken longest first, then earliest, then by id (type and surface break
    any tie left), and each one that overlaps one already taken in characters,
    or shares a token or its id with it, is left out, so the result does not
    depend on the input order.
    """
    admitted: list[tuple[int, int, Entity]] = []
    for e in sorted((e for e in entities if e.etype != OTHER_TYPE),
                    key=lambda e: (e.start - e.end, e.start, e.id, e.etype, e.surface)):
        first, stop = table.cover(e.start, e.end)
        if first >= stop:
            continue  # covers no token
        # the span widened to its tokens' edges: two footprints overlap exactly
        # when their entities overlap in characters or share a token
        lo, hi = min(e.start, table.starts[first]), max(e.end, table.ends[stop - 1])
        if all((hi <= taken_lo or taken_hi <= lo) and e.id != taken.id for taken_lo, taken_hi, taken in admitted):
            admitted.append((lo, hi, e))
    return tuple(e for _, _, e in admitted)


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
            "tokens_per_segment": {str(k): v for k, v in self.tokens_per_segment.items()},
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
        histogram.update(len(seg.tokens) for seg in segments)
        all_segments.extend(segments)
    report.tokens_per_segment = dict(histogram)
    return all_segments, report


def align_labels(segment: Segment, schema: SchemaProfile) -> tuple[int, ...]:
    """Label id per token, from the segment's entity spans.

    Label 0 is outside any entity; entity types follow in sorted order from 1.
    A token belongs to an entity when their character spans overlap; the
    entity head is its first token. Entities that share a token or cover none
    are rejected; character overlaps are rejected before (``validate_document``
    for training, ``admit_entities`` for prediction).
    """
    label_ids = {etype: i for i, etype in enumerate(schema.entity_type_list(), start=1)}
    labels = [0] * len(segment.tokens)
    for k, (e, (first, last)) in enumerate(zip(segment.entities, segment.entity_spans)):
        if first > last:
            raise WindowingError(f"entity {e.id} covers no token in its segment")
        # entities are in offset order, so a shared token is shared with the previous one
        if k and first <= segment.entity_spans[k - 1][1]:
            raise WindowingError(
                f"entities {segment.entities[k - 1].id} and {e.id} share a token; labels are ambiguous"
            )
        labels[first:last + 1] = [label_ids[e.etype]] * (last + 1 - first)
    return tuple(labels)


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


def pair_class_ids(
    segment: Segment,
    gold_relations: list[Relation] | tuple[Relation, ...],
    class_map: RelationClassMap,
) -> tuple[int, ...]:
    """One class id per ordered entity pair, in ``ordered_entity_pairs`` order (m*(m-1) in total).

    The class comes from the unique gold relation on that ordered entity pair;
    pairs without one get the null class 0. Relations whose type the class map
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
    return tuple(
        class_map.id_for(gold[pair]) if pair in gold else 0
        for pair in ordered_entity_pairs(len(segment.entities))
    )


class Vocabulary:
    """Token surface to id mapping built from a training corpus; unseen -> UNK."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if (not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens)
                or tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS or len(self.index) < len(tokens)):
            raise ValueError(f"vocabulary must be a list of distinct strings that starts with {SPECIAL_TOKENS}")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_for(self, surface: str) -> int:
        return self.index.get(surface, 0)

    @classmethod
    def build(cls, docs: list[Document]) -> "Vocabulary":
        counts: Counter[str] = Counter()
        for doc in docs:
            counts.update(TokenTable.of(doc.text).surfaces)
        ordered = sorted(counts, key=lambda s: (-counts[s], s))
        return cls(list(SPECIAL_TOKENS) + ordered)


@dataclass(frozen=True)
class EncodedSegment:
    token_ids: tuple[int, ...]
    label_ids: tuple[int, ...]
    entities: tuple[Entity, ...]
    entity_spans: tuple[tuple[int, int], ...]  # (first, last) token index per entity
    class_ids: tuple[int, ...]  # one per ordered entity pair, in ordered_entity_pairs order


def encode_segment(
    segment: Segment,
    vocab: Vocabulary,
    schema: SchemaProfile,
    relations: list[Relation] | tuple[Relation, ...],
    class_map: RelationClassMap,
) -> EncodedSegment:
    return EncodedSegment(
        token_ids=tuple(vocab.id_for(surface) for surface in segment.tokens),
        label_ids=align_labels(segment, schema),
        entities=segment.entities,
        entity_spans=segment.entity_spans,
        class_ids=pair_class_ids(segment, relations, class_map),
    )
