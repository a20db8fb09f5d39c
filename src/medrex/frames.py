"""Frame representation of treatment regimens.

A frame is one drug mention together with the attribute entities describing a
single regimen period (route, dosage, frequency, dates, context). A drug may
trigger several frames — e.g. one frequency for one date range, then another —
and two frames of the same drug may share attributes (the route, a boundary
date).

Frame membership is encoded with SAME_FRAME relations between attributes:
every unordered pair of attributes within a frame carries an edge, so each
frame forms a complete subgraph. Decoding therefore enumerates the maximal
cliques of the SAME_FRAME graph over a drug's attributes; that recovers
overlapping frames exactly, and degrades to the single-group reading when no
edges are present. An attribute touched by no edge while others are grouped
forms a singleton frame.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from .schema import SAME_FRAME, SchemaProfile
from .standoff import Document, Entity, Relation, entity_json


@dataclass(frozen=True)
class Frame:
    drug: str  # entity id
    links: tuple[tuple[str, str], ...]  # (attribute entity id, relation type), offset order


@dataclass(frozen=True)
class FrameSet:
    doc_id: str
    frames: tuple[Frame, ...]

    def multi_frame_drugs(self) -> set[str]:
        counts: dict[str, int] = defaultdict(int)
        for f in self.frames:
            counts[f.drug] += 1
        return {drug for drug, n in counts.items() if n >= 2}


def _maximal_cliques(nodes: list[str], adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Bron-Kerbosch with pivoting; isolated nodes come out as singleton cliques."""
    order = {node: i for i, node in enumerate(nodes)}
    cliques: list[list[str]] = []

    def expand(r: set[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            cliques.append(sorted(r, key=order.__getitem__))
            return
        pivot = max(sorted(p | x, key=order.__getitem__), key=lambda u: len(adjacency[u] & p))
        for v in sorted(p - adjacency[pivot], key=order.__getitem__):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(nodes), set())
    cliques.sort(key=lambda c: [order[n] for n in c])
    return cliques


def _frames_for_drug(
    drug: Entity,
    attr_links: dict[str, str],
    attr_order: dict[str, int],
    same_frame_pairs: set[frozenset[str]],
) -> list[Frame]:
    nodes = sorted(attr_links, key=attr_order.__getitem__)
    if not nodes:
        return [Frame(drug.id, ())]
    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    touched = False
    for pair in same_frame_pairs:
        a, b = tuple(pair)
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
            touched = True
    if not touched:
        groups = [nodes]
    else:
        groups = _maximal_cliques(nodes, adjacency)
    return [
        Frame(drug.id, tuple((a, attr_links[a]) for a in group))
        for group in groups
    ]


def decode_frames(
    entities: list[Entity] | tuple[Entity, ...],
    relations: list[Relation] | tuple[Relation, ...],
    schema: SchemaProfile,
    doc_id: str = "pred",
) -> FrameSet:
    """Group each drug's attributes into frames from the given (gold or predicted) relations.

    Output ordering is deterministic and independent of the input order:
    drugs in (start, end, id) order, and each drug's frames in the order of
    their attribute sequences, each sequence in (start, end, id) order.
    """
    by_id = {e.id: e for e in entities}
    ordered = sorted(entities, key=lambda e: (e.start, e.end, e.id))
    attr_order = {e.id: i for i, e in enumerate(ordered)}

    links: dict[str, dict[str, str]] = defaultdict(dict)  # drug id -> attr id -> rtype
    for r in relations:
        if r.rtype == SAME_FRAME:
            continue
        src, tgt = by_id.get(r.source), by_id.get(r.target)
        if src is None or tgt is None:
            continue
        if tgt.etype in schema.drug_types and src.etype in schema.attribute_types:
            links[tgt.id].setdefault(src.id, r.rtype)

    same_frame_pairs = {
        frozenset((r.source, r.target))
        for r in relations
        if r.rtype == SAME_FRAME and r.source != r.target
    }

    return FrameSet(doc_id, tuple(
        frame
        for drug in ordered if drug.etype in schema.drug_types
        for frame in _frames_for_drug(drug, links[drug.id], attr_order, same_frame_pairs)
    ))


def build_frames(doc: Document, schema: SchemaProfile) -> FrameSet:
    """Group each drug's attributes into frames using the document's SAME_FRAME edges."""
    return decode_frames(doc.entities, doc.relations, schema, doc.doc_id)


def with_same_frame(doc: Document, frames: Iterable[Frame]) -> Document:
    """Replace a document's SAME_FRAME edges with one complete graph per given frame.

    The document's other relations are kept verbatim (including relations that
    take no part in frames, such as drug-to-drug coreference). The edges are
    appended after them, deduplicated across frames that share attributes and
    numbered SF1, SF2, ... in frame order.
    """
    kept = tuple(r for r in doc.relations if r.rtype != SAME_FRAME)
    # each frame's complete graph: every (earlier, later) pair of its attributes, as an ordered set
    pairs = dict.fromkeys(
        pair for frame in frames for pair in itertools.combinations([a for a, _ in frame.links], 2)
    )
    edges = tuple(Relation(f"SF{i}", SAME_FRAME, a, b) for i, (a, b) in enumerate(pairs, start=1))
    return Document(doc.doc_id, doc.text, doc.entities, kept + edges)


def augment_document(doc: Document, schema: SchemaProfile) -> Document:
    """Replace a document's SAME_FRAME edges with complete graphs over all its frames."""
    return with_same_frame(doc, build_frames(doc, schema).frames)


def frames_to_jsonl(doc: Document, fs: FrameSet) -> list[str]:
    """One JSON object per frame, with resolved entity spans."""
    by_id = doc.entity_index()
    lines = []
    for frame in fs.frames:
        payload = {
            "doc_id": fs.doc_id,
            "drug": entity_json(by_id[frame.drug]),
            "links": [{**entity_json(by_id[attr]), "relation": rtype} for attr, rtype in frame.links],
        }
        lines.append(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return lines
