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

import json
from collections import defaultdict
from dataclasses import dataclass

from .schema import SAME_FRAME, SchemaProfile
from .standoff import Document, Entity, Relation, Violation


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


def _frames_from(
    doc_id: str,
    entities: tuple[Entity, ...] | list[Entity],
    relations: tuple[Relation, ...] | list[Relation],
    schema: SchemaProfile,
) -> FrameSet:
    by_id = {e.id: e for e in entities}
    attr_order = {
        e.id: i
        for i, e in enumerate(sorted(entities, key=lambda e: (e.start, e.end, e.id)))
    }

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

    frames: list[Frame] = []
    drugs = sorted(
        (e for e in entities if e.etype in schema.drug_types),
        key=lambda e: (e.start, e.end, e.id),
    )
    for drug in drugs:
        frames.extend(_frames_for_drug(drug, links[drug.id], attr_order, same_frame_pairs))

    def sort_key(f: Frame):
        drug = by_id[f.drug]
        first_attr = min((attr_order[a] for a, _ in f.links), default=-1)
        return (drug.start, drug.end, drug.id, first_attr, tuple(attr_order[a] for a, _ in f.links))

    return FrameSet(doc_id, tuple(sorted(frames, key=sort_key)))


def build_frames(doc: Document, schema: SchemaProfile) -> FrameSet:
    """Group each drug's attributes into frames using the document's SAME_FRAME edges."""
    return _frames_from(doc.doc_id, doc.entities, doc.relations, schema)


def frame_violations(doc: Document, schema: SchemaProfile) -> list[Violation]:
    """Report SAME_FRAME edges whose endpoints are not attributes of one common drug."""
    by_id = doc.entity_index()
    drugs_of: dict[str, set[str]] = defaultdict(set)  # attr id -> drug ids it is linked to
    for r in doc.relations:
        if r.rtype == SAME_FRAME:
            continue
        src, tgt = by_id.get(r.source), by_id.get(r.target)
        if src and tgt and tgt.etype in schema.drug_types and src.etype in schema.attribute_types:
            drugs_of[src.id].add(tgt.id)
    violations = []
    for r in doc.relations:
        if r.rtype != SAME_FRAME:
            continue
        if not (drugs_of.get(r.source, set()) & drugs_of.get(r.target, set())):
            violations.append(Violation(
                "cross-drug-same-frame", r.id,
                f"{SAME_FRAME} edge {r.source}->{r.target} joins attributes with no drug in common; ignored",
            ))
    return violations


def frames_to_relations(fs: FrameSet, include_same_frame: bool) -> list[Relation]:
    """Emit one attribute->drug relation per link, plus per-frame complete SAME_FRAME graphs.

    SAME_FRAME edges connect every unordered pair of attributes within a frame,
    directed from the earlier attribute to the later one. Shared attributes can
    make the returned list contain repeated triples; callers assembling a
    document deduplicate.
    """
    relations: list[Relation] = []
    counter = 0

    def emit(rtype: str, source: str, target: str) -> None:
        nonlocal counter
        counter += 1
        relations.append(Relation(f"R{counter}", rtype, source, target))

    for frame in fs.frames:
        for attr, rtype in frame.links:
            emit(rtype, attr, frame.drug)
    if include_same_frame:
        for frame in fs.frames:
            attrs = [a for a, _ in frame.links]
            for i in range(len(attrs)):
                for j in range(i + 1, len(attrs)):
                    emit(SAME_FRAME, attrs[i], attrs[j])
    return relations


def decode_frames(
    entities: list[Entity] | tuple[Entity, ...],
    predicted_relations: list[Relation] | tuple[Relation, ...],
    schema: SchemaProfile,
    doc_id: str = "pred",
) -> FrameSet:
    """Apply the frame-grouping algorithm to predicted relations.

    Output ordering is deterministic: frames sorted by drug start offset, then
    by the earliest attribute offset within the frame.
    """
    return _frames_from(doc_id, entities, predicted_relations, schema)


def augment_document(doc: Document, schema: SchemaProfile) -> Document:
    """Replace a document's SAME_FRAME edges with complete per-frame graphs.

    Typed relations are kept verbatim (including relations that take no part in
    frames, such as drug-to-drug coreference); the synthesized SAME_FRAME
    complete graphs are appended, deduplicated by (type, source, target).
    """
    fs = build_frames(doc, schema)
    kept = [r for r in doc.relations if r.rtype != SAME_FRAME]
    seen = {(r.rtype, r.source, r.target) for r in kept}
    counter = 0
    out = list(kept)
    for r in frames_to_relations(fs, include_same_frame=True):
        if r.rtype != SAME_FRAME:
            continue
        triple = (r.rtype, r.source, r.target)
        if triple in seen:
            continue
        seen.add(triple)
        counter += 1
        out.append(Relation(f"SF{counter}", SAME_FRAME, r.source, r.target))
    return Document(doc.doc_id, doc.text, doc.entities, tuple(out))


def frames_to_jsonl(doc: Document, fs: FrameSet) -> list[str]:
    """One JSON object per frame, with resolved entity spans."""
    by_id = doc.entity_index()

    def entity_payload(eid: str) -> dict:
        e = by_id[eid]
        return {"id": e.id, "type": e.etype, "start": e.start, "end": e.end, "text": e.surface}

    lines = []
    for frame in fs.frames:
        payload = {
            "doc_id": fs.doc_id,
            "drug": entity_payload(frame.drug),
            "links": [
                {**entity_payload(attr), "relation": rtype}
                for attr, rtype in frame.links
            ],
        }
        lines.append(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return lines
