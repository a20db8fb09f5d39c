"""BRAT-style standoff annotation: parsing, validation, serialization, corpus IO.

Only T-lines (single-span entities) and R-lines (binary relations) are
supported. Offsets count Unicode code points of the document text as the
file holds it (a CRLF line ending is two), matching what annotation tools
display for multi-byte scripts. A surface is the rest of its ``.ann`` line,
tabs included; a line break in it (LF or CR) is written as a space, per the
usual standoff convention. The in-memory surface is always the exact text slice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .schema import OTHER_TYPE, SAME_FRAME, SchemaProfile


@dataclass(frozen=True)
class Entity:
    id: str
    etype: str
    start: int
    end: int
    surface: str


def entity_json(e: Entity) -> dict:
    """An entity as the JSON reports write it (``relations.jsonl``, ``frames.jsonl``)."""
    return {"id": e.id, "type": e.etype, "start": e.start, "end": e.end, "text": e.surface}


@dataclass(frozen=True)
class Relation:
    id: str
    rtype: str
    source: str  # attribute-side entity id
    target: str  # drug-side entity id


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    entities: tuple[Entity, ...]
    relations: tuple[Relation, ...]

    def entity_index(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}


@dataclass(frozen=True)
class Violation:
    rule: str
    offender: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.offender}: {self.message}"


class StandoffError(ValueError):
    """Unparseable or invalid standoff input."""


def _escape_surface(slice_text: str) -> str:
    # each character at which str.splitlines ends an .ann line becomes a space
    return slice_text.translate(dict.fromkeys(map(ord, "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), " "))


def parse_standoff(
    text: str,
    ann: str,
    schema: SchemaProfile,
    doc_id: str = "doc",
    strict: bool = True,
) -> Document:
    """Parse a ``.txt`` / ``.ann`` pair into a Document.

    Strict mode rejects unknown entity/relation types and any unsupported
    annotation line. Lax mode maps unknown entity types to the ``OTHER``
    catch-all, drops relations of unknown type, and skips unsupported lines.
    Structural errors (bad offsets, surface mismatches, dangling relation
    arguments, a repeated entity id) are rejected in both modes.
    """
    entities: list[Entity] = []
    relations: list[Relation] = []
    seen_ids: set[str] = set()

    for lineno, line in enumerate(ann.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{doc_id}.ann:{lineno}"
        fields = line.split("\t", 2)  # the surface is the rest of the line, tabs included
        marker = fields[0]
        if marker.startswith("T"):
            if len(fields) < 3:
                raise StandoffError(f"{where}: entity line needs id, span, surface columns: {line!r}")
            span_spec = fields[1].split(" ")
            if ";" in fields[1]:
                raise StandoffError(
                    f"{where}: fragmented (discontinuous) spans are not supported for {marker}"
                )
            if len(span_spec) != 3:
                raise StandoffError(f"{where}: expected 'Type start end' for {marker}, got {fields[1]!r}")
            etype, start_s, end_s = span_spec
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:
                raise StandoffError(f"{where}: non-integer offsets for {marker}: {fields[1]!r}") from None
            if not (0 <= start < end <= len(text)):
                raise StandoffError(
                    f"{where}: offsets {start}..{end} of {marker} fall outside the {len(text)}-character text"
                )
            slice_text = text[start:end]
            if _escape_surface(slice_text) != fields[2]:
                raise StandoffError(
                    f"{where}: surface mismatch for {marker}: annotation says {fields[2]!r}, "
                    f"text slice is {slice_text!r}"
                )
            if marker in seen_ids:
                raise StandoffError(f"{where}: entity id {marker} is used twice")
            if etype not in schema.entity_types:
                if strict:
                    raise StandoffError(f"{where}: unknown entity type {etype!r} for {marker}")
                etype = OTHER_TYPE
            entities.append(Entity(marker, etype, start, end, slice_text))
            seen_ids.add(marker)
        elif marker.startswith("R"):
            if len(fields) < 2:
                raise StandoffError(f"{where}: relation line needs id and argument columns: {line!r}")
            arg_spec = fields[1].split(" ")
            if len(arg_spec) != 3:
                raise StandoffError(f"{where}: expected 'Type Arg1:Tx Arg2:Ty' for {marker}, got {fields[1]!r}")
            rtype = arg_spec[0]
            args = {}
            for part in arg_spec[1:]:
                if ":" not in part:
                    raise StandoffError(f"{where}: malformed argument {part!r} for {marker}")
                role, ref = part.split(":", 1)
                args[role] = ref
            if set(args) != {"Arg1", "Arg2"}:
                raise StandoffError(f"{where}: relation {marker} needs exactly Arg1 and Arg2")
            if rtype not in schema.relation_types and rtype != SAME_FRAME:
                if strict:
                    raise StandoffError(f"{where}: unknown relation type {rtype!r} for {marker}")
                continue
            relations.append(Relation(marker, rtype, args["Arg1"], args["Arg2"]))
        else:
            if strict:
                raise StandoffError(
                    f"{where}: unsupported annotation line (only T- and R-lines are handled): {line!r}"
                )
            continue

    for r in relations:
        for ref in (r.source, r.target):
            if ref not in seen_ids:
                raise StandoffError(f"{doc_id}.ann: relation {r.id} references missing entity {ref}")

    doc = Document(doc_id, text, tuple(entities), tuple(relations))
    violations = validate_document(doc, schema) if strict else []
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        raise StandoffError(f"{doc_id}: document fails validation: {summary}")
    return doc


def serialize_standoff(doc: Document) -> tuple[str, str]:
    """Render a document back to a ``(text, ann)`` pair, renumbering ids densely."""
    id_map: dict[str, str] = {}
    lines: list[str] = []
    for n, e in enumerate(doc.entities, start=1):
        new_id = f"T{n}"
        id_map[e.id] = new_id
        lines.append(f"{new_id}\t{e.etype} {e.start} {e.end}\t{_escape_surface(doc.text[e.start:e.end])}")
    for n, r in enumerate(doc.relations, start=1):
        lines.append(f"R{n}\t{r.rtype} Arg1:{id_map[r.source]} Arg2:{id_map[r.target]}")
    ann = "\n".join(lines) + ("\n" if lines else "")
    return doc.text, ann


def validate_document(doc: Document, schema: SchemaProfile) -> list[Violation]:
    """Check every structural invariant; violations are returned, never raised."""
    violations: list[Violation] = []
    seen: dict[str, Entity] = {}
    for e in doc.entities:
        if e.id in seen:
            violations.append(Violation("duplicate-entity-id", e.id, "entity id used twice"))
            continue
        seen[e.id] = e
        if not (0 <= e.start < e.end <= len(doc.text)):
            violations.append(Violation(
                "offset-out-of-bounds", e.id,
                f"span {e.start}..{e.end} outside the {len(doc.text)}-character text",
            ))
            continue
        if doc.text[e.start:e.end] != e.surface:
            violations.append(Violation(
                "surface-mismatch", e.id,
                f"surface {e.surface!r} does not equal text slice {doc.text[e.start:e.end]!r}",
            ))
        if not schema.is_known_entity_type(e.etype):
            violations.append(Violation("unknown-entity-type", e.id, f"type {e.etype!r} not in schema {schema.name}"))

    typed = sorted(
        (e for e in doc.entities if e.etype != OTHER_TYPE and 0 <= e.start < e.end <= len(doc.text)),
        key=lambda e: (e.start, e.end, e.id),
    )
    for prev, nxt in zip(typed, typed[1:]):
        if nxt.start < prev.end:
            violations.append(Violation(
                "overlapping-entities", nxt.id, f"span overlaps entity {prev.id}",
            ))

    seen_rel_ids: set[str] = set()
    seen_triples: set[tuple[str, str, str]] = set()
    for r in doc.relations:
        if r.id in seen_rel_ids:
            violations.append(Violation("duplicate-relation-id", r.id, "relation id used twice"))
        seen_rel_ids.add(r.id)
        if r.source == r.target:
            violations.append(Violation("self-relation", r.id, "source and target are the same entity"))
        for ref in (r.source, r.target):
            if ref not in seen:
                violations.append(Violation("dangling-relation", r.id, f"argument {ref} is not an entity"))
        if r.rtype not in schema.relation_types and r.rtype != SAME_FRAME:
            violations.append(Violation("unknown-relation-type", r.id, f"type {r.rtype!r} not in schema {schema.name}"))
        triple = (r.rtype, r.source, r.target)
        if triple in seen_triples:
            violations.append(Violation("duplicate-relation", r.id, f"triple {triple} annotated twice"))
        seen_triples.add(triple)
    return violations


def _read_utf8(path: str) -> str:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise StandoffError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_corpus_dir(path: str, schema: SchemaProfile, strict: bool = True) -> list[Document]:
    """Each ``.txt`` file's document in file-name order; a ``.txt`` without its ``.ann`` raises FileNotFoundError."""
    txt_files = sorted(f for f in os.listdir(path) if f.endswith(".txt"))
    if not txt_files:
        raise FileNotFoundError(f"no .txt files found in {path}")
    docs = []
    for name in txt_files:
        doc_id = name[:-4]
        text = _read_utf8(os.path.join(path, name))
        ann_path = os.path.join(path, doc_id + ".ann")
        if not os.path.exists(ann_path):
            raise FileNotFoundError(f"missing annotation file for {doc_id}: {ann_path}")
        docs.append(parse_standoff(text, _read_utf8(ann_path), schema, doc_id=doc_id, strict=strict))
    return docs


def write_corpus_dir(docs: list[Document], path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for doc in docs:
        text, ann = serialize_standoff(doc)
        with open(os.path.join(path, f"{doc.doc_id}.txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(os.path.join(path, f"{doc.doc_id}.ann"), "w", encoding="utf-8", newline="") as fh:
            fh.write(ann)
