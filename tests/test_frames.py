import random

from medrex.frames import (
    Frame,
    FrameSet,
    augment_document,
    build_frames,
    decode_frames,
    frames_to_jsonl,
    with_same_frame,
)
from medrex.schema import SAME_FRAME
from medrex.standoff import Document, Entity, Relation

from .conftest import (
    TOCILIZUMAB_FRAME_MEMBERS,
    frames_to_relations,
    normalize_frameset,
    random_frame_instance,
    tocilizumab_document,
)


def _doc(entities, relations):
    return Document("d", " " * 200, tuple(entities), tuple(relations))


def test_tocilizumab_two_frames(corp_hus):
    doc = tocilizumab_document()
    fs = build_frames(doc, corp_hus)
    assert len(fs.frames) == 2
    members = tuple(frozenset(a for a, _ in f.links) for f in fs.frames)
    assert members == TOCILIZUMAB_FRAME_MEMBERS
    assert fs.multi_frame_drugs() == {"T1"}


def test_drug_without_relations_yields_one_empty_frame(corp_hus):
    doc = _doc([Entity("T1", "Drug", 0, 4, "x")], [])
    fs = build_frames(doc, corp_hus)
    assert fs.frames == (Frame("T1", ()),)


def test_attributes_without_same_frame_form_single_frame(corp_hus):
    entities = [
        Entity("T1", "Drug", 0, 4, "x"),
        Entity("T2", "Dosage", 6, 10, "x"),
        Entity("T3", "Route", 12, 16, "x"),
        Entity("T4", "Date", 18, 22, "x"),
    ]
    relations = [
        Relation("R1", "Refer_to", "T2", "T1"),
        Relation("R2", "Refer_to", "T3", "T1"),
        Relation("R3", "Start", "T4", "T1"),
    ]
    fs = build_frames(_doc(entities, relations), corp_hus)
    assert len(fs.frames) == 1
    assert fs.frames[0].links == (("T2", "Refer_to"), ("T3", "Refer_to"), ("T4", "Start"))


def test_isolated_attribute_becomes_singleton_frame(corp_hus):
    entities = [
        Entity("T1", "Drug", 0, 4, "x"),
        Entity("T2", "Dosage", 6, 10, "x"),
        Entity("T3", "Route", 12, 16, "x"),
        Entity("T4", "Date", 18, 22, "x"),
    ]
    relations = [
        Relation("R1", "Refer_to", "T2", "T1"),
        Relation("R2", "Refer_to", "T3", "T1"),
        Relation("R3", "Refer_to", "T4", "T1"),
        Relation("R4", SAME_FRAME, "T2", "T3"),
    ]
    fs = build_frames(_doc(entities, relations), corp_hus)
    groups = [frozenset(a for a, _ in f.links) for f in fs.frames]
    assert groups == [frozenset({"T2", "T3"}), frozenset({"T4"})]


def test_cross_drug_same_frame_ignored(corp_hus):
    entities = [
        Entity("T1", "Drug", 0, 4, "x"),
        Entity("T2", "Dosage", 6, 10, "x"),
        Entity("T3", "Drug", 12, 16, "x"),
        Entity("T4", "Dosage", 18, 22, "x"),
    ]
    relations = [
        Relation("R1", "Refer_to", "T2", "T1"),
        Relation("R2", "Refer_to", "T4", "T3"),
        Relation("R3", SAME_FRAME, "T2", "T4"),
    ]
    fs = build_frames(_doc(entities, relations), corp_hus)
    assert normalize_frameset(fs) == [
        ("T1", (("T2", "Refer_to"),)),
        ("T3", (("T4", "Refer_to"),)),
    ]


def test_drug_to_drug_relations_stay_outside_frames(corp_hus):
    entities = [
        Entity("T1", "Drug", 0, 4, "x"),
        Entity("T2", "Drug", 6, 10, "x"),
        Entity("T3", "Dosage", 12, 16, "x"),
    ]
    relations = [
        Relation("R1", "Coref", "T2", "T1"),
        Relation("R2", "Refer_to", "T3", "T1"),
    ]
    fs = build_frames(_doc(entities, relations), corp_hus)
    assert normalize_frameset(fs) == [
        ("T1", (("T3", "Refer_to"),)),
        ("T2", ()),
    ]


def test_frames_to_relations_counts():
    fs = FrameSet("d", (Frame("T1", (("T2", "Refer_to"), ("T3", "Refer_to"), ("T4", "Start"))),))
    assert len(frames_to_relations(fs, include_same_frame=False)) == 3
    rels = frames_to_relations(fs, include_same_frame=True)
    assert len(rels) == 3 + 3  # 3 links + C(3,2) same-frame edges
    assert sum(1 for r in rels if r.rtype == SAME_FRAME) == 3


def test_frames_to_relations_two_frame_fixture_counts(corp_hus):
    doc = tocilizumab_document()
    fs = build_frames(doc, corp_hus)
    rels = frames_to_relations(fs, include_same_frame=True)
    typed = [r for r in rels if r.rtype != SAME_FRAME]
    same = [r for r in rels if r.rtype == SAME_FRAME]
    assert len(typed) == 8  # 4 links per frame, shared attributes emitted per frame
    assert len(same) == 12  # 2 * C(4,2)


def test_with_same_frame_dedups_shared_attributes_and_numbers_edges(corp_hus):
    doc = tocilizumab_document()  # conftest builds its SAME_FRAME edges independently
    typed = tuple(r for r in doc.relations if r.rtype != SAME_FRAME)
    stale = Relation("R99", SAME_FRAME, "T3", "T7")
    out = with_same_frame(Document(doc.doc_id, doc.text, doc.entities, typed + (stale,)),
                          build_frames(doc, corp_hus).frames)
    assert out.relations[:len(typed)] == typed
    edges = out.relations[len(typed):]
    assert [r.id for r in edges] == [f"SF{i}" for i in range(1, 12)]  # 2 * C(4,2) less the shared pair
    assert {frozenset((r.source, r.target)) for r in edges} == {
        frozenset((r.source, r.target)) for r in doc.relations if r.rtype == SAME_FRAME
    }
    assert with_same_frame(doc, []).relations == typed


def test_decode_gold_predictions_is_idempotent(corp_hus):
    entities = [
        Entity("T1", "Drug", 0, 4, "x"),
        Entity("T2", "Dosage", 6, 10, "x"),
        Entity("T3", "Route", 12, 16, "x"),
    ]
    relations = [
        Relation("R1", "Refer_to", "T2", "T1"),
        Relation("R2", "Refer_to", "T3", "T1"),
    ]
    doc = _doc(entities, relations)
    gold = build_frames(doc, corp_hus)
    assert normalize_frameset(decode_frames(entities, relations, corp_hus)) == normalize_frameset(gold)


def test_decode_without_same_frame_merges_multi_frame_drug(corp_hus):
    doc = tocilizumab_document()
    typed_only = [r for r in doc.relations if r.rtype != SAME_FRAME]
    fs = decode_frames(list(doc.entities), typed_only, corp_hus)
    assert len(fs.frames) == 1
    assert frozenset(a for a, _ in fs.frames[0].links) == frozenset({"T2", "T3", "T4", "T5", "T6", "T7"})


def test_roundtrip_on_random_framesets(corp_hus):
    rng = random.Random(1234)
    for _ in range(200):
        entities, fs = random_frame_instance(rng)
        rels = frames_to_relations(fs, include_same_frame=True)
        decoded = decode_frames(entities, rels, corp_hus)
        assert normalize_frameset(decoded) == normalize_frameset(fs)


def test_lossy_collapse_without_same_frame(corp_hus):
    rng = random.Random(99)
    for _ in range(100):
        entities, fs = random_frame_instance(rng)
        rels = frames_to_relations(fs, include_same_frame=False)
        decoded = decode_frames(entities, rels, corp_hus)
        merged = {}
        for f in fs.frames:
            merged.setdefault(f.drug, {}).update(dict(f.links))
        expected = sorted((drug, tuple(sorted(links.items()))) for drug, links in merged.items())
        assert normalize_frameset(decoded) == expected


def test_total_links_match_typed_relations(corp_hus):
    doc = tocilizumab_document()
    fs = build_frames(doc, corp_hus)
    total_links = sum(len(f.links) for f in fs.frames)
    typed = {(r.source, r.target) for r in doc.relations if r.rtype != SAME_FRAME}
    # shared attributes appear once per frame they belong to
    assert total_links == 8
    assert len(typed) == 6


def _in_stated_order(fs: FrameSet, entities) -> bool:
    """Drugs in (start, end, id) order; a drug's frames by their attribute sequences in that order."""
    rank = {e.id: i for i, e in enumerate(sorted(entities, key=lambda e: (e.start, e.end, e.id)))}
    keys = [(rank[f.drug], [rank[a] for a, _ in f.links]) for f in fs.frames]
    return all(attrs == sorted(attrs) for _, attrs in keys) and keys == sorted(keys)


def test_decode_deterministic_ordering(corp_hus):
    doc = tocilizumab_document()
    fs1 = decode_frames(list(doc.entities), list(doc.relations), corp_hus)
    fs2 = decode_frames(list(reversed(doc.entities)), list(reversed(doc.relations)), corp_hus)
    assert fs1 == fs2
    assert _in_stated_order(fs1, doc.entities)
    rng = random.Random(1234)
    for _ in range(200):
        entities, fs = random_frame_instance(rng)
        gold = frames_to_relations(fs, include_same_frame=True)
        # the gold encoding, and a random subset whose SAME_FRAME graphs are no longer complete
        for rels in (gold, rng.sample(gold, rng.randint(0, len(gold)))):
            decoded = decode_frames(entities, rels, corp_hus)
            assert _in_stated_order(decoded, entities)
            shuffled_entities, shuffled_rels = rng.sample(entities, len(entities)), rng.sample(rels, len(rels))
            assert decode_frames(shuffled_entities, shuffled_rels, corp_hus) == decoded


def test_augment_document_adds_complete_graphs(corp_hus):
    entities = [
        Entity("T1", "Drug", 0, 4, "x"),
        Entity("T2", "Dosage", 6, 10, "x"),
        Entity("T3", "Route", 12, 16, "x"),
    ]
    relations = [
        Relation("R1", "Refer_to", "T2", "T1"),
        Relation("R2", "Refer_to", "T3", "T1"),
    ]
    doc = augment_document(_doc(entities, relations), corp_hus)
    same = [r for r in doc.relations if r.rtype == SAME_FRAME]
    assert len(same) == 1
    assert {same[0].source, same[0].target} == {"T2", "T3"}
    # idempotent: augmenting again changes nothing
    again = augment_document(doc, corp_hus)
    assert normalize_frameset(build_frames(again, corp_hus)) == normalize_frameset(build_frames(doc, corp_hus))
    assert len([r for r in again.relations if r.rtype == SAME_FRAME]) == 1


def test_augment_tocilizumab_preserves_two_frames(corp_hus):
    doc = augment_document(tocilizumab_document(), corp_hus)
    fs = build_frames(doc, corp_hus)
    assert len(fs.frames) == 2


def test_frames_jsonl_payload(corp_hus):
    doc = tocilizumab_document()
    lines = frames_to_jsonl(doc, build_frames(doc, corp_hus))
    assert len(lines) == 2
    import json

    first = json.loads(lines[0])
    assert first["drug"]["text"] == "tocilizumab"
    assert {link["relation"] for link in first["links"]} == {"Refer_to"}
    assert len(first["links"]) == 4
