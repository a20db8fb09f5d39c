import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medrex.schema import (
    CORP_HUS,
    N2C2,
    OTHER_TYPE,
    SAME_FRAME,
    SchemaError,
    SchemaProfile,
    UnknownProfileError,
    load_profile,
    resolve_profile,
)
from medrex.standoff import (
    Document,
    Entity,
    Relation,
    StandoffError,
    parse_standoff,
    read_corpus_dir,
    serialize_standoff,
    validate_document,
    write_corpus_dir,
)


def test_parse_single_entity(corp_hus):
    doc = parse_standoff("takes aspirin", "T1\tDrug 6 13\taspirin", corp_hus)
    assert len(doc.entities) == 1
    e = doc.entities[0]
    assert (e.etype, e.start, e.end, e.surface) == ("Drug", 6, 13, "aspirin")
    assert doc.relations == ()


def test_parse_entity_and_relation(corp_hus):
    ann = "T1\tDrug 6 13\taspirin\nT2\tRoute 0 5\ttakes\nR1\tRefer_to Arg1:T2 Arg2:T1"
    doc = parse_standoff("takes aspirin", ann, corp_hus)
    assert len(doc.entities) == 2
    assert len(doc.relations) == 1
    r = doc.relations[0]
    assert (r.rtype, r.source, r.target) == ("Refer_to", "T2", "T1")


def test_parse_offset_out_of_bounds_names_entity(corp_hus):
    with pytest.raises(StandoffError, match="T1"):
        parse_standoff("takes aspirin", "T1\tDrug 6 99\taspirin", corp_hus)


def test_parse_surface_mismatch(corp_hus):
    with pytest.raises(StandoffError, match="surface mismatch"):
        parse_standoff("takes aspirin", "T1\tDrug 6 13\tASPIRIN", corp_hus)


def test_parse_dangling_relation(corp_hus):
    ann = "T1\tDrug 6 13\taspirin\nR1\tRefer_to Arg1:T9 Arg2:T1"
    with pytest.raises(StandoffError, match="T9"):
        parse_standoff("takes aspirin", ann, corp_hus)


def test_parse_unknown_type_strict_vs_lax(corp_hus):
    ann = "T1\tGadget 6 13\taspirin"
    with pytest.raises(StandoffError, match="Gadget"):
        parse_standoff("takes aspirin", ann, corp_hus, strict=True)
    doc = parse_standoff("takes aspirin", ann, corp_hus, strict=False)
    assert doc.entities[0].etype == OTHER_TYPE


def test_parse_lax_drops_unknown_relation_type(corp_hus):
    ann = "T1\tDrug 6 13\taspirin\nT2\tRoute 0 5\ttakes\nR1\tWeird Arg1:T2 Arg2:T1"
    doc = parse_standoff("takes aspirin", ann, corp_hus, strict=False)
    assert doc.relations == ()
    with pytest.raises(StandoffError, match="Weird"):
        parse_standoff("takes aspirin", ann, corp_hus, strict=True)


def test_parse_rejects_fragmented_spans(corp_hus):
    ann = "T1\tDrug 0 5;6 13\ttakes aspirin"
    with pytest.raises(StandoffError, match="fragmented|discontinuous"):
        parse_standoff("takes aspirin", ann, corp_hus)


def test_parse_rejects_event_lines_strict_skips_lax(corp_hus):
    ann = "T1\tDrug 6 13\taspirin\nT2\tRoute 0 5\ttakes\nA1\tNegated T1"
    with pytest.raises(StandoffError, match="unsupported"):
        parse_standoff("takes aspirin", ann, corp_hus, strict=True)
    doc = parse_standoff("takes aspirin", ann, corp_hus, strict=False)
    assert len(doc.entities) == 2


def test_unicode_offsets_count_code_points(corp_hus):
    text = "débuté méthotrexate"
    ann = f"T1\tDrug 7 19\tméthotrexate"
    doc = parse_standoff(text, ann, corp_hus)
    assert doc.entities[0].surface == "méthotrexate"


def test_entity_over_newline_escaped_in_ann(corp_hus):
    text = "a b\nc d"
    doc = Document("d", text, (Entity("T1", "Drug", 2, 5, "b\nc"),), ())
    _, ann = serialize_standoff(doc)
    assert "b c" in ann and "\nc\t" not in ann
    again = parse_standoff(text, ann, corp_hus)
    assert again.entities[0].surface == "b\nc"


def test_entity_over_a_tab_roundtrips(corp_hus):
    """In standoff the surface is the rest of the line, so a tab inside it stays a tab."""
    text = "a b\tc d"
    entity = Entity("T1", "Drug", 2, 5, "b\tc")
    _, ann = serialize_standoff(Document("d", text, (entity,), ()))
    assert ann == "T1\tDrug 2 5\tb\tc\n"
    assert parse_standoff(text, ann, corp_hus).entities == (entity,)


@pytest.mark.parametrize("boundary", list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_entity_over_a_line_boundary_roundtrips_through_a_corpus_dir(boundary, tmp_path, corp_hus):
    """Each character that ends a line for str.splitlines is written as a space in the surface."""
    assert len(f"b{boundary}c".splitlines()) == 2
    text = f"a b{boundary}c d"
    entities = (Entity("T1", "Drug", 2, 5, f"b{boundary}c"), Entity("T2", "Route", 6, 7, "d"))
    write_corpus_dir([Document("d", text, entities, ())], str(tmp_path))
    assert (tmp_path / "d.ann").read_text(encoding="utf-8") == "T1\tDrug 2 5\tb c\nT2\tRoute 6 7\td\n"
    (doc,) = read_corpus_dir(str(tmp_path), corp_hus)
    assert doc.text == text and doc.entities == entities


def test_crlf_text_roundtrips_through_a_corpus_dir_with_offsets_over_its_characters(tmp_path, corp_hus):
    text = "a b\r\nc d\r\n"
    entities = (Entity("T1", "Drug", 2, 6, "b\r\nc"), Entity("T2", "Route", 7, 8, "d"))
    write_corpus_dir([Document("d", text, entities, ())], str(tmp_path))
    assert (tmp_path / "d.txt").read_bytes() == text.encode("utf-8")
    assert (tmp_path / "d.ann").read_bytes() == b"T1\tDrug 2 6\tb  c\nT2\tRoute 7 8\td\n"
    (doc,) = read_corpus_dir(str(tmp_path), corp_hus)
    assert doc.text == text and doc.entities == entities


def test_serialize_empty_document(corp_hus):
    text, ann = serialize_standoff(Document("d", "plain text", (), ()))
    assert text == "plain text"
    assert ann == ""


def test_serialize_renumbers_ids(corp_hus):
    doc = Document(
        "d", "takes aspirin",
        (Entity("T7", "Route", 0, 5, "takes"), Entity("T3", "Drug", 6, 13, "aspirin")),
        (Relation("R9", "Refer_to", "T7", "T3"),),
    )
    _, ann = serialize_standoff(doc)
    assert ann.splitlines() == [
        "T1\tRoute 0 5\ttakes",
        "T2\tDrug 6 13\taspirin",
        "R1\tRefer_to Arg1:T1 Arg2:T2",
    ]


def test_same_frame_relations_serialize_like_any_relation(corp_hus):
    doc = Document(
        "d", "a b c",
        (Entity("T1", "Dosage", 0, 1, "a"), Entity("T2", "Route", 2, 3, "b")),
        (Relation("R1", SAME_FRAME, "T1", "T2"),),
    )
    _, ann = serialize_standoff(doc)
    assert "SAME_FRAME Arg1:T1 Arg2:T2" in ann
    again = parse_standoff(doc.text, ann, corp_hus)
    assert again.relations[0].rtype == SAME_FRAME


def test_validate_well_formed(corp_hus):
    doc = parse_standoff("takes aspirin", "T1\tDrug 6 13\taspirin", corp_hus)
    assert validate_document(doc, corp_hus) == []


def test_validate_self_relation(corp_hus):
    doc = Document(
        "d", "takes aspirin",
        (Entity("T1", "Drug", 6, 13, "aspirin"),),
        (Relation("R1", "Refer_to", "T1", "T1"),),
    )
    rules = [v.rule for v in validate_document(doc, corp_hus)]
    assert rules == ["self-relation"]


def test_validate_unknown_entity_type(corp_hus):
    doc = Document("d", "takes aspirin", (Entity("T1", "Foo", 6, 13, "aspirin"),), ())
    rules = [v.rule for v in validate_document(doc, corp_hus)]
    assert rules == ["unknown-entity-type"]


def test_validate_overlap_duplicate_and_bounds(corp_hus):
    doc = Document(
        "d", "takes aspirin",
        (
            Entity("T1", "Drug", 6, 13, "aspirin"),
            Entity("T2", "Route", 10, 13, "rin"),
            Entity("T3", "Date", 5, 99, "x"),
        ),
        (
            Relation("R1", "Refer_to", "T2", "T1"),
            Relation("R2", "Refer_to", "T2", "T1"),
        ),
    )
    rules = {v.rule for v in validate_document(doc, corp_hus)}
    assert rules == {"overlapping-entities", "offset-out-of-bounds", "duplicate-relation"}


def test_corpus_dir_roundtrip(tmp_path, corp_hus):
    doc = parse_standoff(
        "takes aspirin", "T1\tDrug 6 13\taspirin\nT2\tRoute 0 5\ttakes\nR1\tRefer_to Arg1:T2 Arg2:T1",
        corp_hus, doc_id="d0",
    )
    write_corpus_dir([doc], str(tmp_path / "corpus"))
    docs = read_corpus_dir(str(tmp_path / "corpus"), corp_hus)
    assert len(docs) == 1
    assert docs[0].doc_id == "d0"
    assert docs[0].text == doc.text
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        read_corpus_dir(str(tmp_path / "empty"), corp_hus)


def test_builtin_profiles():
    assert resolve_profile("corp-hus") is CORP_HUS
    assert resolve_profile("n2c2") is N2C2
    assert len(CORP_HUS.relation_types) == 14
    assert len(N2C2.relation_types) == 8
    assert "Refer_to" in CORP_HUS.relation_types
    assert "Strength-Drug" in N2C2.relation_types
    assert CORP_HUS.drug_types == {"Drug", "Drug_Class"}
    assert not CORP_HUS.drug_types & CORP_HUS.attribute_types
    with pytest.raises(UnknownProfileError):
        resolve_profile("nope")


def test_same_frame_reserved():
    with pytest.raises(SchemaError, match="SAME_FRAME"):
        SchemaProfile(
            name="bad",
            entity_types=frozenset({"Drug", "Dosage"}),
            relation_types=frozenset({SAME_FRAME}),
            attribute_types=frozenset({"Dosage"}),
            drug_types=frozenset({"Drug"}),
        )


def test_load_custom_profile(tmp_path):
    path = tmp_path / "custom.profile"
    path.write_text(
        "# custom\n"
        "name = mini\n"
        "entity_types = Drug, Dosage, Route\n"
        "relation_types = Refer_to\n"
        "attribute_types = Dosage, Route\n"
        "drug_types = Drug\n",
        encoding="utf-8",
    )
    profile = load_profile(str(path))
    assert profile.name == "mini"
    assert profile.entity_types == {"Drug", "Dosage", "Route"}
    assert resolve_profile(str(path)).name == "mini"
    assert resolve_profile("n2c2") is N2C2
    with pytest.raises(UnknownProfileError):
        resolve_profile("missing-profile")


def test_load_profile_errors(tmp_path):
    path = tmp_path / "broken.profile"
    path.write_text("name = x\nbogus_key = y\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="bogus_key"):
        load_profile(str(path))


_WORDS = ["prise", "de", "méthotrexate", "500", "mg", "orale", "arrêt", "évalué", "jour"]


@st.composite
def documents(draw):
    n_words = draw(st.integers(min_value=1, max_value=14))
    words = [draw(st.sampled_from(_WORDS)) for _ in range(n_words)]
    separators = [draw(st.sampled_from([" ", "\n", " ", " "])) for _ in range(n_words - 1)]
    pieces = []
    spans = []
    pos = 0
    for i, w in enumerate(words):
        spans.append((pos, pos + len(w)))
        pieces.append(w)
        pos += len(w)
        if i < n_words - 1:
            pieces.append(separators[i])
            pos += 1
    text = "".join(pieces)

    etypes = sorted(CORP_HUS.entity_types)
    n_entities = draw(st.integers(min_value=0, max_value=min(6, n_words)))
    chosen = sorted(draw(st.permutations(range(n_words)))[:n_entities])
    entities = tuple(
        Entity(f"T{k + 1}", draw(st.sampled_from(etypes)), spans[i][0], spans[i][1], words[i])
        for k, i in enumerate(chosen)
    )

    relations = []
    rtypes = sorted(CORP_HUS.relation_types) + ["SAME_FRAME"]
    if len(entities) >= 2:
        n_rel = draw(st.integers(min_value=0, max_value=4))
        seen = set()
        for _ in range(n_rel):
            a = draw(st.integers(0, len(entities) - 1))
            b = draw(st.integers(0, len(entities) - 1))
            if a == b:
                continue
            rtype = draw(st.sampled_from(rtypes))
            triple = (rtype, a, b)
            if triple in seen:
                continue
            seen.add(triple)
            relations.append(Relation(f"R{len(relations) + 1}", rtype, entities[a].id, entities[b].id))
    return Document("gen", text, entities, tuple(relations))


def _shape(doc: Document):
    order = {e.id: i for i, e in enumerate(doc.entities)}
    return (
        doc.text,
        [(e.etype, e.start, e.end, e.surface) for e in doc.entities],
        [(r.rtype, order[r.source], order[r.target]) for r in doc.relations],
    )


@settings(max_examples=150, deadline=None)
@given(documents())
def test_roundtrip_parse_serialize_identity_up_to_ids(doc):
    assert validate_document(doc, CORP_HUS) == []
    text, ann = serialize_standoff(doc)
    again = parse_standoff(text, ann, CORP_HUS, doc_id=doc.doc_id, strict=True)
    assert _shape(again) == _shape(doc)
