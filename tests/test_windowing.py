import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medrex.frames import augment_document
from medrex.schema import CORP_HUS, OTHER_TYPE, SAME_FRAME
from medrex.standoff import Document, Entity, Relation
from medrex.synth import GenConfig, generate_corpus
from medrex.windowing import (
    RelationClassMap,
    TokenTable,
    Vocabulary,
    WindowingError,
    admit_entities,
    align_labels,
    count_unreachable_relations,
    encode_segment,
    make_segments,
    ordered_entity_pairs,
    segment_corpus,
    window_starts,
)

from .conftest import build_pair_targets, scan_align_labels, scan_segments, tokenize


def test_tokenize_empty():
    assert TokenTable.of("") == TokenTable((), (), ())


def test_tokenize_offsets():
    table = TokenTable.of("aspirin 500 mg\n")
    assert list(zip(table.surfaces, table.starts, table.ends)) == [
        ("aspirin", 0, 7), ("500", 8, 11), ("mg", 12, 14), ("\n", 14, 15),
    ]


def test_tokenize_seven_words():
    assert len(TokenTable.of("every 4 weeks from July to October").surfaces) == 7


def test_tokenize_newlines_and_punctuation_split():
    table = TokenTable.of("arrêt.\njusqu'à 10mg")
    assert table.surfaces == ("arrêt", ".", "\n", "jusqu", "'", "à", "10mg")


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="aé b\nc-.'x0", max_size=60))
def test_tokenize_reconstructs_text(text):
    table = TokenTable.of(text)
    assert len(table.surfaces) == len(table.starts) == len(table.ends)
    for prev_end, next_start in zip(table.ends, table.starts[1:]):
        assert prev_end <= next_start
    rebuilt = []
    pos = 0
    for surface, start, end in zip(table.surfaces, table.starts, table.ends):
        rebuilt.append(text[pos:start])
        rebuilt.append(surface)
        assert text[start:end] == surface
        pos = end
    rebuilt.append(text[pos:])
    assert "".join(rebuilt) == text


def _doc_with(text, spans):
    entities = tuple(
        Entity(f"T{i + 1}", etype, start, end, text[start:end])
        for i, (etype, start, end) in enumerate(spans)
    )
    return Document("d", text, entities, ())


def test_single_entity_doc_yields_no_segments():
    doc = _doc_with("aspirin given today", [("Drug", 0, 7)])
    assert make_segments(doc, 300, 150) == []


def test_small_doc_single_window():
    text = ("aspirin 500 mg " * 16).strip()  # 239 chars
    doc = _doc_with(text, [("Drug", 0, 7), ("Dosage", 8, 14)])
    segments = make_segments(doc, 300, 150)
    assert len(segments) == 1
    seg = segments[0]
    assert seg.window_start == 0 and seg.window_end == len(text)
    assert len(seg.tokens) == 48


def test_window_snaps_outward_never_splits_tokens():
    text = "alpha " * 60  # tokens of 5 chars
    doc = _doc_with(text.strip(), [("Drug", 0, 5), ("Dosage", 6, 11), ("Route", 300, 305), ("Date", 306, 311)])
    tokens = tokenize(doc.text)
    for seg in make_segments(doc, 100, 50):
        touched = [t for t in tokens if t.end > seg.window_start and t.start < seg.window_end]
        assert list(seg.tokens) == [t.surface for t in touched]
        for t in touched:
            assert t.start >= seg.window_start and t.end <= seg.window_end


def test_window_starts_examples():
    assert window_starts(250, 300, 150) == [0]
    assert window_starts(1000, 300, 150) == [0, 150, 300, 450, 600, 750]
    with pytest.raises(WindowingError):
        window_starts(100, 300, 0)
    with pytest.raises(WindowingError):
        window_starts(100, 300, 301)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 400), st.integers(1, 400))
def test_every_character_covered_before_filtering(length, window, stride):
    if stride > window:
        stride = window
    starts = window_starts(length, window, stride)
    covered = set()
    for ws in starts:
        covered.update(range(ws, min(ws + window, length)))
    assert covered == set(range(length))


def test_align_labels_basic():
    text = "tocilizumab IV"
    doc = _doc_with(text, [("Drug", 0, 11), ("Route", 12, 14)])
    seg = make_segments(doc, 300, 150)[0]
    labels = align_labels(seg, CORP_HUS)
    # 0 is outside; CORP_HUS types in sorted order from 1: ..., Drug 5, ..., Route 10
    assert labels == (5, 10)
    assert seg.entity_spans == ((0, 0), (1, 1))


def test_align_labels_multi_token_entity():
    text = "every 4 weeks from July"
    doc = _doc_with(text, [("Frequency", 0, 13), ("Date", 19, 23)])
    seg = make_segments(doc, 300, 150)[0]
    labels = align_labels(seg, CORP_HUS)
    freq_id = 8  # CORP_HUS types in sorted order from 1
    assert labels[:3] == (freq_id, freq_id, freq_id)
    assert labels[3] == 0  # "from" stays outside
    assert seg.entity_spans[0] == (0, 2)


def test_align_labels_rejects_overlap():
    seg = make_segments(_doc_with("tocilizumab IV daily", [("Drug", 0, 11), ("Route", 8, 14)]), 300, 150)[0]
    with pytest.raises(WindowingError, match="T1.*T2"):
        align_labels(seg, CORP_HUS)


@pytest.mark.parametrize("text, spans", [
    ("aspirin 10mg daily", [("Dosage", 8, 10), ("Route", 10, 12)]),  # both heads on "10mg"
    ("aspirin 10mg daily", [("Drug", 0, 10), ("Route", 10, 18)]),  # distinct heads, "10mg" shared
])
def test_align_labels_rejects_entities_that_share_a_token(text, spans):
    doc = _doc_with(text, spans)
    seg = make_segments(doc, 300, 150)[0]
    with pytest.raises(WindowingError, match="T1 and T2 share a token"):
        align_labels(seg, CORP_HUS)


_ADMISSION_TEXT = "aspirin 10mg  daily IV"
_ADMISSION_ENTITIES = [
    Entity("T1", "Drug", 0, 7, "aspirin"),
    Entity("T2", "Dosage", 8, 10, "10"),  # shares the token "10mg" with T3
    Entity("T3", "Route", 10, 12, "mg"),
    Entity("T4", "Route", 12, 14, "  "),  # whitespace only: covers no token
    Entity("T5", "Frequency", 14, 19, "daily"),
    Entity("T6", "Frequency", 17, 22, "ly IV"),  # overlaps T5 in "ly"
    Entity("T7", "Route", 20, 22, "IV"),  # overlaps T6 only
    Entity("T8", OTHER_TYPE, 0, 7, "aspirin"),
]


@pytest.mark.parametrize("extra, admitted", [
    ([], ["T1", "T5", "T2", "T7"]),  # of equal lengths the earlier wins: T5 over T6, T2 over T3
    ([Entity("T9", "Drug", 0, 12, "aspirin 10mg")], ["T9", "T5", "T7"]),  # the longest wins
    ([Entity("T10", "Route", 20, 22, "IV")], ["T1", "T5", "T2", "T10"]),  # T7's span: the lower id wins
    ([Entity("T2", "Route", 20, 22, "IV")], ["T1", "T5", "T2", "T7"]),  # a second T2 is left out
])
def test_admit_entities_skips_tokenless_entities_and_keeps_the_longest_then_earliest(extra, admitted):
    entities = _ADMISSION_ENTITIES + extra
    for order in (entities, entities[::-1], random.Random(3).sample(entities, len(entities))):
        assert [e.id for e in admit_entities(TokenTable.of(_ADMISSION_TEXT), order)] == admitted


@st.composite
def _entity_sets(draw):
    text = draw(st.text(st.sampled_from(list("ab1 ,.-\n\t") + ["é", "日"]), min_size=1, max_size=50))
    entities = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, min(len(text), start + 8)))
        etype = draw(st.sampled_from(["Drug", "Route", OTHER_TYPE]))
        entities.append(Entity(f"T{draw(st.integers(1, 4))}", etype, start, end, text[start:end]))
    return text, entities, draw(st.permutations(entities))


@settings(max_examples=300, deadline=None)
@given(_entity_sets())
def test_admit_entities_matches_a_greedy_admission_over_character_and_token_sets(drawn):
    """Against an oracle that compares ids and the sets of characters and of covered tokens directly."""
    text, entities, shuffled = drawn
    tokens = tokenize(text)

    def covered(e):
        return {k for k, t in enumerate(tokens) if t.start < e.end and e.start < t.end}

    def conflict(a, b):
        return a.id == b.id or bool(set(range(a.start, a.end)) & set(range(b.start, b.end)) or covered(a) & covered(b))

    expected = []
    ranked = sorted(
        (e for e in entities if e.etype != OTHER_TYPE and covered(e)),
        key=lambda e: (-(e.end - e.start), e.start, e.id, e.etype, e.surface),
    )
    for e in ranked:
        if not any(conflict(e, kept) for kept in expected):
            expected.append(e)
    assert list(admit_entities(TokenTable.of(text), entities)) == expected
    assert list(admit_entities(TokenTable.of(text), shuffled)) == expected


def _encoded(text, spans, relations):
    doc = Document(
        "d", text,
        tuple(Entity(f"T{i+1}", etype, s, e, text[s:e]) for i, (etype, s, e) in enumerate(spans)),
        tuple(relations),
    )
    seg = make_segments(doc, 300, 150)[0]
    class_map = RelationClassMap(CORP_HUS)
    vocab = Vocabulary.build([doc])
    return encode_segment(seg, vocab, CORP_HUS, doc.relations, class_map), class_map


def test_pair_targets_m2():
    enc, class_map = _encoded(
        "aspirin 500 mg",
        [("Drug", 0, 7), ("Dosage", 8, 14)],
        [Relation("R1", "Refer_to", "T2", "T1")],
    )
    assert len(enc.class_ids) == 2
    typed = [row for row, class_id in enumerate(enc.class_ids) if class_id != 0]
    assert len(typed) == 1
    assert class_map.name_for(enc.class_ids[typed[0]]) == "Refer_to"
    # source entity is the dosage: its head token is index 1
    a, b = ordered_entity_pairs(2)[typed[0]]
    assert (enc.entity_spans[a][0], enc.entity_spans[b][0]) == (1, 0)


def test_pair_targets_m5_counts():
    spans = [("Drug", 0, 2), ("Dosage", 3, 5), ("Route", 6, 8), ("Date", 9, 11), ("Frequency", 12, 14)]
    rels = [
        Relation("R1", "Refer_to", "T2", "T1"),
        Relation("R2", "Refer_to", "T3", "T1"),
        Relation("R3", "Start", "T4", "T1"),
    ]
    enc, _ = _encoded("aa bb cc dd ee", spans, rels)
    assert len(enc.class_ids) == 5 * 4
    assert sum(1 for class_id in enc.class_ids if class_id != 0) == 3


def test_pair_targets_conflicting_relations_error():
    with pytest.raises(WindowingError, match="conflicting"):
        _encoded(
            "aspirin 500 mg",
            [("Drug", 0, 7), ("Dosage", 8, 14)],
            [Relation("R1", "Refer_to", "T2", "T1"), Relation("R2", "Increase", "T2", "T1")],
        )


def test_pair_targets_same_frame_requires_enabled_map():
    text = "aa bb cc"
    doc = Document(
        "d", text,
        (
            Entity("T1", "Drug", 0, 2, "aa"),
            Entity("T2", "Dosage", 3, 5, "bb"),
            Entity("T3", "Route", 6, 8, "cc"),
        ),
        (
            Relation("R1", "Refer_to", "T2", "T1"),
            Relation("R2", "Refer_to", "T3", "T1"),
            Relation("R3", SAME_FRAME, "T2", "T3"),
        ),
    )
    seg = make_segments(doc, 300, 150)[0]
    vocab = Vocabulary.build([doc])
    plain = encode_segment(seg, vocab, CORP_HUS, doc.relations, RelationClassMap(CORP_HUS))
    assert sum(1 for class_id in plain.class_ids if class_id != 0) == 2
    with_sf = encode_segment(seg, vocab, CORP_HUS, doc.relations, RelationClassMap(CORP_HUS, include_same_frame=True))
    assert sum(1 for class_id in with_sf.class_ids if class_id != 0) == 3


@pytest.mark.parametrize("schema_name, window, same_frame", [
    ("corp-hus", 300, False), ("corp-hus", 1000, False), ("corp-hus", 300, True), ("n2c2", 300, False),
])
def test_class_ids_match_the_pair_target_form_on_a_generated_corpus(schema_name, window, same_frame):
    gen = GenConfig(seed=7, doc_count=50, schema_name=schema_name)
    schema = gen.schema()
    docs = [augment_document(d, schema) if same_frame else d for d in generate_corpus(gen)]
    vocab, class_map = Vocabulary.build(docs), RelationClassMap(schema, include_same_frame=same_frame)
    segments, _ = segment_corpus(docs, window, window // 2)
    relations = {d.doc_id: d.relations for d in docs}
    for seg in segments:
        enc = encode_segment(seg, vocab, schema, relations[seg.doc_id], class_map)
        targets = build_pair_targets(seg, relations[seg.doc_id], class_map, enc.entity_spans)
        assert enc.class_ids == tuple(t.class_id for t in targets)
        heads = [first for first, _ in enc.entity_spans]
        assert [(heads[a], heads[b]) for a, b in ordered_entity_pairs(len(heads))] == [(t.i, t.j) for t in targets]


def test_class_map_layout():
    plain = RelationClassMap(CORP_HUS)
    assert plain.name_for(0) == "NULL_REL"
    assert len(plain) == len(CORP_HUS.relation_types) + 1
    assert SAME_FRAME not in plain
    augmented = RelationClassMap(CORP_HUS, include_same_frame=True)
    assert len(augmented) == len(plain) + 1
    assert augmented.name_for(len(augmented) - 1) == SAME_FRAME


def test_vocabulary_build_and_unk():
    doc = _doc_with("aspirin aspirin mg", [])
    vocab = Vocabulary.build([doc])
    assert vocab.tokens[:5] == ["<unk>", "<e1>", "</e1>", "<e2>", "</e2>"]
    assert vocab.id_for("aspirin") == 5  # most frequent after specials
    assert vocab.id_for("jamais-vu") == 0


# --- independent oracle: char-coverage window enumerator -------------------


def _oracle_segments(doc, window, stride):
    tokens = tokenize(doc.text)
    starts = [0]
    while starts[-1] + window < len(doc.text):
        starts.append(starts[-1] + stride)
    result = []
    for ws in starts:
        we = min(ws + window, len(doc.text))
        chars = set(range(ws, we))
        for t in tokens:
            if set(range(t.start, t.end)) & chars:
                chars.update(range(t.start, t.end))
        lo = min(chars) if chars else ws
        hi = max(chars) + 1 if chars else we
        inside = [e for e in doc.entities if e.start >= lo and e.end <= hi]
        if len(inside) >= 2:
            result.append((lo, hi, tuple(e.id for e in sorted(inside, key=lambda e: (e.start, e.end, e.id)))))
    return result


def _oracle_unreachable(doc, oracle_segments):
    unreachable = 0
    for r in doc.relations:
        if not any(r.source in ids and r.target in ids for _, _, ids in oracle_segments):
            unreachable += 1
    return unreachable


def _random_doc(rng):
    words = []
    spans = []
    pos = 0
    for _ in range(rng.randint(5, 120)):
        length = rng.randint(2, 12)
        word = "".join(rng.choice("abcdefé") for _ in range(length))
        words.append(word)
        spans.append((pos, pos + length))
        pos += length + 1
    text = " ".join(words)
    entity_words = sorted(rng.sample(range(len(words)), k=min(len(words), rng.randint(0, 10))))
    etypes = ["Drug", "Dosage", "Route", "Date", "Frequency"]
    entities = tuple(
        Entity(f"T{k+1}", rng.choice(etypes), spans[i][0], spans[i][1], words[i])
        for k, i in enumerate(entity_words)
    )
    relations = []
    if len(entities) >= 2:
        for _ in range(rng.randint(0, 6)):
            a, b = rng.sample(range(len(entities)), 2)
            triple = ("Refer_to", entities[a].id, entities[b].id)
            if any((r.rtype, r.source, r.target) == triple for r in relations):
                continue
            relations.append(Relation(f"R{len(relations)+1}", "Refer_to", entities[a].id, entities[b].id))
    return Document("rand", text, entities, tuple(relations))


def test_segments_match_char_coverage_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        doc = _random_doc(rng)
        window = rng.choice([60, 120, 200, 300])
        stride = rng.choice([window // 2, window])
        segments = make_segments(doc, window, stride)
        got = [(s.window_start, s.window_end, tuple(e.id for e in s.entities)) for s in segments]
        expected = _oracle_segments(doc, window, stride)
        assert got == expected
        assert all(len(ids) >= 2 for _, _, ids in got)
        assert count_unreachable_relations(doc, segments) == _oracle_unreachable(doc, expected)


@st.composite
def _segmentations(draw):
    """Text of words and separators; entities over whole words, plus a few arbitrary spans."""
    pool = ["ab", "1", ",", ".", "é日", "a-b", "x'y", "ßa", "mg"]
    words = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=30))
    separators = draw(st.lists(st.sampled_from([" ", "\n", "\t", "  ", "", "\u00a0", " \n "]),
                               min_size=len(words), max_size=len(words)))
    text, spans = "", []
    for word, separator in zip(words, separators):
        spans.append((len(text), len(text) + len(word)))
        text += word + separator
    chosen = sorted(draw(st.sets(st.integers(0, len(words) - 1), min_size=2, max_size=8)))
    bounds = [(spans[i][0], spans[i][1]) for i in chosen]
    for _ in range(draw(st.integers(0, 2))):  # may hold only whitespace, or share a token
        start = draw(st.integers(0, len(text) - 1))
        bounds.append((start, draw(st.integers(start + 1, min(len(text), start + 6)))))
    entities = tuple(
        Entity(f"T{k + 1}", draw(st.sampled_from(["Drug", "Route", "Dosage", OTHER_TYPE])), lo, hi, text[lo:hi])
        for k, (lo, hi) in enumerate(bounds)
    )
    window = draw(st.integers(1, 60))
    stride = draw(st.integers(1, window))
    max_tokens = draw(st.one_of(st.none(), st.integers(1, 8)))
    return Document("d", text, entities, ()), window, stride, max_tokens


def _encoded_rows(segments, encode):
    """One row per segment up to the first WindowingError, and that error's message."""
    rows = []
    try:
        for seg in segments:
            rows.append(encode(seg))
    except WindowingError as exc:
        return rows, str(exc)
    return rows, None


@settings(max_examples=400, deadline=None)
@given(_segmentations())
def test_segments_and_encodings_match_the_token_scan_oracle(drawn):
    """Windows, pieces, token ids, labels and entity spans equal those of per-window and per-entity token scans."""
    doc, window, stride, max_tokens = drawn
    vocab, class_map = Vocabulary.build([doc]), RelationClassMap(CORP_HUS)

    def encode(seg):
        enc = encode_segment(seg, vocab, CORP_HUS, (), class_map)
        return enc.token_ids, enc.label_ids, enc.entity_spans, len(enc.class_ids)

    def oracle_encode(seg):
        _, _, tokens, entities = seg
        labels, spans = scan_align_labels(tokens, entities, CORP_HUS)
        return tuple(vocab.id_for(t.surface) for t in tokens), labels, spans, len(entities) * (len(entities) - 1)

    segments = make_segments(doc, window, stride, max_tokens)
    oracle = scan_segments(doc, window, stride, max_tokens)
    assert make_segments(doc, window, stride, max_tokens, TokenTable.of(doc.text)) == segments
    assert [(seg.window_start, seg.window_end, seg.tokens, seg.entities) for seg in segments] == [
        (start, end, tuple(t.surface for t in tokens), entities) for start, end, tokens, entities in oracle
    ]
    assert _encoded_rows(segments, encode) == _encoded_rows(oracle, oracle_encode)


def test_segment_corpus_report_and_determinism():
    rng = random.Random(7)
    docs = [_random_doc(rng) for _ in range(20)]
    segs1, report1 = segment_corpus(docs, 120, 60)
    segs2, report2 = segment_corpus(docs, 120, 60)
    assert segs1 == segs2
    assert report1.to_dict() == report2.to_dict()
    assert report1.segments_emitted == len(segs1)
    assert sum(report1.tokens_per_segment.values()) == len(segs1)
    payload = report1.to_dict()
    assert set(payload) == {
        "segments_emitted", "segments_excluded", "unreachable_relations", "tokens_per_segment",
    }


def test_pair_cardinality_identity():
    for m in range(2, 8):
        assert len(ordered_entity_pairs(m)) == m * (m - 1)


def test_a_token_cap_above_every_window_leaves_segments_unchanged():
    rng = random.Random(99)
    for _ in range(40):
        doc = _random_doc(rng)
        window = rng.choice([60, 120, 300])
        stride = rng.choice([window // 2, window])
        segments = make_segments(doc, window, stride)
        longest = max((len(s.tokens) for s in segments), default=1)
        assert make_segments(doc, window, stride, None) == segments
        assert make_segments(doc, window, stride, longest) == segments


def test_windows_over_the_token_cap_are_cut_into_pieces_that_fit():
    rng = random.Random(31)
    split = 0
    for _ in range(60):
        doc = _random_doc(rng)
        window = rng.choice([120, 200, 300])
        cap = rng.choice([3, 6, 11])
        tokens = tokenize(doc.text)
        uncapped = make_segments(doc, window, window // 2)
        for seg in make_segments(doc, window, window // 2, cap):
            assert 0 < len(seg.tokens) <= cap
            touched = [t for t in tokens if t.end > seg.window_start and t.start < seg.window_end]
            assert list(seg.tokens) == [t.surface for t in touched]
            assert len(seg.entities) >= 2
            assert all(e in doc.entities and seg.window_start <= e.start and e.end <= seg.window_end
                       for e in seg.entities)
            if not any(seg == whole for whole in uncapped):
                split += 1
                assert (seg.window_start, seg.window_end) == (touched[0].start, touched[-1].end)
    assert split > 0


def test_a_piece_keeps_the_entities_fully_inside_it():
    text = "aspirine 500 mg , , , , , , doliprane 1 g"
    doc = Document("d", text, (
        Entity("T1", "Drug", 0, 8, "aspirine"),
        Entity("T2", "Dosage", 9, 15, "500 mg"),
        Entity("T3", "Drug", 28, 37, "doliprane"),
        Entity("T4", "Dosage", 38, 41, "1 g"),
    ), ())
    assert len(TokenTable.of(text).surfaces) == 12
    # pieces start at tokens 0, 2, 4, 6 and 8; the one at 6 ends inside "1 g", so it holds T3 alone and is dropped
    segments = make_segments(doc, 300, 150, 5)
    assert [(len(s.tokens), [e.id for e in s.entities]) for s in segments] == [(5, ["T1", "T2"]), (4, ["T3", "T4"])]
    assert (segments[0].window_start, segments[0].window_end) == (0, 19)
    assert (segments[1].window_start, segments[1].window_end) == (26, len(text))
