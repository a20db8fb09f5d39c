import json

import pytest

from medrex.frames import build_frames, decode_frames
from medrex.schema import CORP_HUS, SAME_FRAME, resolve_profile
from medrex.standoff import read_corpus_dir, serialize_standoff, validate_document
from medrex.stats import corpus_stats
from medrex.cli import main
from medrex.synth import GenConfig, GenerationError, generate_corpus

from .conftest import corpus_split, corpus_stats_dict, frames_to_relations, normalize_frameset


def test_empty_corpus():
    assert generate_corpus(GenConfig(doc_count=0)) == []


def test_config_validation():
    with pytest.raises(GenerationError):
        GenConfig(multi_frame_rate=1.5)
    with pytest.raises(GenerationError):
        GenConfig(sentences_min=5, sentences_max=2)
    with pytest.raises(GenerationError, match="seed must be at least 0, got -1"):
        GenConfig(seed=-1)


def test_every_document_validates_with_exact_offsets():
    for schema_name in ("corp-hus", "n2c2"):
        docs = generate_corpus(GenConfig(seed=13, doc_count=25, schema_name=schema_name))
        schema = resolve_profile(schema_name)
        for doc in docs:
            assert validate_document(doc, schema) == []
            for e in doc.entities:
                assert doc.text[e.start:e.end] == e.surface


def test_determinism_byte_identical():
    docs_a = generate_corpus(GenConfig(seed=21, doc_count=10))
    docs_b = generate_corpus(GenConfig(seed=21, doc_count=10))
    assert [serialize_standoff(d) for d in docs_a] == [serialize_standoff(d) for d in docs_b]
    docs_c = generate_corpus(GenConfig(seed=22, doc_count=10))
    assert [serialize_standoff(d) for d in docs_a] != [serialize_standoff(d) for d in docs_c]


def test_multi_frame_rate_one_gives_two_frames_per_drug():
    docs = generate_corpus(GenConfig(seed=5, doc_count=8, multi_frame_rate=1.0, filler_rate=0.0))
    for doc in docs:
        fs = build_frames(doc, CORP_HUS)
        counts = {}
        for f in fs.frames:
            counts[f.drug] = counts.get(f.drug, 0) + 1
        for e in doc.entities:
            if e.etype in CORP_HUS.drug_types:
                assert counts[e.id] == 2


def test_multi_frame_rate_zero():
    docs = generate_corpus(GenConfig(seed=5, doc_count=30, multi_frame_rate=0.0))
    assert corpus_stats(docs, CORP_HUS).multi_frame_drug_fraction == 0.0
    assert all(r.rtype != SAME_FRAME for d in docs for r in d.relations)


def test_multi_frame_fraction_in_binomial_band():
    docs = generate_corpus(GenConfig(seed=3, doc_count=200, multi_frame_rate=0.04))
    fraction = corpus_stats(docs, CORP_HUS).multi_frame_drug_fraction
    assert 0.01 <= fraction <= 0.08


def test_generic_link_type_dominates():
    docs = generate_corpus(GenConfig(seed=0, doc_count=200))
    stats = corpus_stats(docs, CORP_HUS)
    typed = {k: v for k, v in stats.relation_counts.items() if k != SAME_FRAME}
    assert typed["Refer_to"] / sum(typed.values()) > 0.5


def test_gold_frames_roundtrip_through_relations():
    docs = generate_corpus(GenConfig(seed=9, doc_count=40, multi_frame_rate=0.3))
    saw_multi = False
    for doc in docs:
        fs = build_frames(doc, CORP_HUS)
        saw_multi = saw_multi or bool(fs.multi_frame_drugs())
        rels = frames_to_relations(fs, include_same_frame=True)
        again = decode_frames(list(doc.entities), rels, CORP_HUS)
        assert normalize_frameset(again) == normalize_frameset(fs)
    assert saw_multi


def test_corpus_split_identities():
    docs = generate_corpus(GenConfig(seed=1, doc_count=10))
    train, test = corpus_split(docs, 0.5, seed=4)
    assert len(train) == 5 and len(test) == 5
    assert {d.doc_id for d in train} | {d.doc_id for d in test} == {d.doc_id for d in docs}
    assert not {d.doc_id for d in train} & {d.doc_id for d in test}
    train2, test2 = corpus_split(docs, 0.5, seed=4)
    assert [d.doc_id for d in train2] == [d.doc_id for d in train]
    with pytest.raises(ValueError):
        corpus_split(docs, 1.0, seed=0)


def test_write_corpus_roundtrip_and_manifest(tmp_path):
    cfg = GenConfig(seed=2, doc_count=6)
    docs = generate_corpus(cfg)
    out = str(tmp_path / "corpus")
    assert main(["generate", "--seed", "2", "--docs", "6", "--out", out]) == 0
    again = read_corpus_dir(out, CORP_HUS)
    assert [d.doc_id for d in again] == [d.doc_id for d in docs]
    assert [d.text for d in again] == [d.text for d in docs]
    import json

    manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 2
    assert manifest["config"]["doc_count"] == 6
    assert manifest["stats"]["doc_count"] == 6


def test_stats_counting_and_additivity():
    docs = generate_corpus(GenConfig(seed=6, doc_count=12))
    half_a, half_b = docs[:6], docs[6:]
    combined = corpus_stats(docs, CORP_HUS)
    part_a = corpus_stats(half_a, CORP_HUS)
    part_b = corpus_stats(half_b, CORP_HUS)
    assert combined.doc_count == part_a.doc_count + part_b.doc_count
    assert combined.entity_total == part_a.entity_total + part_b.entity_total
    assert combined.relation_total == part_a.relation_total + part_b.relation_total
    for key in combined.relation_counts:
        assert combined.relation_counts[key] == part_a.relation_counts.get(key, 0) + part_b.relation_counts.get(key, 0)
    assert combined.entity_total == sum(combined.entity_counts.values())
    assert combined.relation_total == sum(combined.relation_counts.values())


@pytest.mark.parametrize("schema_name", ["corp-hus", "n2c2"])
def test_stats_json_matches_the_hand_listed_form_byte_for_byte(schema_name):
    gen = GenConfig(seed=7, doc_count=20, schema_name=schema_name)
    stats = corpus_stats(generate_corpus(gen), gen.schema())
    dumps = dict(ensure_ascii=False, indent=2, sort_keys=True)  # as every stats writer
    assert json.dumps(stats.to_dict(), **dumps) == json.dumps(corpus_stats_dict(stats), **dumps)


def test_stats_simple_tally(corp_hus):
    from medrex.standoff import parse_standoff

    ann = "T1\tDrug 6 13\taspirin\nT2\tRoute 0 5\ttakes\nR1\tRefer_to Arg1:T2 Arg2:T1"
    docs = [
        parse_standoff("takes aspirin", ann, corp_hus, doc_id="a"),
        parse_standoff("takes aspirin", ann, corp_hus, doc_id="b"),
    ]
    stats = corpus_stats(docs, corp_hus)
    assert stats.relation_total == 2
    assert stats.relation_counts == {"Refer_to": 2}
    assert stats.entity_counts == {"Drug": 2, "Route": 2}
    assert stats.multi_frame_drug_fraction == 0.0


def test_accented_characters_survive_file_roundtrip(tmp_path):
    cfg = GenConfig(seed=4, doc_count=4)
    docs = generate_corpus(cfg)
    accented = [e for d in docs for e in d.entities if any(ord(ch) > 127 for ch in e.surface)]
    assert accented, "expected accented entity surfaces to exercise multi-byte offsets"
    out = str(tmp_path / "c")
    assert main(["generate", "--seed", "4", "--docs", "4", "--out", out]) == 0
    again = read_corpus_dir(out, CORP_HUS)
    for doc in again:
        for e in doc.entities:
            assert doc.text[e.start:e.end] == e.surface
