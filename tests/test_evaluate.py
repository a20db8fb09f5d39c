import itertools
import random

import pytest

from medrex.evaluate import (
    STRICT,
    LENIENT,
    EvaluationError,
    entities_match,
    evaluate,
    format_report,
    frame_exact_match,
    predictions_to_relations,
)
from medrex.model import PredictedRelation
from medrex.schema import CORP_HUS, SAME_FRAME
from medrex.standoff import Document, Entity, Relation

from .conftest import tocilizumab_document


def _entity(eid, etype, start, end):
    return Entity(eid, etype, start, end, "x" * (end - start))


def _doc(doc_id, entities, relations, length=400):
    return Document(doc_id, " " * length, tuple(entities), tuple(relations))


def _gold_predictions(doc):
    by_id = doc.entity_index()
    return [
        PredictedRelation(r.rtype, by_id[r.source], by_id[r.target], 1.0)
        for r in doc.relations
        if r.rtype != SAME_FRAME
    ]


def test_gold_vs_gold_perfect_both_modes():
    doc = tocilizumab_document()
    preds = {doc.doc_id: _gold_predictions(doc)}
    for mode in (STRICT, LENIENT):
        report = evaluate([doc], preds, mode, CORP_HUS)
        assert report.micro.precision == 1.0
        assert report.micro.recall == 1.0
        assert report.micro.f1 == 1.0
        assert not report.micro.undefined_precision


def test_empty_predictions_convention():
    doc = tocilizumab_document()
    report = evaluate([doc], {}, STRICT, CORP_HUS)
    assert report.micro.precision == 0.0
    assert report.micro.recall == 0.0
    assert report.micro.f1 == 0.0
    assert report.micro.undefined_precision
    assert "undefined" in format_report(report)


def test_same_frame_never_scored():
    doc = tocilizumab_document()
    by_id = doc.entity_index()
    same_frame = [
        PredictedRelation(r.rtype, by_id[r.source], by_id[r.target], 1.0)
        for r in doc.relations if r.rtype == SAME_FRAME
    ]
    assert same_frame  # the gold document carries SAME_FRAME edges, and they are predicted too
    report = evaluate([doc], {doc.doc_id: _gold_predictions(doc) + same_frame}, STRICT, CORP_HUS)
    assert SAME_FRAME not in {row.rtype for row in report.rows}
    assert report.micro.support == 6
    assert report.micro.tp == 6 and report.micro.fp == 0


def test_lenient_accepts_overlap_strict_does_not():
    gold_src = _entity("T1", "Dosage", 10, 16)
    gold_tgt = _entity("T2", "Drug", 0, 8)
    doc = _doc("d", [gold_src, gold_tgt], [Relation("R1", "Refer_to", "T1", "T2")])
    shifted_src = _entity("P1", "Dosage", 12, 18)
    pred = PredictedRelation("Refer_to", shifted_src, gold_tgt, 0.9)
    strict = evaluate([doc], {"d": [pred]}, STRICT, CORP_HUS)
    lenient = evaluate([doc], {"d": [pred]}, LENIENT, CORP_HUS)
    assert strict.micro.f1 == 0.0
    assert lenient.micro.f1 == 1.0


def test_type_mismatch_never_matches():
    gold_src = _entity("T1", "Dosage", 10, 16)
    gold_tgt = _entity("T2", "Drug", 0, 8)
    doc = _doc("d", [gold_src, gold_tgt], [Relation("R1", "Refer_to", "T1", "T2")])
    wrong_type = PredictedRelation("Start", gold_src, gold_tgt, 0.9)
    report = evaluate([doc], {"d": [wrong_type]}, LENIENT, CORP_HUS)
    assert report.micro.tp == 0
    assert report.micro.fp == 1
    assert report.micro.fn == 1


def test_entities_match_modes():
    a = _entity("a", "Drug", 0, 5)
    b = _entity("b", "Drug", 3, 8)
    c = _entity("c", "Drug", 5, 8)
    assert entities_match(a, a, STRICT)
    assert not entities_match(a, b, STRICT)
    assert entities_match(a, b, LENIENT)
    assert not entities_match(a, c, LENIENT)  # half-open spans: touching is not overlap
    with pytest.raises(EvaluationError):
        entities_match(a, b, "fuzzy")



def test_evaluate_rejects_an_unknown_mode_before_scoring():
    """With no predictions no candidate pair reaches ``entities_match``; the mode is still checked."""
    with pytest.raises(EvaluationError, match="'bogus'"):
        evaluate([tocilizumab_document()], {}, "bogus", CORP_HUS)

# --- brute-force alignment oracle ------------------------------------------


def _oracle_tp(golds, preds, mode):
    """Maximum matches over all injective prediction-to-gold assignments."""
    best = 0
    gold_indices = range(len(golds))
    for size in range(min(len(golds), len(preds)), -1, -1):
        if size <= best:
            break
        for pred_subset in itertools.combinations(range(len(preds)), size):
            for gold_perm in itertools.permutations(gold_indices, size):
                ok = all(
                    preds[p].rtype == golds[g][0]
                    and entities_match(preds[p].source, golds[g][1], mode)
                    and entities_match(preds[p].target, golds[g][2], mode)
                    for p, g in zip(pred_subset, gold_perm)
                )
                if ok:
                    best = max(best, size)
                    break
            if best == size:
                break
    return best


def _random_instance(rng):
    rtypes = ["Refer_to", "Start", "Stop"]
    etypes = ["Drug", "Dosage", "Date"]
    entities = []
    for k in range(rng.randint(2, 6)):
        start = rng.randint(0, 60)
        entities.append(_entity(f"T{k}", rng.choice(etypes), start, start + rng.randint(2, 8)))
    golds = []
    for _ in range(rng.randint(0, 4)):
        src, tgt = rng.sample(entities, 2)
        golds.append((rng.choice(rtypes), src, tgt))
    doc_rels = []
    seen = set()
    for k, (rtype, src, tgt) in enumerate(golds):
        if (rtype, src.id, tgt.id) in seen:
            continue
        seen.add((rtype, src.id, tgt.id))
        doc_rels.append(Relation(f"R{k}", rtype, src.id, tgt.id))
    golds = [(r.rtype, *map({e.id: e for e in entities}.__getitem__, (r.source, r.target))) for r in doc_rels]

    preds = []
    for rtype, src, tgt in golds:
        roll = rng.random()
        if roll < 0.35:
            preds.append(PredictedRelation(rtype, src, tgt, 1.0))
        elif roll < 0.6:
            jitter = rng.randint(-3, 3)
            moved = Entity("p", src.etype, max(0, src.start + jitter), max(1, src.end + jitter), "x")
            preds.append(PredictedRelation(rtype, moved, tgt, 0.8))
        elif roll < 0.75:
            preds.append(PredictedRelation(rng.choice(rtypes), src, tgt, 0.5))
    for _ in range(rng.randint(0, 2)):
        src, tgt = rng.sample(entities, 2)
        preds.append(PredictedRelation(rng.choice(rtypes), src, tgt, 0.3))
    doc = _doc("d", entities, doc_rels, length=100)
    return doc, preds


def test_evaluate_matches_bruteforce_oracle_on_random_instances():
    rng = random.Random(20240810)
    for _ in range(500):
        doc, preds = _random_instance(rng)
        for mode in (STRICT, LENIENT):
            report = evaluate([doc], {"d": preds}, mode, CORP_HUS)
            by_id = doc.entity_index()
            for row in report.rows:
                golds = [
                    (r.rtype, by_id[r.source], by_id[r.target])
                    for r in doc.relations
                    if r.rtype == row.rtype
                ]
                typed_preds = [p for p in preds if p.rtype == row.rtype]
                expected_tp = _oracle_tp(golds, typed_preds, mode)
                assert row.tp == expected_tp
                assert row.fp == len(typed_preds) - expected_tp
                assert row.fn == len(golds) - expected_tp
            assert report.micro.tp == sum(r.tp for r in report.rows)
            assert report.micro.fp == sum(r.fp for r in report.rows)
            assert report.micro.fn == sum(r.fn for r in report.rows)


def test_strict_f1_never_exceeds_lenient():
    rng = random.Random(7)
    for _ in range(200):
        doc, preds = _random_instance(rng)
        strict = evaluate([doc], {"d": preds}, STRICT, CORP_HUS)
        lenient = evaluate([doc], {"d": preds}, LENIENT, CORP_HUS)
        assert strict.micro.tp <= lenient.micro.tp
        assert strict.micro.f1 <= lenient.micro.f1 + 1e-12


def test_micro_pools_counts_across_types():
    d1 = _doc(
        "a",
        [_entity("T1", "Dosage", 0, 4), _entity("T2", "Drug", 10, 14)],
        [Relation("R1", "Refer_to", "T1", "T2"), Relation("R2", "Start", "T1", "T2")],
    )
    by_id = d1.entity_index()
    preds = {
        "a": [
            PredictedRelation("Refer_to", by_id["T1"], by_id["T2"], 1.0),
            PredictedRelation("Stop", by_id["T1"], by_id["T2"], 1.0),
        ]
    }
    report = evaluate([d1], preds, STRICT, CORP_HUS)
    assert report.micro.tp == 1 and report.micro.fp == 1 and report.micro.fn == 1
    assert report.micro.precision == 0.5 and report.micro.recall == 0.5
    rows = {row.rtype: row for row in report.rows}
    assert rows["Stop"].undefined_precision is False
    assert rows["Start"].undefined_precision is True


def test_frame_exact_match_gold_and_degraded(corp_hus):
    doc = tocilizumab_document()
    by_id = doc.entity_index()
    full = [
        PredictedRelation(r.rtype, by_id[r.source], by_id[r.target], 1.0)
        for r in doc.relations
    ]
    assert frame_exact_match([doc], {doc.doc_id: full}, corp_hus) == 1.0
    typed_only = [p for p in full if p.rtype != SAME_FRAME]
    assert frame_exact_match([doc], {doc.doc_id: typed_only}, corp_hus) == 0.0
    assert frame_exact_match([doc], {doc.doc_id: []}, corp_hus) == 0.0


def test_predictions_to_relations_ids():
    doc = tocilizumab_document()
    preds = _gold_predictions(doc)
    rels = predictions_to_relations(preds)
    assert len(rels) == len(preds)
    assert rels[0].id == "P1"
    assert {(r.rtype, r.source, r.target) for r in rels} == {
        (p.rtype, p.source.id, p.target.id) for p in preds
    }
