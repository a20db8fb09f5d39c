import numpy as np
import pytest

from medrex.evaluate import evaluate
from medrex.schema import CORP_HUS, SAME_FRAME
from medrex.standoff import Document, Entity, Relation
from medrex.synth import GenConfig, generate_corpus
from medrex.train import (
    InferenceBundle,
    TrainConfig,
    TrainingError,
    cost_report,
    load_bundle,
    save_bundle,
    train,
)

TINY = dict(d_model=16, encoder_layers=1, encoder_heads=2, label_emb_dim=8,
            fusion_heads=4, relpos_emb_dim=5, hidden_dim=10)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(GenConfig(seed=7, doc_count=8))


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(batch_size=0)
    cfg = TrainConfig(window_chars=200)
    assert cfg.stride_chars == 100


def test_single_segment_single_epoch_is_one_step():
    text = "aspirine 500 mg au coucher"
    doc = Document(
        "d", text,
        (Entity("T1", "Drug", 0, 8, "aspirine"), Entity("T2", "Dosage", 9, 15, "500 mg")),
        (Relation("R1", "Refer_to", "T2", "T1"),),
    )
    result = train([doc], CORP_HUS, TrainConfig(epochs=1, seed=0), model_overrides=TINY)
    assert len(result.run_log) == 1
    assert result.model.encoder_forwards == 1
    assert result.window_report.segments_emitted == 1


def test_no_trainable_segments_is_an_error():
    doc = Document("d", "rien à signaler", (), ())
    with pytest.raises(TrainingError, match="no trainable segments"):
        train([doc], CORP_HUS, TrainConfig(epochs=1))


def test_invalid_corpus_rejected():
    doc = Document("d", "abc", (Entity("T1", "Drug", 0, 9, "abc"),), ())
    with pytest.raises(TrainingError, match="validation"):
        train([doc], CORP_HUS, TrainConfig(epochs=1))


def test_training_is_bit_deterministic(small_corpus):
    cfg = dict(epochs=2, seed=11, batch_size=4, peak_lr=1e-3)
    r1 = train(small_corpus, CORP_HUS, TrainConfig(**cfg), model_overrides=TINY)
    r2 = train(small_corpus, CORP_HUS, TrainConfig(**cfg), model_overrides=TINY)
    for name, p in r1.model.params.items():
        np.testing.assert_array_equal(p.values, r2.model.params[name].values)
    assert [rec["loss"] for rec in r1.run_log] == [rec["loss"] for rec in r2.run_log]
    r3 = train(small_corpus, CORP_HUS, TrainConfig(epochs=2, seed=12, batch_size=4, peak_lr=1e-3),
               model_overrides=TINY)
    assert any(
        not np.array_equal(p.values, r3.model.params[name].values)
        for name, p in r1.model.params.items()
    )


def test_run_log_fields_and_schedule(small_corpus):
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=2, seed=3, batch_size=4),
                   model_overrides=TINY)
    assert [rec["step"] for rec in result.run_log] == list(range(len(result.run_log)))
    assert all(set(rec) == {"step", "lr", "loss", "forwards"} for rec in result.run_log)
    assert result.run_log[0]["lr"] == 0.0
    assert result.run_log[-1]["forwards"] == result.model.encoder_forwards
    assert len(result.epoch_seconds) == 2


def test_frame_augmentation_adds_class_and_targets(small_corpus):
    plain = train(small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=0), model_overrides=TINY)
    augmented = train(
        small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=0, frame_augmentation=True),
        model_overrides=TINY,
    )
    assert len(augmented.class_map) == len(plain.class_map) + 1
    assert SAME_FRAME in augmented.class_map


def test_bundle_roundtrip_and_prediction_consistency(tmp_path, small_corpus):
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=2, seed=5, peak_lr=1e-3),
                   model_overrides=TINY)
    bundle = InferenceBundle(result.model, result.vocab, result.class_map, CORP_HUS,
                             result.train_config.window_chars, result.train_config.stride_chars)
    path = str(tmp_path / "model.ckpt")
    save_bundle(path, result)
    loaded = load_bundle(path)
    assert loaded.schema == CORP_HUS
    assert loaded.vocab.tokens == result.vocab.tokens
    assert loaded.window_chars == result.train_config.window_chars
    for doc in small_corpus[:3]:
        assert loaded.predict(doc) == bundle.predict(doc)


def test_saved_checkpoints_bit_identical(tmp_path, small_corpus):
    cfg = dict(epochs=1, seed=9, peak_lr=1e-3)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_bundle(p1, train(small_corpus, CORP_HUS, TrainConfig(**cfg), model_overrides=TINY))
    save_bundle(p2, train(small_corpus, CORP_HUS, TrainConfig(**cfg), model_overrides=TINY))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_cost_report_counts_exact(small_corpus):
    config = TrainConfig(epochs=1, seed=0, batch_size=4)
    report = cost_report(small_corpus, CORP_HUS, config, model_overrides=TINY)
    assert report.pairwise_forwards == report.pairwise_forwards_analytic == report.segments
    assert report.baseline_forwards == report.baseline_forwards_analytic
    assert report.baseline_forwards > report.pairwise_forwards
    assert report.analytic_ratio > 1.0
    payload = report.to_dict()
    assert payload["measured_ratio"] > 0
    assert payload["analytic_ratio"] == report.analytic_ratio


def test_cost_report_two_entity_segments_ratio_two():
    text = "aspirine 500 mg au coucher"
    docs = [
        Document(
            f"d{i}", text,
            (Entity("T1", "Drug", 0, 8, "aspirine"), Entity("T2", "Dosage", 9, 15, "500 mg")),
            (Relation("R1", "Refer_to", "T2", "T1"),),
        )
        for i in range(4)
    ]
    report = cost_report(docs, CORP_HUS, TrainConfig(epochs=1, seed=0, batch_size=2), model_overrides=TINY)
    assert report.analytic_ratio == 2.0


def test_end_to_end_gold_entities_match_plain_evaluation(small_corpus):
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=3, seed=2, peak_lr=1e-3),
                   model_overrides=TINY)
    bundle = InferenceBundle(result.model, result.vocab, result.class_map, CORP_HUS, 300, 150)
    entities_map = {d.doc_id: list(d.entities) for d in small_corpus}
    provided = bundle.predict_corpus(small_corpus, entities_map)
    reports = {mode: evaluate(small_corpus, provided, mode, CORP_HUS) for mode in ("strict", "lenient")}
    direct = evaluate(small_corpus, bundle.predict_corpus(small_corpus), "strict", CORP_HUS)
    assert reports["strict"].to_dict() == direct.to_dict()
    assert set(provided) == {d.doc_id for d in small_corpus}
    assert reports["lenient"].micro.f1 >= reports["strict"].micro.f1


def test_entity_deletion_never_improves_recall(small_corpus):
    import random

    medium = dict(d_model=32, encoder_layers=1, encoder_heads=2, label_emb_dim=16,
                  fusion_heads=4, relpos_emb_dim=16, hidden_dim=64)
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=60, seed=4, peak_lr=2e-3,
                                                       null_class_weight=0.3),
                   model_overrides=medium)
    bundle = InferenceBundle(result.model, result.vocab, result.class_map, CORP_HUS, 300, 150)
    full = evaluate(small_corpus, bundle.predict_corpus(small_corpus), "strict", CORP_HUS)
    assert full.micro.recall > 0.3  # needs a model that actually predicts something
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        entities_map = {
            d.doc_id: [e for e in d.entities if rng.random() >= 0.1]
            for d in small_corpus
        }
        report = evaluate(small_corpus, bundle.predict_corpus(small_corpus, entities_map), "strict", CORP_HUS)
        assert report.micro.recall <= full.micro.recall + 1e-12


def test_end_to_end_empty_entities_yield_no_predictions(small_corpus):
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=2), model_overrides=TINY)
    bundle = InferenceBundle(result.model, result.vocab, result.class_map, CORP_HUS, 300, 150)
    entities_map = {d.doc_id: [] for d in small_corpus}
    predictions = bundle.predict_corpus(small_corpus, entities_map)
    assert all(not preds for preds in predictions.values())
    report = evaluate(small_corpus, predictions, "strict", CORP_HUS)
    assert report.micro.f1 == 0.0
    assert report.micro.undefined_precision
