import collections
import functools
import json
import os
import random
import struct
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from medrex import autograd as ag
from medrex.checkpoint import CheckpointError
from medrex.evaluate import evaluate
from medrex.model import BaselinePairModel, ModelConfig, PairwiseREModel
from medrex.schema import CORP_HUS, OTHER_TYPE, SAME_FRAME
from medrex.standoff import Document, Entity, Relation
from medrex.synth import GenConfig, generate_corpus
from medrex.train import (
    CostReport,
    InferenceBundle,
    TrainConfig,
    TrainingError,
    TrainResult,
    _baseline_terms,
    _fit,
    _model_config,
    _pairwise_terms,
    _prepare_segments,
    cost_report,
    load_bundle,
    save_bundle,
    train,
)
from medrex.windowing import Vocabulary, WindowReport, ordered_entity_pairs, relation_classes

from .conftest import (
    accumulate_copying_every_first_gradient,
    baseline_batch_loss,
    cost_report_dict,
    pairwise_batch_loss,
    predict_relations,
    whole_batch_fit,
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
    with pytest.raises(TrainingError, match="seed must be at least 0, got -1"):
        TrainConfig(seed=-1)
    cfg = TrainConfig(window_chars=200)
    assert cfg.stride_chars == 100


def _aspirin_doc() -> Document:
    text = "aspirine 500 mg au coucher"
    return Document(
        "d", text,
        (Entity("T1", "Drug", 0, 8, "aspirine"), Entity("T2", "Dosage", 9, 15, "500 mg")),
        (Relation("R1", "Refer_to", "T2", "T1"),),
    )


def test_single_segment_single_epoch_is_one_step():
    result = train([_aspirin_doc()], CORP_HUS, TrainConfig(epochs=1, seed=0), model_overrides=TINY)
    assert len(result.run_log) == 1
    assert result.model.encoder_forwards == 1
    assert result.window_report.segments_emitted == 1


# the op kinds of one pairwise forward at two encoder layers (ModelConfig's default), without dropout
_FORWARD_OPS = collections.Counter(
    add=6, concat=1, gather_rows=4, gelu=3, layer_norm=5, linear=17, matmul=6, mul=3, pair_linear=1,
    reshape=12, row_softmax=3, transpose=12,
)


def test_one_training_segment_and_one_prediction_window_record_pinned_op_kinds(monkeypatch):
    """87 nodes per training segment and 73 forward ops per prediction window, by op kind."""
    ops = collections.Counter()
    original = ag._node

    def counting_node(values, parents, backprop, op):
        ops[op] += 1
        return original(values, parents, backprop, op)

    monkeypatch.setattr(ag, "_node", counting_node)
    overrides = {**TINY, "encoder_layers": 2}
    result = train([_aspirin_doc()], CORP_HUS, TrainConfig(epochs=1, seed=0), model_overrides=overrides)
    # ten dropouts, the loss (cross entropy, class weights, mean) and the loop's 1/n scaling
    assert ops == _FORWARD_OPS + collections.Counter(dropout=10, cross_entropy=1, mul=2, mean=1)
    assert sum(ops.values()) == 87
    ops.clear()
    result.predict(_aspirin_doc())
    # one window's forward, then the softmax over its logits
    assert ops == _FORWARD_OPS + collections.Counter(row_softmax=1)
    assert sum(_FORWARD_OPS.values()) == 73


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
    path = str(tmp_path / "model.ckpt")
    save_bundle(path, result)
    loaded = load_bundle(path)
    assert loaded.schema == CORP_HUS
    assert loaded.vocab.tokens == result.vocab.tokens
    assert loaded.window_chars == result.train_config.window_chars
    for doc in small_corpus[:3]:
        assert loaded.predict(doc) == result.predict(doc)


def test_bundle_predictions_match_the_module_function_form_on_the_seed_7_corpus():
    corpus = generate_corpus(GenConfig(seed=7))
    # the reference training run: the default model predicts relations after four epochs
    result = train(corpus, CORP_HUS, TrainConfig(epochs=4, seed=7, peak_lr=3e-3, null_class_weight=0.3))
    rng = random.Random(7)
    scored = 0
    for doc in corpus:
        provided = [e for e in doc.entities if rng.random() >= 0.2]
        for entities in (None, provided):
            got = result.predict(doc, entities)
            want = predict_relations(result.model, doc, CORP_HUS, result.vocab, result.class_map, 300, 150, entities)
            assert [(p.rtype, p.source.id, p.target.id, p.prob) for p in got] == [
                (p.rtype, p.source.id, p.target.id, p.prob) for p in want]
            scored += len(got)
    assert scored > 0


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


@pytest.mark.parametrize("pairwise_seconds", [0.625, 0.0])
def test_cost_report_json_matches_the_hand_listed_form_byte_for_byte(pairwise_seconds):
    report = CostReport(
        segments=134, epochs=1, pairwise_forwards=134, baseline_forwards=7596, pairwise_forwards_analytic=134,
        baseline_forwards_analytic=7596, pairwise_seconds=pairwise_seconds, baseline_seconds=21.5,
    )
    assert json.dumps(report.to_dict(), indent=2, sort_keys=True) == json.dumps(
        cost_report_dict(report), indent=2, sort_keys=True)


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
    provided = {d.doc_id: result.predict(d, list(d.entities)) for d in small_corpus}
    reports = {mode: evaluate(small_corpus, provided, mode, CORP_HUS) for mode in ("strict", "lenient")}
    direct = evaluate(small_corpus, result.predict_corpus(small_corpus), "strict", CORP_HUS)
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
    full = evaluate(small_corpus, result.predict_corpus(small_corpus), "strict", CORP_HUS)
    assert full.micro.recall > 0.3  # needs a model that actually predicts something
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        predictions = {
            d.doc_id: result.predict(d, [e for e in d.entities if rng.random() >= 0.1])
            for d in small_corpus
        }
        report = evaluate(small_corpus, predictions, "strict", CORP_HUS)
        assert report.micro.recall <= full.micro.recall + 1e-12


def test_end_to_end_empty_entities_yield_no_predictions(small_corpus):
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=2), model_overrides=TINY)
    predictions = {d.doc_id: result.predict(d, []) for d in small_corpus}
    assert all(not preds for preds in predictions.values())
    report = evaluate(small_corpus, predictions, "strict", CORP_HUS)
    assert report.micro.f1 == 0.0
    assert report.micro.undefined_precision


def _record_node_dtypes(monkeypatch) -> set:
    from medrex import autograd as ag

    dtypes = set()
    original = ag._node

    def recording_node(values, parents, backprop, op):
        dtypes.add((op, values.dtype.name))
        return original(values, parents, backprop, op)

    monkeypatch.setattr(ag, "_node", recording_node)
    return dtypes


def test_one_train_step_is_float32_throughout(monkeypatch):
    from medrex import train as train_module

    grads = {}
    original_step = train_module.adam_step

    def recording_step(store, lr):
        grads.update({name: p.grad.dtype for name, p in store.items() if p.grad is not None})
        return original_step(store, lr)

    monkeypatch.setattr(train_module, "adam_step", recording_step)
    nodes = _record_node_dtypes(monkeypatch)
    result = train([_aspirin_doc()], CORP_HUS, TrainConfig(epochs=1, seed=0), model_overrides=TINY)
    store = result.model.params
    assert len(result.run_log) == 1
    assert {p.values.dtype for _, p in store.items()} == {np.dtype(np.float32)}
    assert len(grads) == len(store.params) and set(grads.values()) == {np.dtype(np.float32)}
    moments = list(store._m.values()) + list(store._v.values())
    assert {m.dtype for m in moments} == {np.dtype(np.float32)}
    assert {"matmul", "dropout", "cross_entropy", "mean"} <= {op for op, _ in nodes}
    assert {dtype for _, dtype in nodes} == {"float32"}


def test_predict_relations_logits_are_float32(monkeypatch, small_corpus):
    from medrex.model import PairwiseREModel

    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=0), model_overrides=TINY)
    logits = []
    original = PairwiseREModel.forward

    def recording_forward(self, *args, **kwargs):
        logits.append(original(self, *args, **kwargs))
        return logits[-1]

    monkeypatch.setattr(PairwiseREModel, "forward", recording_forward)
    nodes = _record_node_dtypes(monkeypatch)
    result.predict_corpus(small_corpus[:2])
    assert logits and {t.values.dtype for t in logits} == {np.dtype(np.float32)}
    assert {dtype for _, dtype in nodes} == {"float32"}


def test_grad_check_fixture_computes_in_float64(monkeypatch):
    from medrex.model import grad_check_fixture, masked_loss
    from medrex.optim import finite_diff_check

    model, segment = grad_check_fixture(d_model=16, seq=12, n_entities=3, seed=0)
    assert {p.values.dtype for _, p in model.params.items()} == {np.dtype(np.float64)}
    nodes = _record_node_dtypes(monkeypatch)
    result = finite_diff_check(lambda: masked_loss(model.forward(segment), segment.class_ids),
                               model.params, samples_per_param=2)
    assert result.max_rel_error < 1e-4
    assert {dtype for _, dtype in nodes} == {"float64"}


def test_float32_parameters_survive_a_bundle_roundtrip_bit_exactly(tmp_path, small_corpus):
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=3, peak_lr=1e-3), model_overrides=TINY)
    path = str(tmp_path / "model.ckpt")
    save_bundle(path, result)
    loaded = load_bundle(path)
    for name, p in result.model.params.items():
        q = loaded.model.params[name]
        assert p.values.dtype == q.values.dtype == np.float32
        assert p.values.tobytes() == q.values.tobytes(), name


def _segments_and_model_config(corpus, config):
    encoded, vocab, class_map, _ = _prepare_segments(corpus, CORP_HUS, config)
    return encoded, _model_config(vocab, class_map, CORP_HUS, config, encoded, TINY)


def _fit_state(model, run_log) -> dict:
    """Parameters and Adam moments as bytes, plus the run log: what must match bit for bit."""
    store = model.params
    names = [name for name, _ in store.items()]
    return {
        "params": [store[name].values.tobytes() for name in names],
        "m": [store._m[name].tobytes() for name in names],
        "v": [store._v[name].tobytes() for name in names],
        "run_log": [(rec["step"], rec["lr"], rec["loss"], rec["forwards"]) for rec in run_log],
    }


def _per_term_and_whole_batch(model_class, encoded, model_config, config, oracle_accumulate):
    """Train two fresh models alike: one with ``_fit``, one with the whole-batch oracle loop."""
    terms, batch_loss = {
        PairwiseREModel: (lambda m: _pairwise_terms(m, config), lambda m: pairwise_batch_loss(m, config)),
        BaselinePairModel: (lambda m: _baseline_terms(m, config), lambda m: baseline_batch_loss(m, config)),
    }[model_class]
    with ag.float32_compute():
        model = model_class(model_config)
        run_log, _ = _fit(model, encoded, config, terms(model))
        got = _fit_state(model, run_log)
        oracle = model_class(model_config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ag, "_accumulate", oracle_accumulate)
            want = _fit_state(oracle, whole_batch_fit(oracle, encoded, config, batch_loss(oracle)))
    return got, want


@pytest.mark.parametrize("oracle_accumulate", [
    # the earlier form in full: whole-batch graph and a copy of every first gradient
    accumulate_copying_every_first_gradient,
    # the loop change alone, with the copy elision applied on both sides
    ag._accumulate,
])
def test_per_segment_backward_matches_the_whole_batch_graph_with_a_short_last_batch(small_corpus, oracle_accumulate):
    config = TrainConfig(epochs=2, seed=4, batch_size=3, peak_lr=1e-3, null_class_weight=0.5)
    encoded, model_config = _segments_and_model_config(small_corpus, config)
    assert len(encoded) % config.batch_size != 0
    got, want = _per_term_and_whole_batch(PairwiseREModel, encoded, model_config, config, oracle_accumulate)
    assert got == want


def test_per_segment_backward_matches_the_whole_batch_graph_at_batch_size_one(small_corpus):
    config = TrainConfig(epochs=1, seed=6, batch_size=1, peak_lr=1e-3)
    encoded, model_config = _segments_and_model_config(small_corpus, config)
    got, want = _per_term_and_whole_batch(
        PairwiseREModel, encoded[:8], model_config, config, accumulate_copying_every_first_gradient)
    assert len(got["run_log"]) == 8
    assert got == want


@pytest.mark.parametrize("null_class_weight", [1.0, 0.5])
def test_per_pair_backward_matches_the_whole_batch_graph_for_the_baseline(small_corpus, null_class_weight):
    config = TrainConfig(epochs=1, seed=2, batch_size=2, peak_lr=1e-3, null_class_weight=null_class_weight)
    encoded, model_config = _segments_and_model_config(small_corpus, config)
    got, want = _per_term_and_whole_batch(
        BaselinePairModel, encoded[:3], model_config, config, accumulate_copying_every_first_gradient)
    assert len(got["run_log"]) == 2
    assert got == want


def test_a_baseline_term_weights_a_null_class_pair_as_masked_loss_does(small_corpus):
    config = TrainConfig(epochs=1, seed=5, null_class_weight=0.3)
    encoded, model_config = _segments_and_model_config(small_corpus, config)
    seg = min((s for s in encoded if 0 in s.class_ids and any(s.class_ids)), key=lambda s: len(s.class_ids))
    pairs = ordered_entity_pairs(len(seg.entities))
    with ag.float32_compute():
        # two models from one config draw the same dropout masks, pair by pair
        n_terms, terms = _baseline_terms(BaselinePairModel(model_config), config)([seg])
        got = [term.values for term in terms]
        oracle = BaselinePairModel(model_config)
        unweighted = [
            ag.reduce_mean(ag.cross_entropy(oracle.forward_pair(seg, a, b, train=True), [class_id])).values
            for (a, b), class_id in zip(pairs, seg.class_ids)
        ]
    assert n_terms == len(got) == len(unweighted) == len(pairs)
    for term, plain, class_id in zip(got, unweighted, seg.class_ids):
        weight = np.float32(0.3 if class_id == 0 else 1.0)
        assert term.dtype == plain.dtype == np.float32
        assert term.tobytes() == (plain * weight).tobytes(), class_id
    assert any(term != plain for term, plain in zip(got, unweighted))


@settings(max_examples=8, deadline=None)
@given(batch_size=st.integers(1, 5), order=st.permutations(range(6)), seed=st.integers(0, 3))
def test_per_segment_backward_matches_the_whole_batch_graph_for_any_batching(batch_size, order, seed):
    corpus = generate_corpus(GenConfig(seed=7, doc_count=3))
    config = TrainConfig(epochs=1, seed=seed, batch_size=batch_size, peak_lr=1e-3)
    encoded, model_config = _segments_and_model_config(corpus, config)
    encoded = [encoded[i] for i in order]
    got, want = _per_term_and_whole_batch(PairwiseREModel, encoded, model_config, config, ag._accumulate)
    assert got == want


def test_each_segment_graph_is_freed_before_the_next_segment_forward(monkeypatch, small_corpus):
    from medrex import train as train_module

    previous_logits: list[weakref.ref] = []
    alive_at_next_forward: list[bool] = []
    original_forward = PairwiseREModel.forward

    def spying_forward(self, *args, **kwargs):
        if previous_logits:
            alive_at_next_forward.append(previous_logits[-1]() is not None)
        logits = original_forward(self, *args, **kwargs)
        previous_logits.append(weakref.ref(logits))
        return logits

    grads_at_step: list[bool] = []
    original_step = train_module.adam_step

    def spying_step(store, lr):
        grads_at_step.append(all(p.grad is not None for _, p in store.items()))
        return original_step(store, lr)

    monkeypatch.setattr(PairwiseREModel, "forward", spying_forward)
    monkeypatch.setattr(train_module, "adam_step", spying_step)
    result = train(small_corpus, CORP_HUS, TrainConfig(epochs=1, seed=0, batch_size=4), model_overrides=TINY)
    assert len(alive_at_next_forward) == result.model.encoder_forwards - 1
    assert not any(alive_at_next_forward)
    assert len(grads_at_step) == len(result.run_log) and all(grads_at_step)


def test_n2c2_profile_trains_and_predicts_held_out_documents():
    gen = GenConfig(seed=5, doc_count=16, schema_name="n2c2")
    docs, schema = generate_corpus(gen), gen.schema()
    train_docs, held_out = docs[:10], docs[10:]
    result = train(train_docs, schema, TrainConfig(epochs=2, seed=0, peak_lr=1e-3), model_overrides=TINY)
    assert result.window_report.segments_emitted > 0
    predictions = result.predict_corpus(held_out)
    assert set(predictions) == {doc.doc_id for doc in held_out}
    assert any(predictions.values())
    for doc in held_out:
        for p in predictions[doc.doc_id]:
            assert p.source in doc.entities and p.target in doc.entities
            assert p.rtype in schema.relation_types
    evaluate(held_out, predictions, "strict", schema)


# Dense punctuation, newlines, tabs and multi-byte characters (accented, CJK, an emoji outside the BMP).
_UNTRUSTED_ALPHABET = list("ab1 ,.;:-/()\n\t") + ["é", "ß", "日", "本", "€", "\U0001f48a"]


@functools.cache
def _untrained_bundle() -> InferenceBundle:
    """A randomly initialised small model behind 40-character windows and a 12-token cap."""
    vocab = Vocabulary.build([Document("v", "a b ab 1 , . ; ( é ß 日本", (), ())])
    class_map = relation_classes(CORP_HUS, False)
    config = ModelConfig(vocab_size=len(vocab), num_entity_types=len(CORP_HUS.entity_types),
                         num_classes=len(class_map), max_positions=12, **TINY)
    return InferenceBundle(PairwiseREModel(config), vocab, class_map, CORP_HUS, window_chars=40, stride_chars=20)


@st.composite
def _tagged_texts(draw):
    """Arbitrary text plus typed entity spans with valid offsets and unique ids.

    Spans are drawn freely (they may overlap), or from distinct cut points:
    separated by gaps, or tiling a stretch of text. Spans cut from points are
    disjoint in characters, though two may still share a token.
    """
    text = draw(st.text(st.sampled_from(_UNTRUSTED_ALPHABET), min_size=1, max_size=160))
    n = draw(st.integers(0, min(8, (len(text) + 1) // 2)))
    layout = draw(st.sampled_from(["free", "gapped", "tiled"]))
    if layout == "free":
        spans = []
        for _ in range(n):
            start = draw(st.integers(0, len(text) - 1))
            spans.append((start, draw(st.integers(start + 1, min(len(text), start + 10)))))
    elif layout == "gapped":
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), min_size=2 * n, max_size=2 * n)))
        spans = list(zip(cuts[::2], cuts[1::2]))
    else:
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), min_size=n + 1, max_size=n + 1)))
        spans = list(zip(cuts, cuts[1:]))
    ids = draw(st.permutations(range(1, n + 1)))
    types = sorted(CORP_HUS.entity_types) + [OTHER_TYPE]
    entities = [Entity(f"T{k}", draw(st.sampled_from(types)), s, e, text[s:e]) for k, (s, e) in zip(ids, spans)]
    return text, entities, draw(st.permutations(entities))


@settings(max_examples=200, deadline=None)
@given(_tagged_texts())
def test_predictions_reference_provided_entities_and_ignore_their_order(tagged):
    """ROADMAP item 1: on untrusted input, predict never raises and references only provided entities.

    The predictions are the same for every order of the entity list.
    """
    text, entities, shuffled = tagged
    doc = Document("untrusted", text, (), ())
    outcomes = []
    for order in (entities, shuffled, entities[::-1]):
        predictions = _untrained_bundle().predict(doc, order)
        assert all(p.source in entities and p.target in entities for p in predictions)
        outcomes.append([(p.rtype, p.source, p.target, p.prob) for p in predictions])
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_prediction_skips_a_whitespace_entity_and_one_of_two_that_share_a_token():
    text = "aspirine 10mg  le soir"
    entities = [
        Entity("T1", "Drug", 0, 8, "aspirine"),
        Entity("T2", "Dosage", 9, 11, "10"),
        Entity("T3", "Route", 11, 13, "mg"),  # shares the token "10mg" with T2
        Entity("T4", "Route", 13, 15, "  "),  # covers no token
        Entity("T5", "Frequency", 15, 22, "le soir"),
    ]
    doc = Document("tagged", text, (), ())
    bundle = _untrained_bundle()
    bias = bundle.model.params["pair.fc2.b"].values
    saved = bias.copy()
    bias[1] = 100.0  # every scored pair predicts class 1
    try:
        predictions = bundle.predict(doc, entities)
    finally:
        bias[...] = saved
    # T2 and T3 are equally long and T2 comes first; T4 is skipped
    pairs = {(p.source.id, p.target.id) for p in predictions}
    assert pairs == {(a, b) for a in ("T1", "T2", "T5") for b in ("T1", "T2", "T5") if a != b}


@functools.cache
def _untrained_checkpoint() -> bytes:
    """``_untrained_bundle`` saved as a checkpoint."""
    bundle = _untrained_bundle()
    result = TrainResult(bundle.model, bundle.vocab, bundle.class_map, CORP_HUS, 40, 20,
                         TrainConfig(window_chars=40), WindowReport(), [], [])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_bundle(path, result)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(0, 10**6),
    edit=st.sampled_from(["remove", "rename", "reshape"]),
    name=st.text(max_size=12),
    shape=st.lists(st.integers(0, 2**40), max_size=3),
)
@example(index=0, edit="reshape", name="", shape=[2**32, 2**32])  # an element count past 2**63
@example(index=0, edit="reshape", name="", shape=[0, 2**40, 2**40])  # no elements, too large for numpy
def test_load_bundle_rejects_a_removed_renamed_or_reshaped_parameter(index, edit, name, shape):
    """ROADMAP item 1: any such edit of the header raises CheckpointError; the payloads stay as they are."""
    blob = _untrained_checkpoint()
    (length,) = struct.unpack("<Q", blob[1:9])
    header = json.loads(blob[9:9 + length])
    entry = header["params"][index % len(header["params"])]
    if edit == "remove":
        header["params"].remove(entry)
    elif edit == "rename":
        assume(name != entry["name"])
        entry["name"] = name
    else:
        assume(shape != entry["shape"])
        entry["shape"] = shape
    raw = json.dumps(header).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edited.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob[:1] + struct.pack("<Q", len(raw)) + raw + blob[9 + length:])
        with pytest.raises(CheckpointError):
            load_bundle(path)
