import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medrex import autograd as ag
from medrex import model as model_module
from medrex.model import (
    BaselinePairModel,
    InferenceBundle,
    ModelConfig,
    ModelError,
    PairwiseREModel,
    grad_check_fixture,
    masked_loss,
)
from medrex.optim import finite_diff_check
from medrex.schema import CORP_HUS
from medrex.standoff import Document, Entity, Relation
from medrex.synth import GenConfig, generate_corpus
from medrex.windowing import (
    EncodedSegment,
    Vocabulary,
    encode_segment,
    ordered_entity_pairs,
    relation_classes,
    segment_corpus,
)

from .conftest import (
    all_rows_logits,
    build_pair_targets,
    concat_pair_logits,
    marker_sequence_by_token_scan,
    pair_target_logits,
    pair_target_loss,
    self_attention_with_two_key_transposes,
    softmax_rows,
    unweighted_masked_loss,
)


def _config(**overrides):
    base = dict(
        vocab_size=30,
        num_entity_types=len(CORP_HUS.entity_types),
        num_classes=5,
        d_model=16,
        encoder_layers=1,
        encoder_heads=2,
        label_emb_dim=8,
        fusion_heads=4,
        relpos_emb_dim=7,
        hidden_dim=12,
        max_rel_dist=16,
        max_positions=64,
        dropout=0.0,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ModelError, match="divisible"):
        _config(d_model=15)
    with pytest.raises(ModelError, match="fusion"):
        _config(label_emb_dim=9)
    with pytest.raises(ModelError, match="num_classes"):
        _config(num_classes=1)
    with pytest.raises(ModelError, match="seed must be at least 0, got -1"):
        _config(seed=-1)
    cfg = _config()
    assert cfg.encoder_ffn_dim == 4 * cfg.d_model
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_encode_single_token_shape():
    model = PairwiseREModel(_config())
    out = model.encode_tokens([5])
    assert out.shape == (1, 16)


def test_encode_rejects_overlong_and_bad_ids():
    model = PairwiseREModel(_config(max_positions=4))
    with pytest.raises(ModelError, match="max_positions"):
        model.encode_tokens([1, 2, 3, 4, 5])
    with pytest.raises(ModelError, match="vocabulary"):
        model.encode_tokens([999])


def test_encoder_is_position_sensitive():
    model = PairwiseREModel(_config())
    a = model.encode_tokens([5, 6, 7]).values
    b = model.encode_tokens([6, 5, 7]).values
    assert not np.allclose(a, b)


def test_eval_mode_deterministic_despite_dropout_config():
    model = PairwiseREModel(_config(dropout=0.3))
    ids = [1, 2, 3, 4]
    first = model.encode_tokens(ids, train=False).values
    second = model.encode_tokens(ids, train=False).values
    np.testing.assert_array_equal(first, second)


def test_fuse_shapes_and_label_sensitivity():
    model = PairwiseREModel(_config())
    contextual = model.encode_tokens([1, 2, 3, 4, 5])
    fused = model.fuse_and_attend(contextual, [0, 0, 0, 0, 0], range(5))
    assert fused.shape == (5, 16 + 8)
    contextual2 = model.encode_tokens([1, 2, 3, 4, 5])
    fused2 = model.fuse_and_attend(contextual2, [0, 0, 2, 0, 0], range(5))
    changed_other_rows = any(
        not np.allclose(fused.values[row], fused2.values[row]) for row in (0, 1, 3, 4)
    )
    assert changed_other_rows  # attention propagates a single label change globally
    with pytest.raises(ModelError, match="label"):
        model.fuse_and_attend(contextual, [0, 0], range(5))


def test_pair_logits_shapes_direction_and_empty():
    model = PairwiseREModel(_config())
    tokens = range(6)
    fused = model.fuse_and_attend(model.encode_tokens([1, 2, 3, 4, 5, 6]), [0, 1, 0, 2, 0, 0], tokens)
    logits = model.pair_logits(fused, tokens, [(0, 3), (3, 0)])
    assert logits.shape == (2, 5)
    assert not np.allclose(logits.values[0], logits.values[1])
    empty = model.pair_logits(fused, tokens, [])
    assert empty.shape == (0, 5)
    with pytest.raises(ModelError, match="distinct"):
        model.pair_logits(fused, tokens, [(2, 2)])
    with pytest.raises(ModelError, match="sequence"):
        model.pair_logits(fused, tokens, [(0, 99)])


def test_relative_distance_clipping_boundary():
    cfg = _config(max_rel_dist=16, max_positions=128)
    model = PairwiseREModel(cfg)
    row = np.random.default_rng(0).standard_normal(cfg.fused_dim)
    fused, tokens = ag.Tensor(np.tile(row, (80, 1))), range(80)
    at_limit = model.pair_logits(fused, tokens, [(0, 16)]).values
    beyond = model.pair_logits(fused, tokens, [(0, 66)]).values
    np.testing.assert_array_equal(at_limit, beyond)
    neg_at_limit = model.pair_logits(fused, tokens, [(16, 0)]).values
    neg_beyond = model.pair_logits(fused, tokens, [(66, 0)]).values
    np.testing.assert_array_equal(neg_at_limit, neg_beyond)
    assert not np.allclose(at_limit, neg_at_limit)


def _heads(segment) -> list[int]:
    """Each entity's head token position, in entity order."""
    return [first for first, _ in segment.entity_spans]


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    assert got.shape == want.shape
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_pair_head_matches_the_concat_form_on_the_grad_check_fixture():
    model, segment = grad_check_fixture(d_model=16, seq=12, n_entities=4, seed=0)
    heads = _heads(segment)
    pairs = ordered_entity_pairs(len(heads))
    weights = ag.Tensor(np.random.default_rng(1).standard_normal((len(pairs), model.config.num_classes)))
    grads = []
    for head in (model.pair_logits, lambda rows, positions, p: concat_pair_logits(model, rows, positions, p)):
        for _, p in model.params.items():
            p.grad = None
        rows = model.fuse_and_attend(model.encode_tokens(segment.token_ids), segment.label_ids, heads)
        logits = head(rows, heads, pairs)
        ag.backward(ag.reduce_mean(ag.mul(logits, weights)))
        grads.append((logits.values, {name: p.grad.copy() for name, p in model.params.items()}))
    (got, got_grads), (want, want_grads) = grads
    assert _relative_gap(got, want) < 1e-12
    # relative to the largest gradient entry: some gradients (the key biases) are zero up to rounding
    scale = max(np.abs(grad).max() for grad in want_grads.values())
    for name, grad in want_grads.items():
        assert np.abs(got_grads[name] - grad).max() < 1e-12 * scale, name


def test_pair_head_matches_the_concat_form_on_a_train_wide_segment():
    gen = GenConfig(seed=7, doc_count=50)
    docs, schema = generate_corpus(gen), gen.schema()
    vocab, class_map = Vocabulary.build(docs), relation_classes(schema, False)
    segments, _ = segment_corpus(docs, 1000, 500)
    widest = max(segments, key=lambda seg: len(seg.entities))
    relations = {d.doc_id: d.relations for d in docs}[widest.doc_id]
    encoded = encode_segment(widest, vocab, schema, relations, class_map)
    model = PairwiseREModel(ModelConfig(
        vocab_size=len(vocab), num_entity_types=len(schema.entity_types), num_classes=len(class_map),
        max_positions=len(encoded.token_ids), dropout=0.0,
    ))
    with ag.no_grad():
        heads = _heads(encoded)
        rows = model.fuse_and_attend(model.encode_tokens(encoded.token_ids), encoded.label_ids, heads)
        pairs = ordered_entity_pairs(len(heads))
        assert len(pairs) >= 500
        assert _relative_gap(model.pair_logits(rows, heads, pairs).values,
                             concat_pair_logits(model, rows, heads, pairs).values) < 1e-12


def test_pair_head_matches_the_concat_form_on_reversed_clipped_and_repeated_pairs():
    cfg = _config(max_rel_dist=16, max_positions=128)
    model = PairwiseREModel(cfg)
    fused, tokens = ag.Tensor(np.random.default_rng(2).standard_normal((80, cfg.fused_dim))), range(80)
    pairs = [(0, 16), (16, 0), (0, 17), (66, 0), (3, 79), (79, 3), (5, 6), (6, 5), (5, 6), (40, 24), (24, 40)]
    got = model.pair_logits(fused, tokens, pairs).values
    assert _relative_gap(got, concat_pair_logits(model, fused, tokens, pairs).values) < 1e-12
    np.testing.assert_array_equal(got[6], got[8])


def test_masked_loss_uniform_and_extreme():
    logits = ag.Tensor(np.zeros((4, 5)))
    loss = masked_loss(logits, [2, 0, 1, 0])
    assert float(loss.values) == pytest.approx(math.log(5.0), abs=1e-12)

    hot = np.full((2, 5), -50.0)
    hot[0, 3] = 50.0
    hot[1, 0] = 50.0
    small = masked_loss(ag.Tensor(hot), [3, 0])
    assert float(small.values) < 1e-8

    with pytest.raises(ModelError, match="at least one"):
        masked_loss(ag.Tensor(np.zeros((0, 5))), [])


def test_masked_loss_null_downweighting():
    logits = ag.Tensor(np.zeros((2, 5)))
    class_ids = [0, 2]
    plain = float(masked_loss(logits, class_ids).values)
    down = float(masked_loss(logits, class_ids, null_class_weight=0.5).values)
    assert down == pytest.approx(0.75 * plain)


def test_class_relabeling_leaves_loss_unchanged():
    rng = np.random.default_rng(1)
    cfg = _config()
    model = PairwiseREModel(cfg)
    ids = [1, 2, 3, 4, 5, 6]
    labels = [0, 1, 0, 2, 0, 3]
    heads = [1, 3, 5]
    pairs, class_ids = [(0, 1), (1, 0), (0, 2), (2, 1)], [2, 0, 4, 1]  # tokens (1, 3), (3, 1), (1, 5), (5, 3)
    fused = model.fuse_and_attend(model.encode_tokens(ids), labels, heads)
    loss = float(masked_loss(model.pair_logits(fused, heads, pairs), class_ids).values)

    perm = rng.permutation(cfg.num_classes)  # class c is renamed perm[c]
    model.params["pair.fc2.w"].values[:] = model.params["pair.fc2.w"].values[:, np.argsort(perm)]
    model.params["pair.fc2.b"].values[:] = model.params["pair.fc2.b"].values[np.argsort(perm)]
    relabeled = [int(perm[c]) for c in class_ids]
    fused2 = model.fuse_and_attend(model.encode_tokens(ids), labels, heads)
    loss2 = float(masked_loss(model.pair_logits(fused2, heads, pairs), relabeled).values)
    assert loss2 == pytest.approx(loss, rel=1e-12)


def test_shape_algebra_for_random_configs():
    rng = random.Random(0)
    for _ in range(10):
        heads = rng.choice([1, 2, 4])
        d_model = heads * rng.choice([4, 8, 12])
        label_dim = rng.choice([4, 8, 16])
        fused = d_model + label_dim
        fusion_heads = rng.choice([h for h in (1, 2, 4) if fused % h == 0])
        cfg = _config(
            d_model=d_model,
            encoder_heads=heads,
            label_emb_dim=label_dim,
            fusion_heads=fusion_heads,
            relpos_emb_dim=rng.choice([5, 7, 11]),
            hidden_dim=rng.choice([6, 10, 14]),
            num_classes=rng.choice([2, 4, 6]),
            encoder_layers=rng.choice([1, 2]),
        )
        model = PairwiseREModel(cfg)
        seq = rng.randint(2, 12)
        ids = [rng.randrange(cfg.vocab_size) for _ in range(seq)]
        labels = [rng.randrange(cfg.num_entity_types + 1) for _ in range(seq)]
        contextual = model.encode_tokens(ids)
        assert contextual.shape == (seq, cfg.d_model)
        fused_out = model.fuse_and_attend(contextual, labels, range(seq))
        assert fused_out.shape == (seq, cfg.fused_dim)
        pairs = [(a, b) for a in range(seq) for b in range(seq) if a != b][: rng.randint(1, 6)]
        logits = model.pair_logits(fused_out, range(seq), pairs)
        assert logits.shape == (len(pairs), cfg.num_classes)


def _toy_segment(cfg, n_tokens=10, n_entities=3, seed=0):
    rng = np.random.default_rng(seed)
    token_ids = tuple(int(x) for x in rng.integers(5, cfg.vocab_size, size=n_tokens))
    head_positions = sorted(rng.choice(n_tokens, size=n_entities, replace=False).tolist())
    label_ids = [0] * n_tokens
    spans = []
    for k, pos in enumerate(head_positions):
        label_ids[pos] = (k % cfg.num_entity_types) + 1
        spans.append((pos, pos))
    class_ids = tuple(
        int(rng.integers(0, cfg.num_classes)) if rng.random() < 0.4 else 0
        for _ in ordered_entity_pairs(n_entities)
    )
    return EncodedSegment(
        token_ids=token_ids, label_ids=tuple(label_ids),
        entities=(), entity_spans=tuple(spans), class_ids=class_ids,
    )


def test_full_model_gradcheck_small():
    cfg = _config(dropout=0.0)
    model = PairwiseREModel(cfg)
    segment = _toy_segment(cfg)

    result = finite_diff_check(
        lambda: masked_loss(model.forward(segment), segment.class_ids),
        model.params,
        samples_per_param=12,
        seed=5,
    )
    assert result.max_rel_error < 1e-4, str(result)


def test_forward_only_materialises_entity_head_pairs(monkeypatch):
    cfg = _config()
    model = PairwiseREModel(cfg)
    segment = _toy_segment(cfg, n_tokens=12, n_entities=3)
    scored = []
    original = model.pair_logits

    def recording(rows, positions, pairs, train=False):
        assert rows.shape[0] == len(positions) == 3
        scored.extend((positions[i], positions[j]) for i, j in pairs)
        return original(rows, positions, pairs, train=train)

    monkeypatch.setattr(model, "pair_logits", recording)
    logits = model.forward(segment)
    assert logits.shape[0] == len(segment.class_ids) == 3 * 2
    heads = {s[0] for s in segment.entity_spans}
    for i, j in scored:
        assert i in heads and j in heads


# The parameter registration order, which fixes each parameter's slice of the
# init stream and the checkpoint layout (one encoder layer).
ENCODER_PARAMETERS = [
    "tok_emb", "pos_emb",
    "enc0.attn.wq", "enc0.attn.wk", "enc0.attn.wv", "enc0.attn.wo",
    "enc0.attn.bq", "enc0.attn.bk", "enc0.attn.bv", "enc0.attn.bo",
    "enc0.ln1.gain", "enc0.ln1.bias",
    "enc0.ffn.fc1.w", "enc0.ffn.fc1.b", "enc0.ffn.fc2.w", "enc0.ffn.fc2.b",
    "enc0.ln2.gain", "enc0.ln2.bias",
]
PAIRWISE_PARAMETERS = ENCODER_PARAMETERS + [
    "label_emb",
    "fuse.attn.wq", "fuse.attn.wk", "fuse.attn.wv", "fuse.attn.wo",
    "fuse.attn.bq", "fuse.attn.bk", "fuse.attn.bv", "fuse.attn.bo",
    "fuse.ln.gain", "fuse.ln.bias",
    "relpos_emb", "pair.fc1.w", "pair.fc1.b", "pair.fc2.w", "pair.fc2.b",
]
BASELINE_PARAMETERS = ENCODER_PARAMETERS + ["clf.w", "clf.b"]


@pytest.mark.parametrize("model_class, names", [
    (PairwiseREModel, PAIRWISE_PARAMETERS),
    (BaselinePairModel, BASELINE_PARAMETERS),
])
def test_parameters_register_in_the_pinned_order_and_draw_the_init_stream_in_it(model_class, names):
    cfg = _config(seed=11)
    store = model_class(cfg).params
    assert [name for name, _ in store.items()] == names
    # replay the seeded init stream in that order: weight matrices draw, biases and gains do not
    rng = np.random.default_rng(cfg.seed)
    for name, p in store.items():
        if name.endswith(".gain"):
            expected = np.ones(p.values.shape)
        elif name.endswith((".b", ".bias", ".bq", ".bk", ".bv", ".bo")):
            expected = np.zeros(p.values.shape)
        else:
            expected = rng.normal(0.0, 0.02, size=p.values.shape)
        assert np.array_equal(p.values, expected), name


def test_baseline_marker_sequence():
    ids = (10, 11, 12, 13, 14)
    out, positions = BaselinePairModel.marker_sequence(ids, (1, 2), (4, 4))
    assert out == [10, 1, 11, 12, 2, 13, 3, 14, 4]
    assert positions == [1, 4, 6, 8]
    out2, positions2 = BaselinePairModel.marker_sequence(ids, (4, 4), (1, 2))
    assert out2 == [10, 3, 11, 12, 4, 13, 1, 14, 2]
    assert positions2 == [6, 8, 1, 4]
    with pytest.raises(ModelError, match="overlap"):
        BaselinePairModel.marker_sequence(ids, (1, 3), (3, 4))


@st.composite
def _marker_cases(draw):
    """A token stream and two token spans that do not overlap, in either order; one-token and adjacent spans included."""
    before, first_len, gap, second_len, after = (draw(st.integers(lo, 4)) for lo in (0, 1, 0, 1, 0))
    first = (before, before + first_len - 1)
    second = (first[1] + 1 + gap, first[1] + gap + second_len)
    ids = tuple(draw(st.lists(st.integers(5, 99), min_size=second[1] + 1 + after, max_size=second[1] + 1 + after)))
    return ids, ((first, second) if draw(st.booleans()) else (second, first))


@settings(max_examples=500, deadline=None)
@given(_marker_cases())
def test_marker_sequence_matches_the_token_scan_oracle(case):
    ids, (source, target) = case
    assert BaselinePairModel.marker_sequence(ids, source, target) == marker_sequence_by_token_scan(ids, source, target)


@pytest.mark.parametrize("source, target", [((1, 3), (3, 4)), ((3, 4), (1, 3)), ((2, 2), (2, 2)), ((0, 4), (2, 2))])
def test_marker_sequence_rejects_overlapping_spans(source, target):
    with pytest.raises(ModelError, match="overlap"):
        BaselinePairModel.marker_sequence((10, 11, 12, 13, 14), source, target)


@pytest.mark.parametrize("model_class", [PairwiseREModel, BaselinePairModel])
def test_a_parameter_numpy_cannot_hold_raises_model_error_naming_it(model_class):
    """2**62 rows of 16 float64 values overflow numpy's size before anything is allocated."""
    with pytest.raises(ModelError, match=rf"'tok_emb' of shape \({1 << 62}, 16\)"):
        model_class(_config(vocab_size=1 << 62))


def test_baseline_forward_counts_per_segment():
    cfg = _config()
    pairwise = PairwiseREModel(cfg)
    baseline = BaselinePairModel(cfg)
    segment = _toy_segment(cfg, n_tokens=10, n_entities=2)
    pairwise.forward(segment)
    assert pairwise.encoder_forwards == 1
    n = 0
    for a in range(2):
        for b in range(2):
            if a != b:
                logits = baseline.forward_pair(segment, a, b)
                assert logits.shape == (1, cfg.num_classes)
                n += 1
    assert baseline.encoder_forwards == n == 2


def _tiny_doc():
    text = "aspirine 500 mg au coucher"
    return Document(
        "mini", text,
        (
            Entity("T1", "Drug", 0, 8, "aspirine"),
            Entity("T2", "Dosage", 9, 15, "500 mg"),
        ),
        (Relation("R1", "Refer_to", "T2", "T1"),),
    )


def test_predict_relations_null_bias_yields_nothing():
    doc = _tiny_doc()
    vocab = Vocabulary.build([doc])
    class_map = relation_classes(CORP_HUS, False)
    cfg = _config(vocab_size=len(vocab), num_classes=len(class_map))
    model = PairwiseREModel(cfg)
    model.params["pair.fc2.b"].values[0] = 100.0
    assert InferenceBundle(model, vocab, class_map, CORP_HUS, 300, 150).predict(doc) == []


def test_predict_relations_stride_invariant_for_short_doc():
    doc = _tiny_doc()
    vocab = Vocabulary.build([doc])
    class_map = relation_classes(CORP_HUS, False)
    cfg = _config(vocab_size=len(vocab), num_classes=len(class_map))
    model = PairwiseREModel(cfg)
    a = InferenceBundle(model, vocab, class_map, CORP_HUS, 300, 150).predict(doc)
    b = InferenceBundle(model, vocab, class_map, CORP_HUS, 300, 300).predict(doc)
    assert a == b


def test_predict_relations_class_map_size_checked():
    doc = _tiny_doc()
    vocab = Vocabulary.build([doc])
    cfg = _config(vocab_size=len(vocab), num_classes=5)
    model = PairwiseREModel(cfg)
    with pytest.raises(ModelError, match="class"):
        InferenceBundle(model, vocab, relation_classes(CORP_HUS, False), CORP_HUS, 300, 150)


def _densest_corpus_segment():
    """A seed-7 corpus's encoded segment with the most entities.

    Returned with its document's relations, the class map and the vocabulary size.
    """
    gen = GenConfig(seed=7, doc_count=6)
    docs, schema = generate_corpus(gen), gen.schema()
    vocab, class_map = Vocabulary.build(docs), relation_classes(schema, False)
    segments, _ = segment_corpus(docs, 300, 150)
    widest = max(segments, key=lambda seg: len(seg.entities))
    relations = {d.doc_id: d.relations for d in docs}[widest.doc_id]
    return encode_segment(widest, vocab, schema, relations, class_map), relations, class_map, len(vocab)


def _densest_segment():
    segment, _, class_map, vocab_size = _densest_corpus_segment()
    return segment, vocab_size, len(class_map)


def _training_step_outputs(
    segment, vocab_size, num_classes, loss_fn, forward=PairwiseREModel.forward, **geometry,
) -> list[np.ndarray]:
    """Logits, loss and every parameter gradient of one training-mode forward (dropout on) and backward."""
    model = PairwiseREModel(_config(
        vocab_size=vocab_size, num_classes=num_classes, max_positions=len(segment.token_ids), dropout=0.1,
        **geometry,
    ))
    logits = forward(model, segment, train=True)
    loss = loss_fn(logits, segment.class_ids)
    outputs = [logits.values.copy(), loss.values.copy()]
    ag.backward(loss)
    return outputs + [p.grad for _, p in model.params.items()]


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_attention_matches_its_two_transpose_form_bit_for_bit(compute, monkeypatch):
    segment, vocab_size, num_classes = _densest_segment()
    with compute():
        got = _training_step_outputs(segment, vocab_size, num_classes, masked_loss)
        monkeypatch.setattr(model_module, "_self_attention", self_attention_with_two_key_transposes)
        want = _training_step_outputs(segment, vocab_size, num_classes, masked_loss)
    _assert_same_bits(got, want)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_masked_loss_at_weight_one_matches_the_unweighted_form_bit_for_bit(compute):
    segment, vocab_size, num_classes = _densest_segment()
    with compute():
        got = _training_step_outputs(segment, vocab_size, num_classes, masked_loss)
        want = _training_step_outputs(segment, vocab_size, num_classes, unweighted_masked_loss)
    _assert_same_bits(got, want)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_class_ids_match_the_pair_target_form_bit_for_bit(compute):
    segment, relations, class_map, vocab_size = _densest_corpus_segment()
    targets = build_pair_targets(segment, relations, class_map, segment.entity_spans)
    assert segment.class_ids == tuple(t.class_id for t in targets) and any(segment.class_ids)
    with compute():
        got = _training_step_outputs(segment, vocab_size, len(class_map), lambda x, c: masked_loss(x, c, 0.3))
        want = _training_step_outputs(
            segment, vocab_size, len(class_map), lambda x, _: pair_target_loss(x, targets, 0.3),
            forward=lambda model, seg, train: pair_target_logits(model, seg, targets, train),
        )
    _assert_same_bits(got, want)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_row_softmax_matches_the_numpy_softmax_bit_for_bit(compute):
    rng = np.random.default_rng(11)
    with compute():
        dtype = ag.compute_dtype()
        for scale in (1e-3, 1.0, 8.0, 60.0):
            values = (rng.standard_normal((40, 9)) * scale).astype(dtype)
            _assert_same_bits([ag.row_softmax(ag.Tensor(values)).values], [softmax_rows(values)])


# the fusion geometry prediction runs with: ModelConfig's d_model, label_emb_dim and fusion_heads
_FUSION_GEOMETRY = dict(d_model=64, encoder_heads=4, label_emb_dim=32, fusion_heads=4)


def _head_segment(rng: np.random.Generator, cfg: ModelConfig, seq: int, heads: list[int]) -> EncodedSegment:
    """A segment of ``seq`` random tokens whose entities have their heads (their only token) at ``heads``."""
    labels = rng.integers(0, cfg.num_entity_types + 1, size=seq)
    labels[heads] = rng.integers(1, cfg.num_entity_types + 1, size=len(heads))
    return EncodedSegment(
        token_ids=tuple(rng.integers(0, cfg.vocab_size, size=seq).tolist()),
        label_ids=tuple(labels.tolist()),
        entities=(),
        entity_spans=tuple((h, h) for h in heads),
        class_ids=tuple(rng.integers(0, cfg.num_classes, size=len(heads) * (len(heads) - 1)).tolist()),
    )


@st.composite
def _head_segments(draw):
    """Up to 180 tokens (the widest w1000 segment of the seed-7 corpus has 178) and 2-40 heads anywhere."""
    seq = draw(st.integers(2, 180))
    heads = draw(st.sets(st.integers(0, seq - 1), min_size=2, max_size=40))
    if draw(st.booleans()):
        heads |= {0, seq - 1}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _head_segment(rng, _config(), seq, sorted(heads))


# the parameters after the fusion attention's weighted sum: the head-row fusion leaves their
# gradients byte-equal to the all-rows oracle's at any geometry
_EXACT_GRADIENTS = ("fuse.attn.wo", "fuse.attn.bo", "fuse.ln.", "pair.", "relpos_emb")


@settings(max_examples=150, deadline=None)
@given(_head_segments())
def test_head_row_attention_matches_the_all_rows_oracle(segment):
    """The head-row fusion against every row attending, then the head rows.

    Float32 byte equality rests on BLAS computing each row of a product the
    same way whatever the other rows; on one BLAS thread, which conftest
    pins, it does at these shapes (see the test below for longer sequences).
    In training the oracle draws the fusion dropout masks over the head rows
    too, and logits and loss stay byte-equal in both precisions. The
    gradients of the fusion attention's q, k and v projections and of every
    parameter before them come from sums over the m query rows, where the
    oracle sums over seq rows with zeros among them. At head_dim 24 those
    agree within rounding, relative to the largest oracle gradient entry.
    Below 32 tokens, training at ``_config``'s head_dim 6 keeps every
    gradient byte-equal too.
    """
    cfg = _config(max_positions=len(segment.token_ids), **_FUSION_GEOMETRY)
    with ag.no_grad():
        with ag.float32_compute():
            model = PairwiseREModel(cfg)
            _assert_same_bits([model.forward(segment).values], [all_rows_logits(model, segment).values])
        model = PairwiseREModel(cfg)
        assert _relative_gap(model.forward(segment).values, all_rows_logits(model, segment).values) < 1e-12
    geometries = [_FUSION_GEOMETRY] + ([{}] if len(segment.token_ids) < 32 else [])
    for geometry in geometries:
        names = [name for name, _ in PairwiseREModel(_config(**geometry)).params.items()]
        for compute, bound in ((contextlib.nullcontext, 1e-12), (ag.float32_compute, 1e-5)):
            with compute():
                got = _training_step_outputs(segment, cfg.vocab_size, cfg.num_classes, masked_loss, **geometry)
                want = _training_step_outputs(segment, cfg.vocab_size, cfg.num_classes, masked_loss,
                                              forward=all_rows_logits, **geometry)
            _assert_same_bits(got[:2], want[:2])
            scale = max(np.abs(grad).max() for grad in want[2:])
            for name, g, w in zip(names, got[2:], want[2:], strict=True):
                if geometry is not _FUSION_GEOMETRY or name.startswith(_EXACT_GRADIENTS):
                    _assert_same_bits([g], [w])
                else:
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert np.abs(g - w).max() < bound * scale


def _long_head_segment() -> tuple[ModelConfig, EncodedSegment]:
    """300 random tokens with 12 heads, at prediction's fusion geometry and no dropout."""
    seq, rng = 300, np.random.default_rng(4)
    cfg = _config(max_positions=seq, **_FUSION_GEOMETRY)
    return cfg, _head_segment(rng, cfg, seq, sorted(rng.choice(seq, size=12, replace=False).tolist()))


@pytest.mark.parametrize("compute, bound", [(contextlib.nullcontext, 1e-12), (ag.float32_compute, 1e-5)])
def test_head_row_attention_stays_within_rounding_of_the_oracle_on_a_long_sequence(compute, bound):
    """At 300 tokens some BLAS builds sum the full [seq, seq] @ [seq, head_dim] product in another order."""
    cfg, segment = _long_head_segment()
    with compute(), ag.no_grad():
        model = PairwiseREModel(cfg)
        assert _relative_gap(model.forward(segment).values, all_rows_logits(model, segment).values) < bound


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_prediction_is_the_training_forward_without_dropout_on_a_long_sequence(compute):
    """Both modes run one fusion computation, so with dropout 0 they agree bit for bit at any length."""
    cfg, segment = _long_head_segment()
    with compute():
        model = PairwiseREModel(cfg)
        trained = model.forward(segment, train=True).values
        with ag.no_grad():
            _assert_same_bits([model.forward(segment).values], [trained])


def test_prediction_attends_from_the_head_rows_only(monkeypatch):
    cfg = _config(dropout=0.1)
    model = PairwiseREModel(cfg)
    segment = _toy_segment(cfg, n_tokens=12, n_entities=3)
    shapes, dropped = [], []
    softmax, dropout = ag.row_softmax, ag.dropout

    def recording_softmax(x):
        shapes.append(x.shape)
        return softmax(x)

    def recording_dropout(x, p, rng=None, training=False):
        dropped.append(x.shape)
        return dropout(x, p, rng, training)

    monkeypatch.setattr(ag, "row_softmax", recording_softmax)
    monkeypatch.setattr(ag, "dropout", recording_dropout)
    model.forward(segment)
    assert shapes == [(cfg.encoder_heads, 12, 12)] * cfg.encoder_layers + [(cfg.fusion_heads, 3, 12)]
    shapes.clear()
    dropped.clear()
    model.forward(segment, train=True)
    assert shapes[-1] == (cfg.fusion_heads, 3, 12)
    # the fusion block's two dropouts come just before the pair head's
    assert dropped[-3:-1] == [(cfg.fusion_heads, 3, 12), (3, cfg.fused_dim)]


def _comma_dense_doc() -> Document:
    """Two drug/dosage pairs 250 commas apart: one 300-character window holds 256 tokens."""
    head, tail = "aspirine 500 mg", "doliprane 1 g"
    text = head + " " + "," * 250 + " " + tail
    start = len(text) - len(tail)
    return Document(
        "dense", text,
        (
            Entity("T1", "Drug", 0, 8, "aspirine"),
            Entity("T2", "Dosage", 9, 15, "500 mg"),
            Entity("T3", "Drug", start, start + 9, "doliprane"),
            Entity("T4", "Dosage", start + 10, start + 13, "1 g"),
        ),
        (),
    )


def test_predict_relations_scores_a_window_denser_than_max_positions_in_pieces():
    doc = _comma_dense_doc()
    vocab = Vocabulary.build([doc])
    class_map = relation_classes(CORP_HUS, False)
    model = PairwiseREModel(_config(vocab_size=len(vocab), num_classes=len(class_map), max_positions=64))
    model.params["pair.fc2.b"].values[1] = 100.0  # every scored pair predicts class 1
    predictions = InferenceBundle(model, vocab, class_map, CORP_HUS, 300, 150).predict(doc)
    # only the pairs that share a 64-token piece are scored; the two drugs lie ~250 tokens apart
    assert {(p.source.id, p.target.id) for p in predictions} == {("T1", "T2"), ("T2", "T1"), ("T3", "T4"), ("T4", "T3")}
    assert all(p.source in doc.entities and p.target in doc.entities for p in predictions)
