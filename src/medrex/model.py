"""Relation extraction models.

``PairwiseREModel`` classifies every ordered pair of entity heads in a
segment with a single encoder pass: a small trainable transformer produces
contextual token embeddings, a label embedding is concatenated per token,
one extra multi-head self-attention block mixes the fused representation,
and each head pair is classified from (u_i, u_j, relative-position
embedding) through one hidden dense layer. The loss touches only entity-head
pairs; pairs over other tokens are never materialised.

``BaselinePairModel`` is the per-pair comparison system: it re-encodes the
segment once per candidate pair with four marker tokens wrapped around the
two entities, pools the marker positions, and classifies the pooled vector.
Both models share the encoder layout so cost comparisons are like for like.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .optim import ParamStore
from .schema import SchemaProfile
from .standoff import Document, Entity
from .windowing import (
    EncodedSegment,
    PairTarget,
    RelationClassMap,
    Vocabulary,
    encode_segment,
    make_segments,
    ordered_entity_pairs,
)

# Fixed vocabulary slots for the baseline's pair markers (see windowing.SPECIAL_TOKENS).
E1_OPEN_ID, E1_CLOSE_ID, E2_OPEN_ID, E2_CLOSE_ID = 1, 2, 3, 4


class ModelError(ValueError):
    """Invalid model configuration or forward-pass input."""


@dataclass
class ModelConfig:
    vocab_size: int
    num_entity_types: int  # label table rows = num_entity_types + 1 outside label
    num_classes: int  # relation types + null class (+1 when SAME_FRAME is enabled)
    d_model: int = 64
    encoder_layers: int = 2
    encoder_heads: int = 4
    encoder_ffn_dim: int | None = None  # defaults to 4 * d_model
    label_emb_dim: int = 32
    fusion_heads: int = 4
    relpos_emb_dim: int = 75
    hidden_dim: int = 256
    max_rel_dist: int = 128
    max_positions: int = 512
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.encoder_ffn_dim is None:
            self.encoder_ffn_dim = 4 * self.d_model
        positive = (
            "vocab_size", "num_entity_types", "num_classes", "d_model", "encoder_layers",
            "encoder_heads", "encoder_ffn_dim", "label_emb_dim", "fusion_heads",
            "relpos_emb_dim", "hidden_dim", "max_rel_dist", "max_positions",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ModelError("num_classes must be at least 2 (null class plus one relation type)")
        if self.d_model % self.encoder_heads:
            raise ModelError(f"d_model {self.d_model} not divisible by encoder_heads {self.encoder_heads}")
        if (self.d_model + self.label_emb_dim) % self.fusion_heads:
            raise ModelError(
                f"fused width {self.d_model + self.label_emb_dim} not divisible by "
                f"fusion_heads {self.fusion_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def fused_dim(self) -> int:
        return self.d_model + self.label_emb_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        return cls(**payload)


def _init_matrix(store: ParamStore, rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> None:
    store.add(name, rng.normal(0.0, 0.02, size=shape))


def _init_linear(store: ParamStore, rng: np.random.Generator, name: str, n_in: int, n_out: int) -> None:
    _init_matrix(store, rng, f"{name}.w", (n_in, n_out))
    store.add(f"{name}.b", np.zeros(n_out))


def _init_layer_norm(store: ParamStore, name: str, width: int) -> None:
    store.add(f"{name}.gain", np.ones(width))
    store.add(f"{name}.bias", np.zeros(width))


def _init_attention(store: ParamStore, rng: np.random.Generator, name: str, width: int) -> None:
    for part in ("wq", "wk", "wv", "wo"):
        _init_matrix(store, rng, f"{name}.{part}", (width, width))
    for part in ("bq", "bk", "bv", "bo"):
        store.add(f"{name}.{part}", np.zeros(width))


def _self_attention(
    store: ParamStore, name: str, x: ag.Tensor, heads: int,
    dropout_p: float, rng, train: bool,
) -> ag.Tensor:
    seq, width = x.shape
    head_dim = width // heads
    q = ag.add(ag.matmul(x, store[f"{name}.wq"]), store[f"{name}.bq"])
    k = ag.add(ag.matmul(x, store[f"{name}.wk"]), store[f"{name}.bk"])
    v = ag.add(ag.matmul(x, store[f"{name}.wv"]), store[f"{name}.bv"])
    qh = ag.transpose(ag.reshape(q, (seq, heads, head_dim)), (1, 0, 2))
    kh = ag.transpose(ag.reshape(k, (seq, heads, head_dim)), (1, 0, 2))
    vh = ag.transpose(ag.reshape(v, (seq, heads, head_dim)), (1, 0, 2))
    scores = ag.scale(ag.matmul(qh, ag.transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(head_dim))
    weights = ag.dropout(ag.row_softmax(scores), dropout_p, rng, train)
    mixed = ag.matmul(weights, vh)
    merged = ag.reshape(ag.transpose(mixed, (1, 0, 2)), (seq, width))
    return ag.add(ag.matmul(merged, store[f"{name}.wo"]), store[f"{name}.bo"])


class TokenEncoder:
    """Trainable token encoder: embeddings, learned positions, attention blocks.

    Stands in for a pretrained contextual encoder behind the same call shape;
    anything mapping token ids to [seq, d_model] can replace it.
    """

    def __init__(self, store: ParamStore, config: ModelConfig, rng: np.random.Generator):
        self.store = store
        self.config = config
        self.forward_count = 0
        _init_matrix(store, rng, "tok_emb", (config.vocab_size, config.d_model))
        _init_matrix(store, rng, "pos_emb", (config.max_positions, config.d_model))
        for layer in range(config.encoder_layers):
            _init_attention(store, rng, f"enc{layer}.attn", config.d_model)
            _init_layer_norm(store, f"enc{layer}.ln1", config.d_model)
            _init_linear(store, rng, f"enc{layer}.ffn.fc1", config.d_model, config.encoder_ffn_dim)
            _init_linear(store, rng, f"enc{layer}.ffn.fc2", config.encoder_ffn_dim, config.d_model)
            _init_layer_norm(store, f"enc{layer}.ln2", config.d_model)

    def encode(self, token_ids, dropout_rng, train: bool = False) -> ag.Tensor:
        ids = np.asarray(token_ids, dtype=np.intp)
        if ids.ndim != 1 or ids.size == 0:
            raise ModelError(f"token ids must be a non-empty 1-d sequence, got shape {ids.shape}")
        if ids.size > self.config.max_positions:
            raise ModelError(f"sequence of {ids.size} tokens exceeds max_positions {self.config.max_positions}")
        if ids.max() >= self.config.vocab_size or ids.min() < 0:
            raise ModelError("token id outside the configured vocabulary")
        self.forward_count += 1
        store, cfg = self.store, self.config
        p = cfg.dropout
        x = ag.add(ag.gather_rows(store["tok_emb"], ids), ag.gather_rows(store["pos_emb"], np.arange(ids.size)))
        x = ag.dropout(x, p, dropout_rng, train)
        for layer in range(cfg.encoder_layers):
            attn = _self_attention(store, f"enc{layer}.attn", x, cfg.encoder_heads, p, dropout_rng, train)
            x = ag.layer_norm(
                ag.add(x, ag.dropout(attn, p, dropout_rng, train)),
                store[f"enc{layer}.ln1.gain"], store[f"enc{layer}.ln1.bias"],
            )
            hidden = ag.gelu(ag.add(ag.matmul(x, store[f"enc{layer}.ffn.fc1.w"]), store[f"enc{layer}.ffn.fc1.b"]))
            ffn = ag.add(ag.matmul(hidden, store[f"enc{layer}.ffn.fc2.w"]), store[f"enc{layer}.ffn.fc2.b"])
            x = ag.layer_norm(
                ag.add(x, ag.dropout(ffn, p, dropout_rng, train)),
                store[f"enc{layer}.ln2.gain"], store[f"enc{layer}.ln2.bias"],
            )
        return x


class PairwiseREModel:
    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        self.encoder = TokenEncoder(self.params, config, rng)
        _init_matrix(self.params, rng, "label_emb", (config.num_entity_types + 1, config.label_emb_dim))
        _init_attention(self.params, rng, "fuse.attn", config.fused_dim)
        _init_layer_norm(self.params, "fuse.ln", config.fused_dim)
        _init_matrix(self.params, rng, "relpos_emb", (2 * config.max_rel_dist + 1, config.relpos_emb_dim))
        _init_linear(self.params, rng, "pair.fc1", 2 * config.fused_dim + config.relpos_emb_dim, config.hidden_dim)
        _init_linear(self.params, rng, "pair.fc2", config.hidden_dim, config.num_classes)
        self.dropout_rng = np.random.default_rng([config.seed, 1])

    @property
    def encoder_forwards(self) -> int:
        return self.encoder.forward_count

    def encode_tokens(self, token_ids, train: bool = False) -> ag.Tensor:
        return self.encoder.encode(token_ids, self.dropout_rng, train)

    def fuse_and_attend(self, contextual: ag.Tensor, label_ids, train: bool = False) -> ag.Tensor:
        ids = np.asarray(label_ids, dtype=np.intp)
        if ids.shape != (contextual.shape[0],):
            raise ModelError(
                f"expected one label per token: {contextual.shape[0]} tokens, {ids.size} labels"
            )
        if ids.size and (ids.max() > self.config.num_entity_types or ids.min() < 0):
            raise ModelError("label id outside the label embedding table")
        cfg, store = self.config, self.params
        fused = ag.concat([contextual, ag.gather_rows(store["label_emb"], ids)])
        attn = _self_attention(store, "fuse.attn", fused, cfg.fusion_heads, cfg.dropout, self.dropout_rng, train)
        return ag.layer_norm(
            ag.add(fused, ag.dropout(attn, cfg.dropout, self.dropout_rng, train)),
            store["fuse.ln.gain"], store["fuse.ln.bias"],
        )

    def pair_logits(self, fused: ag.Tensor, pairs, train: bool = False) -> ag.Tensor:
        cfg, store = self.config, self.params
        seq = fused.shape[0]
        pair_array = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if pair_array.size:
            if pair_array.min() < 0 or pair_array.max() >= seq:
                raise ModelError(f"pair index outside the {seq}-token sequence")
            if (pair_array[:, 0] == pair_array[:, 1]).any():
                raise ModelError("pairs must combine two distinct token positions")
        i_idx, j_idx = pair_array[:, 0], pair_array[:, 1]
        distance = np.clip(j_idx - i_idx, -cfg.max_rel_dist, cfg.max_rel_dist) + cfg.max_rel_dist
        features = ag.concat([
            ag.gather_rows(fused, i_idx),
            ag.gather_rows(fused, j_idx),
            ag.gather_rows(store["relpos_emb"], distance),
        ])
        hidden = ag.gelu(ag.add(ag.matmul(features, store["pair.fc1.w"]), store["pair.fc1.b"]))
        hidden = ag.dropout(hidden, cfg.dropout, self.dropout_rng, train)
        return ag.add(ag.matmul(hidden, store["pair.fc2.w"]), store["pair.fc2.b"])

    def forward(self, segment: EncodedSegment, train: bool = False) -> ag.Tensor:
        """Logits for every ordered entity-head pair, aligned with segment.targets."""
        contextual = self.encode_tokens(segment.token_ids, train=train)
        fused = self.fuse_and_attend(contextual, segment.label_ids, train=train)
        return self.pair_logits(fused, [(t.i, t.j) for t in segment.targets], train=train)


def masked_loss(
    logits: ag.Tensor,
    targets: tuple[PairTarget, ...] | list[PairTarget],
    null_class_weight: float = 1.0,
) -> ag.Tensor:
    """Mean cross entropy over entity-head pair rows.

    Pairs involving non-entity tokens are never materialised, so no masking
    arithmetic is needed: the rows are the mask. An optional multiplicative
    weight can downweight null-class rows.
    """
    if len(targets) == 0:
        raise ModelError("masked_loss needs at least one pair target (segments carry >= 2 entities)")
    if logits.shape[0] != len(targets):
        raise ModelError(f"{logits.shape[0]} logit rows for {len(targets)} targets")
    class_ids = np.asarray([t.class_id for t in targets], dtype=np.intp)
    losses = ag.cross_entropy(logits, class_ids)
    if null_class_weight != 1.0:
        weights = np.where(class_ids == 0, null_class_weight, 1.0)
        losses = ag.mul(losses, ag.Tensor(weights))
    return ag.reduce_mean(losses)


class BaselinePairModel:
    """Re-encodes the token stream once per candidate pair with entity markers."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        self.encoder = TokenEncoder(self.params, config, rng)
        _init_linear(self.params, rng, "clf", config.d_model, config.num_classes)
        self.dropout_rng = np.random.default_rng([config.seed, 2])
        self._pool = ag.Tensor(np.full((1, 4), 0.25))

    @property
    def encoder_forwards(self) -> int:
        return self.encoder.forward_count

    @staticmethod
    def marker_sequence(
        token_ids: tuple[int, ...],
        source_span: tuple[int, int],
        target_span: tuple[int, int],
    ) -> tuple[list[int], list[int]]:
        """Copy the token stream with markers around the two entity token spans."""
        (a1, a2), (b1, b2) = source_span, target_span
        if not (a2 < b1 or b2 < a1):
            raise ModelError(f"entity token spans {source_span} and {target_span} overlap; markers would nest")
        out: list[int] = []
        positions: dict[int, int] = {}
        for idx, token in enumerate(token_ids):
            if idx == a1:
                positions[E1_OPEN_ID] = len(out)
                out.append(E1_OPEN_ID)
            if idx == b1:
                positions[E2_OPEN_ID] = len(out)
                out.append(E2_OPEN_ID)
            out.append(token)
            if idx == a2:
                positions[E1_CLOSE_ID] = len(out)
                out.append(E1_CLOSE_ID)
            if idx == b2:
                positions[E2_CLOSE_ID] = len(out)
                out.append(E2_CLOSE_ID)
        marker_positions = [positions[m] for m in (E1_OPEN_ID, E1_CLOSE_ID, E2_OPEN_ID, E2_CLOSE_ID)]
        return out, marker_positions

    def forward_pair(
        self,
        segment: EncodedSegment,
        source_index: int,
        target_index: int,
        train: bool = False,
    ) -> ag.Tensor:
        ids, positions = self.marker_sequence(
            segment.token_ids,
            segment.entity_spans[source_index],
            segment.entity_spans[target_index],
        )
        encoded = self.encoder.encode(ids, self.dropout_rng, train)
        pooled = ag.matmul(self._pool, ag.gather_rows(encoded, positions))
        return ag.add(ag.matmul(pooled, self.params["clf.w"]), self.params["clf.b"])


@dataclass(frozen=True)
class PredictedRelation:
    rtype: str
    source: Entity
    target: Entity
    prob: float


def _softmax_rows(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_relations(
    model: PairwiseREModel,
    doc: Document,
    schema: SchemaProfile,
    vocab: Vocabulary,
    class_map: RelationClassMap,
    window_chars: int,
    stride_chars: int,
    entities: list[Entity] | None = None,
) -> list[PredictedRelation]:
    """Argmax relations over every ordered entity-head pair of every window.

    ``entities`` switches the label source: the document's own (gold) entities
    by default, or externally provided ones (upstream tagger output). When
    windows overlap, the same entity pair can be scored several times;
    the candidate with the highest probability wins, earlier windows winning
    ties, and the final entity-level relation list is deduplicated.
    """
    if len(class_map) != model.config.num_classes:
        raise ModelError(
            f"class map has {len(class_map)} classes but the model was built for {model.config.num_classes}"
        )
    entity_list = tuple(entities) if entities is not None else doc.entities
    work_doc = Document(doc.doc_id, doc.text, entity_list, ())
    best: dict[tuple[str, str], tuple[float, str]] = {}
    entity_by_id = {e.id: e for e in entity_list}
    for segment in make_segments(work_doc, window_chars, stride_chars):
        encoded = encode_segment(segment, vocab, schema, (), class_map)
        with ag.no_grad():
            logits = model.forward(encoded, train=False)
        probs = _softmax_rows(logits.values)
        for row, (a, b) in enumerate(ordered_entity_pairs(len(encoded.entities))):
            class_id = int(np.argmax(probs[row]))
            if class_id == 0:
                continue
            key = (encoded.entities[a].id, encoded.entities[b].id)
            prob = float(probs[row, class_id])
            if key not in best or prob > best[key][0]:
                best[key] = (prob, class_map.name_for(class_id))
    predictions = [
        PredictedRelation(rtype, entity_by_id[src], entity_by_id[tgt], prob)
        for (src, tgt), (prob, rtype) in best.items()
    ]
    predictions.sort(key=lambda p: (p.source.start, p.source.end, p.target.start, p.target.end, p.rtype))
    return predictions


def grad_check_fixture(d_model: int, seq: int, n_entities: int, seed: int) -> tuple[PairwiseREModel, EncodedSegment]:
    """Deterministic synthetic segment plus a model sized for it, for gradient checks."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        vocab_size=50,
        num_entity_types=10,
        num_classes=8,
        d_model=d_model,
        encoder_heads=4 if d_model % 4 == 0 else 2,
        label_emb_dim=32,
        fusion_heads=4,
        max_positions=seq + 8,
        dropout=0.0,
        seed=seed,
    )
    model = PairwiseREModel(config)
    token_ids = tuple(int(x) for x in rng.integers(5, config.vocab_size, size=seq))
    heads = sorted(int(i) for i in rng.choice(seq, size=n_entities, replace=False))
    label_ids = [0] * seq
    for k, pos in enumerate(heads):
        label_ids[pos] = (k % config.num_entity_types) + 1
    targets = []
    for a in range(n_entities):
        for b in range(n_entities):
            if a != b:
                cls = int(rng.integers(0, config.num_classes)) if rng.random() < 0.5 else 0
                targets.append(PairTarget(heads[a], heads[b], cls))
    segment = EncodedSegment(
        doc_id="grad-check", window_start=0, window_end=seq,
        token_ids=token_ids, label_ids=tuple(label_ids), entities=(),
        entity_spans=tuple((h, h) for h in heads), targets=tuple(targets),
    )
    return model, segment
