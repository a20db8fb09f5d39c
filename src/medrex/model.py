"""Relation extraction models.

``PairwiseREModel`` classifies every ordered pair of entity heads in a
segment with a single encoder pass: a small trainable transformer produces
contextual token embeddings, a label embedding is concatenated per token,
one extra multi-head self-attention block mixes the fused representation,
and each head pair is classified from (u_i, u_j, relative-position
embedding) through one hidden dense layer. The loss touches only entity-head
pairs; pairs over other tokens are never materialised.

The pair head reads only the entity-head rows of the fusion block, so only
those rows attend (keys and values come from every token), in training too:
the fusion dropout masks are drawn over those rows. Prediction is therefore
the training forward with dropout off.

The pair head never builds the [u_i; u_j; r(j - i)] feature rows. Its first
layer is linear, so ``pair.fc1.w`` splits into the row blocks that multiply
u_i, u_j and r: each head row and each distance row is projected once, and a
pair's pre-activation is the sum of three projected rows (``ag.pair_linear``,
the table-filling factorisation of biaffine scorers). The blocks are sliced
at compute time, so the checkpoint layout is that of the concatenated form.

``BaselinePairModel`` is the per-pair comparison system: it re-encodes the
segment once per candidate pair with four marker tokens wrapped around the
two entities, pools the marker positions, and classifies the pooled vector.
Both models share the encoder layout so cost comparisons are like for like.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .optim import ParamStore
from .schema import SchemaProfile
from .standoff import Document, Entity
from .windowing import (
    MARKER_TOKENS,
    SPECIAL_TOKENS,
    EncodedSegment,
    RelationClassMap,
    TokenTable,
    Vocabulary,
    admit_entities,
    encode_segment,
    make_segments,
    ordered_entity_pairs,
)

# The baseline's pair markers: their reserved vocabulary slots.
E1_OPEN_ID, E1_CLOSE_ID, E2_OPEN_ID, E2_CLOSE_ID = map(SPECIAL_TOKENS.index, MARKER_TOKENS)


class ModelError(ValueError):
    """Invalid model configuration or forward-pass input."""


# the Python types each ModelConfig annotation accepts when a config is read back from a file
_FIELD_KINDS = {"int": (int,), "int | None": (int, type(None)), "float": (int, float)}


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
        if self.seed < 0:
            raise ModelError(f"seed must be at least 0, got {self.seed}")

    @property
    def fused_dim(self) -> int:
        return self.d_model + self.label_emb_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        """Rebuild a saved config; an unknown key or a value of the wrong type raises ModelError naming the key."""
        kinds = {f.name: f.type for f in fields(cls)}
        for name, value in payload.items():
            if name not in kinds:
                raise ModelError(f"unknown model config key {name!r}")
            if isinstance(value, bool) or not isinstance(value, _FIELD_KINDS[kinds[name]]):
                raise ModelError(f"model config key {name!r} must be {kinds[name]}, got {value!r}")
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
    store: ParamStore, name: str, queries: ag.Tensor, x: ag.Tensor, heads: int,
    dropout_p: float, rng, train: bool,
) -> ag.Tensor:
    """One output row per row of ``queries``, attending over every row of ``x`` (the keys and values)."""
    rows, width = queries.shape
    seq = x.shape[0]
    head_dim = width // heads
    q = ag.linear(queries, store[f"{name}.wq"], store[f"{name}.bq"])
    k = ag.linear(x, store[f"{name}.wk"], store[f"{name}.bk"])
    v = ag.linear(x, store[f"{name}.wv"], store[f"{name}.bv"])
    qh = ag.transpose(ag.reshape(q, (rows, heads, head_dim)), (1, 0, 2))
    kh_t = ag.transpose(ag.reshape(k, (seq, heads, head_dim)), (1, 2, 0))
    vh = ag.transpose(ag.reshape(v, (seq, heads, head_dim)), (1, 0, 2))
    scores = ag.mul(ag.matmul(qh, kh_t), 1.0 / np.sqrt(head_dim))
    weights = ag.dropout(ag.row_softmax(scores), dropout_p, rng, train)
    mixed = ag.matmul(weights, vh)
    merged = ag.reshape(ag.transpose(mixed, (1, 0, 2)), (rows, width))
    return ag.linear(merged, store[f"{name}.wo"], store[f"{name}.bo"])


def _init_encoder(store: ParamStore, rng: np.random.Generator, config: ModelConfig) -> None:
    """The token encoder's parameters; both models register them first, drawing the start of the init stream."""
    _init_matrix(store, rng, "tok_emb", (config.vocab_size, config.d_model))
    _init_matrix(store, rng, "pos_emb", (config.max_positions, config.d_model))
    for layer in range(config.encoder_layers):
        _init_attention(store, rng, f"enc{layer}.attn", config.d_model)
        _init_layer_norm(store, f"enc{layer}.ln1", config.d_model)
        _init_linear(store, rng, f"enc{layer}.ffn.fc1", config.d_model, config.encoder_ffn_dim)
        _init_linear(store, rng, f"enc{layer}.ffn.fc2", config.encoder_ffn_dim, config.d_model)
        _init_layer_norm(store, f"enc{layer}.ln2", config.d_model)


def _encode(store: ParamStore, config: ModelConfig, token_ids, dropout_rng, train: bool) -> ag.Tensor:
    """Contextual token embeddings [seq, d_model] from the trainable encoder.

    Stands in for a pretrained contextual encoder behind the same call shape;
    anything mapping token ids to [seq, d_model] can replace it.
    """
    ids = np.asarray(token_ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise ModelError(f"token ids must be a non-empty 1-d sequence, got shape {ids.shape}")
    if ids.size > config.max_positions:
        raise ModelError(f"sequence of {ids.size} tokens exceeds max_positions {config.max_positions}")
    if ids.max() >= config.vocab_size or ids.min() < 0:
        raise ModelError("token id outside the configured vocabulary")
    p = config.dropout
    x = ag.add(ag.gather_rows(store["tok_emb"], ids), ag.gather_rows(store["pos_emb"], np.arange(ids.size)))
    x = ag.dropout(x, p, dropout_rng, train)
    for layer in range(config.encoder_layers):
        attn = _self_attention(store, f"enc{layer}.attn", x, x, config.encoder_heads, p, dropout_rng, train)
        x = ag.layer_norm(
            ag.add(x, ag.dropout(attn, p, dropout_rng, train)),
            store[f"enc{layer}.ln1.gain"], store[f"enc{layer}.ln1.bias"],
        )
        hidden = ag.gelu(ag.linear(x, store[f"enc{layer}.ffn.fc1.w"], store[f"enc{layer}.ffn.fc1.b"]))
        ffn = ag.linear(hidden, store[f"enc{layer}.ffn.fc2.w"], store[f"enc{layer}.ffn.fc2.b"])
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
        _init_encoder(self.params, rng, config)
        _init_matrix(self.params, rng, "label_emb", (config.num_entity_types + 1, config.label_emb_dim))
        _init_attention(self.params, rng, "fuse.attn", config.fused_dim)
        _init_layer_norm(self.params, "fuse.ln", config.fused_dim)
        _init_matrix(self.params, rng, "relpos_emb", (2 * config.max_rel_dist + 1, config.relpos_emb_dim))
        _init_linear(self.params, rng, "pair.fc1", 2 * config.fused_dim + config.relpos_emb_dim, config.hidden_dim)
        _init_linear(self.params, rng, "pair.fc2", config.hidden_dim, config.num_classes)
        self.dropout_rng = np.random.default_rng([config.seed, 1])
        self.encoder_forwards = 0

    def encode_tokens(self, token_ids, train: bool = False) -> ag.Tensor:
        encoded = _encode(self.params, self.config, token_ids, self.dropout_rng, train)
        self.encoder_forwards += 1
        return encoded

    def fuse_and_attend(self, contextual: ag.Tensor, label_ids, heads, train: bool = False) -> ag.Tensor:
        """The fused rows [len(heads), fused_dim] at the token positions ``heads``, the only rows that attend."""
        ids = np.asarray(label_ids, dtype=np.intp)
        if ids.shape != (contextual.shape[0],):
            raise ModelError(
                f"expected one label per token: {contextual.shape[0]} tokens, {ids.size} labels"
            )
        if ids.size and (ids.max() > self.config.num_entity_types or ids.min() < 0):
            raise ModelError("label id outside the label embedding table")
        cfg, store = self.config, self.params
        fused = ag.concat([contextual, ag.gather_rows(store["label_emb"], ids)])
        queries = ag.gather_rows(fused, heads)
        attn = _self_attention(
            store, "fuse.attn", queries, fused, cfg.fusion_heads, cfg.dropout, self.dropout_rng, train,
        )
        return ag.layer_norm(
            ag.add(queries, ag.dropout(attn, cfg.dropout, self.dropout_rng, train)),
            store["fuse.ln.gain"], store["fuse.ln.bias"],
        )

    def pair_logits(self, rows: ag.Tensor, positions, pairs, train: bool = False) -> ag.Tensor:
        """Logits for each (i, j) pair of indices into ``rows``; distances come from the rows' token ``positions``."""
        cfg, store = self.config, self.params
        n = rows.shape[0]
        positions = np.asarray(positions, dtype=np.intp)
        if positions.shape != (n,):
            raise ModelError(f"expected one token position per row: {n} rows, {positions.size} positions")
        pair_array = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if pair_array.size:
            if pair_array.min() < 0 or pair_array.max() >= n:
                raise ModelError(f"pair index outside the {n} rows of the sequence")
            if (pair_array[:, 0] == pair_array[:, 1]).any():
                raise ModelError("pairs must combine two distinct rows")
        i_idx, j_idx = pair_array[:, 0], pair_array[:, 1]
        offset = positions[j_idx] - positions[i_idx]
        distance = np.clip(offset, -cfg.max_rel_dist, cfg.max_rel_dist) + cfg.max_rel_dist
        hidden = ag.gelu(ag.pair_linear(
            rows, store["relpos_emb"], store["pair.fc1.w"], store["pair.fc1.b"], i_idx, j_idx, distance,
        ))
        hidden = ag.dropout(hidden, cfg.dropout, self.dropout_rng, train)
        return ag.linear(hidden, store["pair.fc2.w"], store["pair.fc2.b"])

    def forward(self, segment: EncodedSegment, train: bool = False) -> ag.Tensor:
        """Logits for every ordered entity-head pair, aligned with segment.class_ids."""
        contextual = self.encode_tokens(segment.token_ids, train=train)
        heads = [first for first, _ in segment.entity_spans]
        rows = self.fuse_and_attend(contextual, segment.label_ids, heads, train=train)
        return self.pair_logits(rows, heads, ordered_entity_pairs(len(heads)), train=train)


def masked_loss(logits: ag.Tensor, class_ids: tuple[int, ...], null_class_weight: float = 1.0) -> ag.Tensor:
    """Mean cross entropy over entity-head pair rows.

    Pairs involving non-entity tokens are never materialised, so no masking
    arithmetic is needed: the rows are the mask. Each row's loss is multiplied
    by its class weight: ``null_class_weight`` for null-class rows, 1 for the
    rest (multiplying by 1 is exact, for the loss and for its gradient).
    """
    class_ids = np.asarray(class_ids, dtype=np.intp)
    if class_ids.size == 0:
        raise ModelError("masked_loss needs at least one pair class (segments carry >= 2 entities)")
    if logits.shape[0] != class_ids.size:
        raise ModelError(f"{logits.shape[0]} logit rows for {class_ids.size} pair classes")
    weights = np.where(class_ids == 0, null_class_weight, 1.0)
    return ag.reduce_mean(ag.mul(ag.cross_entropy(logits, class_ids), ag.Tensor(weights)))


class BaselinePairModel:
    """Re-encodes the token stream once per candidate pair with entity markers."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        _init_encoder(self.params, rng, config)
        _init_linear(self.params, rng, "clf", config.d_model, config.num_classes)
        self.dropout_rng = np.random.default_rng([config.seed, 2])
        self._pool = ag.Tensor(np.full((1, 4), 0.25))
        self.encoder_forwards = 0

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
        encoded = _encode(self.params, self.config, ids, self.dropout_rng, train)
        self.encoder_forwards += 1
        pooled = ag.matmul(self._pool, ag.gather_rows(encoded, positions))
        return ag.linear(pooled, self.params["clf.w"], self.params["clf.b"])


@dataclass(frozen=True)
class PredictedRelation:
    rtype: str
    source: Entity
    target: Entity
    prob: float


@dataclass
class InferenceBundle:
    """A trained pairwise model with everything prediction needs."""

    model: PairwiseREModel
    vocab: Vocabulary
    class_map: RelationClassMap
    schema: SchemaProfile
    window_chars: int
    stride_chars: int

    def __post_init__(self):
        config = self.model.config
        for what, count, built in (
            ("class map has {} classes", len(self.class_map), config.num_classes),
            ("vocabulary has {} tokens", len(self.vocab), config.vocab_size),
            ("schema has {} entity types", len(self.schema.entity_types), config.num_entity_types),
        ):
            if count != built:
                raise ModelError(f"{what.format(count)} but the model was built for {built}")

    @ag.float32_compute()
    def predict(self, doc: Document, entities: list[Entity] | None = None) -> list[PredictedRelation]:
        """Argmax relations over every ordered entity-head pair of every window.

        ``entities`` switches the label source: the document's own (gold)
        entities by default, or externally provided ones (upstream tagger
        output). Only the entities ``admit_entities`` admits are labelled and
        paired: one that covers no token is skipped, and of two that overlap
        or share a token or an id only one is kept. When windows overlap, the same
        entity pair can be scored several times; the candidate with the
        highest probability wins, earlier windows winning ties, and the final
        entity-level relation list is deduplicated. A window with more tokens
        than ``max_positions`` is scored in pieces that fit (``make_segments``'s
        ``max_tokens``). The forward pass computes in float32, whatever the
        parameters' dtype.
        """
        table = TokenTable.of(doc.text)
        admitted = admit_entities(table, entities if entities is not None else doc.entities)
        work_doc = Document(doc.doc_id, doc.text, admitted, ())
        best: dict[tuple[str, str], tuple[float, str]] = {}
        entity_by_id = {e.id: e for e in admitted}
        max_tokens = self.model.config.max_positions
        for segment in make_segments(work_doc, self.window_chars, self.stride_chars, max_tokens, table):
            encoded = encode_segment(segment, self.vocab, self.schema, (), self.class_map)
            with ag.no_grad():
                logits = self.model.forward(encoded, train=False)
                probs = ag.row_softmax(logits).values
            class_ids, top = probs.argmax(axis=1), probs.max(axis=1)
            pairs = ordered_entity_pairs(len(encoded.entities))
            for row in np.flatnonzero(class_ids).tolist():
                a, b = pairs[row]
                key = (encoded.entities[a].id, encoded.entities[b].id)
                class_id, prob = int(class_ids[row]), float(top[row])
                if key not in best or prob > best[key][0]:
                    best[key] = (prob, self.class_map.name_for(class_id))
        predictions = [
            PredictedRelation(rtype, entity_by_id[src], entity_by_id[tgt], prob)
            for (src, tgt), (prob, rtype) in best.items()
        ]
        predictions.sort(key=lambda p: (p.source.start, p.source.end, p.target.start, p.target.end, p.rtype))
        return predictions

    def predict_corpus(self, docs: list[Document]) -> dict[str, list[PredictedRelation]]:
        """Each document's relations over its own entities, keyed by document id."""
        return {doc.doc_id: self.predict(doc) for doc in docs}


def grad_check_fixture(d_model: int, seq: int, n_entities: int, seed: int) -> tuple[PairwiseREModel, EncodedSegment]:
    """Deterministic synthetic segment plus a model sized for it, for gradient checks."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        vocab_size=50,
        num_entity_types=10,
        num_classes=8,
        d_model=d_model,
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
    class_ids = tuple(
        int(rng.integers(0, config.num_classes)) if rng.random() < 0.5 else 0
        for _ in ordered_entity_pairs(n_entities)
    )
    segment = EncodedSegment(
        token_ids=token_ids, label_ids=tuple(label_ids), entities=(),
        entity_spans=tuple((h, h) for h in heads), class_ids=class_ids,
    )
    return model, segment
