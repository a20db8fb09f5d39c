# Pin BLAS to one thread before numpy loads, as the CLI does. The oracles below
# are compared byte for byte with the model, and they take products over other
# row counts than the model's; a multithreaded OpenBLAS may sum those in
# another order.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools
import math
import random
import re
from dataclasses import dataclass

import numpy as np
import pytest

from medrex import autograd as ag
from medrex.frames import Frame, FrameSet
from medrex.model import E1_CLOSE_ID, E1_OPEN_ID, E2_CLOSE_ID, E2_OPEN_ID, ModelError, PredictedRelation, masked_loss
from medrex.optim import adam_step, lr_at
from medrex.schema import CORP_HUS, OTHER_TYPE, SAME_FRAME
from medrex.standoff import Document, Entity, Relation
from medrex.windowing import WindowingError, encode_segment, make_segments, ordered_entity_pairs, window_starts

TOCILIZUMAB_TEXT = (
    "treatment with tocilizumab IV every 4 weeks from July to October, "
    "then every 2 weeks until December"
)


def tocilizumab_document() -> Document:
    """Two-frame drug: frames share the route and the boundary date."""
    entities = (
        Entity("T1", "Drug", 15, 26, "tocilizumab"),
        Entity("T2", "Route", 27, 29, "IV"),
        Entity("T3", "Frequency", 30, 43, "every 4 weeks"),
        Entity("T4", "Date", 49, 53, "July"),
        Entity("T5", "Date", 57, 64, "October"),
        Entity("T6", "Frequency", 71, 84, "every 2 weeks"),
        Entity("T7", "Date", 91, 99, "December"),
    )
    typed = [
        Relation(f"R{i}", "Refer_to", src, "T1")
        for i, src in enumerate(["T2", "T3", "T4", "T5", "T6", "T7"], start=1)
    ]
    frame1 = ["T2", "T3", "T4", "T5"]
    frame2 = ["T2", "T6", "T5", "T7"]
    same = []
    seen = set()
    n = 0
    for group in (frame1, frame2):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                key = frozenset((group[i], group[j]))
                if key in seen:
                    continue
                seen.add(key)
                n += 1
                same.append(Relation(f"SF{n}", "SAME_FRAME", group[i], group[j]))
    return Document("tocilizumab", TOCILIZUMAB_TEXT, entities, tuple(typed + same))


TOCILIZUMAB_FRAME_MEMBERS = (
    frozenset({"T2", "T3", "T4", "T5"}),
    frozenset({"T2", "T5", "T6", "T7"}),
)

_ATTR_TYPES = ["Route", "Frequency", "Date", "Dosage", "Duration"]
_LINK_TYPES = ["Refer_to", "Refer_to", "Refer_to", "Start", "Stop", "Ongoing"]


def random_frame_instance(rng: random.Random):
    """Random entities plus a FrameSet shaped like the corpus generator's output.

    Multi-frame drugs may share attributes across their frames (same link type
    on both sides) and never consist solely of singleton or nested frames, so
    the complete-graph encoding round-trips.
    """
    entities: list[Entity] = []

    def add_entity(etype: str) -> str:
        idx = len(entities) + 1
        start = idx * 6
        entities.append(Entity(f"T{idx}", etype, start, start + 4, "xxxx"))
        return f"T{idx}"

    frames: list[Frame] = []
    for _ in range(rng.randint(1, 3)):
        drug = add_entity("Drug")
        if rng.random() < 0.5:  # multi-frame drug
            n_shared = rng.randint(0, 2)
            own_a = rng.randint(1, 3)
            own_b = rng.randint(1, 3)
            if n_shared == 0 and own_a == 1 and own_b == 1:
                own_a = 2
            shared = [
                (add_entity(rng.choice(_ATTR_TYPES)), rng.choice(_LINK_TYPES))
                for _ in range(n_shared)
            ]
            frame_a = shared + [
                (add_entity(rng.choice(_ATTR_TYPES)), rng.choice(_LINK_TYPES))
                for _ in range(own_a)
            ]
            frame_b = shared + [
                (add_entity(rng.choice(_ATTR_TYPES)), rng.choice(_LINK_TYPES))
                for _ in range(own_b)
            ]
            frames.append(Frame(drug, tuple(frame_a)))
            frames.append(Frame(drug, tuple(frame_b)))
        else:
            links = tuple(
                (add_entity(rng.choice(_ATTR_TYPES)), rng.choice(_LINK_TYPES))
                for _ in range(rng.randint(1, 5))
            )
            frames.append(Frame(drug, links))
    return entities, FrameSet(tuple(frames))


def normalize_frameset(fs: FrameSet):
    return sorted((f.drug, tuple(sorted(f.links))) for f in fs.frames)


def frames_to_relations(fs: FrameSet, include_same_frame: bool) -> list[Relation]:
    """Encode frames as relations: one attribute->drug link each, plus per-frame complete SAME_FRAME graphs.

    An encoder written apart from ``medrex.frames``, so decoding its output
    checks the decoder against an independent reading of the encoding. Shared
    attributes repeat their link and their edges once per frame.
    """
    triples = [(rtype, attr, frame.drug) for frame in fs.frames for attr, rtype in frame.links]
    if include_same_frame:
        for frame in fs.frames:
            attrs = [attr for attr, _ in frame.links]
            triples.extend((SAME_FRAME, a, b) for a, b in itertools.combinations(attrs, 2))
    return [Relation(f"R{i}", *triple) for i, triple in enumerate(triples, start=1)]


def corpus_split(corpus: list[Document], train_fraction: float, seed: int) -> tuple[list[Document], list[Document]]:
    """Seeded shuffle, then a document-granular cut: disjoint and exhaustive."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie strictly inside (0, 1), got {train_fraction}")
    order = list(corpus)
    random.Random(seed).shuffle(order)
    cut = int(len(order) * train_fraction)
    return order[:cut], order[cut:]


def total(x: ag.Tensor) -> ag.Tensor:
    """Scalar sum of a tensor for tests, built from the ops the models use."""
    return ag.mul(ag.reduce_mean(x), x.values.size)


def concat_pair_logits(model, rows: ag.Tensor, positions, pairs) -> ag.Tensor:
    """The pair head in its unfactorised form: one [u_i; u_j; r(j - i)] feature row per pair, then fc1.

    The oracle for ``PairwiseREModel.pair_logits`` (no dropout).
    """
    cfg, store = model.config, model.params
    positions = np.asarray(positions, dtype=np.intp)
    pair_array = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    i_idx, j_idx = pair_array[:, 0], pair_array[:, 1]
    offset = positions[j_idx] - positions[i_idx]
    distance = np.clip(offset, -cfg.max_rel_dist, cfg.max_rel_dist) + cfg.max_rel_dist
    features = ag.concat([
        ag.gather_rows(rows, i_idx),
        ag.gather_rows(rows, j_idx),
        ag.gather_rows(store["relpos_emb"], distance),
    ])
    hidden = ag.gelu(ag.add(ag.matmul(features, store["pair.fc1.w"]), store["pair.fc1.b"]))
    return ag.add(ag.matmul(hidden, store["pair.fc2.w"]), store["pair.fc2.b"])


def pair_linear_over_used_rows(x, rel, w, b, i_idx, j_idx, rel_idx) -> ag.Tensor:
    """``ag.pair_linear`` in its earlier form, which projected only the distinct rows of x that the pairs use.

    Its backward scattered the x gradient back into a zero array shaped like x.
    The oracle, in ``all_rows_logits``, for the pair head over head rows.
    """
    width = x.values.shape[1]
    rows, inverse = np.unique(np.concatenate([i_idx, j_idx]), return_inverse=True)
    ia, ib = inverse[:len(i_idx)], inverse[len(i_idx):]
    rel_rows, ir = np.unique(rel_idx, return_inverse=True)
    w_i, w_j, w_r = w.values[:width], w.values[width:2 * width], w.values[2 * width:]
    h, e = x.values[rows], rel.values[rel_rows]
    a_tab, b_tab, p_tab = h @ w_i, h @ w_j, e @ w_r + b.values

    def backprop(g):
        g_a = ag._scatter_rows(g, ia, rows.size)
        g_b = ag._scatter_rows(g, ib, rows.size)
        g_p = ag._scatter_rows(g, ir, rel_rows.size)
        gx = np.zeros_like(x.values)
        gx[rows] = g_a @ w_i.T + g_b @ w_j.T
        ag._accumulate(x, gx, fresh=True)
        grel = np.zeros_like(rel.values)
        grel[rel_rows] = g_p @ w_r.T
        ag._accumulate(rel, grel, fresh=True)
        ag._accumulate(w, np.concatenate([h.T @ g_a, h.T @ g_b, e.T @ g_p]), fresh=True)
        ag._accumulate(b, g.sum(axis=0), fresh=True)

    return ag._node(a_tab[ia] + b_tab[ib] + p_tab[ir], (x, rel, w, b), backprop, "pair_linear")


def dropout_at_rows(x: ag.Tensor, rows, p: float, rng: np.random.Generator, train: bool) -> ag.Tensor:
    """``ag.dropout`` with its mask drawn over ``rows`` of x's second-to-last axis, mask row r at ``rows[r]``.

    The other rows pass unchanged. The oracle's form of the fusion dropouts,
    whose masks the model draws over the head rows only.
    """
    if not train or p <= 0.0:
        return x
    dtype = ag.compute_dtype()
    drawn = x.values.shape[:-2] + (len(rows),) + x.values.shape[-1:]
    keep = np.ones(x.values.shape, dtype=bool)
    keep[..., rows, :] = rng.random(drawn, dtype=dtype) >= p
    factor = dtype.type(1) / dtype.type(1 - p)
    values = x.values * keep
    values[..., rows, :] *= factor

    def backprop(g):
        gx = g * keep
        gx[..., rows, :] *= factor
        ag._accumulate(x, gx, fresh=True)

    return ag._node(values, (x,), backprop, "dropout")


def _pair_head_over_token_pairs(model, rows: ag.Tensor, positions, token_pairs, train: bool) -> ag.Tensor:
    """The pair head in its earlier form: pairs of token indices, read from ``rows`` at token ``positions``."""
    cfg, store = model.config, model.params
    row_of = {int(pos): r for r, pos in enumerate(positions)}
    pair_array = np.asarray(token_pairs, dtype=np.intp).reshape(-1, 2)
    i_tok, j_tok = pair_array[:, 0], pair_array[:, 1]
    i_idx = np.asarray([row_of[t] for t in i_tok.tolist()], dtype=np.intp)
    j_idx = np.asarray([row_of[t] for t in j_tok.tolist()], dtype=np.intp)
    distance = np.clip(j_tok - i_tok, -cfg.max_rel_dist, cfg.max_rel_dist) + cfg.max_rel_dist
    hidden = ag.gelu(pair_linear_over_used_rows(
        rows, store["relpos_emb"], store["pair.fc1.w"], store["pair.fc1.b"], i_idx, j_idx, distance,
    ))
    hidden = ag.dropout(hidden, cfg.dropout, model.dropout_rng, train)
    return ag.linear(hidden, store["pair.fc2.w"], store["pair.fc2.b"])


def all_rows_logits(model, segment, train: bool = False) -> ag.Tensor:
    """``PairwiseREModel.forward`` in its earlier form, in which every token attends.

    The fusion block returned all [seq, fused_dim] rows and the pair head took
    token positions. In training, the fusion dropout masks are drawn over the
    head rows in the model's draw order and applied at those rows. The oracle
    for ``fuse_and_attend`` and ``pair_logits`` over the head rows.
    """
    cfg, store, rng = model.config, model.params, model.dropout_rng
    heads = [first for first, _ in segment.entity_spans]
    label_ids = np.asarray(segment.label_ids, dtype=np.intp)
    contextual = model.encode_tokens(segment.token_ids, train=train)
    fused = ag.concat([contextual, ag.gather_rows(store["label_emb"], label_ids)])
    seq, width = fused.shape
    head_dim = width // cfg.fusion_heads
    q = ag.linear(fused, store["fuse.attn.wq"], store["fuse.attn.bq"])
    k = ag.linear(fused, store["fuse.attn.wk"], store["fuse.attn.bk"])
    v = ag.linear(fused, store["fuse.attn.wv"], store["fuse.attn.bv"])
    qh = ag.transpose(ag.reshape(q, (seq, cfg.fusion_heads, head_dim)), (1, 0, 2))
    kh_t = ag.transpose(ag.reshape(k, (seq, cfg.fusion_heads, head_dim)), (1, 2, 0))
    vh = ag.transpose(ag.reshape(v, (seq, cfg.fusion_heads, head_dim)), (1, 0, 2))
    scores = ag.mul(ag.matmul(qh, kh_t), 1.0 / np.sqrt(head_dim))
    weights = dropout_at_rows(ag.row_softmax(scores), heads, cfg.dropout, rng, train)
    merged = ag.reshape(ag.transpose(ag.matmul(weights, vh), (1, 0, 2)), (seq, width))
    attn = ag.linear(merged, store["fuse.attn.wo"], store["fuse.attn.bo"])
    fused = ag.layer_norm(
        ag.add(fused, dropout_at_rows(attn, heads, cfg.dropout, rng, train)),
        store["fuse.ln.gain"], store["fuse.ln.bias"],
    )
    pairs = [(heads[a], heads[b]) for a, b in ordered_entity_pairs(len(heads))]
    return _pair_head_over_token_pairs(model, fused, range(seq), pairs, train)


def gelu_saving_temporaries(x: ag.Tensor) -> ag.Tensor:
    """The gelu op in its earlier form, which saved v*v, tanh and the half gate for its backward.

    The oracle for ``ag.gelu``, which now saves only the derivative.
    """
    v = x.values
    v_sq = v * v
    t = np.tanh(ag._GELU_C * (v + ag._GELU_A * (v_sq * v)))
    half_gate = 0.5 * (1.0 + t)

    def backprop(g):
        d = half_gate + 0.5 * v * (1.0 - t * t) * ag._GELU_C * (1.0 + 3.0 * ag._GELU_A * v_sq)
        ag._accumulate(x, g * d)

    return ag._node(v * half_gate, (x,), backprop, "gelu")


def scatter_rows_sorting_always(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """``autograd._scatter_rows`` in its earlier form, which sorted and reordered ``g`` for every index array.

    The oracle for ``ag._scatter_rows``, which skips both for non-decreasing indices.
    """
    out = np.zeros((n_rows,) + g.shape[1:], dtype=g.dtype)
    if idx.size == 0:
        return out
    order = np.argsort(idx, kind="stable")
    ordered = idx[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    if starts.size == idx.size:
        out[idx] = g
    else:
        out[ordered[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return out


def pair_linear_out_of_place(x, rel, w, b, i_idx, j_idx, rel_idx) -> ag.Tensor:
    """``ag.pair_linear`` in its earlier form, which summed the gathered tables and the x gradient out of place.

    Its backward scattered with ``scatter_rows_sorting_always``. The oracle
    for ``ag.pair_linear``, which sums both into one buffer.
    """
    i_idx, j_idx, rel_idx = (np.asarray(a, dtype=np.intp) for a in (i_idx, j_idx, rel_idx))
    n, width = x.values.shape
    rel_rows, ir = np.unique(rel_idx, return_inverse=True)
    w_i, w_j, w_r = w.values[:width], w.values[width:2 * width], w.values[2 * width:]
    h, e = x.values, rel.values[rel_rows]
    a_tab, b_tab, p_tab = h @ w_i, h @ w_j, e @ w_r + b.values

    def backprop(g):
        g_a = scatter_rows_sorting_always(g, i_idx, n)
        g_b = scatter_rows_sorting_always(g, j_idx, n)
        g_p = scatter_rows_sorting_always(g, ir, rel_rows.size)
        ag._accumulate(x, g_a @ w_i.T + g_b @ w_j.T, fresh=True)
        grel = np.zeros_like(rel.values)
        grel[rel_rows] = g_p @ w_r.T
        ag._accumulate(rel, grel, fresh=True)
        ag._accumulate(w, np.concatenate([h.T @ g_a, h.T @ g_b, e.T @ g_p]), fresh=True)
        ag._accumulate(b, g.sum(axis=0), fresh=True)

    return ag._node(a_tab[i_idx] + b_tab[j_idx] + p_tab[ir], (x, rel, w, b), backprop, "pair_linear")


def row_softmax_out_of_place(x: ag.Tensor) -> ag.Tensor:
    """The row_softmax op in its earlier form, whose backward built ``(g - inner) * out`` out of place.

    The oracle for ``ag.row_softmax``.
    """
    out_values = x.values - x.values.max(axis=-1, keepdims=True)
    np.exp(out_values, out=out_values)
    out_values /= out_values.sum(axis=-1, keepdims=True)

    def backprop(g):
        inner = (g * out_values).sum(axis=-1, keepdims=True)
        ag._accumulate(x, (g - inner) * out_values, fresh=True)

    return ag._node(out_values, (x,), backprop, "row_softmax")


def layer_norm_out_of_place(x: ag.Tensor, gain: ag.Tensor, bias: ag.Tensor) -> ag.Tensor:
    """The layer_norm op in its earlier form, which built every intermediate in a new array.

    The oracle for ``ag.layer_norm``, which computes in place.
    """
    n = x.values.shape[-1]
    mu = np.add.reduce(x.values, axis=-1, keepdims=True) / n
    centred = x.values - mu
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + ag._LAYER_NORM_EPS)
    normed = centred * inv

    def backprop(g):
        ag._accumulate(gain, ag._unbroadcast(g * normed, gain.values.shape), fresh=True)
        ag._accumulate(bias, ag._unbroadcast(g, bias.values.shape))
        dn = g * gain.values
        s1 = dn.sum(axis=-1, keepdims=True)
        s2 = (dn * normed).sum(axis=-1, keepdims=True)
        ag._accumulate(x, inv * (dn - s1 / n - normed * s2 / n), fresh=True)

    return ag._node(normed * gain.values + bias.values, (x, gain, bias), backprop, "layer_norm")


def dropout_with_float_mask(x: ag.Tensor, p: float, rng: np.random.Generator) -> ag.Tensor:
    """The training-mode dropout op in its earlier form, with a scaled float mask.

    The oracle for ``ag.dropout``, which now keeps a boolean mask and one scale factor.
    """
    dtype = ag.compute_dtype()
    mask = (rng.random(x.values.shape, dtype=dtype) >= p).astype(dtype) / (1.0 - p)

    def backprop(g):
        ag._accumulate(x, g * mask)

    return ag._node(x.values * mask, (x,), backprop, "dropout")


def self_attention_with_two_key_transposes(store, name, queries, x, heads, dropout_p, rng, train):
    """``model._self_attention`` in its earlier form, which built kᵀ with two transposes.

    The oracle for ``_self_attention``, which builds kᵀ with one.
    """
    rows, width = queries.shape
    seq = x.shape[0]
    head_dim = width // heads
    q = ag.linear(queries, store[f"{name}.wq"], store[f"{name}.bq"])
    k = ag.linear(x, store[f"{name}.wk"], store[f"{name}.bk"])
    v = ag.linear(x, store[f"{name}.wv"], store[f"{name}.bv"])
    qh = ag.transpose(ag.reshape(q, (rows, heads, head_dim)), (1, 0, 2))
    kh = ag.transpose(ag.reshape(k, (seq, heads, head_dim)), (1, 0, 2))
    vh = ag.transpose(ag.reshape(v, (seq, heads, head_dim)), (1, 0, 2))
    scores = ag.mul(ag.matmul(qh, ag.transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(head_dim))
    weights = ag.dropout(ag.row_softmax(scores), dropout_p, rng, train)
    mixed = ag.matmul(weights, vh)
    merged = ag.reshape(ag.transpose(mixed, (1, 0, 2)), (rows, width))
    return ag.linear(merged, store[f"{name}.wo"], store[f"{name}.bo"])


def marker_sequence_by_token_scan(token_ids, source_span, target_span) -> tuple[list[int], list[int]]:
    """``BaselinePairModel.marker_sequence`` in its earlier form: one pass over the tokens, four tests per token.

    The oracle for the sort-and-slice form; it assumes spans that do not overlap.
    """
    (a1, a2), (b1, b2) = source_span, target_span
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
    return out, [positions[m] for m in (E1_OPEN_ID, E1_CLOSE_ID, E2_OPEN_ID, E2_CLOSE_ID)]


def unweighted_masked_loss(logits: ag.Tensor, class_ids) -> ag.Tensor:
    """``model.masked_loss`` in its earlier form at null-class weight 1, which skipped the weight multiply.

    The oracle for ``masked_loss``, which always multiplies by the class weights.
    """
    return ag.reduce_mean(ag.cross_entropy(logits, np.asarray(class_ids, dtype=np.intp)))


@dataclass(frozen=True)
class PairTarget:
    """One pair row in its earlier form: both head token indices and the class."""

    i: int  # head token index of the source entity
    j: int  # head token index of the target entity
    class_id: int  # 0 is always the null class


def build_pair_targets(segment, gold_relations, class_map, entity_spans) -> tuple[PairTarget, ...]:
    """``windowing.build_pair_targets`` in its earlier form: one ``PairTarget`` per ordered entity pair.

    The oracle for ``windowing.pair_class_ids`` and for the head pairs that
    ``PairwiseREModel.forward`` builds from ``entity_spans``.
    """
    position = {e.id: k for k, e in enumerate(segment.entities)}
    gold: dict[tuple[int, int], str] = {}
    for r in gold_relations:
        if r.rtype not in class_map:
            continue
        if r.source in position and r.target in position:
            key = (position[r.source], position[r.target])
            existing = gold.get(key)
            if existing is not None and existing != r.rtype:
                raise WindowingError(f"conflicting gold relations {existing!r} and {r.rtype!r}")
            gold[key] = r.rtype
    targets = []
    for a, b in ordered_entity_pairs(len(segment.entities)):
        rtype = gold.get((a, b))
        class_id = class_map.index(rtype) if rtype is not None else 0
        targets.append(PairTarget(entity_spans[a][0], entity_spans[b][0], class_id))
    return tuple(targets)


def pair_target_logits(model, segment, targets, train: bool = False) -> ag.Tensor:
    """``PairwiseREModel.forward`` in its earlier form, which read the head pairs from ``PairTarget`` rows.

    Its fusion step is the model's own, over the heads in the order the
    targets first name them.
    """
    token_pairs = [(t.i, t.j) for t in targets]
    heads = list(dict.fromkeys(token for pair in token_pairs for token in pair))
    contextual = model.encode_tokens(segment.token_ids, train=train)
    rows = model.fuse_and_attend(contextual, segment.label_ids, heads, train=train)
    return _pair_head_over_token_pairs(model, rows, heads, token_pairs, train)


def pair_target_loss(logits: ag.Tensor, targets, null_class_weight: float = 1.0) -> ag.Tensor:
    """``model.masked_loss`` in its earlier form, which took the class ids out of ``PairTarget`` rows."""
    class_ids = np.asarray([t.class_id for t in targets], dtype=np.intp)
    weights = np.where(class_ids == 0, null_class_weight, 1.0)
    return ag.reduce_mean(ag.mul(ag.cross_entropy(logits, class_ids), ag.Tensor(weights)))


@dataclass(frozen=True)
class Token:
    """``windowing.Token`` in its earlier form: one token object with its character offsets."""

    surface: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """``windowing.tokenize`` in its earlier form, with the tokenizer's pattern restated."""
    return [Token(m.group(), m.start(), m.end()) for m in re.finditer(r"\n|\w+|[^\w\s]", text)]


def scan_segments(doc, window_chars, stride_chars, max_tokens=None):
    """``windowing.make_segments`` in its earlier form: each window scans every token, each piece slices Tokens.

    Returns (window_start, window_end, tokens, entities) per segment. The
    oracle, with ``scan_align_labels``, for ``make_segments`` and ``encode_segment``.
    """
    tokens = tokenize(doc.text)
    entities = sorted((e for e in doc.entities if e.etype != OTHER_TYPE), key=lambda e: (e.start, e.end, e.id))
    segments = []
    for nominal_start in window_starts(len(doc.text), window_chars, stride_chars):
        nominal_end = min(nominal_start + window_chars, len(doc.text))
        inside_tokens = tuple(t for t in tokens if t.end > nominal_start and t.start < nominal_end)
        if inside_tokens:
            snapped_start = min(nominal_start, inside_tokens[0].start)
            snapped_end = max(nominal_end, inside_tokens[-1].end)
        else:
            snapped_start, snapped_end = nominal_start, nominal_end
        spans = [(snapped_start, snapped_end, inside_tokens)]
        if max_tokens is not None and len(inside_tokens) > max_tokens:
            starts = window_starts(len(inside_tokens), max_tokens, max(1, max_tokens // 2))
            pieces = [inside_tokens[s:s + max_tokens] for s in starts]
            spans = [(piece[0].start, piece[-1].end, piece) for piece in pieces]
        for start, end, piece in spans:
            contained = tuple(e for e in entities if e.start >= start and e.end <= end)
            if len(contained) >= 2:
                segments.append((start, end, piece, contained))
    return segments


def scan_align_labels(tokens, entities, schema):
    """``windowing.align_labels`` in its earlier form: each entity scans every token of its segment."""
    label_ids = {etype: i for i, etype in enumerate(schema.entity_type_list(), start=1)}
    labels = [0] * len(tokens)
    spans = []
    for k, e in enumerate(entities):
        covered = [idx for idx, t in enumerate(tokens) if t.start < e.end and e.start < t.end]
        if not covered:
            raise WindowingError(f"entity {e.id} covers no token in its segment")
        if spans and covered[0] <= spans[-1][1]:
            raise WindowingError(f"entities {entities[k - 1].id} and {e.id} share a token; labels are ambiguous")
        for idx in covered:
            labels[idx] = label_ids[e.etype]
        spans.append((covered[0], covered[-1]))
    return tuple(labels), tuple(spans)


def cost_report_dict(report) -> dict:
    """``CostReport.to_dict`` in its earlier, hand-listed form."""
    return {
        "segments": report.segments,
        "epochs": report.epochs,
        "pairwise_forwards": report.pairwise_forwards,
        "baseline_forwards": report.baseline_forwards,
        "pairwise_forwards_analytic": report.pairwise_forwards_analytic,
        "baseline_forwards_analytic": report.baseline_forwards_analytic,
        "analytic_ratio": report.analytic_ratio,
        "pairwise_seconds": report.pairwise_seconds,
        "baseline_seconds": report.baseline_seconds,
        "measured_ratio": report.measured_ratio,
    }


def corpus_stats_dict(stats) -> dict:
    """``CorpusStats.to_dict`` in its earlier, hand-listed form."""
    return {
        "doc_count": stats.doc_count,
        "entity_total": stats.entity_total,
        "entity_counts": dict(sorted(stats.entity_counts.items())),
        "relation_total": stats.relation_total,
        "relation_counts": dict(sorted(stats.relation_counts.items())),
        "multi_frame_drug_fraction": stats.multi_frame_drug_fraction,
    }


@ag.float32_compute()
def predict_relations(model, doc, schema, vocab, class_map, window_chars, stride_chars, entities=None):
    """``model.predict_relations`` in its earlier form, a module function fed the bundle's fields one by one.

    The oracle for ``InferenceBundle.predict`` on entities that admission keeps whole.
    """
    if len(class_map) != model.config.num_classes:
        raise ModelError(
            f"class map has {len(class_map)} classes but the model was built for {model.config.num_classes}"
        )
    entity_list = tuple(entities) if entities is not None else doc.entities
    work_doc = Document(doc.doc_id, doc.text, entity_list, ())
    best: dict[tuple[str, str], tuple[float, str]] = {}
    entity_by_id = {e.id: e for e in entity_list}
    for segment in make_segments(work_doc, window_chars, stride_chars, model.config.max_positions):
        encoded = encode_segment(segment, vocab, schema, (), class_map)
        with ag.no_grad():
            logits = model.forward(encoded, train=False)
            probs = ag.row_softmax(logits).values
        class_ids, top = probs.argmax(axis=1), probs.max(axis=1)
        pairs = ordered_entity_pairs(len(encoded.entities))
        for row in np.flatnonzero(class_ids).tolist():
            a, b = pairs[row]
            key = (encoded.entities[a].id, encoded.entities[b].id)
            class_id, prob = int(class_ids[row]), float(top[row])
            if key not in best or prob > best[key][0]:
                best[key] = (prob, class_map[class_id])
    predictions = [
        PredictedRelation(rtype, entity_by_id[src], entity_by_id[tgt], prob)
        for (src, tgt), (prob, rtype) in best.items()
    ]
    predictions.sort(key=lambda p: (p.source.start, p.source.end, p.target.start, p.target.end, p.rtype))
    return predictions


def softmax_rows(values: np.ndarray) -> np.ndarray:
    """The plain-numpy softmax that prediction once ranked rows with.

    The oracle for ``ag.row_softmax``, which prediction now uses instead.
    """
    shifted = values - values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.fixture
def corp_hus():
    return CORP_HUS


def accumulate_copying_every_first_gradient(t: ag.Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """``autograd._accumulate`` in its earlier form, which copied every first gradient.

    The oracle for ``ag._accumulate``, which keeps a first gradient the op built for that input alone.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=ag.compute_dtype())
    else:
        t.grad += g


def _mean_loss(losses: list[ag.Tensor]) -> ag.Tensor:
    total = losses[0]
    for item in losses[1:]:
        total = ag.add(total, item)
    return ag.mul(total, 1.0 / len(losses))


def pairwise_batch_loss(model, config):
    """A batch's whole pairwise loss as one graph: every segment's term, summed, then scaled."""
    return lambda batch: _mean_loss([
        masked_loss(model.forward(seg, train=True), seg.class_ids, config.null_class_weight)
        for seg in batch
    ])


def baseline_batch_loss(model, config):
    """A batch's whole baseline loss as one graph: every ordered pair's term, summed, then scaled.

    A pair's term is its unweighted cross entropy, times ``config.null_class_weight``
    when the pair holds no relation.
    """
    def batch_loss(batch):
        pair_losses = []
        for seg in batch:
            for row, (a, b) in enumerate(ordered_entity_pairs(len(seg.entities))):
                logits = model.forward_pair(seg, a, b, train=True)
                target = np.asarray([seg.class_ids[row]], dtype=np.intp)
                loss = ag.reduce_mean(ag.cross_entropy(logits, target))
                if seg.class_ids[row] == 0:
                    loss = ag.mul(loss, config.null_class_weight)
                pair_losses.append(loss)
        return _mean_loss(pair_losses)

    return batch_loss


def whole_batch_fit(model, encoded, config, batch_loss) -> list[dict]:
    """The training loop in its earlier form: a batch's whole graph is built, then one backward.

    The oracle for ``train._fit``, which backpropagates each loss term as soon
    as its forward ends. Same shuffles, schedule and Adam steps; returns the run log.
    """
    total_steps = config.epochs * math.ceil(len(encoded) / config.batch_size)
    warmup_steps = int(round(config.warmup_fraction * total_steps))
    shuffler = random.Random(config.seed)
    run_log = []
    for _ in range(config.epochs):
        order = list(range(len(encoded)))
        shuffler.shuffle(order)
        for batch_start in range(0, len(order), config.batch_size):
            loss = batch_loss([encoded[i] for i in order[batch_start:batch_start + config.batch_size]])
            ag.backward(loss)
            lr = lr_at(len(run_log), config.peak_lr, warmup_steps, total_steps)
            adam_step(model.params, lr)
            run_log.append({"step": len(run_log), "lr": lr, "loss": float(loss.values), "forwards": model.encoder_forwards})
    return run_log
