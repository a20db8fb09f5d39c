"""Dense tensors with reverse-mode differentiation.

Tensors hold one compute dtype, held here the way ``no_grad`` is held:
float64 by default, which the finite-difference gradient checks need, and
float32 inside ``float32_compute``, where training and inference run. New
tensors, gradients, dropout masks and op constants all take it, so every op
output stays in it.

Each operation computes its result eagerly with numpy and, while gradients
are enabled, records a closure that pushes the output gradient back to its
inputs. A closure saves only the arrays its backward reads, and computes
nothing for an input that takes no gradient. ``backward`` walks the recorded
graph once in reverse topological order, accumulating (+=) into ``.grad``
buffers, and frees each node as it goes. A node's first gradient becomes its
buffer without a copy when the op built that array for it alone; a gradient
that may share memory (``add``'s pass-through, views) is copied. Once a
node's backward has run, the node drops its gradient, its parents and its
closure, so its activations and saved arrays live only as long as a later
backward can read them. Only leaf gradients (parameters and user tensors
with ``requires_grad``) survive.

Finiteness is always checked: a NaN or Inf in an op's output or in a
gradient ``backward`` pushes raises ``FloatingPointError``.

An op writes only into arrays it allocated in that call. It never writes
into its inputs' ``.values``, into the gradient handed to its backward, or
into an array its backward has saved; within those bounds the hot ops
(``gelu``, ``layer_norm``, ``row_softmax``, ``pair_linear``) compute in
place, applying the same numpy operations in the same order as the
out-of-place expressions, so every value is the same bit for bit.

The op set is intentionally small: exactly what the relation-extraction
models need, with two fused ops where a layer is hot (``linear`` for
``x @ w + b``, ``pair_linear`` for the factorised pair layer). No views, no
in-place arithmetic on recorded tensors, no broadcasting rules beyond
numpy's. Row gathers scatter their gradient back with ``np.add.reduceat``
over rows grouped by index, never ``np.add.at``; the rows are grouped by a
stable sort unless the indices are already non-decreasing.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_grad_enabled = True
_dtype = np.dtype(np.float64)


class ShapeError(ValueError):
    """Operands with incompatible shapes for the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the autograd graph (non-scalar backward, reused graph)."""


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, finite differences)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


@contextlib.contextmanager
def float32_compute():
    """Compute in float32 inside the block (training and inference); float64 holds outside it."""
    global _dtype
    previous = _dtype
    _dtype = np.dtype(np.float32)
    try:
        yield
    finally:
        _dtype = previous


def compute_dtype() -> np.dtype:
    return _dtype


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backprop", "_consumed", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_finite(arr: np.ndarray, op: str) -> None:
    # element-wise, not a sum: a float32 sum of finite values can overflow
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values produced by op '{op}'")


def _records(*parents: Tensor) -> bool:
    """True when an op on these inputs records a node for backward."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(values: np.ndarray, parents: tuple[Tensor, ...], backprop, op: str) -> Tensor:
    _check_finite(values, op)
    out = Tensor(values)
    if _records(*parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    ``fresh`` marks an array the op built in this call for ``t`` alone, which
    a first gradient keeps as its buffer. Any other ``g`` may be another
    tensor's gradient or a view of one, so a first gradient copies it.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=_dtype) if fresh else np.array(g, dtype=_dtype)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast in the forward pass."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    collapsed = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if collapsed:
        g = g.sum(axis=collapsed, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        values = a.values + b.values
    except ValueError:
        raise ShapeError(f"op 'add': shapes {a.values.shape} and {b.values.shape} do not broadcast") from None

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.values.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.values.shape))

    return _node(values, (a, b), backprop, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"op 'mul': shapes {a.values.shape} and {b.values.shape} do not broadcast") from None

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.values, a.values.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.values, b.values.shape), fresh=True)

    return _node(values, (a, b), backprop, "mul")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"op 'matmul': operands must be at least 2-d, got {a.values.shape} and {b.values.shape}")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"op 'matmul': inner dimensions disagree for {a.values.shape} @ {b.values.shape}")
    values = np.matmul(a.values, b.values)

    def backprop(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(np.matmul(g, np.swapaxes(b.values, -1, -2)), a.values.shape), fresh=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.matmul(np.swapaxes(a.values, -1, -2), g), b.values.shape), fresh=True)

    return _node(values, (a, b), backprop, "matmul")


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("op 'concat': needs at least one operand")
    lead = parts[0].values.shape[:-1]
    for p in parts[1:]:
        if p.values.shape[:-1] != lead:
            raise ShapeError(
                f"op 'concat': leading dims disagree, {parts[0].values.shape} vs {p.values.shape}"
            )
    values = np.concatenate([p.values for p in parts], axis=-1)
    widths = [p.values.shape[-1] for p in parts]

    def backprop(g):
        offset = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[..., offset:offset + w])
            offset += w

    return _node(values, tuple(parts), backprop, "concat")


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for 2-d ``x`` as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.values.ndim != 2 or w.values.ndim != 2 or b.values.shape != w.values.shape[1:]:
        raise ShapeError(
            f"op 'linear': need [n, k] @ [k, m] + [m], got {x.values.shape}, {w.values.shape}, {b.values.shape}"
        )
    if x.values.shape[1] != w.values.shape[0]:
        raise ShapeError(f"op 'linear': inner dimensions disagree for {x.values.shape} @ {w.values.shape}")
    values = x.values @ w.values
    values += b.values

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, g @ w.values.T, fresh=True)
        if w.requires_grad:
            _accumulate(w, x.values.T @ g, fresh=True)
        _accumulate(b, g.sum(axis=0), fresh=True)

    return _node(values, (x, w, b), backprop, "linear")


def _scatter_rows(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum row r of ``g`` into row ``idx[r]`` of an [n_rows, ...] zero array.

    The gradient of a row gather. Distinct indices are a plain assignment;
    otherwise a stable sort groups equal indices and ``np.add.reduceat`` sums
    each group in its original row order, so the result is deterministic.
    Non-decreasing indices are grouped already, so they skip the sort and
    the reordered copy of ``g``.
    """
    out = np.zeros((n_rows,) + g.shape[1:], dtype=g.dtype)
    if idx.size == 0:
        return out
    if (idx[1:] >= idx[:-1]).all():
        ordered, g_ordered = idx, g
    else:
        order = np.argsort(idx, kind="stable")
        ordered, g_ordered = idx[order], g[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    if starts.size == idx.size:
        out[idx] = g
    else:
        out[ordered[starts]] = np.add.reduceat(g_ordered, starts, axis=0)
    return out


def _check_rows(op: str, idx: np.ndarray, n_rows: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"op '{op}': index out of range for {n_rows} rows")


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; duplicates allowed, gradients scatter-add."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.values.ndim != 2:
        raise ShapeError(f"op 'gather_rows': expected 2-d tensor, got {x.values.shape}")
    _check_rows("gather_rows", idx, x.values.shape[0])
    values = x.values[idx]

    def backprop(g):
        if x.requires_grad:
            _accumulate(x, _scatter_rows(g, idx, x.values.shape[0]), fresh=True)

    return _node(values, (x,), backprop, "gather_rows")


def pair_linear(x, rel, w, b, i_idx, j_idx, rel_idx) -> Tensor:
    """``[x[i]; x[j]; rel[r]] @ w + b`` for each pair row (i, j, r), without building those rows.

    ``w``'s rows split into the blocks (W_i, W_j, W_r) that multiply the three
    parts, so row k is ``A[i_k] + B[j_k] + P[r_k]`` with ``A = x·W_i`` and
    ``B = x·W_j`` over every row of x (the caller passes the rows it pairs),
    and ``P = rel·W_r + b`` over the distinct rows of rel. The backward
    scatters the output gradient into A, B and P and applies the same blocks.
    """
    x, rel, w, b = as_tensor(x), as_tensor(rel), as_tensor(w), as_tensor(b)
    i_idx, j_idx, rel_idx = (np.asarray(a, dtype=np.intp) for a in (i_idx, j_idx, rel_idx))
    if x.values.ndim != 2 or rel.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeError(
            f"op 'pair_linear': x, rel and w must be 2-d, got {x.values.shape}, {rel.values.shape}, {w.values.shape}"
        )
    n, width = x.values.shape
    if w.values.shape[0] != 2 * width + rel.values.shape[1] or b.values.shape != w.values.shape[1:]:
        raise ShapeError(
            f"op 'pair_linear': w {w.values.shape} and b {b.values.shape} do not fit "
            f"pair rows of width 2 * {width} + {rel.values.shape[1]}"
        )
    if not i_idx.shape == j_idx.shape == rel_idx.shape or i_idx.ndim != 1:
        raise ShapeError(f"op 'pair_linear': index arrays differ, {i_idx.shape}, {j_idx.shape}, {rel_idx.shape}")
    _check_rows("pair_linear", np.concatenate([i_idx, j_idx]), n)
    _check_rows("pair_linear", rel_idx, rel.values.shape[0])
    rel_rows, ir = np.unique(rel_idx, return_inverse=True)
    w_i, w_j, w_r = w.values[:width], w.values[width:2 * width], w.values[2 * width:]
    h, e = x.values, rel.values[rel_rows]
    a_tab, b_tab, p_tab = h @ w_i, h @ w_j, e @ w_r + b.values
    values = a_tab[i_idx]
    values += b_tab[j_idx]
    values += p_tab[ir]

    def backprop(g):
        g_a = _scatter_rows(g, i_idx, n)
        g_b = _scatter_rows(g, j_idx, n)
        g_p = _scatter_rows(g, ir, rel_rows.size)
        if x.requires_grad:
            gx = g_a @ w_i.T
            gx += g_b @ w_j.T
            _accumulate(x, gx, fresh=True)
        if rel.requires_grad:
            grel = np.zeros_like(rel.values)
            grel[rel_rows] = g_p @ w_r.T
            _accumulate(rel, grel, fresh=True)
        if w.requires_grad:
            _accumulate(w, np.concatenate([h.T @ g_a, h.T @ g_b, e.T @ g_p]), fresh=True)
        _accumulate(b, g.sum(axis=0), fresh=True)

    return _node(values, (x, rel, w, b), backprop, "pair_linear")


def row_softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, numerically stabilised."""
    x = as_tensor(x)
    out_values = x.values - x.values.max(axis=-1, keepdims=True)
    np.exp(out_values, out=out_values)
    out_values /= out_values.sum(axis=-1, keepdims=True)

    def backprop(g):
        gx = g * out_values
        inner = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=gx)
        gx *= out_values
        _accumulate(x, gx, fresh=True)

    return _node(out_values, (x,), backprop, "row_softmax")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_LAYER_NORM_EPS = 1e-5


def gelu(x: Tensor) -> Tensor:
    """Smooth gating nonlinearity (tanh form); the backward differentiates this exact form.

    While recording, the forward also computes the derivative and saves only
    that; under ``no_grad`` it computes no derivative.
    """
    x = as_tensor(x)
    v = x.values
    v_sq = v * v
    # t = tanh(C * (v + A * v^3)), built in one buffer
    t = v_sq * v
    t *= _GELU_A
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    if not _records(x):
        # values = v * half_gate, with half_gate = 0.5 * (1 + t), in t's buffer
        t += 1.0
        t *= 0.5
        t *= v
        return _node(t, (x,), None, "gelu")
    half_gate = t + 1.0
    half_gate *= 0.5
    # d = half_gate + 0.5 * v * (1 - t * t) * C * (1 + 3 * A * v_sq), evaluated left to right
    t *= t
    np.subtract(1.0, t, out=t)
    v_sq *= 3.0 * _GELU_A
    v_sq += 1.0
    d = 0.5 * v
    d *= t
    d *= _GELU_C
    d *= v_sq
    d += half_gate
    # d was half_gate's last reader, so its buffer takes the output
    values = half_gate
    values *= v

    def backprop(g):
        _accumulate(x, g * d, fresh=True)

    return _node(values, (x,), backprop, "gelu")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.values.shape[-1]
    if gain.values.shape != (n,) or bias.values.shape != (n,):
        raise ShapeError(
            f"op 'layer_norm': gain/bias must have shape ({n},), got {gain.values.shape} and {bias.values.shape}"
        )
    mu = np.add.reduce(x.values, axis=-1, keepdims=True) / n
    centred = x.values - mu
    # the squares' buffer takes the output once var is summed
    values = centred * centred
    var = np.add.reduce(values, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    normed = centred
    normed *= inv
    np.multiply(normed, gain.values, out=values)
    values += bias.values

    def backprop(g):
        _accumulate(gain, _unbroadcast(g * normed, gain.values.shape), fresh=True)
        # on 1-d input this is g itself
        _accumulate(bias, _unbroadcast(g, bias.values.shape))
        if x.requires_grad:
            # gx = inv * (dn - s1 / n - normed * s2 / n), evaluated left to right
            dn = g * gain.values
            s1 = dn.sum(axis=-1, keepdims=True)
            gx = dn * normed
            s2 = gx.sum(axis=-1, keepdims=True)
            np.multiply(normed, s2, out=gx)
            gx /= n
            dn -= s1 / n
            np.subtract(dn, gx, out=gx)
            gx *= inv
            _accumulate(x, gx, fresh=True)

    return _node(values, (x, gain, bias), backprop, "layer_norm")


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 < p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    # a boolean mask and one scale factor: x * keep * factor equals x * (keep / (1 - p)) bit for bit
    keep = rng.random(x.values.shape, dtype=_dtype) >= p
    factor = _dtype.type(1) / _dtype.type(1 - p)
    values = x.values * keep
    values *= factor

    def backprop(g):
        gx = g * keep
        gx *= factor
        _accumulate(x, gx, fresh=True)

    return _node(values, (x,), backprop, "dropout")


def cross_entropy(logits: Tensor, class_ids) -> Tensor:
    """Per-row cross entropy of [n, c] logits against n integer class ids."""
    logits = as_tensor(logits)
    ids = np.asarray(class_ids, dtype=np.intp)
    if logits.values.ndim != 2:
        raise ShapeError(f"op 'cross_entropy': logits must be 2-d, got {logits.values.shape}")
    n, c = logits.values.shape
    if ids.shape != (n,):
        raise ShapeError(f"op 'cross_entropy': expected {n} class ids, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= c):
        raise IndexError(f"op 'cross_entropy': class id out of range for {c} classes")
    shifted = logits.values - logits.values.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(n)
    values = -log_probs[rows, ids]
    probs = np.exp(log_probs)

    def backprop(g):
        buf = probs.copy()
        buf[rows, ids] -= 1.0
        _accumulate(logits, buf * g[:, None], fresh=True)

    return _node(values, (logits,), backprop, "cross_entropy")


def reduce_mean(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if x.values.size == 0:
        raise ShapeError("op 'mean': cannot average an empty tensor")
    values = np.asarray(x.values.mean())
    scale = 1.0 / x.values.size

    def backprop(g):
        _accumulate(x, np.full_like(x.values, float(g) * scale), fresh=True)

    return _node(values, (x,), backprop, "mean")


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    values = x.values.reshape(shape)

    def backprop(g):
        _accumulate(x, g.reshape(x.values.shape))

    return _node(values, (x,), backprop, "reshape")


def transpose(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    values = np.transpose(x.values, axes)

    def backprop(g):
        _accumulate(x, np.transpose(g, np.argsort(axes)))

    return _node(values, (x,), backprop, "transpose")


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into the ``.grad`` of every reachable leaf, freeing the graph as it goes.

    Nodes are popped in reverse topological order. After its backward has
    run, a node made by an op drops its gradient, parents and closure, so
    nothing keeps a node alive once no later backward can read it. Leaves
    (tensors no op made) keep their ``.grad``.
    """
    if loss.values.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.values.shape}")
    if loss._consumed:
        raise GraphError("backward already ran on this graph; run the forward pass again")

    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones((), dtype=_dtype)
    while order:
        node = order.pop()
        if node._backprop is not None:
            if node.grad is not None:
                if not np.isfinite(node.grad).all():
                    raise FloatingPointError("non-finite gradient encountered during backward")
                node._backprop(node.grad)
            node.grad = None
        node._consumed = True
        node._parents = ()
        node._backprop = None
