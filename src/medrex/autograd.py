"""Dense float64 tensors with reverse-mode differentiation.

Each operation computes its result eagerly with numpy and, while gradients
are enabled, records a closure that pushes the output gradient back to its
inputs. ``backward`` walks the recorded graph once in reverse topological
order, accumulating (+=) into ``.grad`` buffers, then frees the graph.

The op set is intentionally small: exactly what the relation-extraction
models need. No views, no in-place arithmetic on recorded tensors, no
broadcasting rules beyond numpy's.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_grad_enabled = True
_debug_checks = True


class ShapeError(ValueError):
    """Operands with incompatible shapes for the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the autograd graph (non-scalar backward, reused graph)."""


def set_debug_checks(flag: bool) -> None:
    """Toggle the NaN/Inf assertion applied to every op output."""
    global _debug_checks
    _debug_checks = bool(flag)


def debug_checks_enabled() -> bool:
    return _debug_checks


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


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "name", "_parents", "_backprop", "_consumed")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Tensor{tag} shape={self.values.shape}>"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_finite(arr: np.ndarray, op: str) -> None:
    # a single-pass sum is NaN or +-inf iff the array holds a non-finite value
    # (finite desk-scale magnitudes cannot overflow the accumulator)
    if _debug_checks and not math.isfinite(float(arr.sum())):
        raise FloatingPointError(f"non-finite values produced by op '{op}'")


def _node(values: np.ndarray, parents: tuple[Tensor, ...], backprop, op: str) -> Tensor:
    _check_finite(values, op)
    out = Tensor(values)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # own a copy: g may alias another tensor's gradient buffer or a view
        t.grad = np.array(g, dtype=np.float64)
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
        _accumulate(a, _unbroadcast(g, a.values.shape))
        _accumulate(b, _unbroadcast(g, b.values.shape))

    return _node(values, (a, b), backprop, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        values = a.values * b.values
    except ValueError:
        raise ShapeError(f"op 'mul': shapes {a.values.shape} and {b.values.shape} do not broadcast") from None

    def backprop(g):
        _accumulate(a, _unbroadcast(g * b.values, a.values.shape))
        _accumulate(b, _unbroadcast(g * a.values, b.values.shape))

    return _node(values, (a, b), backprop, "mul")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"op 'matmul': operands must be at least 2-d, got {a.values.shape} and {b.values.shape}")
    if a.values.shape[-1] != b.values.shape[-2]:
        raise ShapeError(f"op 'matmul': inner dimensions disagree for {a.values.shape} @ {b.values.shape}")
    values = np.matmul(a.values, b.values)

    def backprop(g):
        ga = np.matmul(g, np.swapaxes(b.values, -1, -2))
        gb = np.matmul(np.swapaxes(a.values, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.values.shape))
        _accumulate(b, _unbroadcast(gb, b.values.shape))

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


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor; duplicates allowed, gradients scatter-add."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.values.ndim != 2:
        raise ShapeError(f"op 'gather_rows': expected 2-d tensor, got {x.values.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.values.shape[0]):
        raise IndexError(f"op 'gather_rows': index out of range for {x.values.shape[0]} rows")
    values = x.values[idx]

    def backprop(g):
        if x.requires_grad:
            buf = np.zeros_like(x.values)
            np.add.at(buf, idx, g)
            _accumulate(x, buf)

    return _node(values, (x,), backprop, "gather_rows")


def row_softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, numerically stabilised."""
    x = as_tensor(x)
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_values = e / e.sum(axis=-1, keepdims=True)

    def backprop(g):
        inner = (g * out_values).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - inner) * out_values)

    return _node(out_values, (x,), backprop, "row_softmax")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Smooth gating nonlinearity (tanh form); the backward differentiates this exact form."""
    x = as_tensor(x)
    v = x.values
    v_sq = v * v
    t = np.tanh(_GELU_C * (v + _GELU_A * (v_sq * v)))
    half_gate = 0.5 * (1.0 + t)
    values = v * half_gate

    def backprop(g):
        d = half_gate + 0.5 * v * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * v_sq)
        _accumulate(x, g * d)

    return _node(values, (x,), backprop, "gelu")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.values.shape[-1]
    if gain.values.shape != (n,) or bias.values.shape != (n,):
        raise ShapeError(
            f"op 'layer_norm': gain/bias must have shape ({n},), got {gain.values.shape} and {bias.values.shape}"
        )
    mu = x.values.mean(axis=-1, keepdims=True)
    centred = x.values - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normed = centred * inv
    values = normed * gain.values + bias.values

    def backprop(g):
        _accumulate(gain, _unbroadcast(g * normed, gain.values.shape))
        _accumulate(bias, _unbroadcast(g, bias.values.shape))
        if x.requires_grad:
            dn = g * gain.values
            s1 = dn.sum(axis=-1, keepdims=True)
            s2 = (dn * normed).sum(axis=-1, keepdims=True)
            _accumulate(x, inv * (dn - s1 / n - normed * s2 / n))

    return _node(values, (x, gain, bias), backprop, "layer_norm")


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 < p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if rng is None:
        raise ValueError("dropout in training mode needs an explicit rng")
    mask = (rng.random(x.values.shape) >= p) / (1.0 - p)
    values = x.values * mask

    def backprop(g):
        _accumulate(x, g * mask)

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
        _accumulate(logits, buf * g[:, None])

    return _node(values, (logits,), backprop, "cross_entropy")


def reduce_sum(x: Tensor) -> Tensor:
    x = as_tensor(x)
    values = np.asarray(x.values.sum())

    def backprop(g):
        _accumulate(x, np.full_like(x.values, float(g)))

    return _node(values, (x,), backprop, "sum")


def reduce_mean(x: Tensor) -> Tensor:
    x = as_tensor(x)
    if x.values.size == 0:
        raise ShapeError("op 'mean': cannot average an empty tensor")
    values = np.asarray(x.values.mean())
    scale = 1.0 / x.values.size

    def backprop(g):
        _accumulate(x, np.full_like(x.values, float(g) * scale))

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
    inverse = tuple(np.argsort(axes))

    def backprop(g):
        _accumulate(x, np.transpose(g, inverse))

    return _node(values, (x,), backprop, "transpose")


def scale(x: Tensor, factor: float) -> Tensor:
    return mul(x, Tensor(np.asarray(float(factor))))


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) to every reachable tensor, then free the graph."""
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

    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backprop is not None and node.grad is not None:
            if _debug_checks and not math.isfinite(float(node.grad.sum())):
                raise FloatingPointError("non-finite gradient encountered during backward")
            node._backprop(node.grad)
        node._consumed = True
        node._parents = ()
        node._backprop = None
