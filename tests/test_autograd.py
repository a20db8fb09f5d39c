import contextlib
import inspect
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medrex import autograd as ag
from medrex.optim import finite_diff_check
from medrex.windowing import ordered_entity_pairs

from .conftest import (
    dropout_with_float_mask,
    gelu_saving_temporaries,
    layer_norm_out_of_place,
    pair_linear_out_of_place,
    row_softmax_out_of_place,
    scatter_rows_sorting_always,
    total,
)


def _param(rng, shape):
    return ag.Tensor(rng.standard_normal(shape), requires_grad=True)


def _check_op(loss_fn, params, tol=1e-6, samples=64, seed=0):
    result = finite_diff_check(loss_fn, params, samples_per_param=samples, seed=seed)
    assert result.max_rel_error < tol, str(result)


def test_row_softmax_uniform():
    out = ag.row_softmax(ag.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.values, [1 / 3, 1 / 3, 1 / 3])


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    out = ag.matmul(ag.Tensor(np.eye(3)), ag.Tensor(a))
    np.testing.assert_allclose(out.values, a)


def test_cross_entropy_closed_form():
    loss = ag.cross_entropy(ag.Tensor([[0.0, 0.0]]), [0])
    assert loss.values[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_square_sum_gradient():
    w = ag.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ag.backward(total(ag.mul(w, w)))
    np.testing.assert_allclose(w.grad, 2 * w.values)


def test_gradient_accumulates_on_reuse():
    w = ag.Tensor(np.array([2.0]), requires_grad=True)
    ag.backward(total(ag.add(w, w)))
    np.testing.assert_allclose(w.grad, [2.0])


def test_backward_rejects_non_scalar():
    w = ag.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ag.GraphError):
        ag.backward(ag.add(w, w))


def test_backward_twice_rejected():
    w = ag.Tensor(np.ones(3), requires_grad=True)
    loss = total(w)
    ag.backward(loss)
    with pytest.raises(ag.GraphError):
        ag.backward(loss)


def test_backward_frees_each_node_once_its_backward_has_run():
    x = ag.Tensor(np.linspace(-2.0, 2.0, 6), requires_grad=True)
    inner = ag.mul(x, x)
    outer = ag.gelu(inner)
    loss = total(outer)
    outer_ref = weakref.ref(outer)
    del outer
    alive_during_inner_backward = []
    inner_backprop = inner._backprop

    def spy(g):
        alive_during_inner_backward.append(outer_ref() is not None)
        inner_backprop(g)

    inner._backprop = spy
    ag.backward(loss)
    # the gelu node was freed before the node feeding it ran its backward
    assert alive_during_inner_backward == [False]
    # a held intermediate keeps its values but no gradient; the leaf keeps its gradient
    assert inner.grad is None and loss.grad is None
    np.testing.assert_array_equal(inner.values, x.values * x.values)
    assert x.grad is not None and x.grad.shape == (6,)
    inner_ref = weakref.ref(inner)
    del inner
    assert inner_ref() is None


def test_shape_mismatch_names_op_and_shapes():
    a = ag.Tensor(np.ones((2, 3)))
    b = ag.Tensor(np.ones((4, 5)))
    with pytest.raises(ag.ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        ag.matmul(a, b)
    with pytest.raises(ag.ShapeError, match="add"):
        ag.add(ag.Tensor(np.ones(3)), ag.Tensor(np.ones(4)))


def test_debug_mode_rejects_non_finite():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        ag.mul(ag.Tensor([1e308]), ag.Tensor([1e308]))


def test_no_grad_skips_recording():
    w = ag.Tensor(np.ones(3), requires_grad=True)
    with ag.no_grad():
        out = ag.add(w, w)
    assert not out.requires_grad
    assert out._parents == ()


def test_add_gradcheck():
    rng = np.random.default_rng(1)
    a, b = _param(rng, (4, 5)), _param(rng, (5,))
    _check_op(lambda: total(ag.mul(ag.add(a, b), ag.add(a, b))), {"a": a, "b": b})


def test_mul_gradcheck():
    rng = np.random.default_rng(2)
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    _check_op(lambda: ag.reduce_mean(ag.mul(a, b)), {"a": a, "b": b})


def test_matmul_gradcheck():
    rng = np.random.default_rng(3)
    a, b = _param(rng, (4, 6)), _param(rng, (6, 3))
    _check_op(lambda: total(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), {"a": a, "b": b})


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(4)
    a, b = _param(rng, (2, 3, 4)), _param(rng, (2, 4, 5))
    _check_op(lambda: ag.reduce_mean(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), {"a": a, "b": b})


def test_concat_gradcheck():
    rng = np.random.default_rng(5)
    a, b = _param(rng, (3, 2)), _param(rng, (3, 4))
    _check_op(lambda: total(ag.mul(ag.concat([a, b]), ag.concat([a, b]))), {"a": a, "b": b})


def test_gather_rows_gradcheck():
    rng = np.random.default_rng(6)
    table = _param(rng, (7, 3))
    idx = [0, 3, 3, 6, 1]
    _check_op(lambda: total(ag.mul(ag.gather_rows(table, idx), ag.gather_rows(table, idx))), {"t": table})


def test_gather_rows_gradcheck_with_unsorted_repeated_indices():
    rng = np.random.default_rng(15)
    table = _param(rng, (7, 3))
    idx = [4, 1, 4, 4, 0, 1, 6, 4]
    w = ag.Tensor(rng.standard_normal((len(idx), 3)))
    _check_op(lambda: total(ag.mul(ag.gather_rows(table, idx), w)), {"t": table})


def test_linear_gradcheck():
    rng = np.random.default_rng(16)
    x, w, b = _param(rng, (4, 6)), _param(rng, (6, 3)), _param(rng, (3,))
    _check_op(lambda: total(ag.mul(ag.linear(x, w, b), ag.linear(x, w, b))), {"x": x, "w": w, "b": b})


def test_linear_equals_matmul_plus_add_bit_for_bit():
    rng = np.random.default_rng(17)
    arrays = [rng.standard_normal(shape) for shape in ((5, 4), (4, 3), (3,))]
    weights = ag.Tensor(rng.standard_normal((5, 3)))
    results = []
    for fused in (True, False):
        x, w, b = (ag.Tensor(a, requires_grad=True) for a in arrays)
        out = ag.linear(x, w, b) if fused else ag.add(ag.matmul(x, w), b)
        ag.backward(total(ag.mul(out, weights)))
        results.append([out.values, x.grad, w.grad, b.grad])
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ag.ShapeError, match="linear"):
        ag.linear(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((4, 5))), ag.Tensor(np.ones(5)))
    with pytest.raises(ag.ShapeError, match="linear"):
        ag.linear(ag.Tensor(np.ones((2, 3))), ag.Tensor(np.ones((3, 5))), ag.Tensor(np.ones(4)))


# repeated pairs, a reversed pair and a shared distance row
_PAIRS = ([0, 2, 2, 5, 0, 3], [2, 0, 0, 1, 2, 5], [6, 2, 2, 0, 6, 6])


def _pair_inputs(rng):
    x, rel = _param(rng, (6, 3)), _param(rng, (9, 2))
    w, b = _param(rng, (2 * 3 + 2, 4)), _param(rng, (4,))
    return (x, rel, w, b, *_PAIRS)


def test_pair_linear_equals_concat_then_linear():
    x, rel, w, b, i_idx, j_idx, rel_idx = _pair_inputs(np.random.default_rng(18))
    features = ag.concat([ag.gather_rows(x, i_idx), ag.gather_rows(x, j_idx), ag.gather_rows(rel, rel_idx)])
    want = ag.linear(features, w, b).values
    got = ag.pair_linear(x, rel, w, b, i_idx, j_idx, rel_idx).values
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    empty = ag.pair_linear(x, rel, w, b, [], [], [])
    assert empty.shape == (0, 4)


def test_pair_linear_gradcheck_with_repeated_pairs():
    rng = np.random.default_rng(19)
    x, rel, w, b, i_idx, j_idx, rel_idx = _pair_inputs(rng)
    weights = ag.Tensor(rng.standard_normal((len(i_idx), 4)))
    _check_op(
        lambda: total(ag.mul(ag.gelu(ag.pair_linear(x, rel, w, b, i_idx, j_idx, rel_idx)), weights)),
        {"x": x, "rel": rel, "w": w, "b": b},
    )


def test_pair_linear_rejects_bad_shapes_and_indices():
    x, rel, w, b, i_idx, j_idx, rel_idx = _pair_inputs(np.random.default_rng(20))
    with pytest.raises(ag.ShapeError, match="pair_linear"):
        ag.pair_linear(x, rel, ag.Tensor(np.ones((7, 4))), b, i_idx, j_idx, rel_idx)
    with pytest.raises(ag.ShapeError, match="pair_linear"):
        ag.pair_linear(x, rel, w, b, i_idx, j_idx[:-1], rel_idx)
    with pytest.raises(IndexError, match="pair_linear"):
        ag.pair_linear(x, rel, w, b, [0, 6], [1, 2], [0, 0])
    with pytest.raises(IndexError, match="pair_linear"):
        ag.pair_linear(x, rel, w, b, [0, 1], [1, 2], [0, 9])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(st.integers(0, 11), max_size=40),
    st.booleans(),
    st.booleans(),
    st.integers(0, 10_000),
)
def test_row_scatter_matches_add_at(n_rows, raw_idx, non_decreasing, column_slice, seed):
    idx = np.asarray([i % n_rows for i in raw_idx], dtype=np.intp)
    if non_decreasing:
        idx = np.sort(idx)
    g = np.random.default_rng(seed).standard_normal((idx.size, 5))
    # a column slice is how concat hands a gather its gradient
    g = g[:, 1:4] if column_slice else np.ascontiguousarray(g[:, :3])
    want = np.zeros((n_rows, 3))
    np.add.at(want, idx, g)
    got = ag._scatter_rows(g, idx, n_rows)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got, ag._scatter_rows(g, idx, n_rows))
    _assert_same_bits(got, scatter_rows_sorting_always(g, idx, n_rows))


def test_softmax_gradcheck():
    rng = np.random.default_rng(7)
    x = _param(rng, (4, 5))
    w = ag.Tensor(rng.standard_normal((4, 5)))
    _check_op(lambda: total(ag.mul(ag.row_softmax(x), w)), {"x": x})


def test_gelu_gradcheck():
    rng = np.random.default_rng(9)
    x = _param(rng, (4, 5))
    _check_op(lambda: ag.reduce_mean(ag.mul(ag.gelu(x), ag.gelu(x))), {"x": x})


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(10)
    x = _param(rng, (4, 6))
    gain = ag.Tensor(1.0 + 0.1 * rng.standard_normal(6), requires_grad=True)
    bias = _param(rng, (6,))
    w = ag.Tensor(rng.standard_normal((4, 6)))
    _check_op(
        lambda: total(ag.mul(ag.layer_norm(x, gain, bias), w)),
        {"x": x, "g": gain, "b": bias},
        tol=1e-5,
    )


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(11)
    logits = _param(rng, (6, 4))
    ids = [0, 1, 2, 3, 1, 0]
    _check_op(lambda: ag.reduce_mean(ag.cross_entropy(logits, ids)), {"logits": logits})


def test_dropout_gradcheck_with_fixed_seed():
    rng = np.random.default_rng(12)
    x = _param(rng, (5, 5))

    def loss():
        drop_rng = np.random.default_rng(99)
        return total(ag.mul(ag.dropout(x, 0.4, drop_rng, training=True), x))

    _check_op(loss, {"x": x})


def test_reshape_transpose_gradcheck():
    rng = np.random.default_rng(13)
    x = _param(rng, (2, 3, 4))

    def loss():
        y = ag.transpose(x, (1, 0, 2))
        z = ag.reshape(y, (3, 8))
        return total(ag.mul(z, z))

    _check_op(loss, {"x": x})


def test_dropout_eval_mode_is_identity():
    x = ag.Tensor(np.ones((3, 3)), requires_grad=True)
    assert ag.dropout(x, 0.5, training=False) is x


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6), min_size=1, max_size=5).filter(
    lambda rows: len({len(r) for r in rows}) == 1
))
def test_softmax_rows_sum_to_one(rows):
    out = ag.row_softmax(ag.Tensor(np.array(rows)))
    np.testing.assert_allclose(out.values.sum(axis=-1), np.ones(len(rows)), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 6),
    st.integers(0, 10_000),
)
def test_cross_entropy_non_negative(n, c, seed):
    rng = np.random.default_rng(seed)
    logits = ag.Tensor(rng.standard_normal((n, c)) * 5)
    ids = rng.integers(0, c, size=n)
    assert (ag.cross_entropy(logits, ids).values >= 0).all()


def test_float32_compute_holds_the_dtype_inside_the_block_only():
    rng = np.random.default_rng(14)
    assert ag.compute_dtype() == np.float64
    with ag.float32_compute():
        assert ag.compute_dtype() == np.float32
        x = ag.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = ag.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        h = ag.dropout(ag.gelu(ag.matmul(x, w)), 0.5, np.random.default_rng(0), training=True)
        loss = ag.reduce_mean(ag.mul(ag.cross_entropy(h, [0, 1, 1, 0]), 3.0))
        ag.backward(loss)
    assert ag.compute_dtype() == np.float64
    assert {t.values.dtype for t in (x, w, h, loss)} == {np.dtype(np.float32)}
    assert x.grad.dtype == w.grad.dtype == np.float32
    assert ag.Tensor([1.0]).values.dtype == np.float64


def test_float32_compute_restores_float64_after_an_error():
    with pytest.raises(RuntimeError), ag.float32_compute():
        raise RuntimeError("boom")
    assert ag.compute_dtype() == np.float64


def test_float32_dropout_mask_keeps_the_expected_share():
    with ag.float32_compute():
        x = ag.Tensor(np.ones((200, 50)), requires_grad=True)
        out = ag.dropout(x, 0.25, np.random.default_rng(3), training=True)
    kept = out.values != 0
    assert out.values.dtype == np.float32
    assert abs(kept.mean() - 0.75) < 0.02
    np.testing.assert_allclose(out.values[kept], 1.0 / 0.75, rtol=1e-6)


def test_float32_forward_overflow_raises():
    # 1e30 * 1e30 is finite in float64 but overflows float32
    with ag.float32_compute(), np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="mul"):
        ag.mul(ag.Tensor([1e30]), ag.Tensor([1e30]))


def test_float32_backward_overflow_raises():
    # the forward values stay finite; the gradient reaching `a` is 1e60, past float32's range
    with ag.float32_compute(), np.errstate(over="ignore"):
        x = ag.Tensor([1.0], requires_grad=True)
        a = ag.mul(x, 1e-30)
        u = ag.mul(a, ag.Tensor([1e30]))
        loss = total(ag.mul(u, ag.Tensor([1e30])))
        assert np.isfinite(loss.values)
        with pytest.raises(FloatingPointError, match="backward"):
            ag.backward(loss)


def test_float32_finite_values_whose_sum_overflows_pass_forward():
    with ag.float32_compute():
        out = ag.mul(ag.Tensor([3e38, 3e38]), ag.Tensor([1.0, 1.0]))
    np.testing.assert_array_equal(out.values, np.float32([3e38, 3e38]))


def test_float32_finite_gradient_whose_sum_overflows_passes_backward():
    # the gradient reaching `a` is [3e38, 3e38]: each entry is finite, their float32 sum is not
    with ag.float32_compute():
        x = ag.Tensor([1.0, 1.0], requires_grad=True)
        a = ag.mul(x, 1e-30)
        loss = total(ag.mul(a, ag.Tensor([3e38, 3e38])))
        ag.backward(loss)
    np.testing.assert_allclose(x.grad, [3e8, 3e8], rtol=1e-6)


def _signed_inputs(dtype):
    rng = np.random.default_rng(15)
    values = rng.standard_normal((6, 40)) * np.array([[1e-3], [0.5], [1.0], [3.0], [10.0], [1e-30]])
    values[0, :4] = [0.0, -0.0, 5e-324, -5e-324]
    weights = rng.standard_normal((6, 40))
    weights[1, :6] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
    return values.astype(dtype), weights.astype(dtype)


def _values_and_gradients(op, inputs, weights) -> list[np.ndarray]:
    """``op``'s output over leaves holding ``inputs``, then each leaf's gradient of sum(output * weights)."""
    leaves = [ag.Tensor(a, requires_grad=True) for a in inputs]
    y = op(*leaves)
    out = y.values.copy()
    ag.backward(total(ag.mul(y, ag.Tensor(weights))))
    return [out] + [leaf.grad for leaf in leaves]


def _value_and_input_gradient(op, values, weights):
    return tuple(_values_and_gradients(op, [values], weights))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_gelu_matches_its_earlier_form_bit_for_bit(compute):
    with compute():
        values, weights = _signed_inputs(ag.compute_dtype())
        got = _value_and_input_gradient(ag.gelu, values, weights)
        want = _value_and_input_gradient(gelu_saving_temporaries, values, weights)
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.9])
def test_dropout_matches_its_earlier_form_bit_for_bit(compute, p):
    with compute():
        values, weights = _signed_inputs(ag.compute_dtype())
        got = _value_and_input_gradient(
            lambda x: ag.dropout(x, p, np.random.default_rng(5), training=True), values, weights)
        want = _value_and_input_gradient(
            lambda x: dropout_with_float_mask(x, p, np.random.default_rng(5)), values, weights)
    assert np.signbit(got[0][got[0] == 0]).any()
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_row_softmax_matches_its_earlier_form_bit_for_bit(compute):
    with compute():
        values, weights = _signed_inputs(ag.compute_dtype())
        got = _values_and_gradients(ag.row_softmax, [values], weights)
        want = _values_and_gradients(row_softmax_out_of_place, [values], weights)
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
def test_layer_norm_matches_its_earlier_form_bit_for_bit(compute):
    with compute():
        values, weights = _signed_inputs(ag.compute_dtype())
        gain, bias = (1.0 + weights[2:4]).astype(values.dtype)
        gain[:4] = [0.0, -0.0, 1.0, -1.0]
        inputs = [values, gain, bias]
        got = _values_and_gradients(ag.layer_norm, inputs, weights)
        want = _values_and_gradients(layer_norm_out_of_place, inputs, weights)
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


def _ordered_pairs(m: int) -> tuple[np.ndarray, ...]:
    """The model's pair indices over m heads: i non-decreasing, distance rows of 9."""
    i_idx, j_idx = np.asarray(ordered_entity_pairs(m), dtype=np.intp).T
    return i_idx, j_idx, np.clip(j_idx - i_idx, -4, 4) + 4


def _unsorted_pairs(m: int) -> tuple[np.ndarray, ...]:
    """Unsorted pair indices with repeated pairs, a self pair and shared distance rows."""
    rng = np.random.default_rng(26)
    i_idx = np.concatenate([[4, 1, 4, 4, 0, 1, 5, 2], rng.integers(0, m, 30)])
    j_idx = np.concatenate([[1, 4, 1, 1, 2, 4, 5, 0], rng.integers(0, m, 30)])
    return i_idx, j_idx, rng.integers(0, 9, i_idx.size)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
@pytest.mark.parametrize("pairs", [_ordered_pairs, _unsorted_pairs])
def test_pair_linear_matches_its_earlier_form_bit_for_bit(compute, pairs):
    with compute():
        dtype = ag.compute_dtype()
        x, weights = _signed_inputs(dtype)
        i_idx, j_idx, rel_idx = pairs(x.shape[0])
        assert (np.diff(i_idx) >= 0).all() == (pairs is _ordered_pairs)
        rng = np.random.default_rng(27)
        rel, w, b = (rng.standard_normal(shape).astype(dtype) for shape in ((9, 8), (2 * 40 + 8, 16), (16,)))
        w[::7, :3] = -0.0
        out_weights = np.resize(weights, (i_idx.size, 16))
        inputs = [x, rel, w, b]
        got = _values_and_gradients(
            lambda *t: ag.pair_linear(*t, i_idx, j_idx, rel_idx), inputs, out_weights)
        want = _values_and_gradients(
            lambda *t: pair_linear_out_of_place(*t, i_idx, j_idx, rel_idx), inputs, out_weights)
    for g, w in zip(got, want):
        _assert_same_bits(g, w)


_EVERY_OP = {
    "add": ([(3, 4), (4,)], ag.add),
    "mul": ([(3, 4), (3, 4)], ag.mul),
    "matmul": ([(2, 3, 4), (2, 4, 2)], ag.matmul),
    "concat": ([(3, 2), (3, 4)], lambda a, b: ag.concat([a, b])),
    "linear": ([(3, 4), (4, 2), (2,)], ag.linear),
    "gather_rows": ([(4, 3)], lambda x: ag.gather_rows(x, [3, 0, 3, 1])),
    "pair_linear": ([(6, 3), (9, 2), (8, 4), (4,)], lambda x, rel, w, b: ag.pair_linear(x, rel, w, b, *_PAIRS)),
    "row_softmax": ([(3, 4)], ag.row_softmax),
    "gelu": ([(3, 4)], ag.gelu),
    "layer_norm": ([(3, 4), (4,), (4,)], ag.layer_norm),
    "dropout": ([(3, 4)], lambda x: ag.dropout(x, 0.3, np.random.default_rng(1), training=True)),
    "cross_entropy": ([(3, 4)], lambda x: ag.cross_entropy(x, [0, 3, 1])),
    "mean": ([(3, 4)], ag.reduce_mean),
    "reshape": ([(3, 4)], lambda x: ag.reshape(x, (2, 6))),
    "transpose": ([(2, 3, 4)], lambda x: ag.transpose(x, (1, 2, 0))),
}


def test_every_op_has_an_ownership_case():
    assert set(re.findall(r'_node\(.*"(\w+)"\)', inspect.getsource(ag))) == set(_EVERY_OP)


@pytest.mark.parametrize("compute", [contextlib.nullcontext, ag.float32_compute])
@pytest.mark.parametrize("op", sorted(_EVERY_OP))
def test_an_op_writes_into_no_input_no_handed_gradient_and_nothing_it_saved(compute, op):
    shapes, build = _EVERY_OP[op]
    with compute():
        rng = np.random.default_rng(25)
        leaves = [_param(rng, shape) for shape in shapes]
        inputs = [leaf.values.copy() for leaf in leaves]
        with ag.no_grad():
            unrecorded = build(*leaves).values.copy()
        out = build(*leaves)
        values = out.values.copy()
        g = np.asarray(rng.standard_normal(out.shape), dtype=ag.compute_dtype())
        handed = g.copy()
        # a backward that wrote into an array it saved would give another gradient the second time
        gradients = []
        for _ in range(2):
            for leaf in leaves:
                leaf.grad = None
            out._backprop(g)
            gradients.append([leaf.grad.copy() for leaf in leaves])
    _assert_same_bits(values, unrecorded)
    _assert_same_bits(out.values, values)
    _assert_same_bits(g, handed)
    for leaf, before in zip(leaves, inputs):
        _assert_same_bits(leaf.values, before)
    for first, second in zip(*gradients):
        _assert_same_bits(first, second)


def test_gelu_under_no_grad_records_nothing():
    x = ag.Tensor(np.linspace(-3.0, 3.0, 7), requires_grad=True)
    with ag.no_grad():
        out = ag.gelu(x)
    assert out._backprop is None and not out.requires_grad
    _assert_same_bits(out.values, gelu_saving_temporaries(ag.Tensor(x.values)).values)


def _record_first_gradients(monkeypatch) -> dict:
    """id(tensor) -> the array its first ``_accumulate`` call handed over."""
    first = {}
    original = ag._accumulate

    def recording(t, g, fresh=False):
        if t.requires_grad and t.grad is None:
            first[id(t)] = g
        original(t, g, fresh)

    monkeypatch.setattr(ag, "_accumulate", recording)
    return first


def _weighted_total(out: ag.Tensor, rng) -> ag.Tensor:
    return total(ag.mul(out, ag.Tensor(rng.standard_normal(out.shape))))


_BUILT_FOR_ONE_INPUT = {
    "mul": ([(3, 4), (3, 4)], lambda x, w: ag.mul(x, w)),
    "matmul": ([(3, 4), (4, 2)], ag.matmul),
    "linear": ([(3, 4), (4, 2), (2,)], ag.linear),
    "gather_rows": ([(4, 3)], lambda x: ag.gather_rows(x, [0, 2, 2])),
    "gelu": ([(3, 4)], ag.gelu),
    "row_softmax": ([(3, 4)], ag.row_softmax),
    "layer_norm": ([(3, 4), (4,)], lambda x, gain: ag.layer_norm(x, gain, ag.Tensor(np.zeros(4)))),
    "dropout": ([(3, 4)], lambda x: ag.dropout(x, 0.3, np.random.default_rng(1), training=True)),
    "cross_entropy": ([(3, 4)], lambda x: ag.cross_entropy(x, [0, 3, 1])),
    "mean": ([(3, 4)], ag.reduce_mean),
}


@pytest.mark.parametrize("op", sorted(_BUILT_FOR_ONE_INPUT) + ["pair_linear"])
def test_a_first_gradient_the_op_built_for_one_input_is_kept_without_a_copy(monkeypatch, op):
    rng = np.random.default_rng(23)
    if op == "pair_linear":
        x, rel, w, b, i_idx, j_idx, rel_idx = _pair_inputs(rng)
        leaves = [x, rel, w, b]
        out = ag.pair_linear(x, rel, w, b, i_idx, j_idx, rel_idx)
    else:
        shapes, build = _BUILT_FOR_ONE_INPUT[op]
        leaves = [_param(rng, shape) for shape in shapes]
        out = build(*leaves)
    first = _record_first_gradients(monkeypatch)
    ag.backward(_weighted_total(out, rng))
    for leaf in leaves:
        assert leaf.grad is first[id(leaf)]


def _may_share_memory(op, rng) -> tuple[ag.Tensor, list[ag.Tensor]]:
    """An op whose backward hands its inputs ``g`` itself or views of it, with the leaves it feeds."""
    x, y = _param(rng, (2, 3)), _param(rng, (2, 3))
    if op == "add":
        return ag.add(x, y), [x, y]
    if op == "reshape":
        return ag.reshape(x, (3, 2)), [x]
    if op == "transpose":
        return ag.transpose(x, (1, 0)), [x]
    if op == "concat":
        return ag.concat([x, y]), [x, y]
    gain, bias = _param(rng, (3,)), _param(rng, (3,))
    return ag.layer_norm(_param(rng, (3,)), gain, bias), [bias]


@pytest.mark.parametrize("op", ["add", "reshape", "transpose", "concat", "layer_norm bias on 1-d input"])
def test_a_first_gradient_that_may_share_memory_is_copied(op):
    rng = np.random.default_rng(24)
    out, leaves = _may_share_memory(op, rng)
    ag.backward(_weighted_total(out, rng))
    for leaf in leaves:
        assert leaf.grad.flags.owndata
    if len(leaves) == 2:
        assert not np.shares_memory(leaves[0].grad, leaves[1].grad)


def test_add_gives_each_input_its_own_gradient_buffer_across_backward_passes():
    x = ag.Tensor(np.arange(3.0), requires_grad=True)
    y = ag.Tensor(np.arange(3.0), requires_grad=True)
    ag.backward(total(ag.add(x, y)))
    y_grad = y.grad.copy()
    ag.backward(total(ag.mul(x, ag.Tensor(np.full(3, 2.0)))))
    np.testing.assert_array_equal(y.grad, y_grad)
    np.testing.assert_array_equal(x.grad, y_grad + 2.0)


def test_a_kept_first_gradient_takes_the_compute_dtype():
    x = ag.Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)  # float64, made outside the block
    with ag.float32_compute():
        ag.backward(total(ag.mul(x, ag.Tensor(np.full(4, 3.0)))))
        assert x.grad.dtype == np.float32
