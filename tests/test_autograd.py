import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medrex import autograd as ag
from medrex.optim import finite_diff_check


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


def test_sum_gradient_is_ones():
    w = ag.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ag.backward(ag.reduce_sum(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_square_sum_gradient():
    w = ag.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ag.backward(ag.reduce_sum(ag.mul(w, w)))
    np.testing.assert_allclose(w.grad, 2 * w.values)


def test_gradient_accumulates_on_reuse():
    w = ag.Tensor(np.array([2.0]), requires_grad=True)
    ag.backward(ag.reduce_sum(ag.add(w, w)))
    np.testing.assert_allclose(w.grad, [2.0])


def test_backward_rejects_non_scalar():
    w = ag.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ag.GraphError):
        ag.backward(ag.add(w, w))


def test_backward_twice_rejected():
    w = ag.Tensor(np.ones(3), requires_grad=True)
    loss = ag.reduce_sum(w)
    ag.backward(loss)
    with pytest.raises(ag.GraphError):
        ag.backward(loss)


def test_shape_mismatch_names_op_and_shapes():
    a = ag.Tensor(np.ones((2, 3)))
    b = ag.Tensor(np.ones((4, 5)))
    with pytest.raises(ag.ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
        ag.matmul(a, b)
    with pytest.raises(ag.ShapeError, match="add"):
        ag.add(ag.Tensor(np.ones(3)), ag.Tensor(np.ones(4)))


def test_debug_mode_rejects_non_finite():
    assert ag.debug_checks_enabled()
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
    _check_op(lambda: ag.reduce_sum(ag.mul(ag.add(a, b), ag.add(a, b))), {"a": a, "b": b})


def test_mul_gradcheck():
    rng = np.random.default_rng(2)
    a, b = _param(rng, (3, 4)), _param(rng, (3, 4))
    _check_op(lambda: ag.reduce_mean(ag.mul(a, b)), {"a": a, "b": b})


def test_matmul_gradcheck():
    rng = np.random.default_rng(3)
    a, b = _param(rng, (4, 6)), _param(rng, (6, 3))
    _check_op(lambda: ag.reduce_sum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), {"a": a, "b": b})


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(4)
    a, b = _param(rng, (2, 3, 4)), _param(rng, (2, 4, 5))
    _check_op(lambda: ag.reduce_mean(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), {"a": a, "b": b})


def test_concat_gradcheck():
    rng = np.random.default_rng(5)
    a, b = _param(rng, (3, 2)), _param(rng, (3, 4))
    _check_op(lambda: ag.reduce_sum(ag.mul(ag.concat([a, b]), ag.concat([a, b]))), {"a": a, "b": b})


def test_gather_rows_gradcheck():
    rng = np.random.default_rng(6)
    table = _param(rng, (7, 3))
    idx = [0, 3, 3, 6, 1]
    _check_op(lambda: ag.reduce_sum(ag.mul(ag.gather_rows(table, idx), ag.gather_rows(table, idx))), {"t": table})


def test_softmax_gradcheck():
    rng = np.random.default_rng(7)
    x = _param(rng, (4, 5))
    w = ag.Tensor(rng.standard_normal((4, 5)))
    _check_op(lambda: ag.reduce_sum(ag.mul(ag.row_softmax(x), w)), {"x": x})


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
        lambda: ag.reduce_sum(ag.mul(ag.layer_norm(x, gain, bias), w)),
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
        return ag.reduce_sum(ag.mul(ag.dropout(x, 0.4, drop_rng, training=True), x))

    _check_op(loss, {"x": x})


def test_reshape_transpose_gradcheck():
    rng = np.random.default_rng(13)
    x = _param(rng, (2, 3, 4))

    def loss():
        y = ag.transpose(x, (1, 0, 2))
        z = ag.reshape(y, (3, 8))
        return ag.reduce_sum(ag.mul(z, z))

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
