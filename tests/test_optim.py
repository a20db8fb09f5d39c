import functools

import numpy as np
import pytest

from medrex import autograd as ag
from medrex.optim import ParamStore, adam_step, finite_diff_check, lr_at

from .conftest import total


def test_adam_zero_gradient_is_fixed_point():
    store = ParamStore()
    w = store.add("w", np.array([1.0, -2.0, 3.0]))
    w.grad = np.zeros(3)
    adam_step(store, lr=0.1)
    np.testing.assert_array_equal(w.values, [1.0, -2.0, 3.0])


def test_adam_first_step_closed_form():
    store = ParamStore()
    w = store.add("w", np.array([0.0]))
    w.grad = np.array([1.0])
    adam_step(store, lr=0.01)
    # bias-corrected first step with constant unit gradient moves by -lr/(1+eps)
    assert w.values[0] == pytest.approx(-0.01, rel=1e-6)
    assert store.step_count == 1
    assert w.grad is None


def test_adam_requires_gradients():
    store = ParamStore()
    store.add("w", np.array([0.0]))
    with pytest.raises(RuntimeError):
        adam_step(store, lr=0.1)


def test_adam_quadratic_loss_decreases_after_warmup():
    store = ParamStore()
    target = np.array([1.0, -2.0, 0.5, 3.0])
    w = store.add("w", np.zeros(4))
    losses = []
    for step in range(100):
        diff = ag.add(w, ag.Tensor(-target))
        loss = total(ag.mul(diff, diff))
        losses.append(float(loss.values))
        ag.backward(loss)
        adam_step(store, lr=lr_at(step, 0.05, 10, 100))
    tail = losses[10:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_adam_deterministic_trajectory():
    def run():
        store = ParamStore()
        rng = np.random.default_rng(42)
        w = store.add("w", rng.standard_normal(8))
        snapshots = []
        for step in range(20):
            loss = total(ag.mul(w, w))
            ag.backward(loss)
            adam_step(store, lr=0.01)
            snapshots.append(w.values.tobytes())
        return snapshots

    assert run() == run()


def test_lr_schedule_shape():
    schedule = functools.partial(lr_at, peak_lr=1e-4, warmup_steps=10, total_steps=100)
    assert schedule(0) == 0.0
    assert schedule(10) == pytest.approx(1e-4)
    assert schedule(100) == 0.0
    assert schedule(55) == pytest.approx(1e-4 * 45 / 90)
    for step in range(101):
        assert schedule(step) >= 0.0


def test_lr_schedule_no_warmup_and_bounds():
    schedule = functools.partial(lr_at, peak_lr=2e-3, warmup_steps=0, total_steps=10)
    assert schedule(0) == pytest.approx(2e-3)
    assert schedule(10) == 0.0
    with pytest.raises(ValueError):
        schedule(11)
    with pytest.raises(ValueError):
        schedule(-1)
    with pytest.raises(ValueError):
        lr_at(0, peak_lr=1e-4, warmup_steps=5, total_steps=4)


def test_finite_diff_check_quadratic():
    store = ParamStore()
    rng = np.random.default_rng(0)
    w = store.add("w", rng.standard_normal(10))
    result = finite_diff_check(lambda: total(ag.mul(w, w)), store, samples_per_param=10)
    assert result.max_rel_error < 1e-8


def test_finite_diff_check_logistic():
    store = ParamStore()
    rng = np.random.default_rng(1)
    w = store.add("w", rng.standard_normal((3, 2)))
    x = ag.Tensor(rng.standard_normal((5, 3)))
    ids = [0, 1, 1, 0, 1]
    result = finite_diff_check(
        lambda: ag.reduce_mean(ag.cross_entropy(ag.matmul(x, w), ids)),
        store,
        samples_per_param=6,
    )
    assert result.max_rel_error < 1e-6


def test_finite_diff_check_catches_wrong_gradient():
    store = ParamStore()
    w = store.add("w", np.array([1.5, -0.5]))

    def broken():
        # forward computes sum(w^2) but the recorded closure underestimates the gradient
        out = ag.Tensor((w.values ** 2).sum())
        out.requires_grad = True
        out._parents = (w,)

        def backprop(g):
            w.grad = (w.grad if w.grad is not None else 0) + g * w.values  # missing factor 2

        out._backprop = backprop
        return out

    result = finite_diff_check(broken, store, samples_per_param=2)
    assert result.max_rel_error > 0.1


def test_finite_diff_check_raises_when_a_probe_overflows():
    store = ParamStore()
    w = store.add("w", np.array([1.797685]))
    ag.mul(ag.Tensor([1e308]), w)  # the base loss is finite; only the +eps probe overflows
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="'mul'"):
        finite_diff_check(lambda: total(ag.mul(ag.Tensor([1e308]), w)), store, samples_per_param=1)
    np.testing.assert_array_equal(w.values, [1.797685])


def test_finite_diff_check_reports_a_nan_probe_of_a_hand_built_node_as_the_worst():
    store = ParamStore()
    root = store.add("root", np.array([4e-6]))
    square = store.add("square", np.array([0.5, -1.5]))

    def loss():
        # sqrt(root) + sum(square^2), built by hand so no op checks the -eps probe's sqrt of a negative
        out = ag.Tensor(np.sqrt(root.values[0]) + (square.values ** 2).sum())
        out.requires_grad = True
        out._parents = (root, square)

        def backprop(g):
            root.grad = g * 0.5 / np.sqrt(root.values)
            square.grad = g * 2.0 * square.values

        out._backprop = backprop
        return out

    with np.errstate(invalid="ignore"):
        result = finite_diff_check(loss, {"root": root, "square": square}, samples_per_param=2)
    # the NaN coordinate comes first and the exact ones after it do not displace it
    assert not result.max_rel_error < 1e-4, str(result)
    assert (result.worst_param, result.worst_index, result.coords_checked) == ("root", 0, 3)
    np.testing.assert_array_equal(root.values, [4e-6])


def test_param_store_snapshot_roundtrip():
    store = ParamStore()
    store.add("a", np.arange(4.0))
    store.add("b", np.ones((2, 2)))
    snap = {name: p.values.copy() for name, p in store.items()}
    store["a"].values += 5
    store.load_values(snap)
    np.testing.assert_array_equal(store["a"].values, np.arange(4.0))
    with pytest.raises(ValueError):
        store.load_values({"a": np.zeros((9, 9))})


def test_finite_diff_check_refuses_float32():
    with ag.float32_compute():
        store = ParamStore()
        w = store.add("w", np.array([1.0, 2.0]))
        assert w.values.dtype == np.float32
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(lambda: total(ag.mul(w, w)), store, samples_per_param=2)
    with pytest.raises(ValueError, match="float64"):
        finite_diff_check(lambda: total(ag.mul(w, w)), store, samples_per_param=2)

