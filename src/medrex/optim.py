"""Parameter store, Adam updates, warmup/decay schedule, and a gradient checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, backward, debug_checks_enabled, no_grad, set_debug_checks


class ParamStore:
    """Named trainable tensors with per-parameter Adam moments and a shared step counter."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=True, name=name)
        self.params[name] = t
        self._m[name] = np.zeros_like(t.values)
        self._v[name] = np.zeros_like(t.values)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __len__(self) -> int:
        return len(self.params)

    def items(self):
        return self.params.items()

    def names(self) -> list[str]:
        return list(self.params)

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            p = self.params[name]
            if p.values.shape != arr.shape:
                raise ValueError(f"parameter {name!r}: expected shape {p.values.shape}, got {arr.shape}")
            p.values[...] = arr


def adam_step(store: ParamStore, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update over every parameter; clears gradients afterwards."""
    if all(p.grad is None for p in store.params.values()):
        raise RuntimeError("adam_step called with no gradients populated; run backward first")
    t = store.step_count + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.grad = None
    store.step_count = t


@dataclass(frozen=True)
class LrSchedule:
    """Linear ramp 0 -> peak over the warmup, then linear decay peak -> 0."""

    peak_lr: float = 1e-4
    warmup_steps: int = 0
    total_steps: int = 1

    def __post_init__(self):
        if self.peak_lr < 0:
            raise ValueError("peak_lr must be non-negative")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(f"need 0 <= warmup_steps <= total_steps, got {self.warmup_steps}/{self.total_steps}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.total_steps == 0:
        return 0.0
    if step < schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    if schedule.total_steps == schedule.warmup_steps:
        return schedule.peak_lr
    return schedule.peak_lr * (schedule.total_steps - step) / (schedule.total_steps - schedule.warmup_steps)


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_param: str | None
    worst_index: int | None
    coords_checked: int

    def __str__(self) -> str:
        where = f" at {self.worst_param}[{self.worst_index}]" if self.worst_param else ""
        return f"max relative error {self.max_rel_error:.3e}{where} over {self.coords_checked} coordinates"


def finite_diff_check(
    loss_fn,
    params: dict[str, Tensor] | ParamStore,
    eps: float = 1e-5,
    samples_per_param: int = 200,
    seed: int = 0,
) -> GradCheckResult:
    """Compare analytic gradients with central differences on sampled coordinates.

    ``loss_fn`` must be deterministic (dropout disabled, fixed inputs) and
    return a scalar Tensor built from recorded ops. The relative error is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so coordinates with
    a true zero gradient only contribute round-off noise.
    """
    if isinstance(params, ParamStore):
        params = dict(params.items())
    for p in params.values():
        p.grad = None
    backward(loss_fn())
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
        for name, p in params.items()
    }
    for p in params.values():
        p.grad = None

    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_param: str | None = None
    worst_index: int | None = None
    checked = 0
    # per-op finiteness assertions are redundant while probing values only
    debug_before = debug_checks_enabled()
    set_debug_checks(False)
    try:
        with no_grad():
            for name, p in params.items():
                flat = p.values.reshape(-1)
                ana = analytic[name].reshape(-1)
                count = min(samples_per_param, flat.size)
                coords = rng.choice(flat.size, size=count, replace=False)
                for i in coords:
                    original = flat[i]
                    flat[i] = original + eps
                    f_plus = float(loss_fn().values)
                    flat[i] = original - eps
                    f_minus = float(loss_fn().values)
                    flat[i] = original
                    numeric = (f_plus - f_minus) / (2.0 * eps)
                    rel = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
                    checked += 1
                    if rel > worst:
                        worst, worst_param, worst_index = rel, name, int(i)
    finally:
        set_debug_checks(debug_before)
    return GradCheckResult(worst, worst_param, worst_index, checked)
