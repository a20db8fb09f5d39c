"""Parameter store, Adam updates, warmup/decay schedule, and a gradient checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, backward, compute_dtype, no_grad
from .checkpoint import CheckpointError

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_FINITE_DIFF_EPS = 1e-5


class ParamStore:
    """Named trainable tensors with a shared step counter and Adam moments, made by the first ``adam_step``."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.array(values, dtype=compute_dtype()), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def items(self):
        return self.params.items()

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter, cast to its dtype.

        The names and shapes must match exactly, and every value must be finite
        once cast (a float64 past float32's range is not); else CheckpointError.
        """
        missing = [name for name in self.params if name not in values]
        unknown = [name for name in values if name not in self.params]
        if missing or unknown:
            raise CheckpointError(
                f"parameter set differs from the model: missing {missing or 'none'}, unknown {unknown or 'none'}"
            )
        for name, p in self.params.items():
            if p.values.shape != values[name].shape:
                raise CheckpointError(f"parameter {name!r}: expected shape {p.values.shape}, got {values[name].shape}")
            p.values[...] = values[name]
            if not np.isfinite(p.values).all():
                raise CheckpointError(f"parameter {name!r}: non-finite values after the cast to {p.values.dtype}")


def adam_step(store: ParamStore, lr: float) -> None:
    """Bias-corrected Adam update over every parameter; clears gradients afterwards."""
    if all(p.grad is None for p in store.params.values()):
        raise RuntimeError("adam_step called with no gradients populated; run backward first")
    t = store.step_count + 1
    bc1 = 1.0 - _ADAM_BETA1 ** t
    bc2 = 1.0 - _ADAM_BETA2 ** t
    if not store._m:
        store._m = {name: np.zeros_like(p.values) for name, p in store.params.items()}
        store._v = {name: np.zeros_like(p.values) for name, p in store.params.items()}
    for name, p in store.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m = store._m[name]
        v = store._v[name]
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
        p.grad = None
    store.step_count = t


def lr_at(step: int, peak_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear ramp 0 -> peak over the warmup steps, then linear decay peak -> 0 at the last step."""
    if not 0 <= step <= total_steps or not 0 <= warmup_steps <= total_steps:
        raise ValueError(f"need 0 <= step <= total_steps and 0 <= warmup_steps <= total_steps, "
                         f"got {step}, {warmup_steps}, {total_steps}")
    if total_steps == 0:
        return 0.0
    if step < warmup_steps:
        return peak_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return peak_lr
    return peak_lr * (total_steps - step) / (total_steps - warmup_steps)


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
    samples_per_param: int = 200,
    seed: int = 0,
) -> GradCheckResult:
    """Compare analytic gradients with central differences on sampled coordinates.

    ``loss_fn`` must be deterministic (dropout disabled, fixed inputs) and
    return a scalar Tensor built from recorded ops. The relative error is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so coordinates with
    a true zero gradient only contribute round-off noise. Central differences
    in float32 are round-off, so the parameters and the compute dtype must
    be float64. A probe that overflows an op raises; a NaN error counts as the worst.
    """
    if isinstance(params, ParamStore):
        params = dict(params.items())
    if compute_dtype() != np.float64 or any(p.values.dtype != np.float64 for p in params.values()):
        raise ValueError("finite differences need float64 parameters and float64 compute")
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
    with no_grad():
        for name, p in params.items():
            flat = p.values.reshape(-1)
            ana = analytic[name].reshape(-1)
            count = min(samples_per_param, flat.size)
            coords = rng.choice(flat.size, size=count, replace=False)
            for i in coords:
                original = flat[i]
                try:
                    flat[i] = original + _FINITE_DIFF_EPS
                    f_plus = float(loss_fn().values)
                    flat[i] = original - _FINITE_DIFF_EPS
                    f_minus = float(loss_fn().values)
                finally:
                    flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * _FINITE_DIFF_EPS)
                rel = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
                checked += 1
                # a NaN error (a hand-built node's non-finite probe) is the worst and stays so
                if worst == worst and not rel <= worst:
                    worst, worst_param, worst_index = rel, name, int(i)
    return GradCheckResult(worst, worst_param, worst_index, checked)
