"""A reference clock: wall time rescaled by a fixed kernel timed between chunks of work.

The benchmark's host shares its cores, and its speed drifts by up to ~1.5x
over tens of seconds. CPU time drifts with it: the process is not descheduled,
each instruction just runs slower. A fixed kernel of the same kind of work as
medrex (a reverse-mode pass: graph nodes and closures driving numpy on
encoder-sized arrays) slows down by about the same factor. So the clock times the kernel at the boundaries of the work, and
rescales each chunk of work between two boundaries by
``KERNEL_REF_S / (mean kernel time at its two ends)``: the time that chunk
would have taken on a CPU that runs the kernel in exactly ``KERNEL_REF_S``.
On a 2-vCPU Xeon VM, 10-second windows in one process spread (IQR over
median) 0.12 on the wall clock and 0.03 on this clock for ``train-ref``
steps, and 0.19 and 0.06 for predicted documents.

The kernel depends on numpy only, never on medrex, so a change to the program
moves its work and not the yardstick. Kernel time is excluded from all
timings.
"""

from __future__ import annotations

import gc
import statistics
import time

KERNEL_REF_S = 0.010  # the reference CPU runs the kernel in exactly 10 ms
KERNEL_ITERATIONS = 13  # ~10 ms on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4)
CALIBRATE_EVERY_S = 0.1  # a boundary that comes sooner only closes the chunk if forced


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents=(), backward=None):
        self.value, self.parents, self.backward = value, parents, backward


class Kernel:
    """A toy reverse-mode pass through a feed-forward block, as medrex's autograd runs one.

    Graph nodes and closures drive numpy on a 60x64 batch through 64 -> 256 -> 64
    and a normalisation: the shapes of medrex's encoder. With smaller arrays
    (64 -> 64) the kernel slowed less than prediction did when the host slowed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((60, 64))
        self.w1 = rng.standard_normal((64, 256)) * 0.1
        self.w2 = rng.standard_normal((256, 64)) * 0.1
        self.run()  # first call pays numpy's lazy set-up

    def step(self) -> dict:
        np, x, w1, w2 = self.np, self.x, self.w1, self.w2
        xn, w1n, w2n = _Node(x), _Node(w1), _Node(w2)
        h = _Node(x @ w1, (xn, w1n), lambda g: (g @ w1.T, x.T @ g))
        t = np.tanh(h.value)
        a = _Node(t, (h,), lambda g: (g * (1.0 - t * t),))
        o = _Node(t @ w2, (a, w2n), lambda g: (g @ w2.T, t.T @ g))
        scale = 1.0 / np.sqrt(o.value.var(axis=1, keepdims=True) + 1e-5)
        z = _Node((o.value - o.value.mean(axis=1, keepdims=True)) * scale, (o,), lambda g: (g * scale,))
        order, seen, stack = [], set(), [z]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                order.append(node)
                stack.extend(node.parents)
        grads = {id(z): np.ones_like(z.value)}
        for node in order:
            if node.backward is not None:
                for parent, grad in zip(node.parents, node.backward(grads[id(node)])):
                    grads[id(parent)] = grads.get(id(parent), 0.0) + grad
        return grads

    def run(self) -> float:
        """Seconds one pass of the kernel took; the cyclic GC, whose work depends on the program's heap, is held off."""
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        for _ in range(KERNEL_ITERATIONS):
            self.step()
        elapsed = time.perf_counter() - started
        if collecting:
            gc.enable()
        return elapsed


class RefClock:
    """Splits a run into chunks at calibration points; rescales each chunk to the reference CPU.

    ``start`` opens the first chunk. ``boundary`` closes the open chunk and
    calibrates if ``force`` is set or the chunk has run ``CALIBRATE_EVERY_S``;
    otherwise the chunk stays open. Work done in chunk k is rescaled by the
    kernel times before (``kernels[k]``) and after (``kernels[k + 1]``) it.
    """

    def __init__(self):
        self.kernel = Kernel()
        self.kernels: list[float] = []
        self.chunk_wall: list[float] = []
        self._opened = 0.0

    def start(self) -> None:
        self.kernels.append(self.kernel.run())
        self._opened = time.perf_counter()

    @property
    def chunk(self) -> int:
        """Index of the open chunk."""
        return len(self.chunk_wall)

    def boundary(self, force: bool = False) -> None:
        """Close the open chunk and run the kernel, if forced or due; the next chunk opens after the kernel."""
        now = time.perf_counter()
        if not force and now - self._opened < CALIBRATE_EVERY_S:
            return
        self.chunk_wall.append(now - self._opened)
        self.kernels.append(self.kernel.run())
        self._opened = time.perf_counter()

    def scale(self, chunk: int) -> float:
        """Reference seconds per wall second in a closed chunk."""
        return KERNEL_REF_S / statistics.fmean(self.kernels[chunk:chunk + 2])

    def ref_seconds(self, first: int, end: int) -> float:
        """Reference seconds of chunks first..end-1."""
        return sum(self.chunk_wall[k] * self.scale(k) for k in range(first, end))

    def kernel_ms_median(self) -> float:
        return statistics.median(self.kernels) * 1000.0
