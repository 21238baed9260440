"""Named parameter storage and optimizers."""

from __future__ import annotations

import math

import numpy as np

from ..rng import Rng
from .tensor import Tensor

# Adam's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform Glorot initialization driven by the package RNG."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniforms(-bound, bound, fan_in * fan_out).reshape(fan_in, fan_out)


def init_params(rng: Rng, layout: list) -> ParamStore:
    """A store of a layout's (name, shape) parameters in its order: each
    matrix Glorot-initialised from rng, each vector zero."""
    return ParamStore(
        [(name, glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)) for name, shape in layout]
    )


class ParamStore:
    """Ordered name -> parameter registry, built once from its full
    (name, array) list.

    Values live in one flat fp64 buffer and gradients in another, each
    allocated at its final size and laid out in list order. A parameter is a
    Tensor whose data is its view of `values` and whose grad is its view of
    `grads`, so zeroing every gradient is one fill, a snapshot of every value
    one copy, and an optimizer step one elementwise update over the buffers.
    """

    def __init__(self, params: list[tuple[str, np.ndarray]]):
        arrays = [np.asarray(data, dtype=np.float64) for _, data in params]
        self.values = np.zeros(sum(a.size for a in arrays))  # every value, flat
        self.grads = np.zeros(self.values.size)  # every gradient, flat
        self._params: dict[str, Tensor] = {}
        start = 0
        for (name, _), data in zip(params, arrays):
            if name in self._params:
                raise ValueError(f"duplicate parameter {name!r}")
            stop = start + data.size
            t = Tensor(self.values[start:stop].reshape(data.shape), requires_grad=True)
            t.data[...] = data
            t.grad = self.grads[start:stop].reshape(data.shape)
            self._params[name] = t
            start = stop

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def zero_grad(self) -> None:
        self.grads.fill(0.0)


class Adam:
    """Adam with bias correction, as one elementwise update over the store's
    flat buffers. Each step takes the same numpy operations, in the same
    order, as an update tensor by tensor, so its results are bitwise those."""

    def __init__(self, store: ParamStore, lr: float = 1e-3):
        self.store = store
        self.lr = lr
        self.t = 0
        size = store.values.size
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._step, self._denom = np.empty(size), np.empty(size)  # scratch

    def step(self) -> None:
        g = self.store.grads
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=step)
        m += step
        v *= BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v += step
        # values -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.divide(m, b1t, out=step)
        step *= self.lr
        np.divide(v, b2t, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        values = self.store.values
        values -= step
