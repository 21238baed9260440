"""Named parameter storage and optimizers."""

from __future__ import annotations

import math

import numpy as np

from ..errors import MissingGradient
from ..rng import Rng
from .tensor import Tensor


def glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform Glorot initialization driven by the package RNG."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniforms(-bound, bound, fan_in * fan_out).reshape(fan_in, fan_out)


def add_params(store: ParamStore, rng: Rng, layout: list) -> None:
    """Register a layout's (name, shape) parameters in its order: each
    matrix Glorot-initialised from rng, each vector zero."""
    for name, shape in layout:
        store.add(name, glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape))


class Parameter(Tensor):
    """A ParamStore entry. Its data is a view into the store's value buffer.
    Once the store has a gradient buffer (zero_grad makes it), its gradient
    accumulates into the matching view of that buffer."""

    __slots__ = ("grad_view",)

    def _new_grad(self) -> np.ndarray:
        if self.grad_view is None:
            return super()._new_grad()
        return self.grad_view  # ParamStore.zero_grad cleared it


class ParamStore:
    """Insertion-ordered name -> Parameter registry.

    Values live in one flat fp64 buffer and gradients in another, laid out
    in insertion order, so zeroing every gradient is one fill, a snapshot of
    every value one copy, and an optimizer step one elementwise update over
    the buffer. The gradient buffer is made on the first zero_grad or
    grads(), so a store that is only read from holds none.
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._size = 0
        self._values = np.zeros(0)
        self._grads: np.ndarray | None = None

    def add(self, name: str, data: np.ndarray) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        data = np.asarray(data, dtype=np.float64)
        start, stop = self._size, self._size + data.size
        if stop > self._values.size:
            self.reserve(max(stop, 2 * self._values.size))
        self._size = stop
        t = Parameter(self._values[start:stop].reshape(data.shape), requires_grad=True)
        t.data[...] = data
        t.grad_view = None
        self._params[name] = t
        if self._grads is not None:  # remade at the new size when next needed
            self._grads = None
            for p in self._params.values():
                p.grad_view = None
        return t

    def reserve(self, capacity: int) -> None:
        """Room for `capacity` values in all, so that adding up to that many
        moves no buffer; every view is re-pointed."""
        if capacity <= self._values.size:
            return
        values = np.zeros(capacity)
        values[: self._size] = self.values
        self._values = values
        offset = 0
        for t in self._params.values():
            t.data = values[offset : offset + t.data.size].reshape(t.data.shape)
            offset += t.data.size

    @property
    def values(self) -> np.ndarray:
        """Every parameter's values, flat, in insertion order (a view)."""
        return self._values[: self._size]

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def tensors(self) -> list[Parameter]:
        return list(self._params.values())

    def items(self) -> list[tuple[str, Parameter]]:
        return list(self._params.items())

    def _grad_buffer(self) -> np.ndarray:
        if self._grads is None:
            self._grads = np.zeros(self._size)
            offset = 0
            for t in self._params.values():
                t.grad_view = self._grads[offset : offset + t.data.size].reshape(t.data.shape)
                offset += t.data.size
        return self._grads

    def zero_grad(self) -> None:
        self._grad_buffer().fill(0.0)
        for t in self._params.values():
            t.grad = None

    def grads(self) -> np.ndarray:
        """Every parameter's gradient, flat, in insertion order (a view);
        MissingGradient names the first parameter without one."""
        buffer = self._grad_buffer()
        for name, t in self._params.items():
            if t.grad is None:
                raise MissingGradient(name)
            if t.grad is not t.grad_view:  # reached before the buffer was made
                t.grad_view[...] = t.grad
        return buffer


class Adam:
    """Adam with bias correction, as one elementwise update over the store's
    flat buffers. Each step takes the same numpy operations, in the same
    order, as an update tensor by tensor, so its results are bitwise those."""

    def __init__(
        self,
        store: ParamStore,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = store.values.size
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._step, self._denom = np.empty(size), np.empty(size)  # scratch

    def step(self) -> None:
        g = self.store.grads()
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        m, v, step, denom = self.m, self.v, self._step, self._denom
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=step)
        m += step
        v *= self.beta2
        np.multiply(g, g, out=step)
        step *= 1.0 - self.beta2
        v += step
        # values -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
        np.divide(m, b1t, out=step)
        step *= self.lr
        np.divide(v, b2t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        values = self.store.values
        values -= step
