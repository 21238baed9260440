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


class ParamStore:
    """Insertion-ordered name -> Tensor registry; every tensor requires grad."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._params.items())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


class Adam:
    """Adam with bias correction; state is keyed by parameter name."""

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
        self.m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name, p in self.store.items():
            if p.grad is None:
                raise MissingGradient(name)
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
