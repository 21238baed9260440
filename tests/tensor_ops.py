"""The elementwise, reduction, indexing and shape ops of the per-op tape.

The package records only the fused nodes a run needs, each in the module
that uses it (encoders, fagcn and explain). The references in oracles.py are
built from one tape node per elementwise op instead, and the fused ops are
held to them bit for bit. install() sets these ops on vulgraph.autodiff.Tensor
itself, not on a subclass, because the fused ops' outputs are base Tensors
made by Tensor._make and a reference goes on computing with them; concat
and the row gather rows are plain functions.

Broadcasting is permitted over the leading dimension only (a (1, ...) or
lower-rank operand against a (B, ...) one, plus true scalars); anything else
raises ShapeMismatch.
"""

from __future__ import annotations

import types

import numpy as np

from vulgraph.autodiff import Tensor
from vulgraph.encoders import _sigmoid
from vulgraph.errors import ShapeMismatch


def _leading_broadcast_ok(sa: tuple, sb: tuple) -> bool:
    if sa == sb or sa == () or sb == ():
        return True
    small, big = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    pad = (1,) * (len(big) - len(small)) + small
    if pad[1:] != big[1:]:
        return False
    return pad[0] == big[0] or pad[0] == 1 or big[0] == 1


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _coerce(other) -> Tensor:
    return other if isinstance(other, Tensor) else Tensor(other)


def _binary(forward, op: str, grad_a, grad_b):
    """A broadcasting elementwise op; grad_a and grad_b map (output gradient,
    a, b) to each operand's gradient before it is summed to its shape."""

    def method(self, other):
        a, b = self, _coerce(other)
        if not _leading_broadcast_ok(a.data.shape, b.data.shape):
            raise ShapeMismatch(f"{op}: shapes {a.data.shape} and {b.data.shape} differ beyond the leading dimension")

        def backward(out):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad_a(out.grad, a.data, b.data), a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad_b(out.grad, a.data, b.data), b.data.shape))

        return Tensor._make(forward(a.data, b.data), (a, b), backward)

    return method


def _unary(forward, grad):
    """An elementwise op; grad maps (output gradient, input, output) to the
    input's gradient."""

    def method(self):
        a = self

        def backward(out):
            if a.requires_grad:
                a._accumulate(grad(out.grad, a.data, out.data))

        return Tensor._make(forward(a.data), (a,), backward)

    return method


class _Ops:
    """The ops, written as Tensor methods; install() copies them over."""

    __add__ = __radd__ = _binary(np.add, "add", lambda g, x, y: g, lambda g, x, y: g)
    __sub__ = _binary(np.subtract, "sub", lambda g, x, y: g, lambda g, x, y: -g)
    __mul__ = _binary(np.multiply, "mul", lambda g, x, y: g * y, lambda g, x, y: g * x)
    __truediv__ = _binary(np.divide, "div", lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))
    sigmoid = _unary(_sigmoid, lambda g, x, y: g * y * (1.0 - y))
    tanh = _unary(np.tanh, lambda g, x, y: g * (1.0 - y * y))
    relu = _unary(lambda x: x * (x > 0), lambda g, x, y: g * (x > 0))
    exp = _unary(np.exp, lambda g, x, y: g * y)
    log = _unary(np.log, lambda g, x, y: g / x)

    def pow_scalar(self, exponent: float) -> Tensor:
        a = self
        out_data = np.power(a.data, exponent)

        def backward(out):
            if a.requires_grad:
                a._accumulate(out.grad * exponent * np.power(a.data, exponent - 1.0))

        return Tensor._make(out_data, (a,), backward)

    def softmax(self, axis: int = -1) -> Tensor:
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(out):
            if a.requires_grad:
                y = out.data
                g = out.grad
                a._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True)))

        return Tensor._make(out_data, (a,), backward)

    def __getitem__(self, key) -> Tensor:
        a = self

        def backward(out):
            if a.requires_grad:  # an array key may repeat an index: np.add.at sums every repeat
                if a.grad is None:
                    a.grad = np.zeros(a.data.shape)
                np.add.at(a.grad, key, out.grad)

        return Tensor._make(a.data[key].copy(), (a,), backward)

    def matmul(self, other: Tensor) -> Tensor:
        other = _coerce(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeMismatch(
                f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
            )

        def backward(out):
            if a.requires_grad:
                a._accumulate(out.grad @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ out.grad)

        return Tensor._make(a.data @ b.data, (a, b), backward)

    __matmul__ = matmul

    def transpose(self) -> Tensor:
        a = self
        if a.data.ndim != 2:
            raise ShapeMismatch("transpose expects a matrix")

        def backward(out):
            if a.requires_grad:
                a._accumulate(out.grad.T)

        return Tensor._make(a.data.T.copy(), (a,), backward)

    def reshape(self, *shape) -> Tensor:
        a = self
        old = a.data.shape

        def backward(out):
            if a.requires_grad:
                a._accumulate(out.grad.reshape(old))

        return Tensor._make(a.data.reshape(*shape), (a,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> Tensor:
        a = self

        def backward(out):
            if a.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> Tensor:
        a = self
        count = a.data.size if axis is None else a.data.shape[axis]

        def backward(out):
            if a.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g, a.data.shape) / count)

        return Tensor._make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeMismatch("concat of nothing")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * data.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(out.grad[tuple(sl)])

    return Tensor._make(data, tuple(tensors), backward)


def rows(table: Tensor, indices) -> Tensor:
    """Embedding-style row gather; gradients accumulate per row with
    np.add.at so repeated indices are handled correctly."""
    idx = np.asarray(indices, dtype=np.int64)

    def backward(out):
        if table.requires_grad:
            table._accumulate(out.grad, idx)

    return Tensor._make(table.data[idx].copy(), (table,), backward)


def install() -> None:
    """Set every op above on vulgraph.autodiff.Tensor."""
    for name, member in vars(_Ops).items():
        if isinstance(member, types.FunctionType):
            setattr(Tensor, name, member)
