"""Minimal reverse-mode automatic differentiation over fp64 numpy arrays.

Each op records its parents and a backward function that routes the output
gradient back to them; Tensor.backward() replays those functions in reverse
topological order, visiting every node exactly once. A backward function
receives its output node as its argument instead of capturing it, so a tape
holds no reference cycle and is freed by reference counting as soon as its
last tensor goes. Tensors are treated as immutable once created.

The module records no op of its own. The modules that use an op record it
through Tensor._make: the GRU recurrence and the Tree-LSTM forest
(encoders.gru_sequence, encoders.encode_forest), the attention and fusion
block (encoders.attend_and_fuse), the detector (fagcn.graph_logits), the
training loss (fagcn.cross_entropy), and the explainer's masked adjacency and
loss (explain.masked_adjacency, explain.mask_loss). The elementwise ops those
nodes are held to bit for bit live with the test references.

A ParamStore parameter's gradient is its view of the store's flat gradient
buffer from the start; any other tensor's is made on its first gradient.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Add grad into this tensor's gradient, or with a vector of `rows`
        given, add grad[k] into its row rows[k] one k after another, so
        repeated rows sum every repeat. The rows go through one flat
        np.add.at at index row * width + column: the additions of a row-wise
        np.add.at in its order, so bit for bit its result. A gradient is
        contiguous (a fresh array or a view of a store's flat buffer), so
        its flat reshape is a view."""
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        if rows is None:
            self.grad += grad
            return
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ShapeMismatch(f"row accumulation takes a vector of rows, not an array of shape {rows.shape}")
        width = int(np.prod(self.grad.shape[1:]))
        index = (rows[:, None] * width + np.arange(width)).reshape(-1)
        np.add.at(self.grad.reshape(-1), index, grad.reshape(-1))

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def backward(self, *, grad=None) -> None:
        """Backpropagate `grad`, the gradient of some scalar with respect to
        this tensor; a scalar loss may leave it out for its gradient of one."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward without an output gradient requires a scalar loss")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ShapeMismatch(f"backward: gradient {np.shape(grad)} for a tensor {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.array(grad, dtype=np.float64)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node)
