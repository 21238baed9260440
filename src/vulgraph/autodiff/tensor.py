"""Minimal reverse-mode automatic differentiation over fp64 numpy arrays.

Each op records its parents and a backward function that routes the output
gradient back to them; Tensor.backward() replays those functions in reverse
topological order, visiting every node exactly once. A backward function
receives its output node as its argument instead of capturing it, so a tape
holds no reference cycle and is freed by reference counting as soon as its
last tensor goes. Tensors are treated as immutable once created.

The module keeps only the ops a run records: sigmoid, concat, the row
gather `rows`, and gru_sequence, which records a whole masked GRU
recurrence as one node with a hand-written backward through time. Other
modules record their own fused nodes through Tensor._make the same way: the
Tree-LSTM forest (encoders.encode_forest), the attention and fusion block
(encoders.attend_and_fuse), the detector (fagcn.graph_logits), the training
loss (fagcn.cross_entropy), and the explainer's masked adjacency and loss
(explain.masked_adjacency, explain.mask_loss). The elementwise ops those
nodes are held to bit for bit live with the test references.

A parameter (params.Parameter) accumulates its gradient into its slot of the
ParamStore's flat gradient buffer rather than into an array of its own.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # One exp of a non-positive argument, so it never overflows; each branch
    # is bitwise the textbook form for its sign.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # --- plumbing ---------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def _new_grad(self) -> np.ndarray:
        """The zero array this tensor's gradient accumulates into."""
        return np.zeros(self.data.shape)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = self._new_grad()
        self.grad += grad

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    def backward(self, params=None, *, grad=None) -> None:
        """Backpropagate `grad`, the gradient of some scalar with respect to
        this tensor; a scalar loss may leave it out for its gradient of one.
        With a ParamStore given, every registered parameter ends up with a
        gradient (zero if unused)."""
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
        if params is not None:
            for tensor in params.tensors():
                if tensor.grad is None:
                    tensor.grad = tensor._new_grad()

    # --- recorded ops -------------------------------------------------------

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = _sigmoid(a.data)

        def backward(out):
            if a.requires_grad:
                a._accumulate(out.grad * out.data * (1.0 - out.data))

        return Tensor._make(out_data, (a,), backward)


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


def rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding-style row gather; gradients accumulate per row with
    np.add.at so repeated indices are handled correctly."""
    idx = np.asarray(indices, dtype=np.int64)

    def backward(out):
        if table.requires_grad:
            if table.grad is None:
                table.grad = table._new_grad()
            np.add.at(table.grad, idx, out.grad)

    return Tensor._make(table.data[idx].copy(), (table,), backward)


def gru_sequence(x: Tensor, weights, steps: int, mask: np.ndarray | None = None) -> Tensor:
    """Final hidden state [B, hidden] of a GRU (Cho et al., 2014) run from a
    zero state over `steps` inputs stacked step-major in x ([steps * B,
    in_dim]). `weights` are the tensors (wz, uz, bz, wr, ur, br, wh, uh, bh).
    mask[t, b] == 0 leaves row b's state untouched at step t.

    The whole recurrence is one tape node whose backward runs through time by
    hand (Werbos, 1990). Each step's products are taken separately, so the
    forward value is bitwise that of the same recurrence built from one tape
    node per elementwise op. Per-step activations are kept only when an input
    requires grad."""
    if steps < 1 or x.data.ndim != 2 or x.data.shape[0] % steps:
        raise ShapeMismatch(f"gru_sequence: {x.data.shape} does not split into {steps} steps")
    batch = x.data.shape[0] // steps
    wz, uz, bz, wr, ur, br, wh, uh, bh = (w.data for w in weights)
    hidden = bz.shape[0]
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (steps, batch):
            raise ShapeMismatch(f"gru_sequence: mask {mask.shape}, expected {(steps, batch)}")
    parents = (x, *weights)
    record = any(p.requires_grad for p in parents)
    if record:  # each step's input state and gates, step-major like x
        h_in, zs, rs, cands = (np.empty((steps * batch, hidden)) for _ in range(4))
    h = np.zeros((batch, hidden))
    for t in range(steps):
        at = slice(t * batch, (t + 1) * batch)
        xt = x.data[at]
        z = _sigmoid(xt @ wz + h @ uz + bz)
        r = _sigmoid(xt @ wr + h @ ur + br)
        cand = np.tanh(xt @ wh + (r * h) @ uh + bh)
        if record:
            h_in[at], zs[at], rs[at], cands[at] = h, z, r, cand
        nxt = z * cand + (1.0 - z) * h
        if mask is None:
            h = nxt
        else:
            keep = mask[t][:, None]
            h = keep * nxt + (1.0 - keep) * h

    def backward(out):
        # Gradients of the z, r and candidate pre-activations, step-major.
        d_z, d_r, d_c = (np.empty((steps * batch, hidden)) for _ in range(3))
        dh = out.grad
        for t in reversed(range(steps)):
            at = slice(t * batch, (t + 1) * batch)
            h_prev, z, r, cand = h_in[at], zs[at], rs[at], cands[at]
            if mask is None:
                d_next, carry = dh, 0.0
            else:
                keep = mask[t][:, None]
                d_next, carry = dh * keep, dh * (1.0 - keep)
            d_c[at] = d_next * z * (1.0 - cand * cand)
            d_rh = d_c[at] @ uh.T
            d_z[at] = (d_next * cand - d_next * h_prev) * z * (1.0 - z)
            d_r[at] = d_rh * h_prev * r * (1.0 - r)
            dh = carry + d_next * (1.0 - z) + d_rh * r + d_z[at] @ uz.T + d_r[at] @ ur.T
        if x.requires_grad:
            x._accumulate(d_z @ wz.T + d_r @ wr.T + d_c @ wh.T)
        for k, (d_pre, h_side) in enumerate(((d_z, h_in), (d_r, h_in), (d_c, rs * h_in))):
            w, u, b = weights[3 * k : 3 * k + 3]
            if w.requires_grad:
                w._accumulate(x.data.T @ d_pre)
            if u.requires_grad:
                u._accumulate(h_side.T @ d_pre)
            if b.requires_grad:
                b._accumulate(d_pre.sum(axis=0))

    return Tensor._make(h, parents, backward)
