"""Central-difference verification of every differentiable operation.

Each case builds a small random input, pushes it through one operation (or a
composite), scalarizes with a fixed random weighting, and compares the
reverse-mode gradient against two-sided finite differences.
"""

from __future__ import annotations

import zlib

import numpy as np

from .autodiff import Tensor, concat, gru_sequence, rows
from .encoders import (
    FUSE_PARAMS, GRU_GATES, TREE_GATES, WIDEN_DIM, attend_and_fuse, cell_layout, encode_forest, fuse_layout,
)
from .explain import ExplainConfig, mask_loss, masked_adjacency
from .fagcn import HEAD_PARAMS, cross_entropy, graph_logits, head_layout
from .features import Vocabulary
from .frontend import PdgEdge, pdg_from_source

TOLERANCE = 1e-4
_EPS = 1e-6


def _max_rel_err(build, arrays) -> float:
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(*tensors).backward()

    def value(parts) -> float:
        return float(build(*[Tensor(p) for p in parts]).data)

    worst = 0.0
    for which, base in enumerate(arrays):
        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        for i in range(base.size):
            for sign, slot in ((1.0, 0), (-1.0, 1)):
                work = [a.copy() for a in arrays]
                work[which].reshape(-1)[i] += sign * _EPS
                if slot == 0:
                    hi = value(work)
                else:
                    lo = value(work)
            flat[i] = (hi - lo) / (2 * _EPS)
        analytic = tensors[which].grad
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


# gru_sequence: 4 steps of a batch of 3; row 0 skips step 1, row 1 is padded
# at its last step, row 2 is masked at every step.
_GRU_MASK = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=np.float64)
# graph_logits: 2 statement features, 4 hidden units, head widths 3 and 2;
# positive head weights keep every head unit active
_HEAD = head_layout(2, 4, 3, 2)
# encode_forest: three trees over a 5-label table, one of them a lone leaf
_FOREST = [["a", [["b", []], ["c", [["a", []], ["b", []]]]]], ["b", []], ["c", [["c", []]]]]
_FOREST_VOCAB = Vocabulary({"a": 2, "b": 3, "c": 4})
# attend_and_fuse: three features of three statements, width 2; statements
# 0 and 1 are neighbours
_FUSE_ADJ = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _cases(seed: int):
    """(name, build, inputs) per case; the scalarizing weights are shared."""
    gen = np.random.default_rng(seed)

    def r(*shape):
        return gen.uniform(-1.5, 1.5, size=shape)

    def away_from_zero(*shape):
        return gen.uniform(0.1, 1.5, size=shape) * gen.choice([-1.0, 1.0], size=shape)

    def positive(*shape):
        return gen.uniform(0.2, 2.0, size=shape)

    w34 = gen.uniform(-1.0, 1.0, size=(3, 4))
    w32 = gen.uniform(-1.0, 1.0, size=(3, 2))
    w43 = gen.uniform(-1.0, 1.0, size=(4, 3))
    w33 = gen.uniform(-1.0, 1.0, size=(3, 3))
    w3 = gen.uniform(-1.0, 1.0, size=(3,))
    w4 = gen.uniform(-1.0, 1.0, size=(4,))
    w64 = gen.uniform(-1.0, 1.0, size=(6, 4))
    w12 = gen.uniform(-1.0, 1.0, size=(12,))

    def s(t, w):
        return (t * Tensor(w)).sum()

    # masked_adjacency: two parallel edges share the (0, 1) slot
    parallel = pdg_from_source("int f(int a) { int b = a; int c = b; return c; }")
    parallel.edges = [PdgEdge(0, 1, "data", "x"), PdgEdge(0, 1, "data", "y"), PdgEdge(1, 2, "data", "z")]

    cases = [
        ("add", lambda a, b: s(a + b, w34), lambda: [r(3, 4), r(3, 4)]),
        ("add_broadcast_row", lambda a, b: s(a + b, w34), lambda: [r(3, 4), r(4)]),
        ("sub", lambda a, b: s(a - b, w34), lambda: [r(3, 4), r(3, 4)]),
        ("neg", lambda a: s(-a, w34), lambda: [r(3, 4)]),
        ("mul", lambda a, b: s(a * b, w34), lambda: [r(3, 4), r(3, 4)]),
        ("div", lambda a, b: s(a / b, w34), lambda: [r(3, 4), away_from_zero(3, 4) * 2]),
        ("maximum", lambda a, b: s(a.maximum(b), w34), lambda: [r(3, 4), r(3, 4)]),
        ("pow_cube", lambda a: s(a.pow_scalar(3.0), w34), lambda: [r(3, 4)]),
        ("pow_sqrt", lambda a: s(a.pow_scalar(0.5), w34), lambda: [positive(3, 4)]),
        ("sigmoid", lambda a: s(a.sigmoid(), w34), lambda: [r(3, 4)]),
        ("tanh", lambda a: s(a.tanh(), w34), lambda: [r(3, 4)]),
        ("relu", lambda a: s(a.relu(), w34), lambda: [away_from_zero(3, 4)]),
        ("exp", lambda a: s(a.exp(), w34), lambda: [r(3, 4)]),
        ("log", lambda a: s(a.log(), w34), lambda: [positive(3, 4)]),
        ("softmax_last", lambda a: s(a.softmax(axis=-1), w34), lambda: [r(3, 4)]),
        ("softmax_rows", lambda a: s(a.softmax(axis=0), w34), lambda: [r(3, 4)]),
        ("matmul", lambda a, b: s(a.matmul(b), w32), lambda: [r(3, 4), r(4, 2)]),
        ("transpose", lambda a: s(a.transpose(), w43), lambda: [r(3, 4)]),
        ("reshape", lambda a: s(a.reshape(12), w12), lambda: [r(3, 4)]),
        ("index_row", lambda a: s(a[1], w4), lambda: [r(3, 4)]),
        ("index_cell", lambda a: a[2, 1] * Tensor(np.array(1.7)), lambda: [r(3, 4)]),
        ("index_repeated", lambda a: s(a[np.array([0, 2, 0])], w34), lambda: [r(3, 4)]),
        ("slice_rows", lambda a: s(a[0:2], w34[:2]), lambda: [r(3, 4)]),
        ("sum_all", lambda a: a.sum() * Tensor(np.array(0.9)), lambda: [r(3, 4)]),
        ("sum_axis0", lambda a: s(a.sum(axis=0), w4), lambda: [r(3, 4)]),
        ("sum_keepdims", lambda a: s(a.sum(axis=1, keepdims=True), w3.reshape(3, 1)), lambda: [r(3, 4)]),
        ("mean", lambda a: s(a.mean(axis=1), w3), lambda: [r(3, 4)]),
        ("concat_rows", lambda a, b: s(concat([a, b], axis=0), w64), lambda: [r(2, 4), r(4, 4)]),
        ("gather_repeated_rows", lambda a: s(rows(a, np.array([0, 2, 2])), w34), lambda: [r(4, 4)]),
        (
            "composite_mlp",
            lambda x, w1, w2: (rows(x, np.array([0, 1, 1])).matmul(w1).tanh().matmul(w2))
            .softmax(axis=-1)[0, 1]
            .log()
            * Tensor(np.array(-1.0)),
            lambda: [r(3, 4), r(4, 5), r(5, 2)],
        ),
        (
            "gru_sequence",
            lambda x, *w: s(gru_sequence(x, w, 4, _GRU_MASK), w32),
            lambda: [r(12, 2)] + [r(*shape) for _, shape in cell_layout("gru", GRU_GATES, 2, 2)],
        ),
        (
            "graph_logits",
            lambda adj, x, *w: s(graph_logits(adj, x, dict(zip(HEAD_PARAMS, w))), w32[:1]),
            lambda: [positive(3, 3), r(3, 2)] + [r(*shape) for _, shape in _HEAD[:2]]
            + [positive(*shape) for _, shape in _HEAD[2:]],
        ),
        (
            "masked_adjacency",
            lambda a: s(masked_adjacency(parallel, a.sigmoid()), w33),
            lambda: [r(3)],
        ),
        (
            "encode_forest",
            lambda table, *w: s(encode_forest(_FOREST, _FOREST_VOCAB, table, w), w32),
            lambda: [r(5, 2)] + [r(*shape) for _, shape in cell_layout("tree", TREE_GATES, 2, 2)],
        ),
        (
            "attend_and_fuse",
            lambda f1, f2, f3, fwd, bwd, *w: s(
                attend_and_fuse([f1, f2, f3], fwd, bwd, _FUSE_ADJ, dict(zip(FUSE_PARAMS, w))), w32
            ),
            lambda: [r(3, 2) for _ in range(5)] + [r(*shape) for _, shape in fuse_layout(2, 3 * WIDEN_DIM, 2)],
        ),
        ("cross_entropy", lambda z: cross_entropy(z, np.array([1, 0, 1])), lambda: [r(3, 2)]),
        (
            "mask_loss",
            lambda head, a: mask_loss(head, a.sigmoid(), 1, ExplainConfig()),
            lambda: [r(1, 2), r(4)],
        ),
    ]
    drawn = []
    for name, build, inputs in cases:
        # r, away_from_zero and positive read a generator of the case's own,
        # so adding or removing a case leaves the others' inputs alone
        gen = np.random.default_rng([seed, zlib.crc32(name.encode())])
        drawn.append((name, build, inputs()))
    return drawn


def run_gradcheck(seed: int = 0) -> list[dict]:
    """One row per operation: name, measured error, pass/fail."""
    out = []
    for name, build, arrays in _cases(seed):
        err = _max_rel_err(build, arrays)
        out.append({"op": name, "max_rel_err": err, "pass": bool(err < TOLERANCE)})
    return out


def all_passed(results) -> bool:
    return all(row["pass"] for row in results)
