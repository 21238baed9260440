"""Central-difference verification of every operation a run records.

Each case builds a small random input and pushes it through one operation a
run records: the GRU recurrence and the other fused nodes of the encoders,
the detector and the explainer. Backward is seeded with a
fixed random weighting of the output, and the reverse-mode gradient of that
weighted sum is compared against two-sided finite differences. Each error is
relative to the larger of the two gradients, floored at what the finite
difference's own roundoff allows (see _floor).
"""

from __future__ import annotations

import zlib

import numpy as np

from .autodiff import Tensor
from .encoders import (
    FUSE_PARAMS, GRU_GATES, TREE_GATES, WIDEN_DIM, attend_and_fuse, cell_layout, encode_forest, fuse_layout,
    gru_sequence,
)
from .explain import ExplainConfig, edge_slots, mask_loss, masked_adjacency
from .fagcn import HEAD_PARAMS, cross_entropy, graph_logits, head_layout
from .features import Vocabulary, flatten_ast
from .frontend import PdgEdge, pdg_from_source
from .slots import slot_list

TOLERANCE = 1e-4
_EPS = 1e-6


def _gradients(build, arrays, weight) -> tuple[list[np.ndarray], float]:
    """The reverse-mode gradient of sum(weight * build(*inputs)) for each
    input, with weight seeded into backward as the output gradient, and the
    error floor of that sum's finite differences (see _floor)."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward(grad=weight)
    return [t.grad for t in tensors], _floor(float(np.abs(weight * out.data).sum()))


def _numeric_gradients(build, arrays, weight) -> list[np.ndarray]:
    """The two-sided finite differences of sum(weight * build(*inputs)) at
    step _EPS, for each element of each input."""

    def value(parts) -> float:
        return float((build(*[Tensor(p) for p in parts]).data * weight).sum())

    grads = []
    for which, base in enumerate(arrays):
        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        for i in range(base.size):
            hi, lo = ([a.copy() for a in arrays] for _ in range(2))
            hi[which].reshape(-1)[i] += _EPS
            lo[which].reshape(-1)[i] -= _EPS
            flat[i] = (value(hi) - value(lo)) / (2 * _EPS)
        grads.append(numeric)
    return grads


def _floor(total: float) -> float:
    """The least denominator of a relative error, for a weighted output whose
    terms have absolute values summing to `total`.

    Each value a finite difference takes is a float64 sum of the terms
    weight * out, and every term is rounded at least once, so the value
    carries a roundoff of about u * total, u = eps / 2 being the unit
    roundoff. The difference of two such values carries up to
    2 * u * total = eps * total, and dividing it by the step 2 * _EPS gives
    the central difference's own absolute error, r = eps * total / (2 * _EPS).
    An analytic gradient within r of the numeric one agrees with it as far
    as the difference can tell, wherever the true gradient is near zero. A
    floor of r / TOLERANCE scores an absolute error below r under TOLERANCE
    and leaves the relative error of every gradient above the floor as it is."""
    return np.finfo(np.float64).eps * total / (2 * _EPS) / TOLERANCE


def _max_rel_err(analytic, numeric, floor: float) -> float:
    """Worst relative error over every element of every input, each error
    divided by the larger of the two gradients or the floor."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# gru_sequence: 4 steps of a batch of 3 over two inputs of 3 and 2 rows,
# stacked; batch row 0 skips step 1, row 1 is padded at its last step, row 2
# is masked at every step. Input rows 0, 1 and 3 are read twice unmasked.
_GRU_ROWS = np.array([[3, 0, 2], [1, 3, 4], [4, 0, 1], [1, 2, 2]])
_GRU_MASK = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=np.float64)
# graph_logits: 2 statement features, 4 hidden units, head widths 3 and 2;
# positive head weights keep every head unit active
_HEAD = head_layout(2, 4, 3, 2)
# encode_forest: three trees over a 5-label table, one a lone leaf and one
# with a node of three children
_FOREST = [
    flatten_ast(tree)
    for tree in (["a", [["b", []], ["c", [["a", []], ["b", []], ["c", []]]]]], ["b", []], ["c", [["c", []]]])
]
_FOREST_VOCAB = Vocabulary({"a": 2, "b": 3, "c": 4})


def _chunk():
    """graph_logits, masked_adjacency and attend_and_fuse: two methods. The
    first has two parallel edges between statements 0 and 1, an edge 1-3,
    and no edge at statement 2; the second is two statements and one edge."""
    first = pdg_from_source("int f(int a) { int b = a; int c = b; int d = 1; return c; }")
    first.edges = [PdgEdge(0, 1, "data", "x"), PdgEdge(0, 1, "data", "y"), PdgEdge(1, 3, "data", "z")]
    second = pdg_from_source("int g(int a) { int b = a; return b; }")
    return first, slot_list([first, second])


def _cases(seed: int):
    """(name, build, inputs, weights) per case: the gradient checked is that
    of the sum of the weights times build's output."""
    gen = None

    def r(*shape):
        return gen.uniform(-1.5, 1.5, size=shape)

    def positive(*shape):
        return gen.uniform(0.2, 2.0, size=shape)

    first, chunk = _chunk()
    parallel = edge_slots(first)
    n_rows, n_slots = len(chunk.runs.starts), len(chunk.src)

    cases = [
        (
            "gru_sequence",
            lambda a, b, *w: gru_sequence([a, b], _GRU_ROWS, _GRU_MASK, w),
            lambda: [r(3, 2), r(2, 2)] + [r(*shape) for _, shape in cell_layout("gru", GRU_GATES, 2, 2)],
        ),
        (
            "graph_logits",
            lambda weights, x, *w: graph_logits(chunk, weights, x, dict(zip(HEAD_PARAMS, w))),
            lambda: [positive(n_slots), r(n_rows, 2)] + [r(*shape) for _, shape in _HEAD[:2]]
            + [positive(*shape) for _, shape in _HEAD[2:]],
        ),
        ("masked_adjacency", lambda a: masked_adjacency(parallel, a), lambda: [r(3)]),
        (
            "encode_forest",
            lambda table, *w: encode_forest(_FOREST, _FOREST_VOCAB, table, w),
            lambda: [r(5, 2)] + [r(*shape) for _, shape in cell_layout("tree", TREE_GATES, 2, 2)],
        ),
        (
            "attend_and_fuse",
            lambda f1, f2, f3, fwd, bwd, *w: attend_and_fuse(
                [f1, f2, f3], fwd, bwd, chunk, dict(zip(FUSE_PARAMS, w))
            ),
            lambda: [r(n_rows, 2) for _ in range(5)] + [r(*shape) for _, shape in fuse_layout(2, 3 * WIDEN_DIM, 2)],
        ),
        ("cross_entropy", lambda z: cross_entropy(z, np.array([1, 0, 1])), lambda: [r(3, 2)]),
        (
            "mask_loss",
            lambda head, a: mask_loss(head, a, 1, ExplainConfig()),
            lambda: [r(1, 2), r(4)],
        ),
    ]
    drawn = []
    for name, build, inputs in cases:
        # r and positive read a generator of the case's own, so adding or
        # removing a case leaves the others' inputs and weights alone
        gen = np.random.default_rng([seed, zlib.crc32(name.encode())])
        arrays = inputs()
        out = build(*[Tensor(a) for a in arrays])
        drawn.append((name, build, arrays, gen.uniform(-1.0, 1.0, size=out.shape)))
    return drawn


def run_gradcheck(seed: int = 0) -> list[dict]:
    """One row per operation: name, measured error, pass/fail."""
    out = []
    for name, build, arrays, weight in _cases(seed):
        analytic, floor = _gradients(build, arrays, weight)
        err = _max_rel_err(analytic, _numeric_gradients(build, arrays, weight), floor)
        out.append({"op": name, "max_rel_err": err, "pass": bool(err < TOLERANCE)})
    return out


def all_passed(results) -> bool:
    return all(row["pass"] for row in results)
