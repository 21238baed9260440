"""Post-hoc interpretation of a detection: learn a sigmoid mask over the
method's dependence edges that preserves the model's prediction while pushing
the mask sparse, then report the top-K edges and a ranking of the statements
they touch.

The mask weights the method's slot list (vulgraph.slots) before degree
normalization. The statement matrix is the one the detector scored the
method on, in its scoring chunk, held fixed; the detector's parameters are
read as constants, so the optimization sees the graph structure as the only
free input. Parallel edges between one statement pair share its pair of
slots through a noisy-OR combination, which keeps the two slots equal and
symmetric in the mask values and equal to plain OR for hard 0/1 masks.

An iteration records three tape nodes: the masked slot weights, the
detector (fagcn.graph_logits) and the loss. The first and the last each take
the sigmoid of the mask logits themselves. Each has a hand-written backward
that repeats the numpy steps of the equivalent one-node-per-op tape in its
order, so masks are bitwise those of that tape. The slot list is built once
per explanation, and an iteration's time and memory grow with the
statements and edges. Only this module builds an InterpretationSubgraph;
vulgraph.cli writes it as an explanations-file row and reads the file back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, ParamStore, Tensor
from .config import TOP_K, ExplainConfig
from .encoders import _sigmoid
from .errors import MaskMisaligned
from .fagcn import DetectionModel, frozen, graph_logits
from .frontend import Pdg
from .slots import Slots, dependence_pairs, normalize, normalize_grad, slot_list
from .util import dot_escape

INIT_LOGIT = 1.0
LOGIT_CLAMP = 30.0


@dataclass
class EdgeMask:
    logits: np.ndarray
    loss_trace: list = field(default_factory=list)

    def values(self) -> np.ndarray:
        return _sigmoid(self.logits)


@dataclass(frozen=True)
class InterpretationSubgraph:
    edges: list  # (src, dst, kind, var, mask_value), strongest first
    nodes: tuple
    statement_ranking: list  # (statement index, importance), strongest first


@dataclass(frozen=True)
class EdgeSlots:
    """A method's slot list (slots.slot_list) and, for each statement pair,
    its parallel edges: table[r, pair] is the position of the pair's r-th
    edge, or n_edges (a zero gate) past its last one."""

    slots: Slots
    table: np.ndarray
    n_edges: int


def edge_slots(pdg: Pdg) -> EdgeSlots:
    """The method's EdgeSlots; learn_edge_mask builds them once and reads
    them in every iteration."""
    pairs = dependence_pairs(pdg)
    width = max((len(positions) for _, positions in pairs), default=1)
    table = np.full((width, len(pairs)), len(pdg.edges), dtype=np.int64)
    for pair, (_, positions) in enumerate(pairs):
        table[: len(positions), pair] = positions
    return EdgeSlots(slot_list([pdg]), table, len(pdg.edges))


def masked_adjacency(edges: EdgeSlots, logits: Tensor) -> Tensor:
    """Normalized slot weights with each statement pair weighted by the
    noisy-OR of its edges' gate values, the sigmoids of the mask logits;
    self loops stay at one. Logits of +inf and -inf give hard gates of
    exactly 1 and 0.

    One tape node. A pair's value is folded one parallel edge at a time,
    g + next - g * next, from the gate of its first edge (a pair with fewer
    edges reads a zero gate, which leaves it unchanged), read by both of the
    pair's slots, and normalized as the detector's weights are
    (slots.normalize), so an open gate gives them bit for bit. The backward
    repeats the per-op tape's numpy steps in its order, so its values are
    bitwise that tape's; it keeps O(slots) values.
    """
    if logits.data.shape != (edges.n_edges,):
        raise MaskMisaligned(f"{logits.data.shape} mask logits for {edges.n_edges} edges")
    table, slots = edges.table, edges.slots
    gate = _sigmoid(logits.data)
    padded = np.concatenate([gate, np.zeros(1)])
    folds = [padded[table[0]]]
    for extra in table[1:]:
        g, nxt = folds[-1], padded[extra]
        folds.append(g + nxt - g * nxt)
    w = np.concatenate([folds[-1], np.ones(1)])[slots.pair]
    adj, saved = normalize(slots, w)

    def backward(out):
        d_pair = np.zeros(len(folds[-1]) + 1)
        np.add.at(d_pair, slots.pair, normalize_grad(slots, out.grad, w, saved))
        d_fold = d_pair[:-1]
        grad = np.zeros(len(padded))
        for r in range(len(table) - 1, 0, -1):
            g, nxt = folds[r - 1], padded[table[r]]
            grad[table[r]] = d_fold + -d_fold * g
            d_fold = d_fold + -d_fold * nxt
        grad[table[0]] = d_fold
        logits._accumulate(grad[:-1] * gate * (1.0 - gate))

    return Tensor._make(adj, (logits,), backward)


def mask_loss(head: Tensor, logits: Tensor, target: int, config: ExplainConfig) -> Tensor:
    """-log softmax(head)[target] + sparsity * sum(s) + entropy * sum(H(s)),
    s = sigmoid(logits) and H the binary entropy, as one tape node. Its
    backward takes the per-op tape's numpy steps (negations aside, which are
    exact), and it adds the five terms of d/ds in that tape's order:
    sparsity, s log s, log s, the left (1 - s) factor, then the (1 - s)
    inside the log. Float addition is not associative, so another order
    moves the masks' last bits."""
    z, s = head.data, _sigmoid(logits.data)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    p = probs[0, target]
    log_s = np.log(s)
    rest = 1.0 - s
    log_rest = np.log(rest)
    entropy = -(s * log_s + rest * log_rest)
    loss = -np.log(p) + s.sum() * config.sparsity_weight + entropy.sum() * config.entropy_weight

    def backward(out):
        g = out.grad
        if head.requires_grad:
            d_probs = np.zeros_like(probs)
            d_probs[0, target] = -g / p
            head._accumulate(probs * (d_probs - (d_probs * probs).sum(axis=1, keepdims=True)))
        if logits.requires_grad:
            d_ent = -np.broadcast_to(g * config.entropy_weight, s.shape)
            grad = np.broadcast_to(g * config.sparsity_weight, s.shape).copy()
            grad += d_ent * log_s
            grad += d_ent * s / s  # not d_ent: (d * s) / s rounds
            grad += -(d_ent * log_rest)
            grad += -(d_ent * rest / rest)
            logits._accumulate(grad * s * rest)

    return Tensor._make(np.asarray(loss), (head, logits), backward)


def learn_edge_mask(
    pdg: Pdg,
    model: DetectionModel,
    y_pred: str,
    config: ExplainConfig | None = None,
    *,
    feats: Tensor,
) -> EdgeMask:
    """Optimize edge-mask logits to keep P(y_pred) high on the masked graph
    while driving the mask sparse and binary; `feats` is the method's
    statement matrix from the forward pass being explained
    (fagcn.forward_methods)."""
    config = config or ExplainConfig()
    n_edges = len(pdg.edges)
    if n_edges == 0:
        return EdgeMask(logits=np.zeros(0))
    model = frozen(model)
    target = 1 if y_pred == "V" else 0
    edges = edge_slots(pdg)
    store = ParamStore([("mask", np.full(n_edges, INIT_LOGIT))])
    logits = store["mask"]
    opt = Adam(store, lr=config.lr)
    trace = []
    for _ in range(config.iterations):
        store.zero_grad()
        # Each node takes its own sigmoid, as the per-op tape's two sigmoid
        # nodes do: one product (g_adj + g_penalty) * s * (1 - s) would
        # round differently.
        head = graph_logits(edges.slots, masked_adjacency(edges, logits), feats, model.store)
        loss = mask_loss(head, logits, target, config)
        loss.backward()
        opt.step()
        np.clip(logits.data, -LOGIT_CLAMP, LOGIT_CLAMP, out=logits.data)
        trace.append(float(loss.data))
    return EdgeMask(logits=logits.data.copy(), loss_trace=trace)


def extract_subgraph(pdg: Pdg, mask: EdgeMask, k: int = TOP_K) -> InterpretationSubgraph:
    """Top-k edges by mask value (ties by edge order); statements ranked by
    the sum of mask values over their kept incident edges."""
    values = mask.values()
    if values.shape != (len(pdg.edges),):
        raise MaskMisaligned(f"{values.shape} mask values for {len(pdg.edges)} edges")
    order = sorted(range(len(pdg.edges)), key=lambda pos: (-values[pos], pos))
    kept = order[: max(k, 0)]
    edges = [
        (pdg.edges[pos].src, pdg.edges[pos].dst, pdg.edges[pos].kind, pdg.edges[pos].var, float(values[pos]))
        for pos in kept
    ]
    importance: dict[int, float] = {}
    for pos in kept:
        e = pdg.edges[pos]
        for node in {e.src, e.dst}:
            importance[node] = importance.get(node, 0.0) + float(values[pos])
    ranking = sorted(importance.items(), key=lambda item: (-item[1], item[0]))
    return InterpretationSubgraph(
        edges=edges,
        nodes=tuple(sorted(importance)),
        statement_ranking=ranking,
    )


def subgraph_to_dot(method: str, pdg: Pdg, sub: InterpretationSubgraph) -> str:
    """DOT rendering, named `method`, of the kept edges, labeled with their
    mask values."""

    lines = [f'digraph "{dot_escape(method)}" {{', "  node [shape=box];"]
    for idx in sub.nodes:
        lines.append(f'  n{idx} [label="{idx}: {dot_escape(pdg.nodes[idx].text)}"];')
    for src, dst, kind, var, value in sub.edges:
        style = "" if kind == "data" else " style=dashed"
        tag = f"{var} {value:.3f}" if var else f"{value:.3f}"
        lines.append(f'  n{src} -> n{dst} [label="{dot_escape(tag)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
