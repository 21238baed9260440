"""Post-hoc interpretation of a detection: learn a sigmoid mask over the
method's dependence edges that preserves the model's prediction while pushing
the mask sparse, then report the top-K edges and a ranking of the statements
they touch.

The mask scales the symmetrized adjacency before degree normalization;
statement features are computed once from the full method and held fixed, and
the detector's parameters are read as constants, so the optimization sees the
graph structure as the only free input. Parallel edges between one statement
pair share an adjacency slot through a noisy-OR combination, which keeps the
slot symmetric in the two mask values and equal to plain OR for hard 0/1
masks. The slot values enter the adjacency through one scatter op, so an
iteration's tape and memory grow with the edges, not with statements squared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, ParamStore, Tensor, concat, rows, scatter
from .encoders import encode_method_batch
from .errors import MaskMisaligned
from .fagcn import DetectionModel, frozen, graph_logits, sym_normalize
from .frontend import Pdg

DEFAULT_TOP_EDGES = 5
INIT_LOGIT = 1.0
LOGIT_CLAMP = 30.0


@dataclass
class EdgeMask:
    logits: Tensor
    loss_trace: list = field(default_factory=list)

    def values(self) -> np.ndarray:
        x = self.logits.data
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


@dataclass(frozen=True)
class ExplainConfig:
    iterations: int = 300
    lr: float = 0.05
    sparsity_weight: float = 0.005
    entropy_weight: float = 0.1


@dataclass
class InterpretationSubgraph:
    method: str
    edges: list  # (src, dst, kind, var, mask_value), strongest first
    nodes: tuple
    statement_ranking: list  # (statement index, importance), strongest first


def _undirected_slots(pdg: Pdg) -> list[tuple[tuple[int, int], list[int]]]:
    """Unordered endpoint pairs in first-appearance order, with the positions
    of the edges mapping to each pair."""
    slots: dict[tuple[int, int], list[int]] = {}
    order = []
    for pos, e in enumerate(pdg.edges):
        key = (min(e.src, e.dst), max(e.src, e.dst))
        if key not in slots:
            slots[key] = []
            order.append(key)
        slots[key].append(pos)
    return [(key, slots[key]) for key in order]


def method_features(pdg: Pdg, model: DetectionModel) -> Tensor:
    """Statement vectors for the full method, as a constant."""
    out, _ = encode_method_batch([pdg], model.vocab, frozen(model).store, model.encoder_config)
    return out


def masked_adjacency(pdg: Pdg, gate: Tensor) -> Tensor:
    """Symmetric normalized adjacency with each undirected slot weighted by
    the noisy-OR of its edges' gate values; self-loops stay at one.

    The op count is fixed by the most parallel edges in any one slot, not by
    the edge count: one gather of each slot's first gate, one vectorised
    noisy-OR round per further parallel edge (a slot with fewer edges reads a
    zero gate, which leaves it unchanged), and one scatter onto the identity.
    """
    n = len(pdg.nodes)
    slots = [(ends, positions) for ends, positions in _undirected_slots(pdg) if ends[0] != ends[1]]
    width = max((len(positions) for _, positions in slots), default=1)
    table = np.full((width, len(slots)), len(pdg.edges), dtype=np.int64)  # the zero gate
    for slot, (_, positions) in enumerate(slots):
        table[: len(positions), slot] = positions
    padded = concat([gate, Tensor(np.zeros(1))])
    g = rows(padded, table[0])
    for extra in table[1:]:
        nxt = rows(padded, extra)
        g = g + nxt - g * nxt
    ends = np.array([ends for ends, _ in slots], dtype=np.int64).reshape(-1, 2).T
    return sym_normalize(scatter(np.eye(n), ends, ends[::-1], g))


def masked_forward(
    pdg: Pdg, model: DetectionModel, mask: EdgeMask, feats: Tensor | None = None
) -> Tensor:
    """Class distribution [1, 2] under the masked graph."""
    if mask.logits.data.shape != (len(pdg.edges),):
        raise MaskMisaligned(
            f"{mask.logits.data.shape} logits for {len(pdg.edges)} edges"
        )
    if feats is None:
        feats = method_features(pdg, model)
    adj = masked_adjacency(pdg, mask.logits.sigmoid())
    return graph_logits(adj, feats, model.store).softmax(axis=1)


def _binary_entropy(sig: Tensor) -> Tensor:
    one = Tensor(np.ones(()))
    return (sig * sig.log() + (one - sig) * (one - sig).log()) * Tensor(np.array(-1.0))


def learn_edge_mask(
    pdg: Pdg,
    model: DetectionModel,
    y_pred: str,
    config: ExplainConfig | None = None,
) -> EdgeMask:
    """Optimize edge-mask logits to keep P(y_pred) high on the masked graph
    while driving the mask sparse and binary."""
    config = config or ExplainConfig()
    n_edges = len(pdg.edges)
    if n_edges == 0:
        return EdgeMask(logits=Tensor(np.zeros(0)))
    model = frozen(model)
    feats = method_features(pdg, model)
    target = 1 if y_pred == "V" else 0
    store = ParamStore()
    logits = store.add("mask", np.full(n_edges, INIT_LOGIT))
    opt = Adam(store, lr=config.lr)
    trace = []
    for _ in range(config.iterations):
        store.zero_grad()
        probs = masked_forward(pdg, model, EdgeMask(logits=logits), feats=feats)
        sig = logits.sigmoid()
        loss = (
            probs[0, target].log() * Tensor(np.array(-1.0))
            + sig.sum() * Tensor(np.array(config.sparsity_weight))
            + _binary_entropy(sig).sum() * Tensor(np.array(config.entropy_weight))
        )
        loss.backward(params=store)
        opt.step()
        np.clip(logits.data, -LOGIT_CLAMP, LOGIT_CLAMP, out=logits.data)
        trace.append(float(loss.data))
    return EdgeMask(logits=Tensor(logits.data.copy()), loss_trace=trace)


def extract_subgraph(pdg: Pdg, mask: EdgeMask, k: int = DEFAULT_TOP_EDGES) -> InterpretationSubgraph:
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
        method=pdg.method,
        edges=edges,
        nodes=tuple(sorted(importance)),
        statement_ranking=ranking,
    )


def explanation_report(decision: str, sub: InterpretationSubgraph) -> dict:
    return {
        "method": sub.method,
        "decision": decision,
        "k": len(sub.edges),
        "edges": [
            {"src": s, "dst": d, "kind": kind, "var": var, "mask": mask}
            for s, d, kind, var, mask in sub.edges
        ],
        "statements": [
            {"index": stmt, "importance": importance}
            for stmt, importance in sub.statement_ranking
        ],
    }


def subgraph_to_dot(pdg: Pdg, sub: InterpretationSubgraph) -> str:
    """DOT rendering of the kept edges, labeled with their mask values."""

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = [f'digraph "{esc(sub.method)}" {{', "  node [shape=box];"]
    for idx in sub.nodes:
        lines.append(f'  n{idx} [label="{idx}: {esc(pdg.nodes[idx].text)}"];')
    for src, dst, kind, var, value in sub.edges:
        style = "" if kind == "data" else " style=dashed"
        tag = f"{var} {value:.3f}" if var else f"{value:.3f}"
        lines.append(f'  n{src} -> n{dst} [label="{esc(tag)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
