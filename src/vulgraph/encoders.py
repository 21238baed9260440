"""Statement encoders: token GRUs, a child-sum Tree-LSTM over statement ASTs,
a Bi-GRU attention layer that weights the six per-statement features, and the
dependence-neighborhood fusion that yields one fixed-width vector per
statement.

The per-statement features are

  1. identifier subtokens      (GRU over embedded subtokens)
  2. syntax tree               (child-sum Tree-LSTM over embedded node labels)
  3. variable names            (GRU)
  4. variable types            (GRU)
  5. data-dependence context   (GRU over neighbor statements' feature-1 vectors)
  6. control-dependence context(GRU over neighbor statements' feature-1 vectors)

All six widths are equal so the attention Bi-GRU can read them as a sequence.
Fusion then scores every statement in {center} union PDG-neighbors, softmaxes
the scores, and sums the weighted per-statement concatenations through a final
projection.

Everything here is batched: encode_method_batch processes all statements of
many methods in one tensor program. Each GRU reads its whole input sequence
from one gather (or, for the attention Bi-GRU, one concat) and runs as one
autodiff op, gru_sequence, so its recurrence adds a single node to the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamStore, Tensor, concat, glorot, gru_sequence, rows
from .errors import ConfigError, EmptyTree
from .features import (
    StatementFeatureBundle,
    Vocabulary,
    extract_method_features,
    normalize_ast_label,
    vectorize,
)
from .frontend import Pdg
from .rng import Rng

N_FEATURES = 6
WIDEN_DIM = 8  # per-feature width after the shared summarizing layer


@dataclass(frozen=True)
class EncoderConfig:
    embed_dim: int = 32
    gru_hidden: int = 32  # also the Tree-LSTM's width, so attention reads equal widths
    stmt_dim: int = 64

    def __post_init__(self):
        for field in ("embed_dim", "gru_hidden", "stmt_dim"):
            if getattr(self, field) < 2:
                raise ConfigError(f"{field} must be >= 2")

    @property
    def concat_dim(self) -> int:
        return N_FEATURES * WIDEN_DIM

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "gru_hidden": self.gru_hidden,
            "stmt_dim": self.stmt_dim,
        }


_GRU_GATES = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


class Gru:
    """Batched GRU; parameters live in a ParamStore under a name prefix.

    Masked steps leave the hidden state untouched, so trailing PAD positions
    cannot change the output and an all-masked sequence returns zeros.
    """

    def __init__(self, store: ParamStore, prefix: str):
        self.weights = tuple(store[f"{prefix}.{g}"] for g in _GRU_GATES)
        self.hidden = self.weights[2].data.shape[0]

    @staticmethod
    def init(store: ParamStore, rng: Rng, prefix: str, in_dim: int, hidden: int) -> None:
        for gate in ("z", "r", "h"):
            store.add(f"{prefix}.w{gate}", glorot(rng, in_dim, hidden))
            store.add(f"{prefix}.u{gate}", glorot(rng, hidden, hidden))
            store.add(f"{prefix}.b{gate}", np.zeros(hidden))

    def run(self, x: Tensor, steps: int, mask: np.ndarray | None = None) -> Tensor:
        """Run over `steps` inputs stacked step-major in x ([steps * B,
        in_dim]); mask[t] is a 0/1 vector of length B. Returns the final
        hidden state [B, hidden] as one tape node."""
        return gru_sequence(x, self.weights, steps, mask)


_TREE_GATES = ("wi", "ui", "bi", "wf", "uf", "bf", "wo", "uo", "bo", "wu", "uu", "bu")


class TreeLstm:
    """Child-sum Tree-LSTM batched by node height across a forest."""

    def __init__(self, store: ParamStore, prefix: str = "tree"):
        self.p = {g: store[f"{prefix}.{g}"] for g in _TREE_GATES}
        self.hidden = self.p["bi"].data.shape[0]

    @staticmethod
    def init(store: ParamStore, rng: Rng, prefix: str, in_dim: int, hidden: int) -> None:
        for gate in ("i", "f", "o", "u"):
            store.add(f"{prefix}.w{gate}", glorot(rng, in_dim, hidden))
            store.add(f"{prefix}.u{gate}", glorot(rng, hidden, hidden))
            store.add(f"{prefix}.b{gate}", np.zeros(hidden))

    def encode_forest(self, trees: list, vocab: Vocabulary, embed: Tensor) -> Tensor:
        """Encode every tree bottom-up; returns root hidden states [n, hidden]."""
        if not trees or any(not t for t in trees):
            raise EmptyTree("cannot encode an empty syntax tree")
        labels: list[int] = []  # vocab id per flattened node
        children: list[list[int]] = []
        roots: list[int] = []

        def flatten(node) -> int:
            child_rows = [flatten(c) for c in node[1]]
            labels.append(vocab.id(normalize_ast_label(node[0])))
            children.append(child_rows)
            return len(labels) - 1

        for tree in trees:
            roots.append(flatten(tree))

        height = [0] * len(labels)
        for j, kids in enumerate(children):  # children are flattened first
            height[j] = 1 + max((height[k] for k in kids), default=-1)
        order: dict[int, list[int]] = {}
        for j, lvl in enumerate(height):
            order.setdefault(lvl, []).append(j)

        p = self.p
        hid = self.hidden
        h_rows = np.zeros((len(labels),), dtype=np.int64)  # node -> row in h_all
        h_all: Tensor | None = None
        c_all: Tensor | None = None
        done = 0
        for lvl in sorted(order):
            nodes = order[lvl]
            m = len(nodes)
            x = rows(embed, np.array([labels[j] for j in nodes], dtype=np.int64))
            pairs = [(pi, j, k) for pi, j in enumerate(nodes) for k in children[j]]
            if pairs:
                child_idx = np.array([h_rows[k] for _, _, k in pairs], dtype=np.int64)
                h_kids = rows(h_all, child_idx)
                c_kids = rows(c_all, child_idx)
                x_kids = rows(
                    embed, np.array([labels[j] for _, j, _ in pairs], dtype=np.int64)
                )
                f = (x_kids @ p["wf"] + h_kids @ p["uf"] + p["bf"]).sigmoid()
                gather = np.zeros((m, len(pairs)))
                for col, (pi, _, _) in enumerate(pairs):
                    gather[pi, col] = 1.0
                sel = Tensor(gather)
                h_sum = sel @ h_kids
                fc_sum = sel @ (f * c_kids)
            else:
                h_sum = Tensor(np.zeros((m, hid)))
                fc_sum = Tensor(np.zeros((m, hid)))
            i = (x @ p["wi"] + h_sum @ p["ui"] + p["bi"]).sigmoid()
            o = (x @ p["wo"] + h_sum @ p["uo"] + p["bo"]).sigmoid()
            u = (x @ p["wu"] + h_sum @ p["uu"] + p["bu"]).tanh()
            c = i * u + fc_sum
            h = o * c.tanh()
            for pi, j in enumerate(nodes):
                h_rows[j] = done + pi
            h_all = h if h_all is None else concat([h_all, h], axis=0)
            c_all = c if c_all is None else concat([c_all, c], axis=0)
            done += m
        return rows(h_all, np.array([h_rows[r] for r in roots], dtype=np.int64))


def init_encoder_params(
    store: ParamStore, rng: Rng, vocab_size: int, cfg: EncoderConfig
) -> None:
    """Register every encoder parameter in a fixed, reproducible order."""
    e, h = cfg.embed_dim, cfg.gru_hidden
    store.add("embed.table", glorot(rng, vocab_size, e))
    Gru.init(store, rng, "sub_gru", e, h)
    TreeLstm.init(store, rng, "tree", e, h)
    Gru.init(store, rng, "name_gru", e, h)
    Gru.init(store, rng, "type_gru", e, h)
    Gru.init(store, rng, "data_gru", h, h)
    Gru.init(store, rng, "ctrl_gru", h, h)
    Gru.init(store, rng, "attn_fwd", h, h)
    Gru.init(store, rng, "attn_bwd", h, h)
    store.add("attn.q_w", glorot(rng, h, h))
    store.add("attn.ctx_w", glorot(rng, 2 * h, h))
    store.add("attn.bias", np.zeros(h))
    store.add("attn.v", glorot(rng, h, 1))
    store.add("fuse.h_w", glorot(rng, h, WIDEN_DIM))
    store.add("fuse.h_b", np.zeros(WIDEN_DIM))
    store.add("fuse.score_w", glorot(rng, cfg.concat_dim, 1))
    store.add("fuse.score_b", np.zeros(1))
    store.add("fuse.out_w", glorot(rng, cfg.concat_dim, cfg.stmt_dim))
    store.add("fuse.out_b", np.zeros(cfg.stmt_dim))


# --- batched method encoding ------------------------------------------------------


def _attention_scores(features: list[Tensor], store: ParamStore) -> Tensor:
    """Per-feature attention scores [batch, n_features].

    A Bi-GRU reads the feature sequence into a shared context (final state of
    each direction); each feature is then scored additively against that
    context, so identical features always tie."""
    n = len(features)
    fwd = Gru(store, "attn_fwd").run(concat(features), n)
    bwd = Gru(store, "attn_bwd").run(concat(features[::-1]), n)
    ctx = concat([fwd, bwd], axis=1) @ store["attn.ctx_w"]
    cols = []
    for f in features:
        e = (f @ store["attn.q_w"] + ctx + store["attn.bias"]).tanh() @ store["attn.v"]
        cols.append(e)
    return concat(cols, axis=1)


def _token_matrix(
    seqs: list[list[str]], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    max_len = max((len(s) for s in seqs), default=0)
    max_len = max(max_len, 1)
    ids = np.zeros((len(seqs), max_len), dtype=np.int64)
    mask = np.zeros((len(seqs), max_len), dtype=np.float64)
    for b, seq in enumerate(seqs):
        ids[b], mask[b] = vectorize(seq, vocab, max_len)
    return ids, mask


def _run_token_gru(
    gru: Gru, embed: Tensor, ids: np.ndarray, mask: np.ndarray
) -> Tensor:
    return gru.run(rows(embed, ids.T.reshape(-1)), ids.shape[1], mask.T)


def _run_context_gru(gru: Gru, f1: Tensor, contexts: list[list[int]]) -> Tensor:
    """GRU over the feature-1 vectors of each statement's context neighbors;
    contexts hold row indices into the stacked f1 matrix."""
    n = len(contexts)
    max_len = max((len(c) for c in contexts), default=0)
    if max_len == 0:
        return Tensor(np.zeros((n, gru.hidden)))
    idx = np.zeros((max_len, n), dtype=np.int64)
    mask = np.zeros((max_len, n), dtype=np.float64)
    for b, ctx in enumerate(contexts):
        idx[: len(ctx), b] = ctx
        mask[: len(ctx), b] = 1.0
    return gru.run(rows(f1, idx.reshape(-1)), max_len, mask)


def _weight_features(features: list[Tensor], weights: Tensor) -> list[Tensor]:
    """Scale feature j of every statement by attention weight column j."""
    out = []
    for j, f in enumerate(features):
        w_col = weights[:, j : j + 1]
        out.append((f.transpose() * w_col.transpose()).transpose())
    return out


def _statement_features(
    bundle_lists: list[list[StatementFeatureBundle]],
    spans: list[tuple[int, int]],
    vocab: Vocabulary,
    store: ParamStore,
) -> list[Tensor]:
    """The six per-statement feature matrices [total_stmts, gru_hidden] of
    every method, in feature order; spans place each method's rows."""
    flat = [b for bundles in bundle_lists for b in bundles]
    embed = store["embed.table"]

    sub_ids, sub_mask = _token_matrix([b.subtokens for b in flat], vocab)
    name_ids, name_mask = _token_matrix(
        [[w for var in b.var_names for w in var] for b in flat], vocab
    )
    type_ids, type_mask = _token_matrix(
        [[w for var in b.var_types for w in var] for b in flat], vocab
    )

    f1 = _run_token_gru(Gru(store, "sub_gru"), embed, sub_ids, sub_mask)
    f2 = TreeLstm(store).encode_forest([b.ast for b in flat], vocab, embed)
    f3 = _run_token_gru(Gru(store, "name_gru"), embed, name_ids, name_mask)
    f4 = _run_token_gru(Gru(store, "type_gru"), embed, type_ids, type_mask)

    data_ctx, ctrl_ctx = [], []
    for (s, _), bundles in zip(spans, bundle_lists):
        for b in bundles:
            data_ctx.append([s + j for j in b.data_ctx])
            ctrl_ctx.append([s + j for j in b.ctrl_ctx])
    f5 = _run_context_gru(Gru(store, "data_gru"), f1, data_ctx)
    f6 = _run_context_gru(Gru(store, "ctrl_gru"), f1, ctrl_ctx)
    return [f1, f2, f3, f4, f5, f6]


def dependence_adjacency(pdg: Pdg) -> np.ndarray:
    """The method's 0/1 (A + I) over its dependence edges, either direction."""
    a = np.eye(len(pdg.nodes))
    for e in pdg.edges:
        a[e.src, e.dst] = 1.0
        a[e.dst, e.src] = 1.0
    return a


def encode_method_batch(
    pdgs: list[Pdg],
    vocab: Vocabulary,
    store: ParamStore,
    cfg: EncoderConfig,
    bundle_lists: list[list[StatementFeatureBundle]] | None = None,
) -> tuple[Tensor, list[tuple[int, int]]]:
    """Encode every statement of every method in one tensor program.

    Returns (matrix [total_stmts, stmt_dim], [(start, end) per method]).
    """
    if not pdgs:
        return Tensor(np.zeros((0, cfg.stmt_dim))), []
    if bundle_lists is None:
        bundle_lists = [extract_method_features(p) for p in pdgs]
    spans = []
    start = 0
    for bundles in bundle_lists:
        spans.append((start, start + len(bundles)))
        start += len(bundles)
    total = start

    features = _statement_features(bundle_lists, spans, vocab, store)
    attn = _attention_scores(features, store).softmax(axis=1)
    weighted = _weight_features(features, attn)

    widened = [f @ store["fuse.h_w"] + store["fuse.h_b"] for f in weighted]
    g = concat(widened, axis=1)
    scores = g @ store["fuse.score_w"] + store["fuse.score_b"]

    adj = np.zeros((total, total))
    for (s, e), pdg in zip(spans, pdgs):
        adj[s:e, s:e] = dependence_adjacency(pdg)
    shift = float(scores.data.max())
    exp_row = (scores - Tensor(np.array(shift))).exp().transpose()
    numer = Tensor(adj) * exp_row
    denom = numer.sum(axis=1, keepdims=True)
    w_fuse = (numer.transpose() / denom.transpose()).transpose()
    fused = w_fuse @ g
    out = fused @ store["fuse.out_w"] + store["fuse.out_b"]
    return out, spans
