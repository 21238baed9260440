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
projection; the neighbours are the statement's slots in the chunk's slot list
(vulgraph.slots), so no step is quadratic in the statements.

Everything here is batched: encode_method_batch processes all statements of
many methods in one tensor program. Each GRU recurrence (gru_sequence) is
one tape node that reads its own input rows: token ids from the embedding
table, context neighbours from feature 1, or, in the attention Bi-GRU, the
six features in turn. The Tree-LSTM over the whole forest (encode_forest)
and everything from the six feature matrices and the two attention states
to the statement matrix (attend_and_fuse) are one node each as well. Their
hand-written backwards repeat the numpy steps of the one-node-per-op tape in
its order, so their values and gradients are bitwise that tape's. A
training batch of eight methods records 11 nodes. Each block's parameters
are declared once, as an ordered (name, shape) layout, and each op reads
them by its layout's names.

A pass that records no tape (fagcn.forward_methods) passes a memo
(recurrence_memo), one dict per recurrence whose input is a token
sequence: sub_gru, name_gru and type_gru are keyed by their vocabulary-id
tuples, and data_gru and ctrl_gru by the tuple of their neighbours'
subtoken sequences. Each distinct key then runs once per pass, and later
chunks read its final state from the memo. A row's state does not depend
on the rows run beside it (ROW_SAFE_WIDTH), so every state is bitwise the
one a chunk running all its rows reaches. The recording pass runs the same
listing of the six features with no memo, so every row runs: its backward
adds each row's gradient into the weights in a fixed order, and shared rows
would change that sum.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

import numpy as np

from .autodiff import ParamStore, Tensor
from .config import EncoderConfig
from .errors import EmptyTree, ShapeMismatch
from .features import (
    PAD_ID,
    UNK_ID,
    FlatTree,
    StatementFeatureBundle,
    Vocabulary,
    extract_method_features,
)
from .frontend import Pdg
from .slots import Runs, Slots, propagate, slot_list, slot_products

N_FEATURES = 6
WIDEN_DIM = 8  # per-feature width after the shared summarizing layer
CONCAT_DIM = N_FEATURES * WIDEN_DIM  # a statement's widened features, concatenated


GRU_GATES = "zrh"  # update, reset, candidate
TREE_GATES = "ifou"  # input, forget, output, update


# --- parameter layouts ------------------------------------------------------------
# A block's names do not depend on its widths: a reader of names passes 0s.


def cell_layout(prefix: str, gates: str, in_dim: int, hidden: int) -> list[tuple[str, tuple]]:
    """A gated cell (a GRU or a child-sum Tree-LSTM): per gate, an input
    weight w, a recurrent weight u and a bias b."""
    return [
        (f"{prefix}.{kind}{gate}", shape)
        for gate in gates
        for kind, shape in (("w", (in_dim, hidden)), ("u", (hidden, hidden)), ("b", (hidden,)))
    ]


def fuse_layout(hidden: int, wide: int, stmt_dim: int) -> list[tuple[str, tuple]]:
    """The attention and fusion block, in attend_and_fuse's order, over
    features of width `hidden` whose widened rows concatenate to `wide`."""
    return [
        ("attn.q_w", (hidden, hidden)), ("attn.ctx_w", (2 * hidden, hidden)),
        ("attn.bias", (hidden,)), ("attn.v", (hidden, 1)),
        ("fuse.h_w", (hidden, WIDEN_DIM)), ("fuse.h_b", (WIDEN_DIM,)),
        ("fuse.score_w", (wide, 1)),
        ("fuse.out_w", (wide, stmt_dim)), ("fuse.out_b", (stmt_dim,)),
    ]


def encoder_layout(vocab_size: int, cfg: EncoderConfig) -> list[tuple[str, tuple]]:
    """Every encoder parameter, in registration order."""
    e, h = cfg.embed_dim, cfg.gru_hidden
    return [
        ("embed.table", (vocab_size, e)),
        *cell_layout("sub_gru", GRU_GATES, e, h),
        *cell_layout("tree", TREE_GATES, e, h),
        *cell_layout("name_gru", GRU_GATES, e, h),
        *cell_layout("type_gru", GRU_GATES, e, h),
        *cell_layout("data_gru", GRU_GATES, h, h),
        *cell_layout("ctrl_gru", GRU_GATES, h, h),
        *cell_layout("attn_fwd", GRU_GATES, h, h),
        *cell_layout("attn_bwd", GRU_GATES, h, h),
        *fuse_layout(h, CONCAT_DIM, cfg.stmt_dim),
    ]


FUSE_PARAMS = tuple(name for name, _ in fuse_layout(0, 0, 0))


def cell_params(store: ParamStore, prefix: str, gates: str) -> tuple[Tensor, ...]:
    """A cell's parameter tuple, in its layout's order."""
    return tuple(store[name] for name, _ in cell_layout(prefix, gates, 0, 0))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # One exp of a non-positive argument, so it never overflows; each branch
    # is bitwise the textbook form for its sign, and +-inf map to 1 and 0.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def gru_sequence(inputs: list[Tensor], rows: np.ndarray, mask: np.ndarray, weights: tuple) -> Tensor:
    """Final hidden state [B, hidden] of a GRU (Cho et al., 2014) run from a
    zero state over rows.shape[0] steps: at step t, batch row b reads row
    rows[t, b] of the input tensors stacked end to end, and mask[t, b] == 0
    leaves its state untouched. `weights` are the cell's tuple (cell_params
    with GRU_GATES).

    The whole recurrence is one tape node whose backward runs through time by
    hand (Werbos, 1990) and adds each read row's gradient into its input
    with np.add.at, so a row read twice sums both. Each step's products are
    taken separately, so the forward value is bitwise that of the same
    recurrence built from one tape node per elementwise op. Per-step
    activations are kept only when an input requires grad."""
    rows = np.asarray(rows, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    if rows.ndim != 2 or len(rows) < 1 or mask.shape != rows.shape:
        raise ShapeMismatch(f"gru_sequence: rows {rows.shape} under a mask {mask.shape}")
    steps, batch = rows.shape
    flat = rows.reshape(-1)  # step-major
    x = (inputs[0].data if len(inputs) == 1 else np.concatenate([t.data for t in inputs]))[flat]
    wz, uz, bz, wr, ur, br, wh, uh, bh = (w.data for w in weights)
    hidden = bz.shape[0]
    parents = (*inputs, *weights)
    record = any(p.requires_grad for p in parents)
    if record:  # each step's input state and gates, step-major like x
        h_in, zs, rs, cands = (np.empty((steps * batch, hidden)) for _ in range(4))
    h = np.zeros((batch, hidden))
    for t in range(steps):
        at = slice(t * batch, (t + 1) * batch)
        xt = x[at]
        z = _sigmoid(xt @ wz + h @ uz + bz)
        r = _sigmoid(xt @ wr + h @ ur + br)
        cand = np.tanh(xt @ wh + (r * h) @ uh + bh)
        if record:
            h_in[at], zs[at], rs[at], cands[at] = h, z, r, cand
        keep = mask[t][:, None]
        h = keep * (z * cand + (1.0 - z) * h) + (1.0 - keep) * h

    def backward(out):
        # Gradients of the z, r and candidate pre-activations, step-major.
        d_z, d_r, d_c = (np.empty((steps * batch, hidden)) for _ in range(3))
        dh = out.grad
        for t in reversed(range(steps)):
            at = slice(t * batch, (t + 1) * batch)
            h_prev, z, r, cand = h_in[at], zs[at], rs[at], cands[at]
            keep = mask[t][:, None]
            d_next, carry = dh * keep, dh * (1.0 - keep)
            d_c[at] = d_next * z * (1.0 - cand * cand)
            d_rh = d_c[at] @ uh.T
            d_z[at] = (d_next * cand - d_next * h_prev) * z * (1.0 - z)
            d_r[at] = d_rh * h_prev * r * (1.0 - r)
            dh = carry + d_next * (1.0 - z) + d_rh * r + d_z[at] @ uz.T + d_r[at] @ ur.T
        if any(src.requires_grad for src in inputs):
            d_x = d_z @ wz.T + d_r @ wr.T + d_c @ wh.T
            start = 0
            for src in inputs:
                stop = start + len(src.data)
                if src.requires_grad:
                    mine = (flat >= start) & (flat < stop)
                    src._accumulate(d_x[mine], flat[mine] - start)
                start = stop
        for k, (d_pre, h_side) in enumerate(((d_z, h_in), (d_r, h_in), (d_c, rs * h_in))):
            w, u, b = weights[3 * k : 3 * k + 3]
            if w.requires_grad:
                w._accumulate(x.T @ d_pre)
            if u.requires_grad:
                u._accumulate(h_side.T @ d_pre)
            if b.requires_grad:
                b._accumulate(d_pre.sum(axis=0))

    return Tensor._make(h, parents, backward)


def _gate(x: np.ndarray, w: np.ndarray, h_sum: np.ndarray | None, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A Tree-LSTM gate's pre-activation x @ w + h_sum @ u + b, summed in
    that order; h_sum is None at the leaves."""
    pre = x @ w
    if h_sum is not None:
        pre += h_sum @ u
    pre += b
    return pre


def encode_forest(trees: list[FlatTree], vocab: Vocabulary, embed: Tensor, params: tuple) -> Tensor:
    """Encode every flattened tree with a child-sum Tree-LSTM (Tai et al.,
    ACL 2015) batched by node height across the forest; `params` is the
    cell's tuple (cell_params with TREE_GATES). Returns root hidden states
    [n, hidden].

    One tape node, whose backward runs the levels top-down and sends
    gradients to the embedding table and the twelve gate parameters. Each
    level takes the numpy steps of the per-op tape, and every gradient, the
    table's row by row, adds up in that tape's order, so values and
    gradients are bitwise its. A node's children are summed over its run of
    (parent, child) pairs, so a level's memory grows with its pairs.
    Per-level intermediates are kept only when an input requires grad."""
    if not trees:
        raise EmptyTree("cannot encode an empty syntax tree")
    sizes = np.array([len(t.labels) for t in trees], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes  # each tree's first node in the forest
    shift = np.repeat(offsets, sizes - 1)  # a tree of n nodes has n - 1 pairs
    token_id = vocab.token_to_id.get
    node_label = np.array([token_id(label, UNK_ID) for t in trees for label in t.labels], dtype=np.int64)
    height = np.fromiter(chain.from_iterable(t.heights for t in trees), np.int64, len(node_label))
    parent = np.fromiter(chain.from_iterable(t.parents for t in trees), np.int64, len(shift)) + shift
    child = np.fromiter(chain.from_iterable(t.children for t in trees), np.int64, len(shift)) + shift
    roots = offsets + sizes - 1

    wi, ui, bi, wf, uf, bf, wo, uo, bo, wu, uu, bu = (t.data for t in params)
    p_wi, p_ui, p_bi, p_wf, p_uf, p_bf, p_wo, p_uo, p_bo, p_wu, p_uu, p_bu = params
    table = embed.data
    record = any(t.requires_grad for t in (embed, *params))
    hidden = bi.shape[0]
    # every node's h and c, one height after another (a node's children
    # are lower, so they are filled before it)
    h_all = np.empty((len(node_label), hidden))
    c_all = np.empty((len(node_label), hidden))
    row_of = np.empty(len(node_label), dtype=np.int64)
    slot = np.empty(len(node_label), dtype=np.int64)  # a node's place in its level
    levels = []
    done = 0
    for lvl in range(int(height.max()) + 1):  # no level is empty
        nodes = np.flatnonzero(height == lvl)
        m = len(nodes)
        at = slice(done, done + m)
        row_of[nodes] = np.arange(done, done + m)
        slot[nodes] = np.arange(m)
        ids = node_label[nodes]
        x = table[ids]
        if lvl:
            here = height[parent] == lvl  # every node here has a run of pairs
            kid_rows, kid_ids = row_of[child[here]], node_label[parent[here]]
            h_kids, c_kids, x_kids = h_all[kid_rows], c_all[kid_rows], table[kid_ids]
            f = _sigmoid(x_kids @ wf + h_kids @ uf + bf)
            owner = slot[parent[here]]  # the node each pair belongs to
            runs = Runs(owner)
            h_sum = runs.sum(h_kids)
            fc_sum = runs.sum(f * c_kids)
            kids = (kid_rows, kid_ids, h_kids, c_kids, x_kids, f, owner)
        else:  # the leaves, whose child terms are zero and left out
            h_sum = fc_sum = kids = None
        i = _sigmoid(_gate(x, wi, h_sum, ui, bi))
        o = _sigmoid(_gate(x, wo, h_sum, uo, bo))
        u = np.tanh(_gate(x, wu, h_sum, uu, bu))
        c = i * u
        if fc_sum is not None:
            c += fc_sum
        tanh_c = np.tanh(c)
        h_all[at], c_all[at] = o * tanh_c, c
        if record:
            levels.append((at, ids, x, h_sum, i, o, u, tanh_c, kids))
        done += m
    root_rows = row_of[roots]

    def backward(out):
        d_h = np.zeros_like(h_all)
        d_c = np.zeros_like(c_all)
        d_h[root_rows] = out.grad
        for at, ids, x, h_sum, i, o, u, tanh_c, kids in reversed(levels):
            d_o = d_h[at] * tanh_c
            dc = d_h[at] * o * (1.0 - tanh_c * tanh_c) + d_c[at]
            d_i, d_u = dc * u, dc * i
            d_ai = d_i * i * (1.0 - i)
            d_ao = d_o * o * (1.0 - o)
            d_au = d_u * (1.0 - u * u)
            for (p_w, p_u, p_b), d_pre in (
                ((p_wo, p_uo, p_bo), d_ao), ((p_wi, p_ui, p_bi), d_ai), ((p_wu, p_uu, p_bu), d_au)
            ):
                if p_b.requires_grad:
                    p_b._accumulate(d_pre.sum(axis=0))
                if p_w.requires_grad:
                    p_w._accumulate(x.T @ d_pre)
                if p_u.requires_grad and h_sum is not None:
                    p_u._accumulate(h_sum.T @ d_pre)
            if embed.requires_grad:
                d_x = d_ao @ wo.T
                d_x += d_ai @ wi.T
                d_x += d_au @ wu.T
                embed._accumulate(d_x, ids)
            if kids is None:
                continue
            kid_rows, kid_ids, h_kids, c_kids, x_kids, f, owner = kids
            d_sum = d_ao @ uo.T
            d_sum += d_ai @ ui.T
            d_sum += d_au @ uu.T
            d_fc = dc[owner]
            d_af = d_fc * c_kids * f * (1.0 - f)
            if p_bf.requires_grad:
                p_bf._accumulate(d_af.sum(axis=0))
            if p_wf.requires_grad:
                p_wf._accumulate(x_kids.T @ d_af)
            if p_uf.requires_grad:
                p_uf._accumulate(h_kids.T @ d_af)
            if embed.requires_grad:
                embed._accumulate(d_af @ wf.T, kid_ids)
            d_h[kid_rows] += d_sum[owner] + d_af @ uf.T
            d_c[kid_rows] += d_fc * f

    return Tensor._make(h_all[root_rows], (embed, *params), backward)


# --- batched method encoding ------------------------------------------------------


def _token_keys(seqs: list[list[str]], vocab: Vocabulary) -> list[tuple[int, ...]]:
    """Each token sequence as the tuple of its vocabulary ids."""
    token_id = vocab.token_to_id.get
    return [tuple([token_id(t, UNK_ID) for t in seq]) for seq in seqs]


def _token_matrix(seqs: list) -> tuple[np.ndarray, np.ndarray]:
    """The int sequences (token ids or context rows) as a matrix
    [len(seqs), longest] padded with PAD_ID, and the 0/1 mask of its real
    entries; both filled by one assignment over every entry's (row,
    column)."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    max_len = max(int(lengths.max(initial=0)), 1)
    ids = np.full((len(seqs), max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), max_len), dtype=np.float64)
    row = np.repeat(np.arange(len(seqs)), lengths)
    col = np.arange(len(row)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids[row, col] = np.fromiter(chain.from_iterable(seqs), np.int64, len(row))
    mask[row, col] = 1.0
    return ids, mask


def _run_token_gru(gru: tuple, embed: Tensor, keys: list[tuple[int, ...]]) -> Tensor:
    """GRU over the embedded tokens of each id sequence."""
    ids, mask = _token_matrix(keys)
    return gru_sequence([embed], ids.T, mask.T, gru)


def _run_context_gru(gru: tuple, f1: Tensor, contexts: list) -> Tensor:
    """GRU over the feature-1 vectors of each statement's context neighbors;
    contexts hold row indices into the f1 matrix."""
    if not any(contexts):
        return Tensor(np.zeros((len(contexts), gru[2].data.shape[0])))  # the first gate's bias
    idx, mask = _token_matrix(contexts)
    return gru_sequence([f1], idx.T, mask.T, gru)


# A row of an A @ W product does not depend on the other rows when the
# product has at least 2 rows and at least 4 output columns. Measured with
# one thread of numpy's bundled OpenBLAS 0.3.31: no row of 288 such products
# (2-130 rows, inner widths 2-64, output widths 4-64) differed from the same
# row in a two-row product, nor did any of 1,232 cases in a wider sweep, or
# of 3,200 at the GRU oracle test's widths of 4 or less. Output widths 1-3
# with an inner width of 8 or more do differ (50 of 96 products), and so
# does a one-row product, which takes the matrix-vector kernel (275 of 288).
# A @ B.T with 37 rows or fewer takes yet another kernel, and rows of such
# products can depend on the row count (18 of 120 differed); only backward
# passes take them, and those never read a memo.
ROW_SAFE_WIDTH = 4
MEMO_GRUS = ("sub_gru", "name_gru", "type_gru", "data_gru", "ctrl_gru")


def recurrence_memo(width: int) -> dict[str, dict] | None:
    """An empty memo for each recurrence whose input is a token sequence:
    a dict from the key that determines a final state to that state's row,
    `width` (gru_hidden) wide. Valid only while the weights stay as they
    were. None below ROW_SAFE_WIDTH, where a row's bits may depend on the
    rows run beside it."""
    if width < ROW_SAFE_WIDTH:
        return None
    return {name: {} for name in MEMO_GRUS}


def _final_states(memo: dict | None, keys: list, inputs: list, run) -> Tensor:
    """run(inputs): a recurrence's final state for each input, [len(inputs),
    hidden]. With a memo, only the inputs whose keys it has not seen run,
    one per key and all in one call, and every row is read from it."""
    if memo is None:
        return run(inputs)
    new: dict = {}
    for key, x in zip(keys, inputs):
        if key not in memo:
            new.setdefault(key, x)
    if new:
        todo = list(new.values())
        # A lone new key runs as two identical rows: a one-row product
        # takes another kernel (see ROW_SAFE_WIDTH).
        memo.update(zip(new, run(todo * 2 if len(todo) == 1 else todo).data))
    return Tensor(np.array([memo[key] for key in keys]))


def _statement_features(
    bundle_lists: list[list[StatementFeatureBundle]],
    spans: list[tuple[int, int]],
    vocab: Vocabulary,
    store: ParamStore,
    memo: dict[str, dict] | None = None,
) -> list[Tensor]:
    """The six per-statement feature matrices [total_stmts, gru_hidden] of
    every method, in feature order; spans place each method's rows.

    With a memo (recurrence_memo), the five token and context recurrences
    run only the keys the memo has not seen, all in one batch each, and read
    every row from it. A token sequence's key is its vocabulary-id tuple; a
    context's key is the tuple of its neighbours' subtoken keys. Every row
    is bitwise what running all rows gives, since each product has 2 rows
    or more (see ROW_SAFE_WIDTH). Without a memo, as in the recording pass,
    the same listing runs every row, in the order its backward relies on."""
    flat = [b for bundles in bundle_lists for b in bundles]
    if len(flat) < 2:  # its products would have one row
        memo = None
    memos = dict.fromkeys(MEMO_GRUS) if memo is None else memo
    embed = store["embed.table"]
    sub_keys = _token_keys([b.subtokens for b in flat], vocab)
    data_ctx, ctrl_ctx = [], []
    for (s, _), bundles in zip(spans, bundle_lists):
        for b in bundles:
            data_ctx.append([s + j for j in b.data_ctx])
            ctrl_ctx.append([s + j for j in b.ctrl_ctx])

    def tokens(name: str, keys: list) -> Tensor:
        run = partial(_run_token_gru, cell_params(store, name, GRU_GATES), embed)
        return _final_states(memos[name], keys, keys, run)

    def context(name: str, contexts: list, f1: Tensor) -> Tensor:
        run = partial(_run_context_gru, cell_params(store, name, GRU_GATES), f1)
        keys = None if memo is None else [tuple([sub_keys[i] for i in ctx]) for ctx in contexts]
        return _final_states(memos[name], keys, contexts, run)

    f1 = tokens("sub_gru", sub_keys)
    f2 = encode_forest([b.tree for b in flat], vocab, embed, cell_params(store, "tree", TREE_GATES))
    f3 = tokens("name_gru", _token_keys([[w for var in b.var_names for w in var] for b in flat], vocab))
    f4 = tokens("type_gru", _token_keys([[w for var in b.var_types for w in var] for b in flat], vocab))
    f5 = context("data_gru", data_ctx, f1)
    f6 = context("ctrl_gru", ctrl_ctx, f1)
    return [f1, f2, f3, f4, f5, f6]


def attend_and_fuse(
    features: list[Tensor], fwd: Tensor, bwd: Tensor, slots: Slots, store: ParamStore
) -> Tensor:
    """The statement matrix [n, stmt_dim] from the per-statement feature
    matrices, weighted by attention and fused over dependence neighbours.

    Attention: the final states of the two Bi-GRU directions (fwd, bwd) form
    a shared context, each feature is scored additively against it, and a
    softmax over the features weights them. Fusion: each weighted feature is
    widened to WIDEN_DIM by a shared layer, the concatenated rows g are
    scored, and each statement takes the softmax of those scores over its
    slots (itself and its dependence neighbours, see slots.slot_list) as
    weights for a sum of rows of g, then a final projection.

    One tape node. Forward and backward take the numpy steps of the tape
    built from one node per op, in its order and on arrays of its memory
    layout, so values and gradients are bitwise that tape's. Intermediates
    are kept only when an input requires grad."""
    params = tuple(store[name] for name in FUSE_PARAMS)
    q_w, ctx_w, bias, v, h_w, h_b, score_w, out_w, out_b = (p.data for p in params)
    p_q_w, p_ctx_w, p_bias, p_v, p_h_w, p_h_b, p_score_w, p_out_w, p_out_b = params
    feats = [f.data for f in features]
    width = fwd.data.shape[1]
    both = np.concatenate([fwd.data, bwd.data], axis=1)
    ctx = both @ ctx_w
    acts = [np.tanh(f @ q_w + ctx + bias) for f in feats]
    scores = np.concatenate([act @ v for act in acts], axis=1)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    weighted = [f * attn[:, j : j + 1] for j, f in enumerate(feats)]
    g = np.concatenate([w @ h_w + h_b for w in weighted], axis=1)
    fuse_scores = g @ score_w
    exp_col = np.exp(fuse_scores - float(fuse_scores.max()))
    e = exp_col.reshape(-1)[slots.src]
    denom = slots.runs.sum(e)[slots.dst]
    w_fuse = e / denom
    fused = propagate(slots, w_fuse, g)
    out = fused @ out_w + out_b

    def backward(out_node):
        d_out = out_node.grad
        if p_out_b.requires_grad:
            p_out_b._accumulate(d_out.sum(axis=0))
        d_fused = d_out @ out_w.T
        if p_out_w.requires_grad:
            p_out_w._accumulate(fused.T @ d_out)
        d_w = slot_products(slots, d_fused, g)
        d_g = propagate(slots, w_fuse[slots.rev], d_fused)
        d_e = d_w / denom + slots.runs.sum(-d_w * e / (denom * denom))[slots.dst]
        d_scores = slots.runs.sum(d_e[slots.rev]).reshape(exp_col.shape) * exp_col
        d_g += d_scores @ score_w.T
        if p_score_w.requires_grad:
            p_score_w._accumulate(g.T @ d_scores)
        # weighted[j] = (f.T * attn[:, j].T).T on the per-op tape
        d_attn = np.zeros_like(attn)
        for j, (f, w) in enumerate(zip(features, weighted)):
            d_wide = np.ascontiguousarray(d_g[:, j * WIDEN_DIM : (j + 1) * WIDEN_DIM])
            if p_h_b.requires_grad:
                p_h_b._accumulate(d_wide.sum(axis=0))
            d_p = np.ascontiguousarray((d_wide @ h_w.T).T)
            if p_h_w.requires_grad:
                p_h_w._accumulate(w.T @ d_wide)
            if f.requires_grad:
                f._accumulate((d_p * attn[:, j : j + 1].T).T)
            d_attn[:, j : j + 1] += (d_p * f.data.T).sum(axis=0, keepdims=True).T
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
        d_ctx = np.zeros_like(ctx)
        for j, (f, act) in enumerate(zip(features, acts)):
            d_e = np.ascontiguousarray(d_scores[:, j : j + 1])
            d_pre = (d_e @ v.T) * (1.0 - act * act)
            if p_v.requires_grad:
                p_v._accumulate(act.T @ d_e)
            if p_bias.requires_grad:
                p_bias._accumulate(d_pre.sum(axis=0))
            d_ctx += d_pre
            if f.requires_grad:
                f._accumulate(d_pre @ q_w.T)
            if p_q_w.requires_grad:
                p_q_w._accumulate(f.data.T @ d_pre)
        d_both = d_ctx @ ctx_w.T
        if p_ctx_w.requires_grad:
            p_ctx_w._accumulate(both.T @ d_ctx)
        if fwd.requires_grad:
            fwd._accumulate(d_both[:, :width])
        if bwd.requires_grad:
            bwd._accumulate(d_both[:, width:])

    return Tensor._make(out, (*features, fwd, bwd, *params), backward)


def encode_method_batch(
    pdgs: list[Pdg],
    vocab: Vocabulary,
    store: ParamStore,
    bundle_lists: list[list[StatementFeatureBundle]] | None = None,
    memo: dict[str, dict] | None = None,
) -> tuple[Tensor, Slots]:
    """Encode every statement of every method in one tensor program.

    Returns the statement matrix [total_stmts, stmt_dim] and the chunk's
    slot list, whose spans place each method's rows. A memo
    (recurrence_memo) may only be passed while no input requires grad.
    """
    slots = slot_list(pdgs)
    if bundle_lists is None:
        bundle_lists = [extract_method_features(p) for p in pdgs]
    features = _statement_features(bundle_lists, slots.spans, vocab, store, memo)
    # step t reads feature t's rows (the backward direction, feature 6 - t's)
    steps = np.arange(N_FEATURES * len(features[0].data)).reshape(N_FEATURES, -1)
    ones = np.ones(steps.shape)
    fwd = gru_sequence(features, steps, ones, cell_params(store, "attn_fwd", GRU_GATES))
    bwd = gru_sequence(features[::-1], steps, ones, cell_params(store, "attn_bwd", GRU_GATES))
    return attend_and_fuse(features, fwd, bwd, slots, store), slots
