"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive simple-path enumeration for
dependences, literal formula transcriptions for ranking metrics, central
finite differences for gradients, exhaustive subset search for explanation
subgraphs, one tape node per elementwise op for the fused autodiff ops (the
GRU recurrence, the Tree-LSTM forest, the attention and fusion block, the
detector head, the training loss, the masked adjacency and the explainer's
loss) with every segment sum added by np.add.at, the dense n x n forms of
the graph operations that the package keeps as slot lists, Adam one
parameter tensor at a time, a lexer that steps one character at a time,
binary expressions parsed one precedence level per recursion, token vectors
one row at a time, and statement contexts read from Pdg.neighbors. Some
helpers wrap package code instead: the explanation search scores each
subset with the detector itself, canonical_code applies the miner's
canonical form to a whole graph, the per-op graph references read the
package's slot lists (vulgraph.slots.slot_list, explain.edge_slots) and the
Tree-LSTM reference the package's flattened trees, and the per-op explainer
reuses the package's Adam step, which the fused explainer shares with it,
and learns on the statement matrix of the package's forward pass; the
per-level parser subclasses the package's parser and replaces only its
expression rule, and the character-loop lexer builds the package's Token
records; the feature reference reuses the per-statement helpers of
vulgraph.features; planted_entries reads the generator's lines through the
package's corpus writer and reader. No other code here is shared with the implementation
under test. The elementwise, reduction, indexing and shape ops of the per-op
tape, the row gather and concat among them, are not package code:
tensor_ops installs them on Tensor (see conftest.py).
"""

from __future__ import annotations

import math


# --- path enumeration --------------------------------------------------------


def simple_paths(succ: dict[int, list[int]], src: int, dst: int):
    """Yield every simple path src..dst as a list of nodes."""
    path = [src]
    on_path = {src}

    def rec(v):
        if v == dst:
            yield list(path)
            return
        for w in succ[v]:
            if w not in on_path:
                path.append(w)
                on_path.add(w)
                yield from rec(w)
                path.pop()
                on_path.remove(w)

    yield from rec(src)


def brute_postdominators(succ: dict[int, list[int]], nodes: list[int], exit_: int):
    """s post-dominates u iff s lies on every simple path u -> exit."""
    pdom = {}
    for u in nodes:
        common = None
        for path in simple_paths(succ, u, exit_):
            nodes_on = set(path)
            common = nodes_on if common is None else (common & nodes_on)
        pdom[u] = common if common is not None else set(nodes)
    return pdom


def brute_control_deps(cfg) -> list[tuple[int, int]]:
    succ = {k: list(v) for k, v in cfg.successors().items()}
    if cfg.exit not in succ[cfg.entry]:
        succ[cfg.entry].append(cfg.exit)
    nodes = cfg.nodes
    pdom = brute_postdominators(succ, nodes, cfg.exit)
    deps = set()
    for p in nodes:
        if p == cfg.exit or len(succ[p]) < 2:
            continue
        for s in nodes:
            if s == p or s == cfg.exit:
                continue
            if s not in pdom[p] and any(s in pdom[u] for u in succ[p]):
                deps.add((p, s))
    return sorted(deps)


def set_postdominators(cfg, virtual_entry_exit: bool = False) -> dict[int, frozenset[int]]:
    """Post-dominator sets per node by the iterative set-intersection
    equations; every node post-dominates itself. Cubic-ish, but simple."""
    succ = cfg.successors()
    if virtual_entry_exit and cfg.exit not in succ[cfg.entry]:
        succ = {k: list(v) for k, v in succ.items()}
        succ[cfg.entry].append(cfg.exit)
    nodes = cfg.nodes
    universe = set(nodes)
    pdom: dict[int, set[int]] = {v: set(universe) for v in nodes}
    pdom[cfg.exit] = {cfg.exit}
    changed = True
    while changed:
        changed = False
        for v in nodes:
            if v == cfg.exit:
                continue
            if succ[v]:
                new = set(universe)
                for s in succ[v]:
                    new &= pdom[s]
            else:
                new = set()
            new.add(v)
            if new != pdom[v]:
                pdom[v] = new
                changed = True
    return {v: frozenset(s) for v, s in pdom.items()}


def set_control_deps(cfg) -> list[tuple[int, int]]:
    """Control dependences from the post-dominator sets: (p, s) iff s
    post-dominates a successor of p and does not post-dominate p."""
    succ = {k: list(v) for k, v in cfg.successors().items()}
    if cfg.exit not in succ[cfg.entry]:
        succ[cfg.entry].append(cfg.exit)
    pdom = set_postdominators(cfg, virtual_entry_exit=True)
    deps: set[tuple[int, int]] = set()
    for p in cfg.nodes:
        if p == cfg.exit or len(succ[p]) < 2:
            continue
        for u in succ[p]:
            for s in pdom[u]:
                if s != p and s != cfg.exit and s not in pdom[p]:
                    deps.add((p, s))
    return sorted(deps)


def per_node_repair_edges(n: int, edges) -> list[tuple[int, int, str]]:
    """CFG repair edges by one fresh reachability search per statement: an
    edge to EXIT for each statement that cannot reach it, then an edge from
    ENTRY for each statement ENTRY cannot reach, each seeing the earlier ones."""
    entry, exit_ = n, n + 1
    work = list(edges)
    added = []

    def reach(start):
        succ = {v: [] for v in range(n + 2)}
        for src, dst, _ in work:
            succ[src].append(dst)
        seen, stack = {start}, [start]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    for node in range(n):
        if exit_ not in reach(node):
            added.append((node, exit_, "seq"))
            work.append(added[-1])
    for node in range(n):
        if node not in reach(entry):
            added.append((entry, node, "seq"))
            work.append(added[-1])
    return added


def brute_data_deps(cfg, stmts) -> list[tuple[int, int, str]]:
    succ = cfg.successors()
    defs = {s.index: set(s.defs) for s in stmts}
    deps = set()
    for d in stmts:
        for u in stmts:
            if d.index == u.index:
                continue
            for v in set(d.defs) & set(u.uses):
                for path in simple_paths(succ, d.index, u.index):
                    if all(v not in defs.get(w, set()) for w in path[1:-1]):
                        deps.add((d.index, u.index, v))
                        break
    return sorted(deps)


# --- ranking metrics, literal transcriptions ---------------------------------


def literal_avg_precision(rel: list[int], k: int) -> float:
    top = rel[:k]
    total_rel = sum(top)
    if total_rel == 0:
        return 0.0
    acc = 0.0
    hits = 0
    for i, r in enumerate(top, start=1):
        if r:
            hits += 1
            acc += hits / i
    return acc / total_rel


def literal_dcg(rel: list[int], k: int) -> float:
    return sum(r / math.log2(i + 1) for i, r in enumerate(rel[:k], start=1))


def literal_ndcg(rel: list[int], k: int) -> float:
    ideal = sorted(rel[:k], reverse=True)
    idcg = literal_dcg(ideal, k)
    if idcg == 0:
        return 0.0
    return literal_dcg(rel, k) / idcg


def literal_auc(scores_pos: list[float], scores_neg: list[float]) -> float:
    """Mann-Whitney with half credit for ties."""
    wins = 0.0
    for p in scores_pos:
        for n in scores_neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(scores_pos) * len(scores_neg))


# --- gradients ----------------------------------------------------------------


def finite_diff(f, x, eps: float = 1e-6):
    """Central-difference gradient of scalar f at flat numpy array x."""
    import numpy as np

    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(a, b, floor: float = 1e-8) -> float:
    import numpy as np

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# --- per-step references for the fused autodiff ops ------------------------------


def per_step_gru(p: dict, steps: list, masks: list | None = None):
    """The GRU recurrence built step by step from elementwise tensor ops, one
    tape node each: p maps gate names (wz, uz, bz, ...) to tensors, steps are
    [B, in_dim] tensors and masks[t] is a 0/1 vector of length B."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    batch = steps[0].data.shape[0]
    hidden = p["bz"].data.shape[0]
    h = Tensor(np.zeros((batch, hidden)))
    for t, x in enumerate(steps):
        z = (x @ p["wz"] + h @ p["uz"] + p["bz"]).sigmoid()
        r = (x @ p["wr"] + h @ p["ur"] + p["br"]).sigmoid()
        cand = (x @ p["wh"] + (r * h) @ p["uh"] + p["bh"]).tanh()
        nxt = z * cand + (Tensor(np.ones(())) - z) * h
        if masks is None:
            h = nxt
        else:
            keep = np.repeat(np.asarray(masks[t], dtype=np.float64).reshape(batch, 1), hidden, axis=1)
            h = Tensor(keep) * nxt + Tensor(1.0 - keep) * h
    return h


def amax_rows(a):
    """Column-wise max over axis 0 as its own tape node; ties send the
    gradient to the first maximal row."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    idx = np.argmax(a.data, axis=0)
    cols = np.arange(a.data.shape[1])

    def backward(out):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, (idx, cols), out.grad)

    return Tensor._make(a.data[idx, cols].copy(), (a,), backward)


def sliced_pyramid_pool(h, levels=(1, 2, 4)):
    """Per-column max over 1+2+4 contiguous row bins, one slice and one
    amax_rows per bin, joined by concat."""
    from tensor_ops import concat

    n = h.data.shape[0]
    parts = []
    for level in levels:
        for b in range(level):
            start = (b * n) // level
            end = ((b + 1) * n) // level
            if end == start:
                end = start + 1
            parts.append(amax_rows(h[start:end]))
    return concat(parts, axis=0)


# --- per-op references for the detector head and the explainer --------------------
# The package records each of these as one tape node with a hand-written
# backward (fagcn.graph_logits, explain.masked_adjacency and the explainer's
# loss); here they are built from one node per elementwise op, so the fused ops
# can be required to match them bit for bit. A sum over slots adds one slot
# after another (np.add.at), and so does the gradient of a gather.


def scatter(base, rows, cols, values):
    """A copy of the constant `base` with values[k] placed at every index pair
    (rows[..., k], cols[..., k]); a leading axis on `rows` and `cols` places
    each value at several pairs. The pairs must be distinct. The gradient of
    values[k] is the sum of the output gradient over its pairs."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.array(base, dtype=np.float64)
    data[rows, cols] = values.data
    slot = np.broadcast_to(np.arange(values.data.shape[0]), rows.shape)

    def backward(out):
        if values.requires_grad:
            if values.grad is None:
                values.grad = np.zeros_like(values.data)
            np.add.at(values.grad, slot, out.grad[rows, cols])

    return Tensor._make(data, (values,), backward)


def segment_max(x, bounds):
    """Column maxima of the matrix x over each row range [start, end) in
    `bounds`, laid end to end: a vector of len(bounds) * cols values. Ranges
    may overlap; a tie sends the gradient to the first maximal row of its
    range."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    n, width = x.data.shape
    assert all(0 <= start < end <= n for start, end in bounds), bounds
    cols = np.arange(width)
    idx = np.array([start + np.argmax(x.data[start:end], axis=0) for start, end in bounds])

    def backward(out):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            # One range at a time, in forward order, so that rows shared by
            # overlapping ranges sum their gradients in a fixed order.
            grad = out.grad.reshape(idx.shape)
            for k in range(len(idx)):
                x.grad[idx[k], cols] += grad[k]

    return Tensor._make(x.data[idx, cols].reshape(-1), (x,), backward)


def segment_sum(x, starts):
    """Rows of x summed over each run from a start to the next (the last to
    the end), added into zeros by np.add.at; a row's gradient is its run's
    output gradient."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    run = np.repeat(np.arange(len(starts)), np.diff(starts, append=x.data.shape[0]))
    data = np.zeros((len(starts),) + x.data.shape[1:])
    np.add.at(data, run, x.data)

    def backward(out):
        if x.requires_grad:
            x._accumulate(out.grad[run])

    return Tensor._make(data, (x,), backward)


def scale_rows(x, w):
    """Row k of the matrix x times w[k]."""
    from vulgraph.autodiff import Tensor

    def backward(out):
        if x.requires_grad:
            x._accumulate(out.grad * w.data[:, None])
        if w.requires_grad:
            w._accumulate((out.grad * x.data).sum(axis=1))

    return Tensor._make(x.data * w.data[:, None], (x, w), backward)


def propagate(slots, w, x):
    """slots.propagate on the per-op tape: gather the source rows, scale
    them by the slot weights, and sum them into their destination rows."""
    from tensor_ops import rows

    return segment_sum(scale_rows(rows(x, slots.src), w), slots.runs.starts)


def normalize(slots, w):
    """slots.normalize on the per-op tape: w / (deg[dst]^{1/2} deg[src]^{1/2}),
    deg the segment sums of w, as 1 / deg^{1/2}."""
    import numpy as np

    from tensor_ops import rows
    from vulgraph.autodiff import Tensor

    d = Tensor(np.ones(())) / segment_sum(w, slots.runs.starts).pow_scalar(0.5)
    return (rows(d, slots.dst) * rows(d, slots.src)) * w


def masked_adjacency(edges, gate):
    """explain.masked_adjacency on the per-op tape: a gather of each pair's
    first gate, one noisy-OR round per further parallel edge, a gather of
    each slot's pair value (a self loop reads a one), and normalize."""
    import numpy as np

    from tensor_ops import concat, rows
    from vulgraph.autodiff import Tensor

    padded = concat([gate, Tensor(np.zeros(1))])
    g = rows(padded, edges.table[0])
    for extra in edges.table[1:]:
        nxt = rows(padded, extra)
        g = g + nxt - g * nxt
    return normalize(edges.slots, rows(concat([g, Tensor(np.ones(1))]), edges.slots.pair))


def by_method(a, b, spans):
    """a @ b with each span of a's rows multiplied on its own, as
    fagcn.graph_logits multiplies each method's rows; its gradients are
    those of a @ b."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    def backward(out):
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ out.grad)

    return Tensor._make(np.concatenate([a.data[s:e] @ b.data for s, e in spans]), (a, b), backward)


def gcn_forward(slots, weights, feats, store):
    """Two relu graph-convolution layers; rows stay aligned with statements."""
    h1 = propagate(slots, weights, by_method(feats, store["gcn.w1"], slots.spans)).relu()
    return propagate(slots, weights, by_method(h1, store["gcn.w2"], slots.spans)).relu()


def _pool_bounds(first, last):
    """The 1+2+4 contiguous row bins of the rows first to last - 1."""
    n = last - first
    bounds = []
    for level in (1, 2, 4):
        for b in range(level):
            start = (b * n) // level
            bounds.append((first + start, first + max(((b + 1) * n) // level, start + 1)))
    return bounds


def pyramid_pool(h):
    """Fixed-width descriptor: per-column max over 1+2+4 contiguous row bins."""
    return segment_max(h, _pool_bounds(0, h.data.shape[0]))


def _head_logits(pooled, store):
    """The three-layer relu head, each method's row multiplied on its own."""
    heads = [(i, i + 1) for i in range(pooled.data.shape[0])]
    z = (by_method(pooled, store["fc.w1"], heads) + store["fc.b1"]).relu()
    z = (by_method(z, store["fc.w2"], heads) + store["fc.b2"]).relu()
    return by_method(z, store["fc.w3"], heads) + store["fc.b3"]


def graph_logits(slots, weights, feats, store):
    """[methods, 2] logits of the detector over a chunk's slot list: each
    method's pyramid pool over its rows, then the head on every method."""
    h = gcn_forward(slots, weights, feats, store)
    bounds = [bound for span in slots.spans for bound in _pool_bounds(*span)]
    return _head_logits(segment_max(h, bounds).reshape(len(slots.spans), -1), store)


# --- dense references for the graph operations ------------------------------------
# The package keeps a chunk's graph as a slot list (vulgraph.slots) and never
# builds an n x n matrix; these are the dense forms it replaced, which the
# edge-list ops are held to within a stated tolerance.


def dependence_adjacency(pdg):
    """The method's 0/1 (A + I) over its dependence edges, either direction."""
    import numpy as np

    a = np.eye(len(pdg.nodes))
    for e in pdg.edges:
        a[e.src, e.dst] = 1.0
        a[e.dst, e.src] = 1.0
    return a


def sym_normalize(adj):
    """D^{-1/2} A D^{-1/2} of a tensor A, D its row sums, as 1 / D^{1/2}."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    d = Tensor(np.ones(())) / adj.sum(axis=1, keepdims=True).pow_scalar(0.5)
    return (d @ d.transpose()) * adj


def dense_masked_adjacency(pdg, gate):
    """Normalized adjacency with each undirected statement pair weighted by
    the noisy-OR of its edges' gates, folded in edge order and scattered
    onto the identity."""
    import numpy as np

    from tensor_ops import concat, rows
    from vulgraph.autodiff import Tensor

    positions = {}
    for pos, e in enumerate(pdg.edges):
        if e.src != e.dst:
            positions.setdefault((min(e.src, e.dst), max(e.src, e.dst)), []).append(pos)
    width = max((len(p) for p in positions.values()), default=1)
    table = np.full((width, len(positions)), len(pdg.edges), dtype=np.int64)
    for col, p in enumerate(positions.values()):
        table[: len(p), col] = p
    ends = np.array(list(positions), dtype=np.int64).reshape(-1, 2).T
    padded = concat([gate, Tensor(np.zeros(1))])
    g = rows(padded, table[0])
    for extra in table[1:]:
        nxt = rows(padded, extra)
        g = g + nxt - g * nxt
    return sym_normalize(scatter(np.eye(len(pdg.nodes)), ends, ends[::-1], g))


def dense_graph_logits(adj, feats, store):
    """[1, 2] logits of the detector for one method over a dense adjacency."""
    h1 = (adj @ (feats @ store["gcn.w1"])).relu()
    h = (adj @ (h1 @ store["gcn.w2"])).relu()
    pooled = pyramid_pool(h)
    return _head_logits(pooled.reshape(1, pooled.data.shape[0]), store)


def densify(slots, weights):
    """The n x n matrix holding each slot's weight at [dst, src]."""
    import numpy as np

    n = len(slots.runs.starts)
    a = np.zeros((n, n))
    a[slots.dst, slots.src] = weights
    return a


def max_scaled_err(got, want) -> float:
    """The largest difference from the reference, relative to the
    reference's largest magnitude."""
    import numpy as np

    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, (got.shape, want.shape)
    return float(np.abs(got - want).max(initial=0.0) / max(np.abs(want).max(initial=0.0), 1e-300))


def statement_matrix(pdg, model):
    """The statement matrix the package's forward pass scores `pdg` on, as
    a chunk of its own."""
    from vulgraph.fagcn import forward_methods

    ((_, _, feats),) = forward_methods(model, [(pdg.method, pdg)])
    return feats


def masked_forward(pdg, model, logits, feats):
    """Class distribution [1, 2] under the graph masked by sigmoid(logits)."""
    from vulgraph.explain import edge_slots

    edges = edge_slots(pdg)
    return graph_logits(edges.slots, masked_adjacency(edges, logits.sigmoid()), feats, model.store).softmax(axis=1)


def _binary_entropy(sig):
    import numpy as np

    from vulgraph.autodiff import Tensor

    one = Tensor(np.ones(()))
    return (sig * sig.log() + (one - sig) * (one - sig).log()) * Tensor(np.array(-1.0))


def learn_edge_mask(pdg, model, y_pred, config=None, *, feats):
    """The explainer's optimization loop on the per-op tape: the same Adam
    steps, clamp and loss trace as explain.learn_edge_mask, on the same
    statement matrix."""
    import numpy as np

    from vulgraph.autodiff import Adam, ParamStore, Tensor
    from vulgraph.explain import INIT_LOGIT, LOGIT_CLAMP, EdgeMask, ExplainConfig
    from vulgraph.fagcn import frozen

    config = config or ExplainConfig()
    n_edges = len(pdg.edges)
    if n_edges == 0:
        return EdgeMask(logits=np.zeros(0))
    model = frozen(model)
    target = 1 if y_pred == "V" else 0
    store = ParamStore([("mask", np.full(n_edges, INIT_LOGIT))])
    logits = store["mask"]
    opt = Adam(store, lr=config.lr)
    trace = []
    for _ in range(config.iterations):
        store.zero_grad()
        probs = masked_forward(pdg, model, logits, feats)
        sig = logits.sigmoid()
        loss = (
            probs[0, target].log() * Tensor(np.array(-1.0))
            + sig.sum() * Tensor(np.array(config.sparsity_weight))
            + _binary_entropy(sig).sum() * Tensor(np.array(config.entropy_weight))
        )
        loss.backward()
        opt.step()
        np.clip(logits.data, -LOGIT_CLAMP, LOGIT_CLAMP, out=logits.data)
        trace.append(float(loss.data))
    return EdgeMask(logits=logits.data.copy(), loss_trace=trace)


# --- per-op references for the encoder, the training loss and Adam -----------------
# The package records the Tree-LSTM forest, the attention and fusion block,
# and the training cross-entropy as one tape node each, and updates all
# parameters with one elementwise Adam step over a flat buffer; these are
# the one-node-per-op and tensor-by-tensor forms they are held to bit for bit.


def sigmoid_two_branch(x):
    """The logistic function with one exp per branch, both evaluated."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def encode_forest(trees, vocab, embed, params):
    """encoders.encode_forest level by level on the per-op tape: every node
    of one height is one batch, its children's states are gathered and
    summed over each node's run of children, and the levels' states are
    concatenated."""
    import numpy as np

    from tensor_ops import concat, rows
    from vulgraph.autodiff import Tensor
    from vulgraph.features import UNK_ID

    labels, children, roots = [], [], []
    for tree in trees:
        base = len(labels)
        kids = [[] for _ in tree.labels]
        for p, c in zip(tree.parents, tree.children):
            kids[p].append(base + c)
        labels += [vocab.token_to_id.get(label, UNK_ID) for label in tree.labels]
        children += kids
        roots.append(len(labels) - 1)
    height = [0] * len(labels)
    for j, kids in enumerate(children):
        height[j] = 1 + max((height[k] for k in kids), default=-1)
    order = {}
    for j, lvl in enumerate(height):
        order.setdefault(lvl, []).append(j)

    p = dict(zip("wi ui bi wf uf bf wo uo bo wu uu bu".split(), params))
    hid = p["bi"].data.shape[0]
    h_rows = np.zeros((len(labels),), dtype=np.int64)
    h_all = c_all = None
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
            x_kids = rows(embed, np.array([labels[j] for _, j, _ in pairs], dtype=np.int64))
            f = (x_kids @ p["wf"] + h_kids @ p["uf"] + p["bf"]).sigmoid()
            starts = np.searchsorted([pi for pi, _, _ in pairs], np.arange(m))
            h_sum = segment_sum(h_kids, starts)
            fc_sum = segment_sum(f * c_kids, starts)
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


def attention_scores(features, store):
    """Per-feature attention scores [n, len(features)]: a Bi-GRU reads the
    feature sequence into a shared context, and each feature is scored
    additively against it."""
    import numpy as np

    from vulgraph.encoders import GRU_GATES, cell_params, gru_sequence

    steps = np.arange(len(features) * len(features[0].data)).reshape(len(features), -1)
    ones = np.ones(steps.shape)
    fwd = gru_sequence(features, steps, ones, cell_params(store, "attn_fwd", GRU_GATES))
    bwd = gru_sequence(features[::-1], steps, ones, cell_params(store, "attn_bwd", GRU_GATES))
    return _scores_against(features, fwd, bwd, store)


def _scores_against(features, fwd, bwd, store):
    from tensor_ops import concat

    ctx = concat([fwd, bwd], axis=1) @ store["attn.ctx_w"]
    cols = []
    for f in features:
        cols.append((f @ store["attn.q_w"] + ctx + store["attn.bias"]).tanh() @ store["attn.v"])
    return concat(cols, axis=1)


def _fusion_input(features, fwd, bwd, store):
    """The widened, attention-weighted feature rows g, concatenated, with
    column scaling by transposes."""
    from tensor_ops import concat

    attn = _scores_against(features, fwd, bwd, store).softmax(axis=1)
    weighted = []
    for j, f in enumerate(features):
        w_col = attn[:, j : j + 1]
        weighted.append((f.transpose() * w_col.transpose()).transpose())
    return concat([f @ store["fuse.h_w"] + store["fuse.h_b"] for f in weighted], axis=1)


def attend_and_fuse(features, fwd, bwd, slots, store):
    """encoders.attend_and_fuse on the per-op tape: attention weights scale
    each feature, a shared layer widens it, and each statement's softmax
    over its slots fuses the concatenated rows."""
    import numpy as np

    from tensor_ops import rows
    from vulgraph.autodiff import Tensor

    g = _fusion_input(features, fwd, bwd, store)
    scores = g @ store["fuse.score_w"]
    shift = float(scores.data.max())
    e = rows((scores - Tensor(np.array(shift))).exp().reshape(len(slots.runs.starts)), slots.src)
    w_fuse = e / rows(segment_sum(e, slots.runs.starts), slots.dst)
    fused = propagate(slots, w_fuse, g)
    return fused @ store["fuse.out_w"] + store["fuse.out_b"]


def dense_attend_and_fuse(features, fwd, bwd, adj, store):
    """The fusion step as a neighbour softmax over a dense 0/1 (A + I)."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    g = _fusion_input(features, fwd, bwd, store)
    scores = g @ store["fuse.score_w"]
    shift = float(scores.data.max())
    exp_row = (scores - Tensor(np.array(shift))).exp().transpose()
    numer = Tensor(adj) * exp_row
    denom = numer.sum(axis=1, keepdims=True)
    w_fuse = (numer.transpose() / denom.transpose()).transpose()
    fused = w_fuse @ g
    return fused @ store["fuse.out_w"] + store["fuse.out_b"]


def cross_entropy(logits, y):
    """fagcn.cross_entropy on the per-op tape."""
    import numpy as np

    from vulgraph.autodiff import Tensor

    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    shifted = (logits.transpose() - shift.transpose()).transpose()
    lse = shifted.exp().sum(axis=1, keepdims=True).log() + shift
    picked = logits[np.arange(len(y)), y]
    return (lse.reshape(len(y)) - picked).mean()


class PerTensorAdam:
    """Adam with bias correction, one parameter tensor at a time."""

    def __init__(self, store, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        import numpy as np

        self.store, self.lr, self.beta1, self.beta2, self.eps = store, lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in store.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in store.items()}

    def step(self):
        import numpy as np

        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name, p in self.store.items():
            g, m, v = p.grad, self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


# --- exhaustive explanation search -----------------------------------------------

ORACLE_EDGE_LIMIT = 16


class TooManyEdges(Exception):
    """Exhaustive subgraph search requested beyond ORACLE_EDGE_LIMIT edges."""


def hard_subset_score(pdg, model, keep, feats) -> float:
    """V-probability with only the `keep` edge positions present: the
    explainer's masked adjacency under a 0/1 gate, whose logits are -inf
    and +inf."""
    import numpy as np

    from vulgraph.autodiff import Tensor
    from vulgraph.explain import edge_slots, masked_adjacency
    from vulgraph.fagcn import frozen, graph_logits

    logits = np.full(len(pdg.edges), -np.inf)
    logits[list(keep)] = np.inf
    edges = edge_slots(pdg)
    probs = graph_logits(edges.slots, masked_adjacency(edges, Tensor(logits)), feats, frozen(model).store).softmax(axis=1)
    return float(probs.data[0, 1])


def brute_force_minimal_subgraph(pdg, model, k: int) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over k-edge subsets for the hard mask whose score is
    closest to the full graph's."""
    from itertools import combinations

    n_edges = len(pdg.edges)
    if n_edges > ORACLE_EDGE_LIMIT:
        raise TooManyEdges(f"{n_edges} edges exceeds the {ORACLE_EDGE_LIMIT}-edge bound")
    feats = statement_matrix(pdg, model)
    full = hard_subset_score(pdg, model, range(n_edges), feats)
    if n_edges == 0:
        return (), 0.0
    best = None
    for subset in combinations(range(n_edges), min(k, n_edges)):
        diff = abs(full - hard_subset_score(pdg, model, subset, feats))
        if best is None or diff < best[1]:
            best = (subset, diff)
    return best


def large_methods():
    """Size-sweep methods of perfbench/largegen.py, 50 to 420 statements."""
    import importlib.util
    import pathlib

    from vulgraph.frontend import pdg_from_source

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "largegen.py"
    spec = importlib.util.spec_from_file_location("largegen", path)
    largegen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(largegen)
    return [pdg_from_source(largegen.large_method(i, 64 + i, f"big_{i}", size))
            for i, size in enumerate((50, 100, 200, 420))]


def planted_entries(n_methods: int, seed: int):
    """The planted corpus as a reader of gen-corpus's output gets it: the
    generator's lines written by the corpus writer, then read back through
    iter_corpus, which parses each method."""
    import pathlib
    import tempfile

    from vulgraph.corpus import generate_planted_corpus, load_corpus, write_corpus_lines

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "planted.jsonl"
        write_corpus_lines(generate_planted_corpus(n_methods, seed), path)
        return load_corpus(path)


# --- random draws ---------------------------------------------------------------


def gauss(rng, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Normal draw from a package Rng via Box-Muller (rejection-free form)."""
    u1 = 1.0 - rng.random()  # avoid log(0)
    u2 = rng.random()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mu + sigma * z


def uniform(rng, low: float, high: float) -> float:
    """One draw in [low, high) from a package Rng: the scalar form that
    Rng.uniforms is held to bit for bit."""
    return low + (high - low) * rng.random()


# --- random mini-C programs for dependence fuzzing ----------------------------


def random_source(rng, max_stmts: int = 8) -> str:
    """Seeded random mini-C method with <= max_stmts statements."""
    names = ["alpha", "beta", "gamma", "delta", "omega"]
    lines: list[str] = []
    count = 0

    def expr():
        terms = rng.randint(1, 2)
        parts = []
        for _ in range(terms):
            if rng.random() < 0.6:
                parts.append(rng.choice(names))
            else:
                parts.append(str(rng.randint(0, 9)))
        return " + ".join(parts)

    def simple_stmt() -> str:
        roll = rng.random()
        if roll < 0.45:
            return f"{rng.choice(names)} = {expr()};"
        if roll < 0.65:
            return f"{rng.choice(names)} = helper({expr()});"
        if roll < 0.8:
            return f"use_val({rng.choice(names)});"
        return f"int {rng.choice(names)} = {expr()};"

    def emit_block(depth: int, budget: int) -> int:
        used = 0
        while used < budget:
            remaining = budget - used
            roll = rng.random()
            if depth < 2 and remaining >= 3 and roll < 0.25:
                lines.append(f"if ({rng.choice(names)} < {rng.randint(1, 9)}) {{")
                inner = emit_block(depth + 1, rng.randint(1, remaining - 1))
                if remaining - inner - 1 >= 1 and rng.random() < 0.5:
                    lines.append("} else {")
                    inner += emit_block(depth + 1, rng.randint(1, remaining - inner - 1))
                lines.append("}")
                used += inner + 1
            elif depth < 2 and remaining >= 3 and roll < 0.4:
                lines.append(f"while ({rng.choice(names)} < {rng.randint(1, 9)}) {{")
                inner = emit_block(depth + 1, rng.randint(1, remaining - 1))
                lines.append("}")
                used += inner + 1
            elif remaining >= 1 and roll < 0.5 and depth > 0:
                lines.append("return " + rng.choice(names) + ";")
                used += 1
                break
            else:
                lines.append(simple_stmt())
                used += 1
        return used

    count = emit_block(0, rng.randint(1, max(1, max_stmts - 3)))
    if rng.random() < 0.3 and count + 3 <= max_stmts:
        # goto over some tail code
        lines.insert(rng.randint(0, max(0, len(lines) - 1)), "goto tail;")
        lines.append("tail:")
        lines.append(f"{rng.choice(names)} = {expr()};")
    else:
        lines.append(f"return {rng.choice(names)};")
    body = "\n    ".join(lines)
    return f"int probe(int alpha, int beta, int gamma, int delta, int omega) {{\n    {body}\n}}\n"


def canonical_code(graph) -> str:
    """The miner's canonical form of a whole abstract graph; its isolated
    nodes are dropped unless the graph has no edges."""
    from vulgraph.patterns import _canonical_form

    labels = dict(graph.nodes)
    involved = {n for s, d, _ in graph.edges for n in (s, d)}
    return _canonical_form({v: labels[v] for v in involved} or labels, list(graph.edges))[0]


def find_embedding(pattern_nodes, pattern_edges, target_nodes, target_edges):
    """Backtracking search for an injective, label- and edge-preserving map
    from the pattern into the target. Returns a node mapping or None.

    Independent check route for mined patterns: a pattern is supported by a
    graph exactly when such an embedding exists.
    """
    p_labels = dict(pattern_nodes)
    t_labels = dict(target_nodes)
    t_edge_set = set(target_edges)
    p_nodes = sorted(p_labels)
    t_nodes = sorted(t_labels)

    out_edges = {}
    in_edges = {}
    for s, d, k in pattern_edges:
        out_edges.setdefault(s, []).append((d, k))
        in_edges.setdefault(d, []).append((s, k))

    def consistent(mapping, v, tv):
        if t_labels[tv] != p_labels[v]:
            return False
        for d, k in out_edges.get(v, ()):
            if d in mapping and (tv, mapping[d], k) not in t_edge_set:
                return False
        for s, k in in_edges.get(v, ()):
            if s in mapping and (mapping[s], tv, k) not in t_edge_set:
                return False
        return True

    def search(mapping, used):
        if len(mapping) == len(p_nodes):
            return dict(mapping)
        v = p_nodes[len(mapping)]
        for tv in t_nodes:
            if tv in used or not consistent(mapping, v, tv):
                continue
            mapping[v] = tv
            used.add(tv)
            found = search(mapping, used)
            if found is not None:
                return found
            del mapping[v]
            used.discard(tv)
        return None

    return search({}, set())


def graphs_isomorphic(nodes_a, edges_a, nodes_b, edges_b):
    """Exact match test for fragments of equal size (embedding both ways)."""
    if len(nodes_a) != len(nodes_b) or len(set(edges_a)) != len(set(edges_b)):
        return False
    if sorted(l for _, l in nodes_a) != sorted(l for _, l in nodes_b):
        return False
    return (
        find_embedding(nodes_a, edges_a, nodes_b, edges_b) is not None
        and find_embedding(nodes_b, edges_b, nodes_a, edges_a) is not None
    )


def brute_pattern_classes(graphs, size, min_support):
    """Reference miner: enumerate connected edge subsets of the given size in
    every graph, bucket them by pairwise isomorphism, and keep classes whose
    per-graph support reaches the threshold. Returns a list of
    (representative_nodes, representative_edges, support) triples.
    """
    from itertools import combinations

    classes = []  # (rep_nodes, rep_edges, set of graph indices)
    for gi, graph in enumerate(graphs):
        labels = dict(graph.nodes)
        edges = sorted(set(graph.edges))
        seen_local = []
        for subset in combinations(edges, size):
            nodes = {n for s, d, _ in subset for n in (s, d)}
            parent = {v: v for v in nodes}

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for s, d, _ in subset:
                parent[find(s)] = find(d)
            if len({find(v) for v in nodes}) != 1:
                continue
            frag_nodes = [(v, labels[v]) for v in sorted(nodes)]
            frag_edges = list(subset)
            if any(
                graphs_isomorphic(frag_nodes, frag_edges, n, e) for n, e in seen_local
            ):
                continue
            seen_local.append((frag_nodes, frag_edges))
            for rep_nodes, rep_edges, members in classes:
                if graphs_isomorphic(frag_nodes, frag_edges, rep_nodes, rep_edges):
                    members.add(gi)
                    break
            else:
                classes.append((frag_nodes, frag_edges, {gi}))
    return [
        (nodes, edges, len(members))
        for nodes, edges, members in classes
        if len(members) >= min_support
    ]


def subtoken_bag(source):
    """Lower-cased alphanumeric sub-tokens split on non-word boundaries."""
    import re

    return [tok.lower() for tok in re.findall(r"[A-Za-z]+|\d+", source)]


def logistic_baseline_auc(sources, labels, seed=0):
    """AUC of a bag-of-subtokens logistic regression, trained and scored on
    the full corpus by plain gradient descent. A sanity floor for generated
    corpora: if this cannot separate the classes, nothing downstream can.
    """
    import numpy as np

    vocab = sorted({tok for src in sources for tok in subtoken_bag(src)})
    index = {tok: i for i, tok in enumerate(vocab)}
    x = np.zeros((len(sources), len(vocab)))
    for row, src in enumerate(sources):
        for tok in subtoken_bag(src):
            x[row, index[tok]] += 1.0
    x = x / np.maximum(x.sum(axis=1, keepdims=True), 1.0)
    y = np.asarray(labels, dtype=float)

    gen = np.random.default_rng(seed)
    w = gen.normal(0.0, 0.01, size=x.shape[1])
    b = 0.0
    for _ in range(400):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        grad_w = x.T @ (p - y) / len(y) + 1e-3 * w
        grad_b = float(np.mean(p - y))
        w -= 2.0 * grad_w
        b -= 2.0 * grad_b
    scores = x @ w + b

    pos = scores[y == 1]
    neg = scores[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return 0.5
    wins = sum((pos > n).sum() + 0.5 * (pos == n).sum() for n in neg)
    return float(wins) / (len(pos) * len(neg))


# --- the character-loop lexer and the per-level expression parser -------------
# The package lexes with one compiled pattern and parses binary expressions by
# precedence climbing; these are the forms it replaced, one character and one
# precedence level at a time. The lexer builds the package's Token records, so
# the parser can read either stream.

_OPERATORS = [
    "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", ".",
]


def tokenize_chars(source: str):
    """Tokens of `source`, each character stepped over by `advance`. Literal
    digits are any str.isdigit character and `0x` needs no hex digit, where
    the package takes ASCII digits and at least one hex digit."""
    from vulgraph.errors import IllegalCharacter, ParseError, UnterminatedString
    from vulgraph.frontend.lexer import KEYWORDS, Token

    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(count: int):
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def quoted(quote: str, kind: str):
        start = i
        start_line, start_col = line, col
        advance(1)
        while i < n and source[i] != quote:
            if source[i] == "\n":
                raise UnterminatedString(start_line, start_col)
            if source[i] == "\\" and i + 1 < n:
                advance(2)
            else:
                advance(1)
        if i >= n:
            raise UnterminatedString(start_line, start_col)
        advance(1)
        tokens.append(Token(kind, source[start:i], start_line, start_col))

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise ParseError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if c.isalpha() or c == "_":
            start = i
            start_line, start_col = line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            tokens.append(Token("kw" if text in KEYWORDS else "id", text, start_line, start_col))
            continue
        if c.isdigit():
            start = i
            start_line, start_col = line, col
            if source.startswith(("0x", "0X"), i):
                advance(2)
                while i < n and (source[i].isdigit() or source[i] in "abcdefABCDEF"):
                    advance(1)
            else:
                while i < n and source[i].isdigit():
                    advance(1)
            while i < n and source[i] in "uUlL":  # integer suffixes
                advance(1)
            tokens.append(Token("int", source[start:i], start_line, start_col))
            continue
        if c == '"':
            quoted('"', "str")
            continue
        if c == "'":
            quoted("'", "char")
            continue
        if c in "(){}[];,:":
            tokens.append(Token("punct", c, line, col))
            advance(1)
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                advance(len(op))
                break
        else:
            raise IllegalCharacter(c, line, col)
    return tokens


_BINARY_LEVELS = [
    ["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="], ["<", "<=", ">", ">="],
    ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
]


def parse_source_per_level(source: str, tokenize=tokenize_chars):
    """parse_source with binary expressions parsed one precedence level per
    recursion, from the character-loop tokens by default."""
    from vulgraph.frontend import parser as package

    class PerLevelParser(package._Parser):
        def parse_expr(self, level: int = 0) -> list:
            if level >= len(_BINARY_LEVELS):
                return self.parse_unary()
            node = self.parse_expr(level + 1)
            ops = _BINARY_LEVELS[level]
            while self.at("op") and self.peek().text in ops:
                op = self.next().text
                rhs = self.parse_expr(level + 1)
                node = [f"bin:{op}", [node, rhs]]
            return node

    parser = PerLevelParser(tokenize(source))
    methods = []
    while not parser.at("end"):
        methods.append(package._parse_one(parser))
    return methods


# --- per-row token vectors ------------------------------------------------------


def vectorize(tokens, vocab, max_len: int):
    """Fixed-length id row plus 0/1 mask; the token prefix is kept when the
    sequence is longer than max_len."""
    import numpy as np

    from vulgraph.errors import VocabularyError
    from vulgraph.features import PAD_ID, UNK_ID

    if max_len < 1:
        raise VocabularyError("max_len must be >= 1")
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.float64)
    for i, token in enumerate(tokens[:max_len]):
        ids[i] = vocab.token_to_id.get(token, UNK_ID)
        mask[i] = 1.0
    return ids, mask


def token_matrix_per_row(seqs, vocab):
    """The token-id matrix and mask of encoders._token_matrix, one vectorize
    call per sequence."""
    import numpy as np

    max_len = max(max((len(s) for s in seqs), default=0), 1)
    ids = np.zeros((len(seqs), max_len), dtype=np.int64)
    mask = np.zeros((len(seqs), max_len), dtype=np.float64)
    for b, seq in enumerate(seqs):
        ids[b], mask[b] = vectorize(seq, vocab, max_len)
    return ids, mask


def context_gru_per_statement(gru, f1, contexts):
    """encoders._run_context_gru with its index and mask matrices filled one
    statement at a time."""
    import numpy as np

    from vulgraph.autodiff import Tensor
    from vulgraph.encoders import gru_sequence

    n = len(contexts)
    max_len = max((len(c) for c in contexts), default=0)
    if max_len == 0:
        return Tensor(np.zeros((n, gru[2].data.shape[0])))
    idx = np.zeros((max_len, n), dtype=np.int64)
    mask = np.zeros((max_len, n), dtype=np.float64)
    for b, ctx in enumerate(contexts):
        idx[: len(ctx), b] = ctx
        mask[: len(ctx), b] = 1.0
    return gru_sequence([f1], idx, mask, gru)


# --- statement features from Pdg.neighbors -----------------------------------------


def split_identifier(name: str) -> list[str]:
    """features.split_identifier without its cache."""
    import re

    pieces = []
    for chunk in re.split(r"[^0-9A-Za-z]+", name):
        if chunk:
            pieces.extend(re.findall(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+", chunk))
    return [p.lower() for p in pieces if len(p) > 1]


def method_features(pdg):
    """features.extract_method_features with each statement's dependence
    context read from Pdg.neighbors, which scans every edge per call."""
    from vulgraph.features import (
        CONTEXT_CAP,
        StatementFeatureBundle,
        _type_words,
        statement_identifiers,
    )
    from vulgraph.frontend.pdg import recover_decl_types

    def capped(neighbors, center):
        return sorted(sorted(neighbors, key=lambda j: (abs(j - center), j))[:CONTEXT_CAP])

    decl_types = pdg.decl_types or recover_decl_types(pdg.nodes)
    bundles = []
    for node in pdg.nodes:
        variables = sorted(set(node.defs) | set(node.uses))
        subtokens = []
        for ident in statement_identifiers(node.kind, node.ast):
            subtokens.extend(split_identifier(ident))
        bundles.append(
            StatementFeatureBundle(
                index=node.index,
                subtokens=subtokens,
                ast=node.ast,
                var_names=[split_identifier(v) for v in variables],
                var_types=[_type_words(decl_types.get(v, "UNK")) for v in variables],
                data_ctx=capped(pdg.neighbors(node.index, "data"), node.index),
                ctrl_ctx=capped(pdg.neighbors(node.index, "control"), node.index),
            )
        )
    return bundles
