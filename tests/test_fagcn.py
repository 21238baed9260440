import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from vulgraph.autodiff import Adam, ParamStore, Tensor, init_params
from vulgraph.encoders import EncoderConfig
from vulgraph.errors import EmptySplit, ShapeMismatch, SingleClassTuningSet
from vulgraph import encoders, fagcn, features
from vulgraph.fagcn import (
    CHUNK_STMTS,
    TrainConfig,
    _batch_loss,
    _chunk_logits,
    _chunks,
    balanced_training_pairs,
    best_threshold,
    cross_entropy,
    detection_report,
    detector_weights,
    forward_methods,
    graph_logits,
    load_model,
    model_layout,
    new_model,
    rank_methods,
    save_model,
    score_methods,
    train,
)
from vulgraph.explain import ExplainConfig, edge_slots, learn_edge_mask, masked_adjacency
from vulgraph.features import build_vocabulary, extract_method_features
from vulgraph.frontend import Pdg, PdgEdge, StmtNode, pdg_from_source
from vulgraph.rng import Rng
from vulgraph import slots as slots_module
from vulgraph.slots import propagate, slot_list, slot_products

import oracles
from oracles import densify, finite_diff, gauss, gcn_forward, pyramid_pool, rel_err, sliced_pyramid_pool


def _chain_pdg(n, edges=None):
    nodes = [
        StmtNode(index=i, kind="assign", text=f"v{i} = {i};", defs=(f"v{i}",), uses=(), ast=["assign:=", [[f"id:v{i}", []], [f"int:{i}", []]]], line=i + 1)
        for i in range(n)
    ]
    es = tuple(PdgEdge(src=a, dst=b, kind="data", var=f"v{a}") for a, b in (edges or []))
    return Pdg(method="probe", nodes=tuple(nodes), edges=es)


def _normalized_adjacency(pdg):
    """The detector's normalized slot weights of one method, as a matrix."""
    slots = slot_list([pdg])
    return densify(slots, detector_weights(slots).data)


def test_normalized_adjacency_examples():
    single = _normalized_adjacency(_chain_pdg(1))
    assert np.array_equal(single, [[1.0]])
    pair = _normalized_adjacency(_chain_pdg(2, [(0, 1)]))
    assert rel_err(pair, [[0.5, 0.5], [0.5, 0.5]]) < 1e-12
    path = _normalized_adjacency(_chain_pdg(3, [(0, 1), (1, 2)]))
    s6 = 1 / math.sqrt(6)
    expect = [[0.5, s6, 0.0], [s6, 1 / 3, s6], [0.0, s6, 0.5]]
    assert rel_err(path, expect) < 1e-12
    assert rel_err(path, path.T) < 1e-15
    assert np.all(path >= 0)


def test_slot_list_of_a_chunk():
    # two methods laid end to end: parallel and reversed edges share one
    # pair of slots, a self edge adds none, an edgeless statement keeps its
    # self loop, and the slots into each row are one segment
    first = _chain_pdg(4, [(0, 1), (1, 0), (0, 1), (1, 3), (2, 2)])
    second = _chain_pdg(2, [(1, 0)])
    slots = slot_list([first, second])
    got = list(zip(slots.dst.tolist(), slots.src.tolist()))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 3), (2, 2), (3, 1), (3, 3), (4, 4), (4, 5), (5, 4), (5, 5)]
    assert slots.runs.starts.tolist() == [0, 2, 5, 6, 8, 10]
    assert slots.spans == [(0, 4), (4, 6)]
    assert slots.pair.tolist() == [3, 0, 0, 3, 1, 3, 1, 3, 3, 2, 2, 3]
    assert [got[k] for k in slots.rev] == [(s, d) for d, s in got]


def test_slot_sums_add_into_zero_as_add_at_does(monkeypatch):
    # propagate and slot_products take a small sum whole and a large one
    # offset by offset; both add each row's terms one after another into
    # zero, as np.add.at does, so they match it bit for bit, and a lone -0.0
    # term (the last method's one statement has only its self loop) sums to
    # 0.0
    gen = np.random.default_rng(3)
    slots = slot_list(_random_chunk(gen, (30, 7, 1)))
    w = gen.uniform(0.0, 1.0, len(slots.src))
    x, g = gen.normal(0.0, 1.0, (2, 38, 5))
    w[-1], x[-1] = -0.0, 0.0

    def add_at(rows, terms):
        out = np.zeros((38,) + terms.shape[1:])
        np.add.at(out, rows, terms)
        return out

    want = [
        add_at(slots.dst, x[slots.src] * w[:, None]),
        (g[slots.dst] * x[slots.src]).sum(axis=1),
        add_at(slots.dst, w),
    ]
    assert len(slots.src) * x.shape[1] <= slots_module.WHOLE  # whole at first
    for whole in (slots_module.WHOLE, 0):
        monkeypatch.setattr(slots_module, "WHOLE", whole)
        got = [propagate(slots, w, x), slot_products(slots, g, x), slots.runs.sum(w)]
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert not np.signbit(got[0][-1]).any() and not np.signbit(got[2][-1])


def _hard_adjacency(pdg, keep):
    """The explainer's masked adjacency under a 0/1 gate over `keep` (logits
    of +inf and -inf), as a matrix."""
    logits = np.full(len(pdg.edges), -np.inf)
    logits[list(keep)] = np.inf
    edges = edge_slots(pdg)
    return densify(edges.slots, masked_adjacency(edges, Tensor(logits)).data)


def test_normalized_adjacency_keeps_listed_edges_only():
    # A hard edge subset is scored through the 0/1-gate masked adjacency,
    # which must be bitwise the detector's adjacency of the kept edges alone.
    pdg = _chain_pdg(3, [(0, 1), (1, 2)])
    assert np.array_equal(_hard_adjacency(pdg, [0, 1]), _normalized_adjacency(pdg))
    assert np.array_equal(_hard_adjacency(pdg, []), np.eye(3))
    assert np.array_equal(_hard_adjacency(pdg, [0]), _normalized_adjacency(_chain_pdg(3, [(0, 1)])))
    rng = Rng(13)
    for entry in oracles.planted_entries(20, seed=4):
        full = entry.pdg
        for _ in range(6):
            keep = [pos for pos in range(len(full.edges)) if rng.random() < 0.5]
            kept = Pdg(method=full.method, nodes=full.nodes, edges=[full.edges[pos] for pos in keep])
            assert np.array_equal(_hard_adjacency(full, keep), _normalized_adjacency(kept))


def test_normalized_slot_weights_are_the_dense_normalization():
    # the edge-list normalization against D^{-1/2} (A + I) D^{-1/2} of the
    # dense matrix, on planted and large methods, within 1e-12 of the
    # largest entry
    pdgs = [e.pdg for e in oracles.planted_entries(20, seed=6) if e.pdg is not None] + oracles.large_methods()
    for pdg in pdgs:
        want = oracles.sym_normalize(Tensor(oracles.dependence_adjacency(pdg))).data
        assert oracles.max_scaled_err(_normalized_adjacency(pdg), want) <= 1e-12, pdg.method


def test_gcn_forward_reductions():
    rng = Rng(2)
    store = ParamStore([
        ("gcn.w1", np.array([[gauss(rng) for _ in range(3)] for _ in range(4)])),
        ("gcn.w2", np.array([[gauss(rng) for _ in range(3)] for _ in range(3)])),
    ])
    feats = np.array([[gauss(rng) for _ in range(4)] for _ in range(2)])
    # no edges: adjacency is I, so the conv is a per-row MLP
    eye = slot_list([_chain_pdg(2)])
    out = gcn_forward(eye, detector_weights(eye), Tensor(feats), store)
    manual = np.maximum(np.maximum(feats @ store["gcn.w1"].data, 0) @ store["gcn.w2"].data, 0)
    assert rel_err(out.data, manual) < 1e-12
    # identical rows on a symmetric 2-node graph stay identical
    pair = slot_list([_chain_pdg(2, [(0, 1)])])
    out2 = gcn_forward(pair, detector_weights(pair), Tensor(np.tile(feats[0], (2, 1))), store)
    assert np.array_equal(out2.data[0], out2.data[1])
    store["gcn.w2"].data[:] = 0.0
    assert not np.any(gcn_forward(eye, detector_weights(eye), Tensor(feats), store).data)


def test_a_fresh_model_registers_the_model_layout():
    # 93 parameters in layout order: each matrix Glorot-drawn, each vector zero
    vocab = build_vocabulary([extract_method_features(pdg_from_source("int f(int a) { return a; }"))])
    cfg = EncoderConfig()
    layout = model_layout(len(vocab), cfg)
    store = new_model(vocab, cfg, seed=4).store
    assert [(name, t.data.shape) for name, t in store.items()] == layout
    assert len(layout) == len(dict(layout)) == 93
    for name, t in store.items():
        if t.data.ndim == 1:
            assert not np.any(t.data), name
        else:
            assert 0 < np.abs(t.data).max() <= math.sqrt(6.0 / sum(t.data.shape)), name
    assert [name for name, _ in layout if name.startswith(("gcn.", "fc."))] == list(fagcn.HEAD_PARAMS)
    assert [name for name, _ in layout if name.startswith(("attn.", "fuse."))] == list(encoders.FUSE_PARAMS)


def test_graph_logits_rejects_mismatched_adjacency():
    rng = Rng(2)
    store = init_params(rng, model_layout(5, EncoderConfig(stmt_dim=4), d2=3))
    slots = slot_list([_chain_pdg(3, [(0, 1)])])
    with pytest.raises(ShapeMismatch):
        graph_logits(slots, detector_weights(slots), Tensor(np.ones((2, 4))), store)
    with pytest.raises(ShapeMismatch):
        graph_logits(slots, Tensor(np.ones(3)), Tensor(np.ones((3, 4))), store)


def test_pyramid_pool_bins():
    rng = Rng(3)
    row = np.array([[gauss(rng) for _ in range(5)]])
    pooled = pyramid_pool(Tensor(row))
    assert pooled.data.shape == (7 * 5,)
    assert rel_err(pooled.data, np.tile(row[0], 7)) < 1e-15  # n=1: every bin is the row

    h4 = np.array([[gauss(rng) for _ in range(3)] for _ in range(4)])
    p4 = pyramid_pool(Tensor(h4)).data
    level4 = p4[3 * 3 :].reshape(4, 3)
    assert np.array_equal(level4, h4)  # level-4 bins at n=4 are single rows

    h8 = np.array([[gauss(rng) for _ in range(3)] for _ in range(8)])
    swapped = h8.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # rows 0,1 share every bin at n=8
    assert np.array_equal(pyramid_pool(Tensor(h8)).data, pyramid_pool(Tensor(swapped)).data)

    for n in (1, 2, 3, 5, 17, 200):
        h = np.zeros((n, 4))
        assert pyramid_pool(Tensor(h)).data.shape == (7 * 4,)


def test_pyramid_pool_is_bitwise_the_sliced_reference():
    gen = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8, 17):
        h = gen.normal(0.0, 1.0, (n, 6))
        h[:, 1] = 0.25  # a tied column
        h[n // 2 :, 2] = h[: n - n // 2, 2].max()  # ties at the column max
        weight = Tensor(gen.normal(0.0, 1.0, 7 * 6))
        results = []
        for pool in (pyramid_pool, sliced_pyramid_pool):
            x = Tensor(h.copy(), requires_grad=True)
            out = pool(x)
            (out * weight).sum().backward()
            results.append((out.data, x.grad))
        (value, grad), (ref_value, ref_grad) = results
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)


def _random_chunk(gen, sizes):
    """Methods of the given statement counts with random edges, parallel,
    reversed and self edges included, so some statements have none."""
    pdgs = []
    for n in sizes:
        ends = gen.integers(0, n, size=(int(gen.integers(0, 2 * n + 1)), 2))
        pdgs.append(_chain_pdg(n, [tuple(pair) for pair in ends.tolist()]))
    return pdgs


def test_graph_logits_is_bitwise_the_per_op_detector():
    # forward values and every gradient, into the slot weights, the features
    # and the eight parameters, equal the one-node-per-op tape's bit for bit,
    # over chunks of one to four methods
    gen = np.random.default_rng(11)
    for trial, sizes in enumerate(((1,), (2,), (3, 1), (5, 8), (17, 2, 9), (60,), (4, 1, 30, 6))):
        slots = slot_list(_random_chunk(gen, sizes))
        store = init_params(Rng(trial), model_layout(7, EncoderConfig(stmt_dim=6), d2=5))
        weights = gen.uniform(0.0, 1.0, len(slots.src))
        feats = gen.normal(0.0, 1.0, (sum(sizes), 6))
        weight = gen.normal(0.0, 1.0, (len(sizes), 2))
        results = []
        for logits_of in (graph_logits, oracles.graph_logits):
            store.zero_grad()
            a, x = Tensor(weights, requires_grad=True), Tensor(feats, requires_grad=True)
            out = logits_of(slots, a, x, store)
            (out * Tensor(weight)).sum().backward()
            results.append([out.data, a.grad, x.grad] + [t.grad.copy() for _, t in store.items()])
        for got, want in zip(*results):
            assert np.array_equal(got, want), sizes


def test_chunk_logits_are_the_dense_detector_per_method():
    # one call over a chunk against the dense detector, one method at a
    # time: logits and every gradient within 1e-12 of the reference's
    # largest magnitude (the slot weights' gradient read at their cells)
    gen = np.random.default_rng(12)
    for trial, sizes in enumerate(((1,), (3, 1), (5, 8, 2), (40, 7))):
        pdgs = _random_chunk(gen, sizes)
        slots = slot_list(pdgs)
        store = init_params(Rng(trial), model_layout(7, EncoderConfig(stmt_dim=6), d2=5))
        feats = gen.normal(0.0, 1.0, (sum(sizes), 6))
        weight = gen.normal(0.0, 1.0, (len(sizes), 2))
        store.zero_grad()
        w, x = Tensor(detector_weights(slots).data, requires_grad=True), Tensor(feats, requires_grad=True)
        out = graph_logits(slots, w, x, store)
        (out * Tensor(weight)).sum().backward()
        got = [out.data, densify(slots, w.grad), x.grad] + [store[name].grad.copy() for name in fagcn.HEAD_PARAMS]
        store.zero_grad()
        want = [[], np.zeros((sum(sizes),) * 2), []]
        for k, (pdg, (s, e)) in enumerate(zip(pdgs, slots.spans)):
            adj = oracles.sym_normalize(Tensor(oracles.dependence_adjacency(pdg)))
            a, xs = Tensor(adj.data, requires_grad=True), Tensor(feats[s:e], requires_grad=True)
            logits = oracles.dense_graph_logits(a, xs, store)
            (logits * Tensor(weight[k : k + 1])).sum().backward()
            want[0].append(logits.data)
            want[1][s:e, s:e] = a.grad * (adj.data != 0)
            want[2].append(xs.grad)
        want = [np.concatenate(want[0]), want[1], np.concatenate(want[2])]
        want += [store[name].grad.copy() for name in fagcn.HEAD_PARAMS]
        for part, (g, w_) in enumerate(zip(got, want)):
            assert oracles.max_scaled_err(g, w_) <= 1e-12, (sizes, part)


def test_training_batch_gradients_are_bitwise_the_per_op_tape(monkeypatch):
    # the fused Tree-LSTM, attention/fusion block, detector and loss against
    # their one-node-per-op forms: the loss and every parameter gradient
    entries = oracles.planted_entries(40, seed=2)
    items = [(e.id, e.pdg) for e in entries if e.pdg is not None][:8]
    labels = {e.id: e.label for e in entries}
    model = new_model(_toy_vocab(items), seed=3)
    grads = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(fagcn, "graph_logits", oracles.graph_logits)
            monkeypatch.setattr(fagcn, "cross_entropy", oracles.cross_entropy)
            monkeypatch.setattr(encoders, "attend_and_fuse", oracles.attend_and_fuse)
            monkeypatch.setattr(encoders, "encode_forest", oracles.encode_forest)
        model.store.zero_grad()
        loss = _batch_loss(model, items, labels)
        loss.backward()
        grads.append((float(loss.data), {name: t.grad.copy() for name, t in model.store.items()}))
    (loss, fused), (ref_loss, ref) = grads
    assert loss == ref_loss
    assert [name for name in ref if not np.array_equal(fused[name], ref[name])] == []


def test_cross_entropy_is_bitwise_the_per_op_tape():
    gen = np.random.default_rng(5)
    for rows in (1, 2, 7, 16):
        z = gen.normal(0.0, 3.0, (rows, 2))
        y = gen.integers(0, 2, rows)
        results = []
        for loss_of in (cross_entropy, oracles.cross_entropy):
            logits = Tensor(z, requires_grad=True)
            loss = loss_of(logits, y)
            loss.backward()
            results.append((loss.data, logits.grad))
        (value, grad), (ref_value, ref_grad) = results
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)


def test_head_gradients_match_finite_differences():
    # 3-statement method, end-to-end from feature matrix through the class head
    rng = Rng(7)
    cfg = EncoderConfig(embed_dim=4, gru_hidden=4, stmt_dim=5)
    store = init_params(rng, model_layout(11, cfg, d2=6))
    pdg = _chain_pdg(3, [(0, 1), (1, 2)])
    feats = np.array([[gauss(rng) for _ in range(5)] for _ in range(3)])
    slots = slot_list([pdg])
    adj = detector_weights(slots)

    def loss_value():
        logits = graph_logits(slots, adj, Tensor(feats), store)
        probs = logits.softmax(axis=1)
        return (probs[0, 1] * probs[0, 1])

    loss = loss_value()
    loss.backward()
    for name in ("gcn.w1", "gcn.w2", "fc.w1", "fc.b1", "fc.w2", "fc.b2", "fc.w3", "fc.b3"):
        t = store[name]
        grad = t.grad.copy()

        def f(x, t=t):
            saved = t.data.copy()
            t.data[...] = x
            v = float(loss_value().data)
            t.data[...] = saved
            return v

        num = finite_diff(f, t.data.copy(), eps=1e-5)
        assert rel_err(grad, num) < 1e-4, name


def test_rank_methods_rules():
    ranked = rank_methods([("b", 0.5), ("a", 0.5), ("c", 0.9)], threshold=0.6)
    assert [r.method for r in ranked] == ["c", "a", "b"]
    assert [r.rank for r in ranked] == [1, 2, 3]
    assert [r.decision for r in ranked] == ["V", "NV", "NV"]
    assert rank_methods([]) == []
    rep = detection_report(ranked)
    assert rep[0] == {"method": "c", "score": 0.9, "decision": "V", "rank": 1}


def test_best_threshold_examples_and_oracle():
    assert best_threshold([("n", 0.1), ("p", 0.9)], {"n": "NV", "p": "V"}) == 0.5
    same = [("a", 0.4), ("b", 0.4), ("c", 0.4)]
    assert best_threshold(same, {"a": "V", "b": "NV", "c": "V"}) == 0.4
    with pytest.raises(SingleClassTuningSet):
        best_threshold(same, {"a": "V", "b": "V", "c": "V"})

    scored = [("a", 0.15), ("b", 0.3), ("c", 0.45), ("d", 0.55), ("e", 0.7), ("f", 0.95)]
    labels = {"a": "NV", "b": "V", "c": "NV", "d": "V", "e": "V", "f": "V"}
    tau = best_threshold(scored, labels)

    def f1_at(t):
        tp = sum(1 for m, s in scored if s >= t and labels[m] == "V")
        fp = sum(1 for m, s in scored if s >= t and labels[m] == "NV")
        fn = sum(1 for m, s in scored if s < t and labels[m] == "V")
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    # exhaustive sweep over a fine grid can do no better
    grid_best = max(f1_at(t / 1000) for t in range(0, 1001))
    assert abs(f1_at(tau) - grid_best) < 1e-12


SAFE_TMPL = """
int reader_{i}(int src) {{
    int amount = read_size(src);
    if (!check_bounds(amount, MAX_LEN))
        return -1;
    int out = copy_data(src, amount);
    return out;
}}
"""

RISKY_TMPL = """
int writer_{i}(int src) {{
    int amount = read_size(src);
    int out = copy_data(src, amount);
    return out;
}}
"""


def _toy_corpus():
    items, labels = [], {}
    for i in range(4):
        mid = f"risky_{i}"
        items.append((mid, pdg_from_source(RISKY_TMPL.format(i=i))))
        labels[mid] = "V"
        mid = f"safe_{i}"
        items.append((mid, pdg_from_source(SAFE_TMPL.format(i=i))))
        labels[mid] = "NV"
    return items, labels


def _toy_vocab(items):
    return build_vocabulary([extract_method_features(p) for _, p in items])


def _decision(model, pdg) -> str:
    """The thresholded decision detect reports for one method."""
    (ranked,) = rank_methods(score_methods(model, [("m", pdg)]), model.threshold)
    return ranked.decision


def test_balanced_pairs_drop_remainder():
    items, labels = _toy_corpus()
    extra = [items[1], items[3], items[5]]  # add three more NV entries
    labels2 = dict(labels)
    for j, (mid, pdg) in enumerate(extra):
        labels2[f"pad_{j}"] = "NV"
    unbalanced = items + [(f"pad_{j}", p) for j, (_, p) in enumerate(extra)]
    balanced = balanced_training_pairs(unbalanced, labels2)
    got = [labels2[mid] for mid, _ in balanced]
    assert got.count("V") == got.count("NV") == 4


def test_train_one_epoch_improves_loss_most_seeds():
    items, labels = _toy_corpus()
    vocab = _toy_vocab(items)
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    improved = 0
    for seed in range(10):
        model = new_model(vocab, cfg, seed=seed)
        before = float(_batch_loss(model, items, labels).data)
        trained, log = train(
            items, items, labels, cfg,
            TrainConfig(epochs=1, batch_size=4, seed=seed),
        )
        after = float(_batch_loss(trained, items, labels).data)
        if after <= before:
            improved += 1
    assert improved >= 9


def _tape_ops(root: Tensor) -> int:
    """Recorded ops reachable from root through the tape, root included;
    parameters and other leaves are not counted."""
    seen, stack = {id(root)}, [root]
    ops = 0
    while stack:
        node = stack.pop()
        ops += node._backward_fn is not None
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops


def test_batch_loss_tape_is_small():
    entries = oracles.planted_entries(40, seed=1)
    items = [(e.id, e.pdg) for e in entries if e.pdg is not None][:8]
    labels = {e.id: e.label for e in entries}
    vocab = _toy_vocab(items)
    loss = _batch_loss(new_model(vocab, seed=0), items, labels)
    # one GRU step used to record about 24 nodes, and this batch 1,102 ops;
    # with a node per Tree-LSTM level op and per attention/fusion op, 219;
    # with a row gather before each of five GRUs and a stack before each
    # attention GRU, 18. Now: five GRUs, the forest, two attention GRUs,
    # fusion, the detector and the loss.
    assert _tape_ops(loss) <= 11


def test_train_extracts_features_once_per_method(monkeypatch):
    import vulgraph.encoders
    import vulgraph.fagcn

    items, labels = _toy_corpus()
    vocab = _toy_vocab(items)
    seen = []
    for module in (vulgraph.fagcn, vulgraph.encoders):
        extract = module.extract_method_features

        def counting(pdg, extract=extract):
            seen.append(id(pdg))
            return extract(pdg)

        monkeypatch.setattr(module, "extract_method_features", counting)
    cfg = EncoderConfig(embed_dim=4, gru_hidden=4, stmt_dim=5)
    model, _ = train(items, items[:6], labels, cfg, TrainConfig(epochs=3, batch_size=4, patience=5))
    assert sorted(seen) == sorted(id(p) for _, p in items)
    # the vocabulary comes from those same bundles
    assert model.vocab.token_to_id == vocab.token_to_id


def test_train_is_deterministic_and_logs():
    items, labels = _toy_corpus()
    vocab = _toy_vocab(items)
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    tc = TrainConfig(epochs=3, batch_size=4, seed=5)
    m1, log1 = train(items, items, labels, cfg, tc)
    m2, log2 = train(items, items, labels, cfg, tc)
    assert log1 == log2  # identical floats, bit for bit
    assert [e["epoch"] for e in log1] == [1, 2, 3]
    assert m1.threshold == m2.threshold
    # fit on the restored epoch's tuning scores
    assert m1.threshold == best_threshold(score_methods(m1, items), labels)
    for name, t in m1.store.items():
        assert np.array_equal(t.data, m2.store[name].data)
    with pytest.raises(EmptySplit):
        train([], items, labels, cfg, tc)


def test_classify_boundary_and_roundtrip(tmp_path):
    items, labels = _toy_corpus()
    vocab = _toy_vocab(items)
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    model, _ = train(items, items, labels, cfg, TrainConfig(epochs=2, batch_size=4, seed=1))
    (_, score), = score_methods(model, [("m", items[0][1])])
    assert 0.0 < score < 1.0
    model.threshold = score
    assert _decision(model, items[0][1]) == "V"  # boundary is inclusive
    model.threshold = math.nextafter(score, 1.0)
    assert _decision(model, items[0][1]) == "NV"

    path = tmp_path / "model.ckpt"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.threshold == model.threshold
    assert loaded.encoder_config == model.encoder_config
    before = score_methods(model, items)
    after = score_methods(loaded, items)
    assert before == after


def test_scores_are_the_softmax_of_the_training_logits(monkeypatch):
    items, labels = _toy_corpus()
    vocab = _toy_vocab(items)
    model = new_model(vocab, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12), seed=4)
    logits, _ = _chunk_logits(model, items)
    probs = logits.softmax(axis=1).data
    assert score_methods(model, items) == [(mid, float(p)) for (mid, _), p in zip(items, probs[:, 1])]
    # the training loss is the cross-entropy of those same logits
    y = [1 if labels[mid] == "V" else 0 for mid, _ in items]
    nll = np.mean([-math.log(probs[i, c]) for i, c in enumerate(y)])
    assert abs(float(_batch_loss(model, items, labels).data) - nll) < 1e-12
    # a chunk is one encoder batch, so other chunk sizes agree up to rounding
    for chunk in (1, 3):
        monkeypatch.setattr(fagcn, "CHUNK_METHODS", chunk)
        scored = score_methods(model, items)
        assert [mid for mid, _ in scored] == [mid for mid, _ in items]
        assert max(abs(p - q) for (_, p), q in zip(scored, probs[:, 1])) < 1e-12


MIXER_SRC = """
int mixer(int src) {
    int amount = read_size(src);
    int total = amount + src;
    return total;
}
"""


def _no_reuse(monkeypatch):
    """Encode every chunk without the pass's memo: all rows of each
    recurrence run."""
    chunk_logits = fagcn._chunk_logits
    monkeypatch.setattr(fagcn, "_chunk_logits", lambda model, part, bundles, memo: chunk_logits(model, part, bundles))


def _passes(model, items):
    """Each method's score and statement-matrix bytes from one forward pass."""
    return [(mid, p, f.data.tobytes()) for (mid, _), p, f in forward_methods(model, items)]


def _repeating_corpus():
    """Four chunks whose token sequences repeat across chunks: the guarded
    and unguarded twins; then only straight-line methods, so no control
    context; then one method with one new call, so one new subtoken
    sequence; then a method of one statement, alone."""
    safe, risky = pdg_from_source(SAFE_TMPL.format(i=0)), pdg_from_source(RISKY_TMPL.format(i=0))
    mixer = pdg_from_source(MIXER_SRC)
    moved = pdg_from_source(RISKY_TMPL.format(i=0).replace("copy_data", "move_data"))
    one = pdg_from_source("int one(int src) { return read_size(src); }")
    chunks = [[safe, risky] * 8, [risky, mixer] * 8, [safe] * 15 + [moved], [one]]
    items = [(f"m{c}_{i}", p) for c, part in enumerate(chunks) for i, p in enumerate(part)]
    assert [len(part) for part in _chunks(items, fagcn.CHUNK_METHODS)] == [16, 16, 16, 1]
    ctrl = [[bool(b.ctrl_ctx) for p in part for b in extract_method_features(p)] for part in chunks]
    assert any(ctrl[0]) and not any(ctrl[1])
    return items


def test_memoised_scoring_is_bitwise_scoring_with_no_reuse(monkeypatch):
    items = _repeating_corpus()
    model = new_model(_toy_vocab(items), EncoderConfig(), seed=3)
    runs = []  # the key lists each token GRU ran, in the memoised pass
    context_rows = []  # the rows each context GRU ran, in the memoised pass
    run_token_gru, run_context_gru = encoders._run_token_gru, encoders._run_context_gru

    def recording(gru, embed, keys):
        runs.append(list(keys))
        return run_token_gru(gru, embed, keys)

    def recording_context(gru, f1, contexts):
        context_rows.append(len(contexts))
        return run_context_gru(gru, f1, contexts)

    monkeypatch.setattr(encoders, "_run_token_gru", recording)
    monkeypatch.setattr(encoders, "_run_context_gru", recording_context)
    memoised = _passes(model, items)
    stmts = sum(len(p.nodes) for _, p in items)
    # a lone new key (the third chunk's new call) ran as two identical rows
    assert any(len(keys) == 2 and keys[0] == keys[1] for keys in runs)
    assert sum(len(set(keys)) for keys in runs) < stmts
    # the two context GRUs together ran fewer rows than the corpus has statements
    assert context_rows and sum(context_rows) < stmts
    _no_reuse(monkeypatch)
    assert memoised == _passes(model, items)


def test_the_memo_does_not_outlive_its_pass(monkeypatch):
    items = _repeating_corpus()
    labels = {mid: "V" if i % 2 else "NV" for i, (mid, _) in enumerate(items)}
    model = new_model(_toy_vocab(items), EncoderConfig(), seed=3)
    before = _passes(model, items)
    loss = _batch_loss(model, items[:8], labels)
    loss.backward()
    Adam(model.store, lr=1e-2).step()
    after = _passes(model, items)
    assert after != before
    _no_reuse(monkeypatch)
    assert after == _passes(model, items)


def test_chunks_close_at_sixteen_methods_or_the_statement_budget():
    def sized(*counts):
        return [(f"m{i}", SimpleNamespace(nodes=[None] * n)) for i, n in enumerate(counts)]

    def shape(items, size=16):
        return [[len(p.nodes) for _, p in part] for part in _chunks(items, size)]

    assert shape(sized(*[8] * 40)) == [[8] * 16, [8] * 16, [8] * 8]
    half = CHUNK_STMTS // 2
    assert shape(sized(half, half, 1, half + 1, 2 * CHUNK_STMTS, 3)) == [
        [half, half], [1, half + 1], [2 * CHUNK_STMTS], [3]
    ]
    assert shape(sized(5, 5, 5), size=2) == [[5, 5], [5]]
    assert shape([]) == []


def test_training_batches_close_at_the_statement_budget(monkeypatch):
    # eight 100-statement methods with batch_size 8: the sixth would pass
    # CHUNK_STMTS, so they train in batches of 5 and 3, as scoring chunks them
    body = ["int v0 = n;"] + [f"int v{i} = v{i - 1} + n;" for i in range(1, 99)]
    pdg = pdg_from_source("int mid(int n) { " + " ".join(body) + " return v98; }")
    assert len(pdg.nodes) == 100
    items = [(f"m{i}", pdg) for i in range(8)]
    labels = {mid: "V" if i % 2 else "NV" for i, (mid, _) in enumerate(items)}
    sizes = []

    def batch_loss(model, batch, *args):
        sizes.append(len(batch))
        return _batch_loss(model, batch, *args)

    monkeypatch.setattr(fagcn, "_batch_loss", batch_loss)
    cfg = EncoderConfig(embed_dim=4, gru_hidden=4, stmt_dim=5)
    train(items, items, labels, cfg, TrainConfig(epochs=1, batch_size=8))
    assert sizes == [5, 3]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_scoring_peak_memory_grows_with_the_chunk_budget_not_the_methods():
    # a chunk's fusion adjacency and the Tree-LSTM's child sums are dense
    # in its statements; 8 methods of 420 statements in one chunk peaked at
    # about 39 times the memory of one
    body = ["int v0 = n;"] + [f"int v{i} = v{i - 1} + n;" for i in range(1, 419)]
    pdg = pdg_from_source("int big(int n) { " + " ".join(body) + " return v418; }")
    assert len(pdg.nodes) == 420
    model = new_model(_toy_vocab([("big", pdg)]), seed=1)
    one = _peak_bytes(lambda: score_methods(model, [("m0", pdg)]))
    eight = _peak_bytes(lambda: score_methods(model, [(f"m{i}", pdg) for i in range(8)]))
    assert eight <= 3 * one, (eight, one)


def _chain_method(n):
    body = ["int v0 = n;"] + [f"int v{i} = v{i - 1} + n;" for i in range(1, n - 1)]
    pdg = pdg_from_source("int big(int n) { " + " ".join(body) + f" return v{n - 2}; }}")
    assert len(pdg.nodes) == n
    return pdg


def test_scoring_and_explaining_memory_grow_with_the_statements_not_their_square():
    # With dense n x n graph matrices, 4 times the statements took 6.7 times
    # the scoring memory and 9.6 times the explaining memory; with slot lists
    # both grow about as the statements and edges do.
    small, large = _chain_method(105), _chain_method(420)
    model = new_model(_toy_vocab([("big", large)]), seed=1)
    peaks = []
    for pdg in (small, large):
        ((_, _, feats),) = forward_methods(model, [("m", pdg)])
        config = ExplainConfig(iterations=3)
        peaks.append((
            _peak_bytes(lambda: score_methods(model, [("m", pdg)])),
            _peak_bytes(lambda: learn_edge_mask(pdg, model, "V", config, feats=feats)),
        ))
    (score_small, explain_small), (score_large, explain_large) = peaks
    assert score_large <= 5 * score_small, peaks
    assert explain_large <= 5 * explain_small, peaks


def test_train_flattens_each_statement_tree_once(monkeypatch):
    # training reads every tree in every batch of every epoch and tuning
    # pass, but flattens each statement's tree once per run
    items, labels = _toy_corpus()
    flatten, calls = features.flatten_ast, []

    def counting(ast):
        calls.append(ast)
        return flatten(ast)

    monkeypatch.setattr(features, "flatten_ast", counting)
    cfg = EncoderConfig(embed_dim=4, gru_hidden=4, stmt_dim=5)
    train(items, items[:6], labels, cfg, TrainConfig(epochs=3, batch_size=4, patience=5))
    assert len(calls) == sum(len(p.nodes) for _, p in items)


def test_fit_threshold_requires_data():
    items, labels = _toy_corpus()
    with pytest.raises(EmptySplit):
        train(items, [], labels, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12))
