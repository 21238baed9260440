import numpy as np
import pytest

from vulgraph.autodiff import ParamStore, Tensor, init_params
from vulgraph.encoders import (
    CONCAT_DIM,
    FUSE_PARAMS,
    GRU_GATES,
    TREE_GATES,
    EncoderConfig,
    attend_and_fuse,
    _statement_features,
    cell_layout,
    cell_params,
    encode_forest,
    encode_method_batch,
    encoder_layout,
    gru_sequence,
)
from vulgraph.errors import ConfigError, EmptyTree
from vulgraph.features import UNK_ID, Vocabulary, build_vocabulary, extract_method_features, flatten_ast
from vulgraph.frontend import Pdg, PdgEdge, pdg_from_source
from vulgraph.rng import Rng
from vulgraph.slots import slot_list

import oracles
from oracles import attention_scores, finite_diff, gauss, per_step_gru, rel_err
from tensor_ops import rows

CFG = EncoderConfig(embed_dim=6, gru_hidden=5, stmt_dim=7)

SRC = """
int scan(int num) {
    int total = 0;
    int idx = read_start(num);
    while (idx < num) {
        total = total + fetch_item(idx);
        idx = idx + 1;
    }
    if (total > LIMIT)
        report_overflow(total);
    return total;
}
"""


def encode_one(pdg, vocab, store, bundles):
    """Statement vectors of one method, encoded as a batch of one."""
    out, _ = encode_method_batch([pdg], vocab, store, [bundles])
    return out


def make_setup(seed=3, cfg=CFG, src=SRC):
    pdg = pdg_from_source(src)
    bundles = extract_method_features(pdg)
    vocab = build_vocabulary([bundles])
    store = init_params(Rng(seed), encoder_layout(len(vocab), cfg))
    return pdg, bundles, vocab, store


# --- GRU --------------------------------------------------------------------------


def ref_gru(params, xs, h):
    """Plain per-step reference recurrence."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    for x in xs:
        z = sig(x @ params["wz"] + h @ params["uz"] + params["bz"])
        r = sig(x @ params["wr"] + h @ params["ur"] + params["br"])
        cand = np.tanh(x @ params["wh"] + (r * h) @ params["uh"] + params["bh"])
        h = z * cand + (1.0 - z) * h
    return h


def test_gru_matches_reference_recurrence():
    rng = Rng(1)
    store = init_params(rng, cell_layout("g", GRU_GATES, 4, 3))
    gru = cell_params(store, "g", GRU_GATES)
    xs = [np.array([[gauss(rng, 0, 1) for _ in range(4)] for _ in range(2)]) for _ in range(5)]
    steps = np.arange(10).reshape(5, 2)  # step t reads rows 2t and 2t + 1
    out = gru_sequence([Tensor(np.concatenate(xs))], steps, np.ones(steps.shape), gru)
    np_params = {k: store[f"g.{k}"].data for k in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")}
    expect = ref_gru(np_params, xs, np.zeros((2, 3)))
    assert rel_err(out.data, expect) < 1e-12


def test_gru_masked_steps_and_padding():
    _, _, vocab, store = make_setup()
    gru = cell_params(store, "sub_gru", GRU_GATES)
    embed = store["embed.table"]

    def run(ids, mask):
        # row 0: the sequence under its mask; row 1: a fully unmasked copy
        steps = np.repeat(ids, 2).reshape(len(ids), 2)
        return gru_sequence([embed], steps, np.array([[m, 1.0] for m in mask]), gru).data

    ids = [vocab.token_to_id.get(token, UNK_ID) for token in ("total", "n", "i")]
    base = run(ids, [1, 1, 1])
    assert np.array_equal(base[0], base[1])
    padded = run(ids + [0, 0], [1, 1, 1, 0, 0])
    assert np.array_equal(base[0], padded[0])
    assert not np.array_equal(padded[0], padded[1])  # the PAD steps did run unmasked
    allmask = run(ids, [0, 0, 0])
    assert np.array_equal(allmask[0], np.zeros(CFG.gru_hidden))
    assert np.array_equal(allmask[1], base[1])  # masking is per row


def test_gru_zero_weights_close_all_gates():
    store = ParamStore([
        (f"g.{kind}{g}", np.zeros(shape))
        for g in ("z", "r", "h")
        for kind, shape in (("w", (3, 4)), ("u", (4, 4)), ("b", 4))
    ])
    out = gru_sequence([Tensor(np.ones((1, 3)))], np.zeros((1, 1)), np.ones((1, 1)), cell_params(store, "g", GRU_GATES))
    assert np.array_equal(out.data, np.zeros((1, 4)))


def test_fused_gru_is_bitwise_the_per_step_recurrence():
    # step t of batch row b reads row rows[t, b] of two tables stacked end
    # to end, repeats included; the reference gathers each step's rows from
    # the joined table (tensor_ops.rows, which sums repeats by np.add.at)
    gen = np.random.default_rng(7)
    for trial in range(12):
        steps, batch = int(gen.integers(1, 7)), int(gen.integers(1, 6))
        in_dim, hidden = int(gen.integers(1, 5)), int(gen.integers(1, 5))
        store = init_params(Rng(trial), cell_layout("g", GRU_GATES, in_dim, hidden))
        for _, t in store.items():  # nonzero biases too
            t.data[...] = gen.normal(0.0, 1.0, t.data.shape)
        gru = cell_params(store, "g", GRU_GATES)
        sizes = (int(gen.integers(1, 4)), int(gen.integers(1, 4)))
        table = gen.normal(0.0, 2.0, (sum(sizes), in_dim))
        ids = gen.integers(0, sum(sizes), (steps, batch))
        mask = (gen.random((steps, batch)) < 0.6).astype(np.float64)
        mask[:, 0] = 0.0  # a row masked at every step
        for m in (mask, None):
            store.zero_grad()
            joined = Tensor(table, requires_grad=True)
            ref = per_step_gru(dict(zip("wz uz bz wr ur br wh uh bh".split(), gru)), [rows(joined, i) for i in ids], m)
            parts = [Tensor(table[: sizes[0]], requires_grad=True), Tensor(table[sizes[0] :], requires_grad=True)]
            out = gru_sequence(parts, ids, np.ones(ids.shape) if m is None else m, gru)
            assert np.array_equal(out.data, ref.data)
            # the gradients agree up to the order of their sums
            weight = Tensor(gen.normal(0.0, 1.0, out.data.shape))
            (ref * weight).sum().backward()
            expect = {name: t.grad.copy() for name, t in store.items()}
            store.zero_grad()
            (out * weight).sum().backward()
            got = np.concatenate([p.grad if p.grad is not None else np.zeros(p.data.shape) for p in parts])
            assert rel_err(got, joined.grad) < 1e-12
            for name, t in store.items():
                assert rel_err(t.grad, expect[name]) < 1e-12, name


# --- Tree-LSTM --------------------------------------------------------------------


def ref_tree_cell(p, x, child_hc):
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h_sum = sum((h for h, _ in child_hc), np.zeros_like(p["bi"]))
    i = sig(x @ p["wi"] + h_sum @ p["ui"] + p["bi"])
    o = sig(x @ p["wo"] + h_sum @ p["uo"] + p["bo"])
    u = np.tanh(x @ p["wu"] + h_sum @ p["uu"] + p["bu"])
    c = i * u
    for h, ck in child_hc:
        f = sig(x @ p["wf"] + h @ p["uf"] + p["bf"])
        c = c + f * ck
    h = o * np.tanh(c)
    return h, c


def ref_tree(p, embed, vocab, node):
    from vulgraph.features import normalize_ast_label

    kids = [ref_tree(p, embed, vocab, k) for k in node[1]]
    x = embed[vocab.token_to_id.get(normalize_ast_label(node[0]), UNK_ID)]
    return ref_tree_cell(p, x, kids)


def test_tree_lstm_matches_recursive_reference():
    pdg, bundles, vocab, store = make_setup()
    p = {k: store[f"tree.{k}"].data for k in ("wi", "ui", "bi", "wf", "uf", "bf", "wo", "uo", "bo", "wu", "uu", "bu")}
    embed = store["embed.table"].data
    got = encode_forest([b.tree for b in bundles], vocab, store["embed.table"], cell_params(store, "tree", TREE_GATES))
    assert got.data.shape == (len(bundles), CFG.gru_hidden)
    for row, b in enumerate(bundles):
        expect, _ = ref_tree(p, embed, vocab, b.ast)
        assert rel_err(got.data[row], expect) < 1e-10, f"stmt {b.index}"


def test_tree_lstm_child_permutation_invariant():
    _, _, vocab, store = make_setup()
    kids = [["id:a", []], ["int:3", []], ["call:f", [["id:b", []]]]]
    t1 = ["assign:=", kids]
    t2 = ["assign:=", [kids[2], kids[0], kids[1]]]
    out = encode_forest([flatten_ast(t1), flatten_ast(t2)], vocab, store["embed.table"], cell_params(store, "tree", TREE_GATES))
    assert rel_err(out.data[0], out.data[1]) < 1e-12


def test_tree_lstm_rejects_empty():
    _, _, vocab, store = make_setup()
    with pytest.raises(EmptyTree):
        encode_forest([], vocab, store["embed.table"], cell_params(store, "tree", TREE_GATES))
    for tree in (None, []):
        with pytest.raises(EmptyTree):
            flatten_ast(tree)


def test_flattened_tree_is_post_order():
    flat = flatten_ast(["assign:=", [["id:total", []], ["op:+", [["id:a", []], ["int:3", []], ["str:\"s\"", []]]]]])
    assert flat.labels == ["id:total", "id:a", "intlit", "strlit", "op:+", "assign:="]
    assert flat.heights == [0, 0, 0, 0, 1, 2]
    assert list(zip(flat.parents, flat.children)) == [(4, 1), (4, 2), (4, 3), (5, 0), (5, 4)]


def _random_tree(gen, labels, depth):
    kids = [_random_tree(gen, labels, int(gen.integers(0, depth))) for _ in range(int(gen.integers(1, 4)))] if depth else []
    return [str(gen.choice(labels)), kids]


def test_fused_tree_lstm_is_bitwise_the_per_op_tape():
    # forests of depth 0-6 whose nodes have children on several lower levels:
    # the root states and every gradient, the embedding table's included
    gen = np.random.default_rng(21)
    labels = ["id:a", "id:b", "int:3", "call:f", "assign:=", "op:+", "if"]
    vocab = Vocabulary({label: k + 2 for k, label in enumerate(labels[:5])})  # two labels map to UNK
    for trial in range(40):
        depth = int(gen.integers(0, 7))
        forest = [flatten_ast(_random_tree(gen, labels, int(gen.integers(0, depth + 1)))) for _ in range(int(gen.integers(1, 6)))]
        table = gen.normal(0.0, 1.0, (len(vocab), 5))
        cell = init_params(Rng(trial), cell_layout("tree", TREE_GATES, 5, 4))
        store = ParamStore([("embed.table", table)] + [(name, t.data) for name, t in cell.items()])
        for _, t in store.items():  # nonzero biases too
            t.data[...] = gen.normal(0.0, 1.0, t.data.shape)
        weight = Tensor(gen.normal(0.0, 1.0, (len(forest), 4)))
        results = []
        for encode in (encode_forest, oracles.encode_forest):
            store.zero_grad()
            out = encode(forest, vocab, store["embed.table"], cell_params(store, "tree", TREE_GATES))
            (out * weight).sum().backward()
            results.append([out.data] + [t.grad.copy() for _, t in store.items()])
        for got, want in zip(*results):
            assert np.array_equal(got, want), trial


def _random_chunk(gen, sizes):
    """Methods of the given statement counts whose statement pairs are
    joined with probability 0.3, some by two parallel edges."""
    pdgs = []
    for size in sizes:
        base = pdg_from_source("int f() { " + "int v = 1; " * (size - 1) + "return 0; }")
        edges = [PdgEdge(a, b, "data", "v") for a in range(size) for b in range(a + 1, size) if gen.random() < 0.3]
        edges += [e for e in edges if gen.random() < 0.2]
        pdgs.append(Pdg(method=base.method, nodes=base.nodes, edges=edges))
    return pdgs


def test_attend_and_fuse_is_bitwise_the_per_op_tape():
    # the statement matrix and the gradients of the features, both attention
    # states and the ten parameters, over chunks of one to three methods
    gen = np.random.default_rng(8)
    _, _, vocab, store = make_setup()
    for _, t in store.items():
        t.data[...] = gen.normal(0.0, 0.5, t.data.shape)
    for sizes in ((1,), (5,), (3, 9), (20, 1, 40)):
        n = sum(sizes)
        slots = slot_list(_random_chunk(gen, sizes))
        inputs = [gen.normal(0.0, 1.0, (n, CFG.gru_hidden)) for _ in range(8)]
        weight = Tensor(gen.normal(0.0, 1.0, (n, CFG.stmt_dim)))
        results = []
        for fuse in (attend_and_fuse, oracles.attend_and_fuse):
            store.zero_grad()
            ts = [Tensor(a, requires_grad=True) for a in inputs]
            out = fuse(ts[:6], ts[6], ts[7], slots, store)
            (out * weight).sum().backward()
            results.append([out.data] + [t.grad for t in ts] + [store[name].grad.copy() for name in FUSE_PARAMS])
        for got, want in zip(*results):
            assert np.array_equal(got, want), sizes


def test_attend_and_fuse_is_the_dense_neighbour_softmax():
    # the slot softmax against the dense 0/1 block-diagonal (A + I) of the
    # chunk: the statement matrix and every gradient within 1e-12 of the
    # reference's largest magnitude
    gen = np.random.default_rng(9)
    _, _, vocab, store = make_setup()
    for _, t in store.items():
        t.data[...] = gen.normal(0.0, 0.5, t.data.shape)
    for sizes in ((1,), (4, 7), (30, 2, 12)):
        n = sum(sizes)
        pdgs = _random_chunk(gen, sizes)
        slots = slot_list(pdgs)
        adj = np.zeros((n, n))
        for pdg, (s, e) in zip(pdgs, slots.spans):
            adj[s:e, s:e] = oracles.dependence_adjacency(pdg)
        inputs = [gen.normal(0.0, 1.0, (n, CFG.gru_hidden)) for _ in range(8)]
        weight = Tensor(gen.normal(0.0, 1.0, (n, CFG.stmt_dim)))
        results = []
        for fuse, graph in ((attend_and_fuse, slots), (oracles.dense_attend_and_fuse, adj)):
            store.zero_grad()
            ts = [Tensor(a, requires_grad=True) for a in inputs]
            out = fuse(ts[:6], ts[6], ts[7], graph, store)
            (out * weight).sum().backward()
            results.append([out.data] + [t.grad for t in ts] + [store[name].grad.copy() for name in FUSE_PARAMS])
        names = ["out"] + [f"input {k}" for k in range(8)] + list(FUSE_PARAMS)
        for name, got, want in zip(names, *results):
            assert oracles.max_scaled_err(got, want) <= 1e-12, (sizes, name)


# --- attention --------------------------------------------------------------------


def _attention_weights(features, store):
    """The per-statement softmax over the six features, as attend_and_fuse
    takes it (on the per-op tape, which attend_and_fuse matches bit for bit)."""
    return attention_scores(features, store).softmax(axis=1).data


def test_attention_weights_normalize_and_symmetry():
    _, _, _, store = make_setup()
    rng = Rng(9)
    same = Tensor(np.array([[gauss(rng, 0, 1) for _ in range(CFG.gru_hidden)]]))
    ws = _attention_weights([same] * 6, store)
    assert abs(ws.sum() - 1.0) < 1e-12
    assert ws.max() - ws.min() < 1e-12  # identical inputs, uniform weights
    only = _attention_weights([same], store)
    assert abs(only[0, 0] - 1.0) < 1e-12


def test_attention_weights_sum_to_one_randomized():
    _, _, _, store = make_setup()
    rng = Rng(17)
    feats = [
        Tensor(np.array([[gauss(rng, 0, 2) for _ in range(CFG.gru_hidden)] for _ in range(100)]))
        for _ in range(6)
    ]
    ws = _attention_weights(feats, store)
    assert ws.shape == (100, 6)
    assert np.abs(ws.sum(axis=1) - 1.0).max() < 1e-12


# --- fusion -----------------------------------------------------------------------

TWO_SRC = "int two(int alpha) { int beta = alpha + 1; return beta; }"


def _encode_with_fusion_input(pdg, vocab, store):
    """encode_method_batch's output and the widened, attention-weighted
    feature rows g that its fusion step consumes."""
    bundles = extract_method_features(pdg)
    out, _ = encode_method_batch([pdg], vocab, store, [bundles])
    feats = _statement_features([bundles], [(0, len(bundles))], vocab, store)
    w = _attention_weights(feats, store)
    hw, hb = store["fuse.h_w"].data, store["fuse.h_b"].data
    g = np.concatenate([(f.data * w[:, j : j + 1]) @ hw + hb for j, f in enumerate(feats)], axis=1)
    return out.data, g


def _manual_fusion(store, g):
    """Softmax over the member rows of g, weighted sum, output projection."""
    s = g @ store["fuse.score_w"].data
    e = np.exp(s - s.max())
    fused = (e / e.sum() * g).sum(axis=0)
    return fused @ store["fuse.out_w"].data + store["fuse.out_b"].data


def test_fuse_isolated_statements_and_zero_weights():
    # no edges: each statement fuses with itself alone
    _, _, vocab, store = make_setup(seed=5)
    pdg = pdg_from_source("int lone() { int a = 1; int b = 2; return 0; }")
    assert len(pdg.edges) == 0
    out, g = _encode_with_fusion_input(pdg, vocab, store)
    for row in range(len(pdg.nodes)):
        assert rel_err(out[row], _manual_fusion(store, g[row : row + 1])) < 1e-10
    store["fuse.out_w"].data[:] = 0.0
    store["fuse.out_b"].data[:] = 0.0
    zero, _ = _encode_with_fusion_input(pdg, vocab, store)
    assert np.array_equal(zero, np.zeros((len(pdg.nodes), CFG.stmt_dim)))


def test_fuse_matches_manual_arithmetic_two_statements():
    pdg = pdg_from_source(TWO_SRC)
    assert len(pdg.nodes) == 2 and len(pdg.edges) == 1
    vocab = build_vocabulary([extract_method_features(pdg)])
    store = init_params(Rng(11), encoder_layout(len(vocab), CFG))
    out, g = _encode_with_fusion_input(pdg, vocab, store)
    expect = _manual_fusion(store, g)  # the two statements are each other's neighbor
    assert rel_err(out[0], expect) < 1e-10
    assert rel_err(out[1], expect) < 1e-10


# --- whole-method path ------------------------------------------------------------


def test_encode_method_shapes_and_determinism():
    pdg, bundles, vocab, store = make_setup()
    out1 = encode_one(pdg, vocab, store, bundles)
    out2 = encode_one(pdg, vocab, store, bundles)
    assert out1.data.shape == (len(pdg.nodes), CFG.stmt_dim)
    assert np.array_equal(out1.data, out2.data)
    assert np.all(np.isfinite(out1.data))


def test_batch_encoding_agrees_with_single():
    pdg, bundles, vocab, store = make_setup()
    other = pdg_from_source("int one(int x) { int y = x + 1; return y; }")
    ob = extract_method_features(other)
    big, slots = encode_method_batch([pdg, other], vocab, store, [bundles, ob])
    spans = slots.spans
    assert spans == [(0, len(bundles)), (len(bundles), len(bundles) + len(ob))]
    solo1 = encode_one(pdg, vocab, store, bundles)
    solo2 = encode_one(other, vocab, store, ob)
    assert rel_err(big.data[spans[0][0] : spans[0][1]], solo1.data) < 1e-9
    assert rel_err(big.data[spans[1][0] : spans[1][1]], solo2.data) < 1e-9


def test_every_parameter_gets_gradient():
    pdg, bundles, vocab, store = make_setup()
    out = encode_one(pdg, vocab, store, bundles)
    (out * out).sum().backward()
    dead = [n for n, t in store.items() if not np.any(t.grad)]
    assert dead == [], f"zero gradients for {dead}"


def test_end_to_end_gradients_match_finite_differences():
    pdg, bundles, vocab, store = make_setup(seed=8)
    probe = np.array(
        [[gauss(Rng(77), 0, 1) for _ in range(CFG.stmt_dim)] for _ in range(len(pdg.nodes))]
    )

    def loss_value():
        out = encode_one(pdg, vocab, store, bundles)
        return (out * Tensor(probe)).sum()

    loss = loss_value()
    loss.backward()
    for name in ("embed.table", "sub_gru.wh", "tree.uf", "attn_fwd.wz", "fuse.score_w", "fuse.out_b", "data_gru.uz"):
        t = store[name]
        grad = t.grad.copy()

        def f(x, t=t):
            saved = t.data.copy()
            t.data[...] = x
            val = float(loss_value().data)
            t.data[...] = saved
            return val

        num = finite_diff(f, t.data.copy(), eps=1e-5)
        assert rel_err(grad, num) < 1e-5, name


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(embed_dim=1)
    with pytest.raises(TypeError):  # the tree width is gru_hidden, not a knob
        EncoderConfig(gru_hidden=8, tree_hidden=16)
    assert CONCAT_DIM == 48
