import numpy as np
import pytest

from vulgraph.autodiff import Adam, Tensor
from vulgraph.config import TOP_K
from vulgraph.encoders import EncoderConfig
from vulgraph.errors import MaskMisaligned
from vulgraph.explain import (
    EdgeMask,
    ExplainConfig,
    edge_slots,
    explanation_report,
    extract_subgraph,
    learn_edge_mask,
    masked_adjacency,
)
from vulgraph.fagcn import (
    DetectionModel,
    TrainConfig,
    _batch_loss,
    detector_weights,
    frozen,
    graph_logits,
    new_model,
    score_methods,
    train,
)
from vulgraph.features import build_vocabulary, extract_method_features
from vulgraph.frontend import Pdg, PdgEdge, pdg_from_source
from vulgraph.slots import slot_list

import oracles
from oracles import (
    TooManyEdges,
    brute_force_minimal_subgraph,
    densify,
    hard_subset_score,
    large_methods,
    rel_err,
    statement_matrix,
)

CFG = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)

GUARDED_TMPL = """
int reader_{i}(int src) {{
    int amount = read_size(src);
    if (!check_bounds(amount, MAX_LEN))
        return -1;
    int out = copy_data(src, amount);
    return out;
}}
"""

UNGUARDED_TMPL = """
int writer_{i}(int src) {{
    int amount = read_size(src);
    int out = copy_data(src, amount);
    return out;
}}
"""

DEMO_SRC = """
int demo(int src) {
    int amount = read_size(src);
    if (amount > 0) {
        int out = copy_data(src, amount);
        return out;
    }
    return -1;
}
"""

CHAIN_SRC = "int f(int alpha) { int beta = alpha + 1; int gamma = beta + 2; return gamma; }"


def _masked_probs(pdg, model, logits, feats):
    """Class distribution [1, 2] of the detector under the graph masked by
    sigmoid(logits), as one explainer iteration computes it."""
    edges = edge_slots(pdg)
    adj = masked_adjacency(edges, Tensor(logits))
    return graph_logits(edges.slots, adj, feats, frozen(model).store).softmax(axis=1)


def _detector_probs(pdg, model, feats):
    """Class distribution [1, 2] of the detector on the method's own edges."""
    slots = slot_list([pdg])
    return graph_logits(slots, detector_weights(slots), feats, model.store).softmax(axis=1).data


def _edgeless(pdg):
    return Pdg(method=pdg.method, nodes=pdg.nodes, edges=[])


@pytest.fixture(scope="module")
def corpus():
    items, labels = [], {}
    for i in range(4):
        items.append((f"risky_{i}", pdg_from_source(UNGUARDED_TMPL.format(i=i))))
        labels[f"risky_{i}"] = "V"
        items.append((f"safe_{i}", pdg_from_source(GUARDED_TMPL.format(i=i))))
        labels[f"safe_{i}"] = "NV"
    return items, labels


@pytest.fixture(scope="module")
def demo():
    return pdg_from_source(DEMO_SRC)


@pytest.fixture(scope="module")
def vocab(corpus, demo):
    items, _ = corpus
    bundles = [extract_method_features(p) for _, p in items]
    bundles.append(extract_method_features(demo))
    return build_vocabulary(bundles)


@pytest.fixture(scope="module")
def fitted_model(corpus, vocab):
    """A briefly optimized model: far enough from initialization that edge
    deletions move the score visibly, short of probability saturation."""
    items, labels = corpus
    model = new_model(vocab, CFG, seed=1)
    opt = Adam(model.store, lr=5e-3)
    for _ in range(18):
        model.store.zero_grad()
        loss = _batch_loss(model, items, labels)
        loss.backward()
        opt.step()
    return model


@pytest.fixture(scope="module")
def flip_fixture(demo, fitted_model):
    """Threshold placed between the two largest leave-one-out scores, so
    removing exactly one edge flips the decision of the full graph."""
    feats = statement_matrix(demo, fitted_model)
    n = len(demo.edges)
    full = hard_subset_score(demo, fitted_model, range(n), feats)
    loo = np.array(
        [hard_subset_score(demo, fitted_model, [p for p in range(n) if p != d], feats) for d in range(n)]
    )
    above = np.sort(loo[loo > full])[::-1]
    assert len(above) >= 2
    tau = float((above[0] + above[1]) / 2.0)
    assert full < tau  # full-graph decision is NV
    flips = [d for d in range(n) if loo[d] >= tau]
    assert flips == [4]  # unique decision-flipping edge, frozen from this fixture
    pinned = DetectionModel(
        store=fitted_model.store,
        vocab=fitted_model.vocab,
        encoder_config=fitted_model.encoder_config,
        threshold=tau,
    )
    return pinned, feats, full, flips[0]


@pytest.fixture(scope="module")
def flip_mask(demo, flip_fixture):
    pinned, _, _, _ = flip_fixture
    return learn_edge_mask(demo, pinned, "NV", feats=statement_matrix(demo, pinned))


def test_open_mask_matches_unmasked_prediction(demo, vocab):
    n_edges = len(demo.edges)
    for seed in range(3):
        model = new_model(vocab, CFG, seed=seed)
        feats = statement_matrix(demo, model)
        full = _detector_probs(demo, model, feats)
        edgeless = _detector_probs(_edgeless(demo), model, feats)
        assert np.abs(full - edgeless).max() > 1e-6  # prediction does depend on edges
        opened = _masked_probs(demo, model, np.full(n_edges, 20.0), feats)
        assert np.abs(opened.data - full).max() <= 1e-6


def test_closed_mask_matches_edgeless_prediction(demo, vocab):
    n_edges = len(demo.edges)
    for seed in range(3):
        model = new_model(vocab, CFG, seed=seed)
        feats = statement_matrix(demo, model)
        edgeless = _detector_probs(_edgeless(demo), model, feats)
        closed = _masked_probs(demo, model, np.full(n_edges, -20.0), feats)
        assert np.abs(closed.data - edgeless).max() <= 1e-6


def _parallel_edge_pdg():
    base = pdg_from_source(CHAIN_SRC)
    return Pdg(
        method=base.method,
        nodes=list(base.nodes),
        edges=[
            PdgEdge(0, 1, "data", "x"),
            PdgEdge(0, 1, "data", "y"),
            PdgEdge(1, 2, "data", "z"),
        ],
        decl_types=dict(base.decl_types),
    )


def test_masked_adjacency_merges_parallel_edges():
    pdg = _parallel_edge_pdg()
    gate = np.array([0.3, 0.5, 0.9])
    edges = edge_slots(pdg)
    got = densify(edges.slots, masked_adjacency(edges, Tensor(np.log(gate / (1.0 - gate)))).data)

    merged = 0.3 + 0.5 - 0.3 * 0.5  # two edges share the (0,1) slot
    a = np.eye(3)
    a[0, 1] = a[1, 0] = merged
    a[1, 2] = a[2, 1] = 0.9
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    want = np.outer(dinv, dinv) * a
    assert rel_err(got, want) < 1e-12
    assert np.abs(got - got.T).max() < 1e-15


def test_open_gate_adjacency_is_the_detector_adjacency(demo):
    for pdg in (demo, _parallel_edge_pdg(), _five_edge_pdg(), pdg_from_source(CHAIN_SRC)):
        got = masked_adjacency(edge_slots(pdg), Tensor(np.full(len(pdg.edges), np.inf))).data
        assert np.array_equal(got, detector_weights(slot_list([pdg])).data)


def test_masked_adjacency_is_the_dense_masked_adjacency(demo):
    # values and gate gradients against the dense per-op form, within 1e-12
    # of the reference's largest magnitude, on planted, parallel-edge and
    # large methods
    gen = np.random.default_rng(4)
    pdgs = [demo, _parallel_edge_pdg(), _five_edge_pdg()] + large_methods()
    pdgs += [e.pdg for e in oracles.planted_entries(20, seed=9)[:10] if e.pdg is not None]
    for pdg in pdgs:
        edges = edge_slots(pdg)
        gate = gen.uniform(0.0, 1.0, len(pdg.edges))
        weight = gen.normal(0.0, 1.0, (len(pdg.nodes),) * 2)
        logits = np.log(gate / (1.0 - gate))
        g = Tensor(logits, requires_grad=True)
        out = masked_adjacency(edges, g)
        (out * Tensor(weight[edges.slots.dst, edges.slots.src])).sum().backward()
        ref_g = Tensor(logits, requires_grad=True)
        ref = oracles.dense_masked_adjacency(pdg, ref_g.sigmoid())
        (ref * Tensor(weight)).sum().backward()
        assert oracles.max_scaled_err(densify(edges.slots, out.data), ref.data) <= 1e-12, pdg.method
        assert oracles.max_scaled_err(g.grad, ref_g.grad) <= 1e-12, pdg.method


def test_full_edge_set_score_is_the_detector_score(corpus, fitted_model):
    items, _ = corpus
    for _, pdg in items:
        feats = statement_matrix(pdg, fitted_model)
        (_, score), = score_methods(fitted_model, [("m", pdg)])
        assert hard_subset_score(pdg, fitted_model, range(len(pdg.edges)), feats) == score


def test_misaligned_mask_rejected(demo, vocab):
    model = new_model(vocab, CFG, seed=0)
    bad = EdgeMask(logits=np.zeros(len(demo.edges) + 1))
    with pytest.raises(MaskMisaligned):
        _masked_probs(demo, model, bad.logits, statement_matrix(demo, model))
    with pytest.raises(MaskMisaligned):
        extract_subgraph(demo, bad, k=2)


def test_single_free_edge_monotone_response():
    # The second edge is held open; the class-1 probability responds
    # strictly monotonically to the first edge's mask value.
    chain = pdg_from_source(CHAIN_SRC)
    cvocab = build_vocabulary([extract_method_features(chain)])
    model = new_model(cvocab, CFG, seed=3)
    feats = statement_matrix(chain, model)
    scores = []
    for m in range(-4, 5):
        probs = _masked_probs(chain, model, np.array([float(m), 20.0]), feats)
        scores.append(float(probs.data[0, 1]))
    diffs = np.diff(scores)
    assert np.all(diffs > 0)
    assert max(scores) - min(scores) > 1e-4


def test_decision_flipping_edge_gets_highest_mask(demo, flip_fixture, flip_mask):
    _, _, _, flip_edge = flip_fixture
    vals = flip_mask.values()
    assert int(np.argmax(vals)) == flip_edge
    # the optimization actually separated edges rather than saturating them all
    assert vals.max() > 0.9 and vals.min() < 0.1


def _tape(loss: Tensor) -> list[Tensor]:
    """Every node the loss reaches through the tape, itself included."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(p for p in node._parents if p.requires_grad)
    return list(seen.values())


def _record_backwards(monkeypatch) -> list[list[Tensor]]:
    """Make every Tensor.backward record the tape it runs over."""
    tapes = []
    backward = Tensor.backward

    def recording(self, **kw):
        tapes.append(_tape(self))
        return backward(self, **kw)

    monkeypatch.setattr(Tensor, "backward", recording)
    return tapes


def test_learn_edge_mask_leaves_detector_gradients_alone(monkeypatch, demo, vocab):
    model = new_model(vocab, CFG, seed=0)
    feats = statement_matrix(demo, model)
    pattern = np.random.default_rng(5).normal(0.0, 1.0, model.store.grads.shape)
    model.store.grads[...] = pattern
    tapes = _record_backwards(monkeypatch)
    learn_edge_mask(demo, model, "V", ExplainConfig(iterations=3), feats=feats)
    assert np.array_equal(model.store.grads.view(np.int64), pattern.view(np.int64))
    # no detector parameter is on an iteration's tape
    params = {id(t) for _, t in model.store.items()}
    assert len(tapes) == 3 and not any(id(node) in params for tape in tapes for node in tape)


def test_an_explain_iteration_records_three_ops(monkeypatch, demo, vocab):
    # the masked adjacency and the loss each take the logits' sigmoid, so
    # the tape is those two and the detector
    model = new_model(vocab, CFG, seed=0)
    tapes = _record_backwards(monkeypatch)
    learn_edge_mask(demo, model, "V", ExplainConfig(iterations=2), feats=statement_matrix(demo, model))
    for tape in tapes:
        assert sorted(node._backward_fn.__qualname__.split(".")[0] for node in tape if node._backward_fn) == [
            "graph_logits", "mask_loss", "masked_adjacency",
        ]


def test_explain_tape_does_not_grow_with_edges(monkeypatch, vocab):
    chain = "int f(int v0) { " + " ".join(f"int v{i} = v{i - 1} + 1;" for i in range(1, 60)) + " return v59; }"
    small, large = _five_edge_pdg(), pdg_from_source(chain)
    assert len(small.edges) == 5 and len(large.edges) >= 50
    tapes = _record_backwards(monkeypatch)
    model = new_model(vocab, CFG, seed=0)
    for pdg in (small, large):
        learn_edge_mask(pdg, model, "V", ExplainConfig(iterations=2), feats=statement_matrix(pdg, model))
    assert len(tapes) == 4 and len({len(tape) for tape in tapes}) == 1


def test_parallel_symmetric_edges_get_equal_masks(vocab):
    pdg = _parallel_edge_pdg()
    model = new_model(vocab, CFG, seed=3)
    mask = learn_edge_mask(pdg, model, "V", ExplainConfig(iterations=80), feats=statement_matrix(pdg, model))
    vals = mask.values()
    assert abs(vals[0] - vals[1]) <= 1e-6
    assert abs(mask.logits[0] - 1.0) > 0.5  # the pair moved, not a frozen no-op
    assert abs(vals[2] - vals[0]) > 1e-6  # the unrelated edge is not tied to them


def test_edge_insensitive_prediction_keeps_mask_at_init(demo, vocab):
    model = new_model(vocab, CFG, seed=2)
    model.store["gcn.w1"].data[:] = 0.0  # conv output constant in the adjacency
    cfg = ExplainConfig(iterations=40, sparsity_weight=0.0, entropy_weight=0.0)
    mask = learn_edge_mask(demo, model, "V", cfg, feats=statement_matrix(demo, model))
    assert np.array_equal(mask.logits, np.ones(len(demo.edges)))
    assert len(set(mask.loss_trace)) == 1


def test_mask_range_and_loss_trace_statistics(demo, vocab):
    chain = pdg_from_source(CHAIN_SRC)
    short = ExplainConfig(iterations=60)
    decreased = 0
    runs = 0
    for seed in range(5):
        model = new_model(vocab, CFG, seed=seed)
        for pdg in (demo, chain):
            mask = learn_edge_mask(pdg, model, "V", short, feats=statement_matrix(pdg, model))
            vals = mask.values()
            assert np.all(vals > 0.0) and np.all(vals < 1.0)
            assert np.all(np.abs(mask.logits) <= 30.0)
            assert len(mask.loss_trace) == short.iterations
            runs += 1
            if mask.loss_trace[-1] <= mask.loss_trace[0]:
                decreased += 1
    assert decreased >= 0.9 * runs


def _five_edge_pdg():
    base = pdg_from_source(
        "int f(int alpha) { int a = 1; int b = a; int c = b; return c; }"
    )
    edges = [
        PdgEdge(0, 1, "data", "a"),
        PdgEdge(0, 2, "data", "a"),
        PdgEdge(1, 2, "data", "b"),
        PdgEdge(2, 3, "data", "c"),
        PdgEdge(1, 3, "data", "b"),
    ]
    return Pdg(method=base.method, nodes=list(base.nodes), edges=edges, decl_types=dict(base.decl_types))


def test_extract_subgraph_ranking():
    pdg = _five_edge_pdg()
    mask = EdgeMask(logits=np.array([2.0, -1.0, 0.5, 2.0, -3.0]))
    vals = mask.values()

    sub = extract_subgraph(pdg, mask, k=3)
    assert [(s, d) for s, d, _, _, _ in sub.edges] == [(0, 1), (2, 3), (1, 2)]  # tie at logit 2.0 -> edge order
    assert [m for _, _, _, _, m in sub.edges] == [vals[0], vals[3], vals[2]]
    assert sub.nodes == (0, 1, 2, 3)
    assert [s for s, _ in sub.statement_ranking] == [1, 2, 0, 3]
    importance = dict(sub.statement_ranking)
    assert importance[1] == vals[0] + vals[2]
    assert importance[2] == vals[3] + vals[2]
    assert importance[0] == vals[0]

    whole = extract_subgraph(pdg, mask, k=10)
    assert len(whole.edges) == 5  # K beyond |E| keeps the whole edge set
    top1 = extract_subgraph(pdg, mask, k=1)
    assert [(s, d) for s, d, _, _, _ in top1.edges] == [(0, 1)]
    assert top1.nodes == (0, 1)
    assert len(top1.statement_ranking) == 2


def test_brute_force_oracle_trivial_cases(vocab):
    single = pdg_from_source("int f(int alpha) { int beta = alpha + 1; return beta; }")
    assert len(single.edges) == 1
    model = new_model(vocab, CFG, seed=0)
    subset, diff = brute_force_minimal_subgraph(single, model, 1)
    assert subset == (0,)
    assert diff == 0.0

    edgeless = pdg_from_source("int g() { return 0; }")
    assert len(edgeless.edges) == 0
    assert brute_force_minimal_subgraph(edgeless, model, 3) == ((), 0.0)

    base = pdg_from_source(CHAIN_SRC)
    crowded = Pdg(
        method=base.method,
        nodes=list(base.nodes),
        edges=[PdgEdge(0, 1, "data", f"v{i}") for i in range(17)],
        decl_types=dict(base.decl_types),
    )
    with pytest.raises(TooManyEdges):
        brute_force_minimal_subgraph(crowded, model, 2)

    two = pdg_from_source(CHAIN_SRC)
    subset, _ = brute_force_minimal_subgraph(two, model, 9)
    assert subset == (0, 1)  # K beyond |E| degrades to the full edge set


def test_learned_mask_close_to_exhaustive_optimum(demo, flip_fixture, flip_mask):
    pinned, feats, full, _ = flip_fixture
    sub = extract_subgraph(demo, flip_mask, k=3)
    kept = [
        next(
            p
            for p, e in enumerate(demo.edges)
            if (e.src, e.dst, e.kind, e.var) == (s, d, kind, var)
        )
        for s, d, kind, var, _ in sub.edges
    ]
    mask_diff = abs(full - hard_subset_score(demo, pinned, kept, feats))
    _, best_diff = brute_force_minimal_subgraph(demo, pinned, 3)
    assert mask_diff <= best_diff + 0.05


def test_learning_is_deterministic(demo, flip_fixture, flip_mask):
    pinned, _, _, _ = flip_fixture
    again = learn_edge_mask(demo, pinned, "NV", feats=statement_matrix(demo, pinned))
    assert np.array_equal(flip_mask.logits, again.logits)
    assert flip_mask.loss_trace == again.loss_trace


def test_explanation_report_shape(demo, flip_mask):
    sub = extract_subgraph(demo, flip_mask)  # default K
    assert len(sub.edges) == min(TOP_K, len(demo.edges))
    report = explanation_report("NV", sub)
    assert report["method"] == demo.method
    assert report["decision"] == "NV"
    assert report["k"] == len(sub.edges)
    assert all(set(e) == {"src", "dst", "kind", "var", "mask"} for e in report["edges"])
    assert all(set(s) == {"index", "importance"} for s in report["statements"])
    assert [e["mask"] for e in report["edges"]] == sorted(
        (e["mask"] for e in report["edges"]), reverse=True
    )


def test_learned_masks_are_bitwise_the_per_op_tape():
    # The explainer's three fused nodes against the one-node-per-op tape, on
    # planted methods under a briefly trained detector and on large methods,
    # for both decisions: same logits and loss trace, bit for bit. Adding the
    # entropy terms of d/d sigmoid in another order already breaks this.
    entries = [e for e in oracles.planted_entries(48, seed=5) if e.pdg is not None]
    labels = {e.id: e.label for e in entries}
    items = [(e.id, e.pdg) for e in entries]
    model, _ = train(items[:32], items[32:40], labels, CFG, TrainConfig(epochs=2, seed=5))
    cases = [(pdg, 60) for _, pdg in items[40:]] + [(pdg, 4) for pdg in large_methods()]
    for pdg, iterations in cases:
        config = ExplainConfig(iterations=iterations)
        feats = statement_matrix(pdg, model)
        for decision in ("V", "NV"):
            got = learn_edge_mask(pdg, model, decision, config, feats=feats)
            want = oracles.learn_edge_mask(pdg, model, decision, config, feats=feats)
            assert np.array_equal(got.logits, want.logits), (pdg.method, decision)
            assert got.loss_trace == want.loss_trace, (pdg.method, decision)
        logits = np.linspace(-3.0, 3.0, len(pdg.edges))
        assert np.array_equal(
            _masked_probs(pdg, model, logits, feats).data,
            oracles.masked_forward(pdg, frozen(model), Tensor(logits), feats).data,
        )
