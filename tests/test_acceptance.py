"""Acceptance gate: end-to-end properties the build must satisfy.

Each numbered section is self-contained and budgeted; the determinism
section re-executes the random-seeded sections from scratch and compares
canonical report bytes.
"""

import time
from functools import lru_cache

import numpy as np

from vulgraph.autodiff import Adam, Tensor
from vulgraph.cli import detection_row
from vulgraph.corpus import SplitSpec, fix_truth, split
from vulgraph.encoders import EncoderConfig, gru_sequence
from vulgraph.explain import extract_subgraph, learn_edge_mask
from vulgraph.fagcn import (
    TrainConfig,
    _batch_loss,
    forward_methods,
    new_model,
    rank_methods,
    score_methods,
    train,
)
from vulgraph.features import build_vocabulary, extract_method_features
from vulgraph.frontend import build_cfg, parse_method, pdg_from_source, pdg_to_dict, pdg_to_json
from vulgraph.frontend.deps import control_dependences, data_dependences
from vulgraph.metrics import ar_at_k, auc, fr_at_k, interp_accuracy, map_at_k, ndcg_at_k
from vulgraph.patterns import AbstractGraph, mine_patterns, pattern_count_table, pattern_to_dict
from vulgraph.rng import Rng
from vulgraph.util import dump_json

from oracles import (
    brute_control_deps,
    brute_data_deps,
    brute_force_minimal_subgraph,
    by_method,
    find_embedding,
    finite_diff,
    graphs_isomorphic,
    hard_subset_score,
    literal_ndcg,
    planted_entries,
    random_source,
    rel_err,
    scale_rows,
    scatter,
    segment_max,
    segment_sum,
    statement_matrix,
)
from tensor_ops import concat, rows

import pathlib

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# --- 1. gradient suite -------------------------------------------------------


def _grad_cases(seed: int):
    gen = np.random.default_rng(seed)
    r = lambda *s: gen.uniform(-1.5, 1.5, size=s)  # noqa: E731
    pos = lambda *s: gen.uniform(0.2, 2.0, size=s)  # noqa: E731
    off = lambda *s: gen.uniform(0.1, 1.5, size=s) * gen.choice([-1.0, 1.0], size=s)  # noqa: E731
    w34, w32, w43 = r(3, 4), r(3, 2), r(4, 3)
    w3, w4, w64, w12 = r(3), r(4), r(6, 4), r(12)
    w33 = r(3, 3)
    # overlapping ranges and a one-row range over rows [a0, a1, a2, a0],
    # with rows 0 and 3 tied at the top of column 0
    repeat_row0, ranges = np.array([0, 1, 2, 0]), [(0, 4), (1, 3), (2, 3)]
    tie_col0 = np.zeros((4, 4))
    tie_col0[[0, 3], 0] = 10.0
    # row 0 skips step 1, row 1 is padded at its end, row 2 is always masked
    gru_mask = np.array([[1, 1, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]], dtype=np.float64)

    def s(t, w):
        return (t * Tensor(w)).sum()

    def dropped(*shapes):
        # Draws the inputs of a case the suite no longer has (negation,
        # maximum), so that the cases after it keep the inputs they have
        # always been checked on.
        for shape in shapes:
            r(*shape)
        return []

    return [
        (lambda a, b: s(a + b, w34), [r(3, 4), r(3, 4)]),
        (lambda a, b: s(a + b, w34), [r(3, 4), r(4)]),
        (lambda a, b: s(a - b, w34), [r(3, 4), r(3, 4)]),
        *dropped((3, 4)),
        (lambda a, b: s(a * b, w34), [r(3, 4), r(3, 4)]),
        (lambda a, b: s(a / b, w34), [r(3, 4), off(3, 4) * 2]),
        *dropped((3, 4), (3, 4)),
        (lambda a: s(a.pow_scalar(3.0), w34), [r(3, 4)]),
        (lambda a: s(a.pow_scalar(0.5), w34), [pos(3, 4)]),
        (lambda a: s(a.sigmoid(), w34), [r(3, 4)]),
        (lambda a: s(a.tanh(), w34), [r(3, 4)]),
        (lambda a: s(a.relu(), w34), [off(3, 4)]),
        (lambda a: s(a.exp(), w34), [r(3, 4)]),
        (lambda a: s(a.log(), w34), [pos(3, 4)]),
        (lambda a: s(a.softmax(axis=-1), w34), [r(3, 4)]),
        (lambda a: s(a.softmax(axis=0), w34), [r(3, 4)]),
        (lambda a, b: s(a.matmul(b), w32), [r(3, 4), r(4, 2)]),
        (lambda a: s(a.transpose(), w43), [r(3, 4)]),
        (lambda a: s(a.reshape(12), w12), [r(3, 4)]),
        (lambda a: s(a[1], w4), [r(3, 4)]),
        (lambda a: a[2, 1] * Tensor(np.array(1.7)), [r(3, 4)]),
        (lambda a: s(a[0:2], w34[:2]), [r(3, 4)]),
        (lambda a: a.sum() * Tensor(np.array(0.9)), [r(3, 4)]),
        (lambda a: s(a.sum(axis=0), w4), [r(3, 4)]),
        (lambda a: s(a.sum(axis=1, keepdims=True), w3.reshape(3, 1)), [r(3, 4)]),
        (lambda a: s(a.mean(axis=1), w3), [r(3, 4)]),
        (lambda a: s(segment_max(rows(a, repeat_row0) + Tensor(tie_col0), ranges), w12), [r(3, 4)]),
        (lambda a, b: s(concat([a, b], axis=0), w64), [r(2, 4), r(4, 4)]),
        (lambda a: s(rows(a, np.array([0, 2, 2])), w34), [r(4, 4)]),
        (
            lambda x, w1, w2: (rows(x, np.array([0, 1, 1])).matmul(w1).tanh().matmul(w2))
            .softmax(axis=-1)[0, 1]
            .log()
            * Tensor(np.array(-1.0)),
            [r(3, 4), r(4, 5), r(5, 2)],
        ),
        (lambda a: s(a[np.array([0, 2, 0])], w34), [r(3, 4)]),
        (
            lambda a: s(scatter(np.eye(3), [[0, 1, 0], [1, 2, 2]], [[1, 2, 2], [0, 1, 0]], a), w33),
            [r(3)],
        ),
        (
            lambda x, *w: s(gru_sequence([x], np.arange(12).reshape(4, 3), gru_mask, w), w32),
            [r(12, 2)] + [r(*shape) for shape in [(2, 2), (2, 2), (2,)] * 3],
        ),
        # segment sums over runs of 1, 3 and 2 rows, scaled row by row, and
        # over a vector
        (lambda a, b: s(segment_sum(scale_rows(a, b), np.array([0, 1, 4])), w34), [r(6, 4), r(6)]),
        (lambda a: s(segment_sum(a, np.array([0, 2])), w4[:2]), [r(3)]),
        # a product taken over spans of one and two rows
        (lambda a, b: s(by_method(a, b, [(0, 1), (1, 3)]), w32), [r(3, 4), r(4, 2)]),
    ]


def _check_case(build, arrays, tol=1e-4):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for which, base in enumerate(arrays):
        def f(x, which=which):
            work = [a.copy() for a in arrays]
            work[which] = x.reshape(arrays[which].shape)
            return float(build(*[Tensor(w) for w in work]).data)

        numeric = finite_diff(f, base.copy().reshape(-1)).reshape(base.shape)
        assert rel_err(tensors[which].grad, numeric) < tol


def test_gradients_every_op_twenty_seeds():
    start = time.monotonic()
    for seed in range(20):
        for build, arrays in _grad_cases(seed):
            _check_case(build, arrays)
    assert time.monotonic() - start < 30.0


def test_gradient_end_to_end_detection_loss():
    start = time.monotonic()
    sources = [
        ("v0", "int f(int a) { int b = read_input(a); copy_buffer(b, a); return b; }", "V"),
        ("n0", "int g(int a) { int b = a + 1; if (b > 0) { b = b - 1; } return b; }", "NV"),
    ]
    batch = [(mid, pdg_from_source(src)) for mid, src, _ in sources]
    labels = {mid: lab for mid, _, lab in sources}
    vocab = build_vocabulary([extract_method_features(p) for _, p in batch])
    cfg = EncoderConfig(embed_dim=4, gru_hidden=4, stmt_dim=6)
    for seed in (0, 1):
        model = new_model(vocab, cfg, seed=seed)
        model.store.zero_grad()
        loss = _batch_loss(model, batch, labels)
        loss.backward()
        analytic = {name: t.grad.copy() for name, t in model.store.items()}

        coord_rng = np.random.default_rng(seed)
        eps = 1e-6
        for name, t in model.store.items():
            flat = t.data.reshape(-1)
            picks = coord_rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for idx in picks:
                old = flat[idx]
                flat[idx] = old + eps
                hi = float(_batch_loss(model, batch, labels).data)
                flat[idx] = old - eps
                lo = float(_batch_loss(model, batch, labels).data)
                flat[idx] = old
                numeric = (hi - lo) / (2 * eps)
                got = analytic[name].reshape(-1)[idx]
                close = abs(got - numeric) < 1e-8 or rel_err(got, numeric) < 1e-4
                assert close, (name, idx, got, numeric)
    assert time.monotonic() - start < 30.0


# --- 2. ranking-metric oracles -----------------------------------------------

BASELINE_TOP10 = [0, 0, 0, 0, 0, 0, 1, 0, 1, 1]
IMPROVED_TOP10 = [1, 0, 1, 1, 1, 0, 1, 1, 0, 0]


def test_published_ranking_values():
    assert abs(map_at_k(BASELINE_TOP10, 10) - 0.22) < 0.005
    assert abs(map_at_k(IMPROVED_TOP10, 10) - 0.78) < 0.005
    assert fr_at_k(BASELINE_TOP10, 10) == 7
    assert fr_at_k(IMPROVED_TOP10, 10) == 1
    assert abs(ar_at_k(BASELINE_TOP10, 10) - 8.7) < 0.05
    assert abs(ar_at_k(IMPROVED_TOP10, 10) - 4.7) < 0.05


def test_ndcg_matches_literal_formula_on_500_lists():
    rng = Rng(424242)
    for _ in range(500):
        n = rng.randint(1, 20)
        rel = [rng.randint(0, 1) for _ in range(n)]
        k = rng.randint(1, n)
        assert abs(ndcg_at_k(rel, k) - literal_ndcg(rel, k)) < 1e-9


# --- 3. dependence-analysis oracle ---------------------------------------------


@lru_cache(maxsize=None)
def _dependence_blob(run: int) -> bytes:
    rng = Rng(77000 + 0 * run)  # same seed both runs: outputs must coincide
    reports = []
    accepted = 0
    while accepted < 200:
        src = random_source(rng.fork(str(rng.randint(0, 10**9))))
        method = parse_method(src)
        if len(method.stmts) > 10:
            continue
        accepted += 1
        cfg = build_cfg(method)
        assert control_dependences(cfg) == brute_control_deps(cfg), src
        assert data_dependences(cfg, method.stmts) == brute_data_deps(cfg, method.stmts), src
        reports.append(pdg_to_dict(pdg_from_source(src)))
    return dump_json(reports, indent=None).encode()


def test_dependences_match_brute_force_on_200_cfgs():
    start = time.monotonic()
    blob = _dependence_blob(1)
    assert len(blob) > 0
    assert time.monotonic() - start < 60.0


def test_golden_pdg_reproduced_byte_for_byte():
    src = (FIXTURES / "device_xcmd.c").read_text()
    assert pdg_to_json(pdg_from_source(src)) == (FIXTURES / "device_xcmd.pdg.json").read_text()


# --- 4. explainer fidelity ------------------------------------------------------

_FIDELITY_SOURCES = [
    "int f0(int a) { int b = a + 1; int c = b * 2; return c; }",
    "int f1(int n) { int s = 0; if (n > 0) { s = n; } return s; }",
    "int f2(int x, int y) { int z = x + y; if (z > 10) { z = z - y; } return z; }",
    "int f3(int len, int cap) { int dst = alloc_buffer(cap); copy_buffer(dst, len); return dst; }",
    "int f4(int k) { int t = k; while (t > 0) { t = t - 1; } return t; }",
    "int f5(int a, int b) { int m = a; if (a < b) { m = b; } log_event(m); return m; }",
    "int f6(int p) { int q = read_input(p); int r = q + p; sink(r); return r; }",
    "int f7(int u) { int v = u * u; int w = v + u; return w; }",
    "int f8(int idx, int lim) { int tab = make_table(lim); store_slot(tab, idx); return tab; }",
    "int f9(int amt) { int buf = alloc_buffer(amt); read_bytes(buf, amt); return buf; }",
]

_FIDELITY_TRAIN = [
    (
        f"r{i}",
        f"int reader_{i}(int amount) {{ int buf = alloc_buffer(amount); "
        f"if (!check_bounds(amount, {64 + i})) {{ return 0 - 1; }} "
        f"copy_buffer(buf, amount); return buf; }}",
        "NV",
    )
    for i in range(4)
] + [
    (
        f"w{i}",
        f"int writer_{i}(int amount) {{ int buf = alloc_buffer(amount); "
        f"copy_buffer(buf, amount); return buf; }}",
        "V",
    )
    for i in range(4)
]


@lru_cache(maxsize=None)
def _fidelity_result(run: int):
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    pdgs = [pdg_from_source(s) for s in _FIDELITY_SOURCES]
    assert all(len(p.edges) <= 6 for p in pdgs)
    train_pdgs = [(mid, pdg_from_source(src)) for mid, src, _ in _FIDELITY_TRAIN]
    labels = {mid: lab for mid, _, lab in _FIDELITY_TRAIN}
    vocab = build_vocabulary(
        [extract_method_features(p) for _, p in train_pdgs]
        + [extract_method_features(p) for p in pdgs]
    )
    rows_out = []
    for seed in range(5):
        model = new_model(vocab, cfg, seed=seed)
        opt = Adam(model.store, lr=5e-3)
        for _ in range(18):
            model.store.zero_grad()
            loss = _batch_loss(model, train_pdgs, labels)
            loss.backward()
            opt.step()
        for pdg in pdgs:
            (ranked,) = rank_methods(score_methods(model, [("m", pdg)]), model.threshold)
            decision = ranked.decision
            feats = statement_matrix(pdg, model)
            mask = learn_edge_mask(pdg, model, decision, feats=feats)
            full = hard_subset_score(pdg, model, tuple(range(len(pdg.edges))), feats)
            vals = mask.values()
            order = sorted(range(len(pdg.edges)), key=lambda pos: (-vals[pos], pos))
            kept = tuple(sorted(order[:3]))
            learned_gap = abs(full - hard_subset_score(pdg, model, kept, feats))
            _, brute_gap = brute_force_minimal_subgraph(pdg, model, 3)
            rows_out.append(
                {
                    "model_seed": seed,
                    "method": pdg.method,
                    "learned_gap": learned_gap,
                    "brute_gap": brute_gap,
                    "within": bool(learned_gap <= brute_gap + 0.05),
                }
            )
    return dump_json(rows_out, indent=None).encode(), rows_out


def test_explainer_fidelity_on_50_fixtures():
    start = time.monotonic()
    _, rows_out = _fidelity_result(1)
    assert len(rows_out) == 50
    passed = sum(1 for row in rows_out if row["within"])
    assert passed >= 40  # at least 80%
    assert time.monotonic() - start < 120.0


# --- 5. end-to-end planted-pattern run ------------------------------------------


@lru_cache(maxsize=None)
def _end_to_end_result(run: int):
    entries = planted_entries(500, seed=11)
    parts = split(entries, SplitSpec(fractions=(0.8, 0.1, 0.1), seed=11, real_ratio=1.0))
    labels = {e.id: e.label for e in entries}
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    model, _log = train(
        [(e.id, e.pdg) for e in parts["train"]],
        [(e.id, e.pdg) for e in parts["tune"]],
        labels,
        cfg,
        TrainConfig(epochs=50, lr=1e-3, batch_size=8, patience=5, seed=11),
    )
    passes = list(forward_methods(model, [(e.id, e.pdg) for e in parts["test"]]))
    scored = [(m, s) for (m, _), s, _ in passes]
    pos = [s for m, s in scored if labels[m] == "V"]
    neg = [s for m, s in scored if labels[m] == "NV"]
    test_auc = auc(pos, neg)

    by_id = {e.id: e for e in entries}
    detected = [m for m, s in scored if labels[m] == "V" and s >= model.threshold]
    rankings, truths = [], {}
    feats = {m: f for (m, _), _, f in passes}
    for mid in detected:
        entry = by_id[mid]
        mask = learn_edge_mask(entry.pdg, model, "V", feats=feats[mid])
        rankings.append((mid, extract_subgraph(entry.pdg, mask, 5).statement_ranking))
        truths[mid] = fix_truth(entry)
    accuracy = interp_accuracy(rankings, truths, num_nodes=5)

    ranked = rank_methods(scored, model.threshold)
    report = {
        "test_auc": test_auc,
        "interpretation_accuracy": accuracy,
        "detected_vulnerable": sorted(detected),
        "ranking": [detection_row(r) for r in ranked],
        "explanations": [
            {"method": mid, "statements": list(ranking)}
            for mid, ranking in rankings
        ],
    }
    return dump_json(report, indent=None).encode(), test_auc, accuracy, len(detected)


def test_end_to_end_planted_corpus():
    start = time.monotonic()
    _, test_auc, accuracy, detected = _end_to_end_result(1)
    assert test_auc >= 0.90
    assert detected > 0
    assert accuracy >= 0.70
    assert time.monotonic() - start < 600.0


# --- 6. pattern mining -----------------------------------------------------------

_MOTIF = AbstractGraph(
    nodes=[
        (0, "int VAR = read_input(VAR);"),
        (1, "if (size_ok(VAR))"),
        (2, "copy_bytes(VAR, VAR);"),
    ],
    edges=[(0, 1, "data"), (0, 2, "data"), (1, 2, "control")],
)

_LABEL_POOL = [
    "int VAR = source(VAR);",
    "if (VAR > INTLITERAL)",
    "sink(VAR);",
    "VAR = VAR + INTLITERAL;",
    "return VAR;",
    "log_event(STRINGLITERAL);",
]


def _pattern_corpus():
    rng = Rng(9090)
    graphs = []
    for gi in range(10):
        nodes, edges = [], []
        if gi in (0, 3, 5, 8):
            nodes.extend(_MOTIF.nodes)
            edges.extend(_MOTIF.edges)
        base = len(nodes)
        for j in range(rng.randint(3, 5)):
            nodes.append((base + j, rng.choice(_LABEL_POOL)))
        for _ in range(rng.randint(2, 4)):
            a = rng.randint(0, len(nodes) - 1)
            b = rng.randint(0, len(nodes) - 1)
            if a != b:
                kind = rng.choice(["data", "control"])
                if (a, b, kind) not in edges:
                    edges.append((a, b, kind))
        graphs.append(AbstractGraph(nodes=nodes, edges=edges))
    return graphs


@lru_cache(maxsize=None)
def _pattern_blob(run: int) -> bytes:
    graphs = _pattern_corpus()
    payload = {}
    for support in (2, 3, 4, 5):
        mined = mine_patterns(graphs, min_support=support, size_range=(3, 3))
        payload[str(support)] = [pattern_to_dict(p) for p in mined]
    payload["table"] = pattern_count_table(graphs, supports=[2, 3, 4, 5], sizes=[2, 3, 4, 5])
    return dump_json(payload, indent=None).encode()


def test_planted_motif_recovered_across_thresholds():
    graphs = _pattern_corpus()
    for support in (2, 3, 4):
        mined = mine_patterns(graphs, min_support=support, size_range=(3, 3))
        hits = [
            p
            for p in mined
            if graphs_isomorphic(p.graph.nodes, p.graph.edges, _MOTIF.nodes, _MOTIF.edges)
        ]
        assert len(hits) == 1, f"min_support={support}"
        assert hits[0].support == 4
    absent = mine_patterns(graphs, min_support=5, size_range=(3, 3))
    assert not any(
        graphs_isomorphic(p.graph.nodes, p.graph.edges, _MOTIF.nodes, _MOTIF.edges)
        for p in absent
    )


def test_all_mined_patterns_pass_embedding_verifier():
    graphs = _pattern_corpus()
    for support in (2, 3, 4):
        for pattern in mine_patterns(graphs, min_support=support, size_range=(1, 4)):
            embedded = sum(
                1
                for g in graphs
                if find_embedding(pattern.graph.nodes, pattern.graph.edges, g.nodes, g.edges)
                is not None
            )
            assert embedded == pattern.support
            assert embedded >= support


def test_pattern_counts_antitone_in_support():
    table = pattern_count_table(
        _pattern_corpus(), supports=[2, 3, 4, 5], sizes=[2, 3, 4, 5]
    )
    for row in table["counts"]:
        assert row == sorted(row, reverse=True)


# --- 7. determinism ---------------------------------------------------------------


def test_reports_byte_identical_across_reruns():
    assert _dependence_blob(1) == _dependence_blob(2)
    assert _fidelity_result(1)[0] == _fidelity_result(2)[0]
    assert _end_to_end_result(1)[0] == _end_to_end_result(2)[0]
    assert _pattern_blob(1) == _pattern_blob(2)
