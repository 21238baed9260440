import pytest

from vulgraph.metrics import InterpretationSubgraph
from vulgraph.frontend import pdg_from_source
from vulgraph.patterns import (
    AbstractGraph,
    abstract_subgraph,
    mine_patterns,
    pattern_count_table,
    pattern_to_dict,
    pattern_to_dot,
)
from vulgraph.rng import Rng

from oracles import brute_pattern_classes, canonical_code, find_embedding, graphs_isomorphic


ABSTRACTION_SRC = """
int f(int a, int b) {
    a = b + 1;
    if (is_link("/etc/x")) {
        exit(1);
    }
    return a;
}
"""


def _sub(pdg, node_indices, edge_tuples=()):
    return InterpretationSubgraph(
        method=pdg.method,
        edges=list(edge_tuples),
        nodes=tuple(node_indices),
        statement_ranking=tuple(node_indices),
    )


def test_abstraction_rewrites_identifiers_and_literals():
    pdg = pdg_from_source(ABSTRACTION_SRC)
    by_text = {node.text: node.index for node in pdg.nodes}
    picked = [
        by_text["a = b + 1;"],
        by_text['if (is_link("/etc/x"))'],
        by_text["exit(1);"],
    ]
    out = abstract_subgraph(_sub(pdg, picked), pdg)
    labels = dict(out.nodes)
    assert labels[picked[0]] == "VAR = VAR + INTLITERAL;"
    assert labels[picked[1]] == "if (is_link(STRINGLITERAL))"
    assert labels[picked[2]] == "exit(INTLITERAL);"
    # no concrete identifier or literal survives
    joined = " ".join(labels.values())
    for concrete in ("a", "b", "1;", "/etc/x"):
        assert concrete not in joined.replace("VAR", "").replace("INTLITERAL", "")


def test_abstraction_drops_mask_values_and_merges_variable_edges():
    pdg = pdg_from_source(ABSTRACTION_SRC)
    idx = [node.index for node in pdg.nodes[:2]]
    raw_edges = [
        (idx[0], idx[1], "data", "a", 0.9),
        (idx[0], idx[1], "data", "b", 0.4),
        (idx[0], idx[1], "control", None, 0.7),
    ]
    out = abstract_subgraph(_sub(pdg, idx, raw_edges), pdg)
    assert out.edges == sorted([(idx[0], idx[1], "control"), (idx[0], idx[1], "data")])
    assert all(len(edge) == 3 for edge in out.edges)


def _chain(base, labels=("A", "B", "C")):
    ids = [base + i * 3 for i in range(len(labels))]
    nodes = list(zip(ids, labels))
    edges = [(ids[0], ids[1], "data"), (ids[1], ids[2], "control")]
    return AbstractGraph(nodes=nodes, edges=edges)


def test_identical_graphs_reach_full_support():
    graphs = [_chain(0), _chain(10), _chain(100)]
    mined = mine_patterns(graphs, min_support=3, size_range=(1, 8))
    assert [p.support for p in mined] == [3, 3, 3]
    assert sorted(p.size for p in mined) == [1, 1, 2]
    # threshold above the corpus size yields nothing
    assert mine_patterns(graphs, min_support=4) == []


def test_support_counts_once_per_graph():
    # two disjoint copies of the same edge inside one graph still count once
    g = AbstractGraph(
        nodes=[(0, "A"), (1, "B"), (2, "A"), (3, "B")],
        edges=[(0, 1, "data"), (2, 3, "data")],
    )
    mined = mine_patterns([g, _chain(0, ("A", "B", "Z"))], min_support=2, size_range=(1, 1))
    match = [p for p in mined if dict(p.graph.nodes).values() and p.size == 1]
    assert len(match) == 1
    assert match[0].support == 2


def test_validation_errors():
    g = _chain(0)
    with pytest.raises(ValueError):
        mine_patterns([g, g], min_support=1)
    with pytest.raises(ValueError):
        mine_patterns([g, g], min_support=2, size_range=(0, 3))
    with pytest.raises(ValueError):
        mine_patterns([g, g], min_support=2, size_range=(1, 9))
    with pytest.raises(ValueError):
        pattern_count_table([g, g], supports=[1, 2], sizes=[1])


def test_ordering_by_support_then_code():
    shared = AbstractGraph(nodes=[(0, "X"), (1, "Y")], edges=[(0, 1, "data")])
    extra = AbstractGraph(
        nodes=[(0, "X"), (1, "Y"), (2, "Q")],
        edges=[(0, 1, "data"), (1, 2, "data")],
    )
    mined = mine_patterns([extra, extra, shared], min_support=2, size_range=(1, 2))
    supports = [p.support for p in mined]
    assert supports == sorted(supports, reverse=True)
    for a, b in zip(mined, mined[1:]):
        if a.support == b.support:
            assert a.code < b.code
    assert mined[0].support == 3 and mined[0].size == 1


MOTIF = AbstractGraph(
    nodes=[
        (0, "int VAR = read_input(VAR);"),
        (1, "if (size_ok(VAR))"),
        (2, "copy_bytes(VAR, VAR);"),
    ],
    edges=[(0, 1, "data"), (0, 2, "data"), (1, 2, "control")],
)

LABEL_POOL = [
    "int VAR = source(VAR);",
    "if (VAR > INTLITERAL)",
    "sink(VAR);",
    "VAR = VAR + INTLITERAL;",
    "return VAR;",
    "log_event(STRINGLITERAL);",
]


def _planted_corpus(seed=7, count=10, planted=(0, 2, 5, 7)):
    rng = Rng(seed)
    graphs = []
    for gi in range(count):
        nodes = []
        edges = []
        if gi in planted:
            nodes.extend(MOTIF.nodes)
            edges.extend(MOTIF.edges)
        base = len(nodes)
        for j in range(rng.randint(3, 5)):
            nodes.append((base + j, rng.choice(LABEL_POOL)))
        for _ in range(rng.randint(2, 4)):
            a = rng.randint(0, len(nodes) - 1)
            b = rng.randint(0, len(nodes) - 1)
            if a == b:
                continue
            kind = rng.choice(["data", "control"])
            if (a, b, kind) not in edges:
                edges.append((a, b, kind))
        graphs.append(AbstractGraph(nodes=nodes, edges=edges))
    return graphs


def test_planted_motif_recovered_and_supports_verified():
    graphs = _planted_corpus()
    mined = mine_patterns(graphs, min_support=4, size_range=(3, 3))
    hits = [
        p
        for p in mined
        if graphs_isomorphic(p.graph.nodes, p.graph.edges, MOTIF.nodes, MOTIF.edges)
    ]
    assert len(hits) == 1
    assert hits[0].support >= 4

    # every reported support equals the embedding count from the independent route
    for p in mined:
        embedded = sum(
            1
            for g in graphs
            if find_embedding(p.graph.nodes, p.graph.edges, g.nodes, g.edges) is not None
        )
        assert embedded == p.support


def test_mined_set_matches_brute_force_classes():
    graphs = _planted_corpus()
    mined = mine_patterns(graphs, min_support=4, size_range=(3, 3))
    brute = brute_pattern_classes(graphs, size=3, min_support=4)
    assert len(mined) == len(brute)
    for nodes, edges, support in brute:
        matches = [
            p
            for p in mined
            if graphs_isomorphic(p.graph.nodes, p.graph.edges, nodes, edges)
        ]
        assert len(matches) == 1
        assert matches[0].support == support


def test_input_order_and_node_relabeling_do_not_matter():
    graphs = _planted_corpus()
    relabeled = [
        AbstractGraph(
            nodes=[(i * 3 + 1, label) for i, label in g.nodes],
            edges=[(s * 3 + 1, d * 3 + 1, k) for s, d, k in g.edges],
        )
        for g in graphs
    ]
    a = mine_patterns(graphs, min_support=3, size_range=(1, 3))
    b = mine_patterns(list(reversed(relabeled)), min_support=3, size_range=(1, 3))
    assert [(p.code, p.support, p.size) for p in a] == [
        (p.code, p.support, p.size) for p in b
    ]


def test_raising_min_support_never_adds_patterns():
    graphs = _planted_corpus()
    previous = None
    for m in (2, 3, 4, 5):
        codes = {p.code for p in mine_patterns(graphs, min_support=m, size_range=(1, 3))}
        if previous is not None:
            assert codes <= previous
        previous = codes


def test_canonical_code_identifies_symmetric_relabelings():
    star = AbstractGraph(
        nodes=[(0, "hub"), (1, "leaf"), (2, "leaf")],
        edges=[(0, 1, "data"), (0, 2, "data")],
    )
    swapped = AbstractGraph(
        nodes=[(5, "leaf"), (9, "hub"), (7, "leaf")],
        edges=[(9, 7, "data"), (9, 5, "data")],
    )
    assert canonical_code(star) == canonical_code(swapped)

    cycle = AbstractGraph(
        nodes=[(0, "N"), (1, "N"), (2, "N")],
        edges=[(0, 1, "data"), (1, 2, "data"), (2, 0, "data")],
    )
    rotated = AbstractGraph(
        nodes=[(0, "N"), (1, "N"), (2, "N")],
        edges=[(1, 2, "data"), (2, 0, "data"), (0, 1, "data")],
    )
    assert canonical_code(cycle) == canonical_code(rotated)

    other_kind = AbstractGraph(
        nodes=[(0, "hub"), (1, "leaf"), (2, "leaf")],
        edges=[(0, 1, "data"), (0, 2, "control")],
    )
    assert canonical_code(star) != canonical_code(other_kind)


def test_parallel_kinds_between_same_endpoints():
    g = AbstractGraph(
        nodes=[(0, "P"), (1, "Q")],
        edges=[(0, 1, "data"), (0, 1, "control")],
    )
    mined = mine_patterns([g, g], min_support=2, size_range=(2, 2))
    assert len(mined) == 1
    assert sorted(k for _, _, k in mined[0].graph.edges) == ["control", "data"]


def test_count_table_cells_and_shape():
    g1 = _chain(0)
    g2 = _chain(0)
    g3 = AbstractGraph(nodes=[(0, "A"), (1, "B")], edges=[(0, 1, "data")])
    table = pattern_count_table([g1, g2, g3], supports=[2, 3], sizes=[1, 2])
    assert table["sizes"] == [1, 2]
    assert table["supports"] == [2, 3]
    # size 1: A->B holds in all three, B->C in two; size 2: the chain in two
    assert table["counts"] == [[2, 1], [1, 0]]
    for row in table["counts"]:
        assert row == sorted(row, reverse=True)


def test_count_table_empty_corpus_is_all_zero():
    table = pattern_count_table([], supports=[2, 3, 4], sizes=[1, 2, 3])
    assert table["counts"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_pattern_serialization_round_trip_fields():
    mined = mine_patterns([_chain(0), _chain(4)], min_support=2, size_range=(2, 2))
    assert len(mined) == 1
    d = pattern_to_dict(mined[0])
    assert d["support"] == 2 and d["size"] == 2
    assert [n["index"] for n in d["nodes"]] == list(range(len(d["nodes"])))
    assert all(set(e) == {"src", "dst", "kind"} for e in d["edges"])
    dot = pattern_to_dot(mined[0])
    assert dot.startswith("digraph") and dot.endswith("}\n")
    for _, label in mined[0].graph.nodes:
        assert label in dot
