"""Frequent-pattern mining over abstracted interpretation sub-graphs.

Sub-graphs are first abstracted (identifiers to VAR, literals to typed
markers, jump targets to LABEL — callee and type names survive), then
connected edge subsets are enumerated per graph, deduplicated by a canonical
labeling, and counted once per source graph. A pattern is a canonical form
whose support reaches the mining threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .config import MIN_SUPPORT
from .frontend import Pdg
from .frontend.render import render_statement
from .util import dot_escape

MAX_PATTERN_EDGES = 8


@dataclass
class AbstractGraph:
    nodes: list  # (index, abstract label)
    edges: list  # (src, dst, kind)


@dataclass
class Pattern:
    graph: AbstractGraph  # canonical node order, indices 0..n-1
    support: int
    size: int  # edge count
    code: str  # canonical form; total order for reporting


def abstract_subgraph(sub, pdg: Pdg) -> AbstractGraph:
    """Node labels re-rendered from statement ASTs with identifier/literal
    abstraction; edge mask values and variable names are dropped."""
    nodes = [
        (i, render_statement(pdg.nodes[i].kind, pdg.nodes[i].ast, abstract=True))
        for i in sub.nodes
    ]
    seen = set()
    edges = []
    for src, dst, kind, _var, _mask in sub.edges:
        key = (src, dst, kind)
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return AbstractGraph(nodes=nodes, edges=sorted(edges))


def _refined_colors(labels: dict, edges) -> dict:
    """Iterated neighborhood refinement; nodes in the same final class are
    indistinguishable by label and (directed, typed) neighborhood structure."""
    colors = {v: (labels[v], 0) for v in labels}
    for _ in range(max(len(labels), 1)):
        sigs = {}
        for v in labels:
            outs = tuple(sorted((kind, colors[d]) for s, d, kind in edges if s == v))
            ins = tuple(sorted((kind, colors[s]) for s, d, kind in edges if d == v))
            sigs[v] = (colors[v], outs, ins)
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs.values())))}
        nxt = {v: (labels[v], rank[sigs[v]]) for v in labels}
        if nxt == colors:
            break
        colors = nxt
    return colors


def _canonical_form(labels: dict, edges) -> tuple[str, list, list]:
    """Minimal string encoding over all node orderings consistent with the
    refinement classes; returns (code, ordered labels, renumbered edges)."""
    colors = _refined_colors(labels, edges)
    classes: dict = {}
    for v in sorted(labels):
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]

    best = None
    for arrangement in product(*(permutations(cls) for cls in ordered_classes)):
        order = [v for cls in arrangement for v in cls]
        pos = {v: i for i, v in enumerate(order)}
        edge_part = ";".join(
            f"{s},{d},{k}" for s, d, k in sorted((pos[a], pos[b], k) for a, b, k in edges)
        )
        if best is None or edge_part < best[0]:
            best = (edge_part, order)
    edge_part, order = best
    ordered_labels = [labels[v] for v in order]
    code = "\x1f".join(ordered_labels) + "\x1e" + edge_part
    pos = {v: i for i, v in enumerate(order)}
    canon_edges = sorted((pos[a], pos[b], k) for a, b, k in edges)
    return code, ordered_labels, canon_edges


def _connected(edges) -> bool:
    nodes = {n for s, d, _ in edges for n in (s, d)}
    if not nodes:
        return False
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, d, _ in edges:
        parent[find(s)] = find(d)
    roots = {find(v) for v in nodes}
    return len(roots) == 1


def _graph_fragment_codes(graph: AbstractGraph, lo: int, hi: int) -> dict:
    """Canonical codes of every connected edge subset with lo..hi edges,
    mapped to one representative form each."""
    labels = dict(graph.nodes)
    edges = sorted(set(graph.edges))
    found: dict = {}
    for k in range(lo, min(hi, len(edges)) + 1):
        for subset in combinations(edges, k):
            if not _connected(subset):
                continue
            involved = {n for s, d, _ in subset for n in (s, d)}
            code, ordered_labels, canon_edges = _canonical_form(
                {v: labels[v] for v in involved}, list(subset)
            )
            if code not in found:
                found[code] = (ordered_labels, canon_edges)
    return found


def mine_patterns(graphs, min_support: int, size_range=(1, MAX_PATTERN_EDGES)) -> list[Pattern]:
    """Frequent connected sub-graphs, counted at most once per source graph,
    ordered by (support desc, canonical form asc)."""
    lo, hi = size_range
    if min_support < MIN_SUPPORT:
        raise ValueError(f"min_support must be at least {MIN_SUPPORT}")
    if not (1 <= lo <= hi <= MAX_PATTERN_EDGES):
        raise ValueError(f"size_range must satisfy 1 <= LO <= HI <= {MAX_PATTERN_EDGES}, got LO={lo}, HI={hi}")
    support: dict = {}
    forms: dict = {}
    for graph in graphs:
        for code, form in _graph_fragment_codes(graph, lo, hi).items():
            support[code] = support.get(code, 0) + 1
            if code not in forms:
                forms[code] = form
    out = []
    for code in sorted(support):
        if support[code] < min_support:
            continue
        ordered_labels, canon_edges = forms[code]
        graph = AbstractGraph(
            nodes=[(i, label) for i, label in enumerate(ordered_labels)],
            edges=list(canon_edges),
        )
        out.append(Pattern(graph=graph, support=support[code], size=len(canon_edges), code=code))
    out.sort(key=lambda p: (-p.support, p.code))
    return out


def pattern_count_table(graphs, supports, sizes) -> dict:
    """Distinct-pattern counts per (edge-count, support-threshold) cell."""
    if any(m < MIN_SUPPORT for m in supports):
        raise ValueError(f"support thresholds must be at least {MIN_SUPPORT}")
    if sizes and graphs:
        mined = mine_patterns(graphs, MIN_SUPPORT, (min(sizes), max(sizes)))
    else:
        mined = []
    counts = [
        [sum(1 for p in mined if p.size == size and p.support >= m) for m in supports]
        for size in sizes
    ]
    return {"sizes": list(sizes), "supports": list(supports), "counts": counts}


def pattern_to_dict(p: Pattern) -> dict:
    return {
        "support": p.support,
        "size": p.size,
        "nodes": [{"index": i, "label": label} for i, label in p.graph.nodes],
        "edges": [{"src": s, "dst": d, "kind": k} for s, d, k in p.graph.edges],
    }


def pattern_to_dot(p: Pattern) -> str:
    lines = [f'digraph "pattern_support_{p.support}" {{', "  node [shape=box];"]
    for i, label in p.graph.nodes:
        lines.append(f'  n{i} [label="{dot_escape(label)}"];')
    for s, d, k in p.graph.edges:
        style = "" if k == "data" else " [style=dashed]"
        lines.append(f"  n{s} -> n{d}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
