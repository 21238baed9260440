"""Control-flow graph construction.

Nodes are statement indices 0..n-1 plus synthetic ENTRY (= n) and EXIT
(= n+1). Edges carry a tag: seq, true, false, or jump (goto and return).
After structural construction two repairs enforce the graph contract: any
statement unreachable from ENTRY (dead code after return/goto) gains a
synthetic seq edge from ENTRY, and any statement that cannot reach EXIT
(non-terminating cycles) gains a synthetic seq edge to EXIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .parser import BlockItem, ForItem, IfItem, Leaf, MethodAst, WhileItem


@dataclass
class Cfg:
    n_stmts: int
    edges: list[tuple[int, int, str]]
    entry: int = field(init=False)
    exit: int = field(init=False)

    def __post_init__(self):
        self.entry = self.n_stmts
        self.exit = self.n_stmts + 1
        # each node's distinct successors and predecessors, in edge order
        self._succ: dict[int, list[int]] = {v: [] for v in self.nodes}
        self._pred: dict[int, list[int]] = {v: [] for v in self.nodes}
        for src, dst, _ in self.edges:
            self._link(src, dst)

    def _link(self, src: int, dst: int) -> None:
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._pred[dst].append(src)

    def add_edge(self, src: int, dst: int, tag: str) -> None:
        self.edges.append((src, dst, tag))
        self._link(src, dst)

    @property
    def nodes(self) -> list[int]:
        return list(range(self.n_stmts + 2))

    def successors(self) -> dict[int, list[int]]:
        """Distinct successors per node; shared, so callers copy to edit."""
        return self._succ

    def predecessors(self) -> dict[int, list[int]]:
        """Distinct predecessors per node; shared, so callers copy to edit."""
        return self._pred


def _extend_reach(seen: set[int], start: int, step: dict[int, list[int]]) -> set[int]:
    """Add `start` and every node reachable from it along `step` to `seen`.
    Nodes already in `seen` are taken as closed, so repeated calls cost
    O(edges) in total."""
    seen.add(start)
    stack = [start]
    while stack:
        v = stack.pop()
        for w in step[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _structural_edges(method: MethodAst) -> list[tuple[int, int, str]]:
    """Edges of the statement structure, before any repair."""
    n = len(method.stmts)
    entry, exit_ = n, n + 1
    edges: list[tuple[int, int, str]] = []
    seen_edges: set[tuple[int, int, str]] = set()

    def add(src: int, dst: int, tag: str) -> None:
        e = (src, dst, tag)
        if e not in seen_edges:
            seen_edges.add(e)
            edges.append(e)

    def connect(frontier: list[tuple[int, str]], target: int) -> None:
        for src, tag in frontier:
            add(src, target, tag)

    def walk(items: list, frontier: list[tuple[int, str]]) -> list[tuple[int, str]]:
        for item in items:
            frontier = walk_item(item, frontier)
        return frontier

    def walk_item(item, frontier: list[tuple[int, str]]) -> list[tuple[int, str]]:
        if isinstance(item, Leaf):
            s = item.stmt.index
            connect(frontier, s)
            if item.stmt.kind == "return":
                add(s, exit_, "jump")
                return []
            if item.stmt.kind == "goto":
                add(s, method.goto_targets[s], "jump")
                return []
            return [(s, "seq")]
        if isinstance(item, IfItem):
            p = item.pred.index
            connect(frontier, p)
            then_out = walk(item.then, [(p, "true")])
            else_out = walk(item.orelse, [(p, "false")]) if item.orelse else [(p, "false")]
            return then_out + else_out
        if isinstance(item, WhileItem):
            p = item.pred.index
            connect(frontier, p)
            body_out = walk(item.body, [(p, "true")])
            connect(body_out, p)
            return [(p, "false")]
        if isinstance(item, ForItem):
            if item.init is not None:
                connect(frontier, item.init.index)
                frontier = [(item.init.index, "seq")]
            p = item.pred.index
            connect(frontier, p)
            body_out = walk(item.body, [(p, "true")])
            if item.step is not None:
                connect(body_out, item.step.index)
                add(item.step.index, p, "seq")
            else:
                connect(body_out, p)
            return [(p, "false")]
        if isinstance(item, BlockItem):
            m = item.marker.index
            connect(frontier, m)
            return walk(item.body, [(m, "seq")])
        raise TypeError(f"unknown body item {item!r}")  # pragma: no cover

    tail = walk(method.body, [(entry, "seq")])
    connect(tail, exit_)

    return edges


def _repair_edges(graph: Cfg) -> list[tuple[int, int, str]]:
    """Add to the structural graph, in place, the synthetic seq edges that
    make EXIT reachable from every statement and every statement reachable
    from ENTRY; returns them in the order they are added. Each search
    extends one reach set, so the repair is linear in the edges. No search
    passes through ENTRY or EXIT, so the added edges never change what a
    later search reaches."""
    n, entry, exit_ = graph.n_stmts, graph.entry, graph.exit
    start = len(graph.edges)
    # a repair edge to EXIT makes EXIT reachable from all that reach its source
    reaches_exit = _extend_reach(set(), exit_, graph.predecessors())
    for node in range(n):
        if node not in reaches_exit:
            graph.add_edge(node, exit_, "seq")
            _extend_reach(reaches_exit, node, graph.predecessors())
    reached = _extend_reach(set(), entry, graph.successors())
    for node in range(n):
        if node not in reached:
            graph.add_edge(entry, node, "seq")
            _extend_reach(reached, node, graph.successors())
    return graph.edges[start:]


def build_cfg(method: MethodAst) -> Cfg:
    graph = Cfg(len(method.stmts), _structural_edges(method))
    _repair_edges(graph)
    return graph
