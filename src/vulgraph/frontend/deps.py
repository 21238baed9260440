"""Dependence analyses over the CFG.

Control dependence uses the post-dominator criterion: (p, s) holds iff s
post-dominates some successor of p but does not post-dominate p itself. It is
read off the post-dominator tree, built with the Cooper-Harvey-Kennedy
algorithm, in time close to linear in the edges. A virtual ENTRY->EXIT edge
is added during the computation so statements that always execute become
dependent on ENTRY (the PDG later drops those edges).

Data dependence uses reaching definitions: (d, u, v) holds iff the definition
of v at d reaches the use of v at u along some CFG path with no intervening
redefinition. Definition sites are tracked as big-int bitsets. Self-loops
(a definition feeding the same statement around a cycle) are excluded to
match the dependence-graph contract.
"""

from __future__ import annotations

from .cfg import Cfg
from .parser import StmtNode


def _immediate_postdominators(
    succ: dict[int, list[int]], pred: dict[int, list[int]], exit_: int
) -> dict[int, int]:
    """Immediate post-dominator of every node that reaches `exit_` (EXIT
    maps to itself): Cooper, Harvey & Kennedy's iterative dominator
    algorithm run on the reverse graph, in reverse postorder from EXIT."""
    postorder: list[int] = []
    seen = {exit_}
    stack = [(exit_, iter(pred[exit_]))]
    while stack:
        v, todo = stack[-1]
        for w in todo:
            if w not in seen:
                seen.add(w)
                stack.append((w, iter(pred[w])))
                break
        else:
            stack.pop()
            postorder.append(v)
    number = {v: i for i, v in enumerate(postorder)}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while number[a] < number[b]:
                a = ipdom[a]
            while number[b] < number[a]:
                b = ipdom[b]
        return a

    ipdom = {exit_: exit_}
    changed = True
    while changed:
        changed = False
        for v in reversed(postorder[:-1]):
            new = None
            for s in succ[v]:
                if s in ipdom:
                    new = s if new is None else intersect(s, new)
            if ipdom.get(v) != new:
                ipdom[v] = new
                changed = True
    return ipdom


def control_dependences(cfg: Cfg) -> list[tuple[int, int]]:
    """Sorted (p, s) pairs; p may be cfg.entry. For each edge p -> u, the
    nodes on the post-dominator tree path from u up to ipdom(p), exclusive,
    depend on p (Ferrante, Ottenstein & Warren 1987); p itself is left out."""
    succ, pred = cfg.successors(), cfg.predecessors()
    entry, exit_ = cfg.entry, cfg.exit
    if exit_ not in succ[entry]:  # the virtual ENTRY->EXIT edge, on copies
        succ = {**succ, entry: [*succ[entry], exit_]}
        pred = {**pred, exit_: [*pred[exit_], entry]}
    ipdom = _immediate_postdominators(succ, pred, exit_)
    deps: set[tuple[int, int]] = set()
    for p, outs in succ.items():
        if p == exit_ or len(outs) < 2:
            continue
        for u in outs:
            while u != ipdom[p]:
                if u != p:
                    deps.add((p, u))
                u = ipdom[u]
    return sorted(deps)


def reaching_definitions(
    cfg: Cfg, stmts: list[StmtNode]
) -> tuple[list[tuple[int, str]], dict[int, int]]:
    """Definition sites and the reaching-in bitset per statement.

    Returns (def_sites, in_sets) where def_sites[i] = (stmt_index, var) and
    in_sets maps each statement to a big-int whose bit i means def_sites[i]
    reaches the top of the statement.
    """
    def_sites: list[tuple[int, str]] = []
    for s in stmts:
        for v in s.defs:
            def_sites.append((s.index, v))
    site_bit = {site: i for i, site in enumerate(def_sites)}
    var_sites: dict[str, int] = {}
    for (idx, v), i in site_bit.items():
        var_sites[v] = var_sites.get(v, 0) | (1 << i)

    gen = {s.index: 0 for s in stmts}
    kill = {s.index: 0 for s in stmts}
    for s in stmts:
        for v in s.defs:
            gen[s.index] |= 1 << site_bit[(s.index, v)]
            kill[s.index] |= var_sites[v]

    preds = cfg.predecessors()
    in_sets = {s.index: 0 for s in stmts}
    out_sets = {v: 0 for v in cfg.nodes}
    changed = True
    while changed:
        changed = False
        for s in stmts:
            i = s.index
            new_in = 0
            for p in preds[i]:
                new_in |= out_sets[p]
            new_out = gen[i] | (new_in & ~kill[i])
            if new_in != in_sets[i] or new_out != out_sets[i]:
                in_sets[i] = new_in
                out_sets[i] = new_out
                changed = True
    return def_sites, in_sets


def data_dependences(cfg: Cfg, stmts: list[StmtNode]) -> list[tuple[int, int, str]]:
    """Sorted (def_stmt, use_stmt, var) triples, self-loops excluded."""
    def_sites, in_sets = reaching_definitions(cfg, stmts)
    by_var: dict[str, list[tuple[int, int]]] = {}
    for bit, (d, v) in enumerate(def_sites):
        by_var.setdefault(v, []).append((bit, d))
    deps: set[tuple[int, int, str]] = set()
    for s in stmts:
        reached = in_sets[s.index]
        for v in s.uses:
            for bit, d in by_var.get(v, ()):
                if d != s.index and (reached >> bit) & 1:
                    deps.add((d, s.index, v))
    return sorted(deps)
