"""Program dependence graph assembly and serialization.

A Pdg is the per-method unit every later stage consumes: statement nodes
(with kind, canonical text, defs/uses, AST) plus data and control dependence
edges. Edge order is canonical: sorted by (src, dst, kind, var). ENTRY
control edges are dropped; only predicate statements act as control sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EmptyMethod, SchemaError
from ..util import dot_escape, dump_json
from .cfg import build_cfg
from .deps import control_dependences, data_dependences
from .parser import NESTING_BOUND, MethodAst, StmtNode, _declared_name, parse_method
from .render import render_statement

PRED_KINDS = frozenset({"if-pred", "while-pred", "for-pred"})
STMT_KINDS = PRED_KINDS | {"decl", "assign", "call", "return", "goto", "label", "block-enter"}
EDGE_KINDS = ("data", "control")


@dataclass(frozen=True)
class PdgEdge:
    src: int
    dst: int
    kind: str  # "data" | "control"
    var: str | None = None

    def sort_key(self):
        return (self.src, self.dst, self.kind, self.var or "")


@dataclass
class Pdg:
    method: str
    nodes: list[StmtNode]
    edges: list[PdgEdge]
    # variable -> declared type, including parameters when built from source;
    # not serialized (decl statements carry enough to rebuild the rest)
    decl_types: dict = field(default_factory=dict)

    def neighbors(self, index: int, kind: str | None = None) -> list[int]:
        """Statements connected to `index` by an edge of `kind`, either
        direction, sorted ascending, deduplicated."""
        out: set[int] = set()
        for e in self.edges:
            if kind is not None and e.kind != kind:
                continue
            if e.src == index:
                out.add(e.dst)
            elif e.dst == index:
                out.add(e.src)
        out.discard(index)
        return sorted(out)


def build_pdg(method: MethodAst) -> Pdg:
    cfg = build_cfg(method)
    edges: set[PdgEdge] = set()
    for p, s in control_dependences(cfg):
        if p == cfg.entry:
            continue
        if method.stmts[p].kind not in PRED_KINDS:
            # only possible via synthetic repair edges on degenerate programs
            continue
        if p != s:
            edges.add(PdgEdge(p, s, "control", None))
    for d, u, v in data_dependences(cfg, method.stmts):
        if d != u:
            edges.add(PdgEdge(d, u, "data", v))
    return Pdg(
        method.name,
        list(method.stmts),
        sorted(edges, key=PdgEdge.sort_key),
        decl_types=dict(method.decl_types),
    )


def pdg_from_source(source: str) -> Pdg:
    return build_pdg(parse_method(source))


def pdg_to_dict(pdg: Pdg) -> dict:
    return {
        "method": pdg.method,
        "nodes": [
            {
                "index": s.index,
                "kind": s.kind,
                "text": s.text,
                "defs": list(s.defs),
                "uses": list(s.uses),
                "ast": s.ast,
            }
            for s in pdg.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "kind": e.kind, "var": e.var} for e in pdg.edges
        ],
    }


def pdg_to_json(pdg: Pdg) -> str:
    return dump_json(pdg_to_dict(pdg), indent=2)


def _is_tree(ast) -> bool:
    """Whether `ast` is a [label, [children...]] tree at most NESTING_BOUND
    nodes high, checked without recursion."""
    stack = [(ast, 1)]
    while stack:
        node, height = stack.pop()
        if not (
            type(node) is list and len(node) == 2 and type(node[0]) is str
            and type(node[1]) is list and height <= NESTING_BOUND
        ):
            return False
        stack.extend((child, height + 1) for child in node[1])
    return True


def _is_names(v) -> bool:
    """Whether `v` is a list of strings, as a node's defs and uses are."""
    return isinstance(v, list) and all(isinstance(name, str) for name in v)


def pdg_from_dict(data: dict) -> Pdg:
    """Rebuild a serialized PDG. It must have a statement, as a parsed
    method must. Node indices must be exactly 0..n-1, so a statement's index
    is its position; each node must be a known statement kind whose ast is a
    [label, [children...]] tree within the nesting bound and has the parts
    its kind reads (a decl its type and declarator, an assign both sides),
    whose text is a string and whose defs and uses are lists of strings; and
    every edge must join two of those nodes with kind data or control, its
    var a string or null."""
    if not data["nodes"]:
        raise EmptyMethod(f"pdg of method {data['method']!r} has no statements")
    for n in data["nodes"]:
        if not isinstance(n["text"], str):
            raise SchemaError(f"pdg node {n['index']!r} has a text that is not a string")
        for names in ("defs", "uses"):
            if not _is_names(n[names]):
                raise SchemaError(f"pdg node {n['index']!r} has {names} that are not a list of strings")
    for e in data["edges"]:
        if not isinstance(e.get("var"), (str, type(None))):
            raise SchemaError(f"pdg edge {e['src']!r}->{e['dst']!r} has a var that is not a string or null")
    if not all(type(n["index"]) is int for n in data["nodes"]):  # before the sort compares them
        raise SchemaError(f"pdg node indices must be 0..{len(data['nodes']) - 1}")
    nodes = [
        StmtNode(
            index=n["index"],
            kind=n["kind"],
            text=n["text"],
            defs=tuple(n["defs"]),
            uses=tuple(n["uses"]),
            ast=n["ast"],
            line=n.get("line", -1),
        )
        for n in sorted(data["nodes"], key=lambda n: n["index"])
    ]
    edges = sorted(
        (PdgEdge(e["src"], e["dst"], e["kind"], e.get("var")) for e in data["edges"]),
        key=PdgEdge.sort_key,
    )
    n = len(nodes)

    def is_node(v) -> bool:
        return type(v) is int and 0 <= v < n

    if not all(is_node(s.index) and s.index == i for i, s in enumerate(nodes)):
        raise SchemaError(f"pdg node indices must be 0..{n - 1}")
    for s in nodes:
        if s.kind not in STMT_KINDS or not _is_tree(s.ast):
            raise SchemaError(
                f"pdg node {s.index} ({s.kind}) is not a statement kind with an ast tree"
                f" of [label, [children...]] at most {NESTING_BOUND} high"
            )
        try:  # rendering and reading a declared type index the parts a kind has
            render_statement(s.kind, s.ast)
            recover_decl_types([s])
        except (IndexError, KeyError, ValueError) as exc:
            raise SchemaError(
                f"pdg node {s.index} ({s.kind}) has an ast that does not fit its kind: {exc!r}"
            ) from exc
    for e in edges:
        if e.kind not in EDGE_KINDS or not (is_node(e.src) and is_node(e.dst)):
            raise SchemaError(
                f"pdg edge {e.src}->{e.dst} ({e.kind}) is not a data or control edge of its nodes"
            )
    pdg = Pdg(data["method"], nodes, edges)
    pdg.decl_types = recover_decl_types(nodes)
    return pdg


def recover_decl_types(nodes: list[StmtNode]) -> dict[str, str]:
    """Variable static types readable off decl statements. Methods imported
    as bare PDGs lose parameter types; those variables fall back to UNK."""
    types: dict[str, str] = {}
    for node in nodes:
        if node.kind != "decl":
            continue
        types.setdefault(_declared_name(node.ast[1][1]), node.ast[1][0][0][5:])
    return types


def pdg_to_dot(pdg: Pdg) -> str:
    lines = [f'digraph "{dot_escape(pdg.method)}" {{', "  node [shape=box];"]
    for s in pdg.nodes:
        lines.append(f'  n{s.index} [label="{s.index}: {dot_escape(s.text)}"];')
    for e in pdg.edges:
        if e.kind == "data":
            lines.append(f'  n{e.src} -> n{e.dst} [label="{dot_escape(e.var or "")}"];')
        else:
            lines.append(f"  n{e.src} -> n{e.dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
