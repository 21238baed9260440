"""Canonical statement rendering.

Statement text everywhere in the package (PDG node text, pattern labels) is
re-rendered from the AST rather than sliced from source, so spacing is
deterministic. With abstract=True, identifiers become VAR, literals become
*LITERAL markers and jump targets become LABEL, while method/type names are
preserved.
"""

from __future__ import annotations

import re

# Binary operators by ascending precedence, all left-associative. The parser
# groups operands by this table and the renderer parenthesizes by it, so the
# two cannot disagree.
BINARY_LEVEL = {
    op: level
    for level, ops in enumerate(
        [["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="], ["<", "<=", ">", ">="],
         ["<<", ">>"], ["+", "-"], ["*", "/", "%"]]
    )
    for op in ops
}
_UNARY_PREC = max(BINARY_LEVEL.values()) + 1
_POSTFIX_PREC = _UNARY_PREC + 1

# An operand of sizeof that the parser's declaration heuristic would read as
# a type, IDENT * IDENT not followed by a call: "sizeof((a * b))" keeps it
# an expression.
_READS_AS_TYPE = re.compile(r"[^\W\d]\w* \* [^\W\d]\w*(?![\w(])")


def _abstract_name(_name: str) -> str:
    return "VAR"


def render_expr(ast, abstract: bool = False) -> str:
    text, _ = _render(ast, abstract)
    return text


def _render(ast, abstract: bool) -> tuple[str, int]:
    """Return (text, precedence) so callers can parenthesize children."""
    label, children = ast[0], ast[1]
    if label.startswith("id:"):
        name = label[3:]
        return (_abstract_name(name) if abstract else name, _POSTFIX_PREC)
    if label.startswith("int:"):
        return ("INTLITERAL" if abstract else label[4:], _POSTFIX_PREC)
    if label.startswith("str:"):
        return ("STRINGLITERAL" if abstract else label[4:], _POSTFIX_PREC)
    if label.startswith("char:"):
        return ("CHARLITERAL" if abstract else label[5:], _POSTFIX_PREC)
    if label.startswith("type:"):
        return (label[5:], _POSTFIX_PREC)
    if label.startswith("bin:"):
        op = label[4:]
        prec = BINARY_LEVEL[op]
        lt, lp = _render(children[0], abstract)
        rt, rp = _render(children[1], abstract)
        if lp < prec:
            lt = f"({lt})"
        if rp <= prec:  # left-associative: parenthesize equal-prec right child
            rt = f"({rt})"
        return (f"{lt} {op} {rt}", prec)
    if label.startswith("un:"):
        op = label[3:]
        if op == "sizeof":
            inner, _ = _render(children[0], abstract)
            if _READS_AS_TYPE.match(inner):
                inner = f"({inner})"
            return (f"sizeof({inner})", _UNARY_PREC)  # "(sizeof(a))++", not "sizeof(a)++"
        it, ip = _render(children[0], abstract)
        if ip < _UNARY_PREC:
            it = f"({it})"
        elif op in ("+", "-", "&") and it[0] == op:  # "- -a": "--a" lexes as "--"
            it = f" {it}"
        return (f"{op}{it}", _UNARY_PREC)
    if label.startswith("post:"):
        it, ip = _render(children[0], abstract)
        if ip < _POSTFIX_PREC:
            it = f"({it})"
        return (f"{it}{label[5:]}", _POSTFIX_PREC)
    if label.startswith("call:"):
        args = ", ".join(_render(c, abstract)[0] for c in children)
        return (f"{label[5:]}({args})", _POSTFIX_PREC)
    if label.startswith("arrow:") or label.startswith("dot:"):
        sep = "->" if label.startswith("arrow:") else "."
        field = label.split(":", 1)[1]
        bt, bp = _render(children[0], abstract)
        if bp < _POSTFIX_PREC:
            bt = f"({bt})"
        fname = _abstract_name(field) if abstract else field
        return (f"{bt}{sep}{fname}", _POSTFIX_PREC)
    if label == "index":
        bt, bp = _render(children[0], abstract)
        if bp < _POSTFIX_PREC:
            bt = f"({bt})"
        st, _ = _render(children[1], abstract)
        return (f"{bt}[{st}]", _POSTFIX_PREC)
    if label == "arr":
        bt, _ = _render(children[0], abstract)
        if len(children) > 1:
            st, _ = _render(children[1], abstract)
            return (f"{bt}[{st}]", _POSTFIX_PREC)
        return (f"{bt}[]", _POSTFIX_PREC)
    if label == "ptr":
        it, _ = _render(children[0], abstract)
        return (f"*{it}", _POSTFIX_PREC)
    raise ValueError(f"unrenderable ast node {label!r}")


def render_statement(kind: str, ast, abstract: bool = False) -> str:
    if kind == "decl":
        type_text = ast[1][0][0][5:]  # "type:..." label
        decl_text = render_expr(ast[1][1], abstract)
        if len(ast[1]) > 2:
            init_text = render_expr(ast[1][2], abstract)
            return f"{type_text} {decl_text} = {init_text};"
        return f"{type_text} {decl_text};"
    if kind == "assign":
        if not ast[0].startswith("assign:"):  # bare increment/decrement
            return render_expr(ast, abstract) + ";"
        op = ast[0][7:]  # "assign:OP"
        lhs = render_expr(ast[1][0], abstract)
        rhs = render_expr(ast[1][1], abstract)
        return f"{lhs} {op} {rhs};"
    if kind == "call":
        return render_expr(ast, abstract) + ";"
    if kind == "return":
        if ast[1]:
            return f"return {render_expr(ast[1][0], abstract)};"
        return "return;"
    if kind == "goto":
        target = ast[0][5:]
        return f"goto {'LABEL' if abstract else target};"
    if kind == "label":
        name = ast[0][6:]
        return f"{'LABEL' if abstract else name}:"
    if kind == "if-pred":
        return f"if ({render_expr(ast, abstract)})"
    if kind == "while-pred":
        return f"while ({render_expr(ast, abstract)})"
    if kind == "for-pred":
        return f"for ({render_expr(ast, abstract)})"
    if kind == "block-enter":
        return "{"
    raise ValueError(f"unknown statement kind {kind!r}")
