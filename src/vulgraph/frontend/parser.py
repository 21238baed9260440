"""Recursive-descent parser for the mini-C subset.

Binary expressions are parsed by precedence climbing (Pratt, "Top Down
Operator Precedence", POPL 1973): one loop over the operator-to-level table
the renderer also reads (render.BINARY_LEVEL), so an operand costs one call
whatever the number of levels.

parse_method turns one function definition into a MethodAst: a flat,
index-ordered list of statement nodes plus the structured body tree the CFG
builder walks. Statement kinds:

    decl assign call if-pred while-pred for-pred return goto label block-enter

Conditions of if/while/for become *-pred nodes whose ast is the condition
expression. A for header is desugared: the init clause precedes the pred and
the step clause becomes the last statement of the loop body. Statements are
numbered as they are made, so the step is numbered after the body.

def/use extraction is performed here, per statement, with the shallow alias
model: a field access base->f (or base.f) defines/uses the base identifier
plus the composite name "base.f"; a call f(a, &b) uses every argument
identifier and additionally defines any &-passed argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EmptyMethod, ParseError
from .lexer import TYPE_KEYWORDS, Token, tokenize
from .render import BINARY_LEVEL, render_statement

ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

_UNARY_OPS = frozenset({"+", "-", "!", "~", "*", "&", "++", "--"})

# How deep a method may nest. Statement bodies and expressions (operands,
# arguments, subscripts, parenthesized expressions) open one level each, and
# no statement's tree may be more than this many nodes high. Every later
# walk over a statement tree or the statement nesting recurses once or twice
# per level, so this keeps each inside Python's default recursion limit.
NESTING_BOUND = 100
_STEP_LABELS = frozenset({"post:++", "post:--", "un:++", "un:--"})


@dataclass
class StmtNode:
    """One PDG-level statement."""

    index: int
    kind: str
    text: str
    defs: tuple[str, ...]
    uses: tuple[str, ...]
    ast: list
    line: int


# structured body items, used only for CFG construction
@dataclass
class Leaf:
    stmt: StmtNode


@dataclass
class IfItem:
    pred: StmtNode
    then: list
    orelse: list


@dataclass
class WhileItem:
    pred: StmtNode
    body: list


@dataclass
class ForItem:
    init: StmtNode | None
    pred: StmtNode
    step: StmtNode | None
    body: list


@dataclass
class BlockItem:
    marker: StmtNode
    body: list


@dataclass
class MethodAst:
    name: str
    stmts: list[StmtNode]
    body: list = field(repr=False, default_factory=list)
    decl_types: dict[str, str] = field(default_factory=dict)
    goto_targets: dict[int, int] = field(default_factory=dict)  # goto stmt -> label stmt


class _Parser:
    def __init__(self, tokens: list[Token]):
        # The parser peeks at most three tokens ahead, so four end tokens
        # close the stream and no read needs a bounds check. An error at the
        # end of input names the end token's text and the last token's position.
        last = tokens[-1] if tokens else Token("punct", "", 1, 1)
        end = Token("end", "end of input", last.line, last.col)
        self.tokens = [*tokens, end, end, end, end]
        self.pos = 0
        self.depth = 0  # open statement bodies and expressions
        self.height = 0  # height of the tree the last parse step returned

    def begin_method(self) -> None:
        """Clear the state of one method: statements in index order, labels
        by name, gotos to resolve, and declared types."""
        self.stmts: list[StmtNode] = []
        self.labels: dict[str, StmtNode] = {}
        self.gotos: list[tuple[StmtNode, str, int, int]] = []
        self.decl_types: dict[str, str] = {}

    # --- token plumbing -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.line, tok.col)
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(message, tok.line, tok.col)

    def too_deep(self, tok: Token) -> ParseError:
        return ParseError(f"nesting deeper than {NESTING_BOUND} levels", tok.line, tok.col)

    def enter(self) -> None:
        """Open one nesting level at the current token."""
        self.depth += 1
        if self.depth > NESTING_BOUND:
            raise self.too_deep(self.tokens[self.pos])

    # --- types and declarators ------------------------------------------

    def at_type(self) -> bool:
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok.kind == "kw":
            return tok.text in TYPE_KEYWORDS
        # identifier-typed declaration heuristic: IDENT IDENT / IDENT '*' IDENT
        if tok.kind == "id":
            nxt = tokens[pos + 1]
            if nxt.kind == "id":
                return True
            if nxt.kind == "op" and nxt.text == "*" and tokens[pos + 2].kind == "id":
                # IDENT * IDENT not followed by '(' reads as a declaration
                return not self.at("punct", "(", 3)
        return False

    def parse_type_words(self) -> str:
        words = []
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "kw" and tok.text in TYPE_KEYWORDS:
                self.pos += 1
                words.append(tok.text)
                if tok.text in ("struct", "union", "enum"):
                    words.append(self.expect("id").text)
                continue
            if tok.kind == "id" and not words:
                self.pos += 1
                words.append(tok.text)
                continue
            break
        if not words:
            raise self.error("expected type specifier")
        return " ".join(words)

    def parse_declarator(self) -> tuple[list, str, int]:
        """Return (declarator ast, declared name, pointer depth)."""
        stars = 0
        while self.at("op", "*"):
            self.pos += 1
            stars += 1
        name_tok = self.expect("id")
        node: list = [f"id:{name_tok.text}", []]
        height = 1
        while self.at("punct", "["):
            self.pos += 1
            if self.at("punct", "]"):
                self.pos += 1
                node = ["arr", [node]]
            else:
                size = self.parse_expr()
                self.expect("punct", "]")
                node = ["arr", [node, size]]
                height = max(height, self.height)
            height += 1
        for _ in range(stars):
            node = ["ptr", [node]]
        self.height = height + stars
        if self.height > NESTING_BOUND:
            raise self.too_deep(name_tok)
        return node, name_tok.text, stars

    # --- expressions ------------------------------------------------------

    def parse_expr(self, min_level: int = 0) -> list:
        """A binary expression whose operators bind at min_level or tighter,
        by precedence climbing: each operator's right operand takes only
        tighter operators, so equal levels group to the left."""
        self.enter()
        node = self.parse_unary()
        height = self.height
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            level = BINARY_LEVEL.get(tok.text, -1) if tok.kind == "op" else -1
            if level < min_level:
                self.depth -= 1
                self.height = height
                return node
            self.pos += 1
            node = [f"bin:{tok.text}", [node, self.parse_expr(level + 1)]]
            height = max(height, self.height) + 1
            if height > NESTING_BOUND:
                raise self.too_deep(tok)

    def parse_unary(self) -> list:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in _UNARY_OPS:
            self.pos += 1
            self.enter()
            node = [f"un:{tok.text}", [self.parse_unary()]]
            self.depth -= 1
        elif tok.kind == "kw" and tok.text == "sizeof":
            self.pos += 1
            self.expect("punct", "(")
            if self.at_type():
                inner: list = [f"type:{self.parse_type_words()}", []]
                while self.at("op", "*"):
                    self.pos += 1
                    inner[0] += " *"
                self.height = 1
            else:
                inner = self.parse_expr()
            self.expect("punct", ")")
            node = ["un:sizeof", [inner]]
        else:
            return self.parse_postfix(self.parse_primary())
        self.height += 1
        if self.height > NESTING_BOUND:
            raise self.too_deep(tok)
        return node

    def parse_primary(self) -> list:
        tok = self.next()
        kind = tok.kind
        if kind == "id" or kind == "int" or kind == "str" or kind == "char":
            self.height = 1
            return [f"{kind}:{tok.text}", []]
        if kind == "punct" and tok.text == "(":
            node = self.parse_expr()
            self.expect("punct", ")")
            return node
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.line, tok.col)

    def parse_postfix(self, node: list) -> list:
        tokens = self.tokens
        height = self.height
        while True:
            tok = tokens[self.pos]
            text = tok.text
            if tok.kind == "punct":
                if text == "(":
                    if not node[0].startswith("id:"):
                        raise self.error("only simple names can be called")
                    self.pos += 1
                    args = []
                    height = 0  # the callee's name is part of the call node
                    if not self.at("punct", ")"):
                        args.append(self.parse_expr())
                        height = self.height
                        while self.at("punct", ","):
                            self.pos += 1
                            args.append(self.parse_expr())
                            height = max(height, self.height)
                    self.expect("punct", ")")
                    node = [f"call:{node[0][3:]}", args]
                elif text == "[":
                    self.pos += 1
                    sub = self.parse_expr()
                    self.expect("punct", "]")
                    node = ["index", [node, sub]]
                    height = max(height, self.height)
                else:
                    break
            elif tok.kind == "op":
                if text == "->" or text == ".":
                    self.pos += 1
                    fld = self.expect("id").text
                    node = [f"{'arrow' if text == '->' else 'dot'}:{fld}", [node]]
                elif text == "++" or text == "--":
                    self.pos += 1
                    node = [f"post:{text}", [node]]
                else:
                    break
            else:
                break
            height += 1
            if height > NESTING_BOUND:
                raise self.too_deep(tok)
        self.height = height
        return node

    # --- statements -------------------------------------------------------

    def make_stmt(self, kind: str, ast: list, line: int) -> StmtNode:
        """A statement of the method, numbered in the order it is made."""
        defs, uses = analyze_def_use(kind, ast)
        text = render_statement(kind, ast, abstract=False)
        stmt = StmtNode(len(self.stmts), kind, text, defs, uses, ast, line)
        self.stmts.append(stmt)
        return stmt

    def parse_block_body(self) -> list:
        self.expect("punct", "{")
        items: list = []
        while not self.at("punct", "}"):
            if self.at("end"):
                raise self.error("unterminated block")
            items.extend(self.parse_statement())
        self.expect("punct", "}")
        return items

    def parse_body_or_single(self) -> list:
        """A nested body, one level deeper: a block or a single statement."""
        self.enter()
        items = self.parse_block_body() if self.at("punct", "{") else self.parse_statement()
        self.depth -= 1
        return items

    def parse_statement(self) -> list:
        tok = self.peek()
        if tok.kind == "end":
            raise self.error("unexpected end of input")
        if tok.kind == "punct" and tok.text == ";":
            self.next()
            return []
        if tok.kind == "punct" and tok.text == "{":
            marker = self.make_stmt("block-enter", ["block", []], tok.line)
            body = self.parse_body_or_single()
            return [BlockItem(marker, body)]
        if tok.kind == "kw":
            if tok.text == "if":
                return [self.parse_if()]
            if tok.text == "while":
                return [self.parse_while()]
            if tok.text == "for":
                return [self.parse_for()]
            if tok.text == "return":
                self.next()
                if self.at("punct", ";"):
                    self.next()
                    return [Leaf(self.make_stmt("return", ["return", []], tok.line))]
                expr = self.parse_expr()
                self.expect("punct", ";")
                if self.height >= NESTING_BOUND:
                    raise self.too_deep(tok)
                return [Leaf(self.make_stmt("return", ["return", [expr]], tok.line))]
            if tok.text == "goto":
                self.next()
                target = self.expect("id").text
                self.expect("punct", ";")
                stmt = self.make_stmt("goto", [f"goto:{target}", []], tok.line)
                self.gotos.append((stmt, target, tok.line, tok.col))
                return [Leaf(stmt)]
            if tok.text in ("break", "continue", "do", "switch", "case", "default", "else"):
                raise ParseError(f"unsupported construct {tok.text!r}", tok.line, tok.col)
        # label: IDENT ':'
        if tok.kind == "id" and self.at("punct", ":", 1):
            self.next()
            self.next()
            stmt = self.make_stmt("label", [f"label:{tok.text}", []], tok.line)
            if tok.text in self.labels:
                raise ParseError(f"duplicate label {tok.text!r}", tok.line, tok.col)
            self.labels[tok.text] = stmt
            return [Leaf(stmt)]
        if self.at_type():
            return [Leaf(s) for s in self.parse_declaration()]
        return [Leaf(self.parse_simple_statement("expression statement", ";"))]

    def parse_declaration(self) -> list[StmtNode]:
        tok = self.peek()
        type_text = self.parse_type_words()
        stmts = []
        while True:
            dtor, name, _ = self.parse_declarator()
            children = [[f"type:{type_text}", []], dtor]
            height = self.height
            if self.at("op", "="):
                self.next()
                children.append(self.parse_expr())
                height = max(height, self.height)
            if height >= NESTING_BOUND:
                raise self.too_deep(tok)
            stmts.append(self.make_stmt("decl", ["decl", children], tok.line))
            self.decl_types.setdefault(name, type_text)
            if self.at("punct", ","):
                self.next()
                continue
            break
        self.expect("punct", ";")
        return stmts

    def parse_simple_statement(self, what: str, end: str) -> StmtNode:
        """An assignment, a call, or an increment, then the `end` token: what
        an expression statement and a for clause may hold. `what` names it
        in the error."""
        tok = self.peek()
        expr = self.parse_expr()
        op = self.peek()
        kind = None
        if op.kind == "op" and op.text in ASSIGN_OPS:
            self.pos += 1
            height = self.height
            expr = [f"assign:{op.text}", [expr, self.parse_expr()]]
            if max(height, self.height) >= NESTING_BOUND:
                raise self.too_deep(op)
            kind = "assign"
        elif expr[0].startswith("call:"):
            kind = "call"
        elif expr[0] in _STEP_LABELS:
            kind = "assign"
        self.expect("punct", end)
        if kind is None:
            raise ParseError(f"{what} must be an assignment, call, or increment", tok.line, tok.col)
        return self.make_stmt(kind, expr, tok.line)

    def parse_if(self) -> IfItem:
        tok = self.expect("kw", "if")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        pred = self.make_stmt("if-pred", cond, tok.line)
        then = self.parse_body_or_single()
        orelse: list = []
        if self.at("kw", "else"):
            self.next()
            orelse = self.parse_body_or_single()
        return IfItem(pred, then, orelse)

    def parse_while(self) -> WhileItem:
        tok = self.expect("kw", "while")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        pred = self.make_stmt("while-pred", cond, tok.line)
        body = self.parse_body_or_single()
        return WhileItem(pred, body)

    def parse_for(self) -> ForItem:
        tok = self.expect("kw", "for")
        self.expect("punct", "(")
        init: StmtNode | None = None
        if not self.at("punct", ";"):
            if self.at_type():
                decls = self.parse_declaration()  # consumes ';'
                if len(decls) != 1:
                    raise ParseError("for-init must declare one variable", tok.line, tok.col)
                init = decls[0]
            else:
                init = self.parse_simple_statement("for clause", ";")
        else:
            self.next()
        if self.at("punct", ";"):
            cond: list = ["int:1", []]
            self.next()
        else:
            cond = self.parse_expr()
            self.expect("punct", ";")
        pred = self.make_stmt("for-pred", cond, tok.line)
        step: StmtNode | None = None
        if self.at("punct", ")"):
            self.next()
        else:
            step = self.parse_simple_statement("for clause", ")")
            self.stmts.pop()  # the step runs after the body and is numbered after it
        body = self.parse_body_or_single()
        if step is not None:
            step.index = len(self.stmts)
            self.stmts.append(step)
        return ForItem(init, pred, step, body)


# --- def/use extraction ----------------------------------------------------


def _field_prefixes(ast) -> list[str] | None:
    """For a pure id/field chain, the dotted prefixes: a->b.c -> [a, a.b, a.b.c]."""
    label, children = ast[0], ast[1]
    if label.startswith("id:"):
        return [label[3:]]
    if label.startswith("arrow:") or label.startswith("dot:"):
        base = _field_prefixes(children[0])
        if base is None:
            return None
        return base + [base[-1] + "." + label.split(":", 1)[1]]
    return None


def _walk_use(ast, defs: set, uses: set) -> None:
    label, children = ast[0], ast[1]
    prefixes = _field_prefixes(ast)
    if prefixes is not None:
        uses.update(prefixes)
        return
    if label.startswith("call:"):
        for arg in children:
            if arg[0] == "un:&":
                target = _field_prefixes(arg[1][0])
                if target is not None:
                    defs.update(target)
                    uses.update(target)
                    continue
            _walk_use(arg, defs, uses)
        return
    if label.startswith("post:") or (label.startswith("un:") and label[3:] in ("++", "--")):
        target = _field_prefixes(children[0])
        if target is not None:
            defs.update(target)
            uses.update(target)
            return
    if label == "index":
        _walk_use(children[0], defs, uses)
        _walk_use(children[1], defs, uses)
        return
    for child in children:
        if child and isinstance(child[0], str):
            _walk_use(child, defs, uses)


def _walk_def(ast, defs: set, uses: set) -> None:
    label, children = ast[0], ast[1]
    prefixes = _field_prefixes(ast)
    if prefixes is not None:
        defs.update(prefixes)
        uses.update(prefixes[:-1])  # reading the base chain locates the slot
        return
    if label == "index":
        base = _field_prefixes(children[0])
        if base is not None:
            defs.update(base)
            uses.update(base)
        else:
            _walk_use(children[0], defs, uses)
        _walk_use(children[1], defs, uses)
        return
    if label == "un:*":
        base = _field_prefixes(children[0])
        if base is not None:
            defs.update(base)
            uses.update(base)
        else:
            _walk_use(children[0], defs, uses)
        return
    _walk_use(ast, defs, uses)


def _declared_name(dtor) -> str:
    label, children = dtor[0], dtor[1]
    if label.startswith("id:"):
        return label[3:]
    return _declared_name(children[0])


def analyze_def_use(kind: str, ast) -> tuple[tuple[str, ...], tuple[str, ...]]:
    defs: set = set()
    uses: set = set()
    if kind == "decl":
        children = ast[1]
        defs.add(_declared_name(children[1]))
        # array size expressions are uses
        node = children[1]
        while node[0] in ("arr", "ptr"):
            if node[0] == "arr" and len(node[1]) > 1:
                _walk_use(node[1][1], defs, uses)
            node = node[1][0]
        if len(children) > 2:
            _walk_use(children[2], defs, uses)
    elif kind == "assign":
        if ast[0].startswith("assign:"):
            op = ast[0][7:]
            _walk_def(ast[1][0], defs, uses)
            if op != "=":  # compound assignment reads the left side
                _walk_use(ast[1][0], defs, uses)
            _walk_use(ast[1][1], defs, uses)
        else:  # inc/dec statement
            _walk_use(ast, defs, uses)
    elif kind in ("call", "if-pred", "while-pred", "for-pred"):
        _walk_use(ast, defs, uses)
    elif kind == "return":
        if ast[1]:
            _walk_use(ast[1][0], defs, uses)
    # goto / label / block-enter define and use nothing
    return tuple(sorted(defs)), tuple(sorted(uses))


# --- entry points ------------------------------------------------------------


def parse_source(source: str) -> list[MethodAst]:
    """Parse every function definition in a source string."""
    parser = _Parser(tokenize(source))
    methods = []
    while not parser.at("end"):
        methods.append(_parse_one(parser))
    return methods


def parse_method(source: str) -> MethodAst:
    """Parse source containing exactly one function definition."""
    methods = parse_source(source)
    if not methods:
        raise EmptyMethod("no function definition found")
    if len(methods) > 1:
        raise ParseError("expected a single function definition", 1, 1)
    return methods[0]


def _parse_one(parser: _Parser) -> MethodAst:
    parser.begin_method()
    parser.parse_type_words()  # the return type is not kept
    while parser.at("op", "*"):
        parser.next()
    name = parser.expect("id").text
    parser.expect("punct", "(")
    if not parser.at("punct", ")"):
        if parser.at("kw", "void") and parser.at("punct", ")", 1):
            parser.next()
        else:
            while True:
                ptype = parser.parse_type_words()
                _, pname, stars = parser.parse_declarator()
                parser.decl_types.setdefault(pname, ptype + (" " + "*" * stars if stars else ""))
                if not parser.at("punct", ","):
                    break
                parser.next()
    parser.expect("punct", ")")
    body = parser.parse_block_body()
    if not parser.stmts:
        raise EmptyMethod(f"method {name!r} has no statements")

    goto_targets: dict[int, int] = {}
    for stmt, target, line, col in parser.gotos:
        if target not in parser.labels:
            raise ParseError(f"undefined label {target!r}", line, col)
        goto_targets[stmt.index] = parser.labels[target].index

    return MethodAst(
        name=name,
        stmts=parser.stmts,
        body=body,
        decl_types=dict(sorted(parser.decl_types.items())),
        goto_targets=goto_targets,
    )
