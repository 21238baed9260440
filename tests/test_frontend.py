import functools
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulgraph.corpus import generate_planted_corpus
from vulgraph.errors import EmptyMethod, IllegalCharacter, ParseError, SchemaError, SourceError, UnterminatedString
from vulgraph.frontend import (
    build_cfg,
    build_pdg,
    control_dependences,
    data_dependences,
    parse_method,
    parse_source,
    pdg_from_dict,
    pdg_from_source,
    pdg_to_dict,
    pdg_to_dot,
    pdg_to_json,
    tokenize,
)
from vulgraph.frontend.cfg import Cfg, _repair_edges, _structural_edges
from vulgraph.frontend.parser import NESTING_BOUND, _Parser
from vulgraph.frontend.render import BINARY_LEVEL, render_expr
from vulgraph.rng import Rng

from oracles import (
    brute_control_deps,
    brute_data_deps,
    parse_source_per_level,
    per_node_repair_edges,
    random_source,
    set_control_deps,
    tokenize_chars,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# --- lexer -------------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize('x = f(a, "s");\ny++;')
    kinds = [t.kind for t in toks]
    assert kinds == ["id", "op", "id", "punct", "id", "punct", "str", "punct", "punct",
                     "id", "op", "punct"]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[9].line == 2 and toks[9].col == 1


def test_tokenize_comments_and_multichar_ops():
    toks = tokenize("a->b /* c */ <<= 2 // tail\n!= 0x1fUL")
    texts = [t.text for t in toks]
    assert texts == ["a", "->", "b", "<<=", "2", "!=", "0x1fUL"]


def test_unterminated_string_position():
    with pytest.raises(UnterminatedString) as exc:
        tokenize('x = "oops;\n')
    assert exc.value.line == 1 and exc.value.col == 5


def test_illegal_character_position():
    with pytest.raises(IllegalCharacter) as exc:
        tokenize("a = 1;\nb = $;")
    assert exc.value.line == 2 and exc.value.col == 5


@pytest.mark.parametrize(
    "source, error, line, col",
    [
        ("int b = \u00b2;", IllegalCharacter, 1, 9),  # superscript two
        ("x = \u0663;", IllegalCharacter, 1, 5),  # Arabic-Indic three
        ("x = 1\u0663;", IllegalCharacter, 1, 6),
        ("x = 0x1\u0663;", IllegalCharacter, 1, 8),
        ("int c = 0x;", ParseError, 1, 9),
        ("\n  c = 0XuL;", ParseError, 2, 7),
        ("c = 0xg;", ParseError, 1, 5),
        ("c = 0x\u0663;", ParseError, 1, 5),
    ],
)
def test_integer_literal_digits_are_ascii(source, error, line, col):
    with pytest.raises(error) as exc:
        tokenize(source)
    assert (type(exc.value), exc.value.line, exc.value.col) == (error, line, col)


def test_identifiers_start_with_a_letter_and_continue_alphanumeric():
    toks = tokenize("caf\u00e9 = x\u00b2 + _\u0663 + \u00aa1;")
    assert [(t.kind, t.text) for t in toks] == [
        ("id", "caf\u00e9"), ("op", "="), ("id", "x\u00b2"), ("op", "+"),
        ("id", "_\u0663"), ("op", "+"), ("id", "\u00aa1"), ("punct", ";"),
    ]
    # numeric characters that are not letters cannot start one
    for char in ("\u00bd", "\u2160", "\u00b2"):
        with pytest.raises(IllegalCharacter) as exc:
            tokenize(f"a = {char}b;")
        assert (exc.value.line, exc.value.col) == (1, 5)


def test_token_repr_and_fields():
    (tok,) = tokenize("\n  ab")
    assert repr(tok) == "Token(id,'ab',2:3)"
    assert (tok.kind, tok.text, tok.line, tok.col) == ("id", "ab", 2, 3)


def test_positions_after_multiline_comments_and_escaped_newlines():
    toks = tokenize('a /* x\n y\n */ b "s\\\nt" c\r\n\td')
    assert [(t.text, t.line, t.col) for t in toks] == [
        ("a", 1, 1), ("b", 3, 5), ('"s\\\nt"', 3, 7), ("c", 4, 4), ("d", 5, 2),
    ]


@pytest.mark.parametrize(
    "source, message",
    [
        ("x = /* open", "unterminated block comment at 1:5"),
        ("x = 'a\n';", "unterminated string literal at 1:5"),
        ('x = "a\\', "unterminated string literal at 1:5"),
        ("x = a # b;", "illegal character '#' at 1:7"),
    ],
)
def test_lexer_errors_keep_type_message_and_position(source, message):
    with pytest.raises(SourceError) as exc:
        tokenize(source)
    assert str(exc.value) == message
    with pytest.raises(type(exc.value)) as ref:
        tokenize_chars(source)
    assert str(ref.value) == message


@functools.lru_cache(maxsize=None)
def _corpus_sources() -> tuple[str, ...]:
    """The gen-corpus sources of seeds 1-3, then random dependence-fuzzing
    programs."""
    sources = [line["source"] for seed in (1, 2, 3) for line in generate_planted_corpus(200, seed)]
    rng = Rng(31)
    sources += [random_source(rng.fork(str(i)), max_stmts=40) for i in range(100)]
    return tuple(sources)


def _outcome(run, source):
    """What `run` gives for `source`: its result, or its error's type,
    message and position."""
    try:
        return run(source)
    except SourceError as exc:
        return (type(exc), str(exc), exc.line, exc.col)


_HEX = frozenset("0123456789abcdefABCDEF")


def _expected_tokens(source):
    """The character loop's outcome, except for integer literals: one that
    holds a non-ASCII digit is an IllegalCharacter at that digit, and a 0x
    with no hex digit after it is a ParseError at the literal."""
    try:
        tokens, error = tokenize_chars(source), None
    except SourceError as exc:
        error = (type(exc), str(exc), exc.line, exc.col)
        lines = source.split("\n")
        offset = sum(len(text) + 1 for text in lines[: exc.line - 1]) + exc.col - 1
        tokens = tokenize_chars(source[:offset])  # the tokens before the error
    for t in tokens:
        if t.kind != "int":
            continue
        if t.text[:2] in ("0x", "0X") and t.text[2:3] not in _HEX:
            message = f"hex literal {t.text[:2]!r} has no digits at {t.line}:{t.col}"
            return (ParseError, message, t.line, t.col)
        if not t.text.isascii():
            k = next(i for i, c in enumerate(t.text) if not c.isascii())
            message = f"illegal character {t.text[k]!r} at {t.line}:{t.col + k}"
            return (IllegalCharacter, message, t.line, t.col + k)
    return tokens if error is None else error


# insertions that reach every rule of the lexer and many of the parser
_PIECES = [
    '"', "'", "\\", "\n", "/", "*", "/*", "*/", "//", "0x", "0X", "0", "7", "x", "ab",
    "\u00e9", "\u00b2", "\u0663", "\u00bd", "\u2160", "$", "\t", "\r", "\f",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", "->", ".", "++", "--", "<<=", "=", "+",
    "-", "&", "|", "!", "~", "<", ">", "if", "else", "while", "for", "return", "goto",
    "sizeof", "int", "struct", "break", " ", "a b", "T *p", "u", "L",
]
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(_PIECES) | st.text(max_size=3),
        st.integers(min_value=1, max_value=6),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(source: str, edits) -> str:
    for op, where, piece, width in edits:
        at = int(where * len(source))
        if op == "insert":
            source = source[:at] + piece + source[at:]
        elif op == "delete":
            source = source[:at] + source[at + width:]
        else:
            source = source[:at] + piece + source[at + min(width, 3):]
    return source


def test_lexer_matches_the_character_loop_on_corpus_sources():
    for source in _corpus_sources():
        assert tokenize(source) == tokenize_chars(source), source


@settings(derandomize=True, max_examples=300, deadline=None)
@given(index=st.integers(min_value=0, max_value=699), edits=_EDITS)
def test_lexer_matches_the_character_loop_on_mutated_sources(index, edits):
    source = _mutate(_corpus_sources()[index], edits)
    assert _outcome(tokenize, source) == _expected_tokens(source), source


# --- parser ------------------------------------------------------------------


def test_empty_method_rejected():
    with pytest.raises(EmptyMethod):
        parse_method("void f(void) { }")


def test_statement_kinds_and_text():
    m = parse_method(
        """
        int f(int n) {
            int a = 1;
            a += n;
            g(a);
            if (a > 0) a = 0; else a = 2;
            while (a < n) a++;
            for (a = 0; a < 3; a = a + 1) tick();
            goto end;
        end:
            return a;
        }
        """
    )
    kinds = [s.kind for s in m.stmts]
    assert kinds == [
        "decl", "assign", "call", "if-pred", "assign", "assign", "while-pred",
        "assign", "assign", "for-pred", "call", "assign", "goto", "label", "return",
    ]
    texts = {s.index: s.text for s in m.stmts}
    assert texts[0] == "int a = 1;"
    assert texts[3] == "if (a > 0)"
    assert texts[6] == "while (a < n)"
    assert texts[7] == "a++;"
    # for desugaring: init before pred, step after body
    assert texts[8] == "a = 0;"
    assert texts[9] == "for (a < 3)"
    assert texts[10] == "tick();"
    assert texts[11] == "a = a + 1;"
    assert texts[13] == "end:"


def test_def_use_extraction():
    m = parse_method(
        """
        int f(struct req *s, int n) {
            int a;
            a = n + 1;
            s->len = a;
            fill(s->buf, &a, sizeof(*s));
            if (check(s) < 0)
                return 1;
            return s->len;
        }
        """
    )
    by_text = {s.text: s for s in m.stmts}
    assert by_text["int a;"].defs == ("a",)
    assert by_text["a = n + 1;"].defs == ("a",)
    assert by_text["a = n + 1;"].uses == ("n",)
    # field write defines base and composite, reads the base
    assert by_text["s->len = a;"].defs == ("s", "s.len")
    assert by_text["s->len = a;"].uses == ("a", "s")
    # &-argument is both used and defined; plain args only used
    fill = by_text["fill(s->buf, &a, sizeof(*s));"]
    assert fill.defs == ("a",)
    assert set(fill.uses) == {"a", "s", "s.buf"}
    # call nested in a predicate still contributes uses
    assert by_text["if (check(s) < 0)"].uses == ("s",)
    assert by_text["if (check(s) < 0)"].defs == ()
    assert by_text["return s->len;"].uses == ("s", "s.len")
    assert m.decl_types == {"a": "int", "n": "int", "s": "struct req *"}


def test_undefined_label_rejected():
    with pytest.raises(ParseError):
        parse_method("int f(void) { goto nowhere; }")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_method("int f(void) {\n  int = 3;\n}")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "source, message",
    [
        ("int", "expected 'id', found 'end of input' at 1:1"),
        ("int f(", "expected type specifier at 1:6"),
        ("int f(int a) {", "unterminated block at 1:14"),
        ("int f(int a) { a = ", "unexpected end of input at 1:18"),
        ("int f(void) { x = sizeof(", "unexpected end of input at 1:25"),
        ("int f(void) { T *", "unexpected end of input at 1:17"),
        ("int f(void) { x = (a", "expected ')', found 'end of input' at 1:20"),
        ("int f(void) { x = a + b * c - ; }", "unexpected token ';' in expression at 1:31"),
    ],
)
def test_parse_errors_at_the_end_of_input(source, message):
    with pytest.raises(ParseError) as exc:
        parse_source(source)
    assert str(exc.value) == message


def _pdg_dicts(parse):
    return lambda source: [pdg_to_dict(build_pdg(m)) for m in parse(source)]


def test_parser_matches_the_per_level_reference_on_corpus_sources():
    for source in _corpus_sources():
        assert _pdg_dicts(parse_source)(source) == _pdg_dicts(parse_source_per_level)(source)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(index=st.integers(min_value=0, max_value=699), edits=_EDITS)
def test_parser_matches_the_per_level_reference_on_mutated_sources(index, edits):
    source = _mutate(_corpus_sources()[index], edits)
    reference = functools.partial(parse_source_per_level, tokenize=tokenize)
    assert _outcome(_pdg_dicts(parse_source), source) == _outcome(_pdg_dicts(reference), source)


def _leaf(name):
    return [f"id:{name}", []]


def _expressions():
    """Trees over every ordered pair of binary operators, grouped either way,
    under and over every unary and postfix form."""
    a, b, c = _leaf("a"), _leaf("b"), _leaf("c")
    pairs = []
    for op1 in BINARY_LEVEL:
        for op2 in BINARY_LEVEL:
            pairs.append([f"bin:{op1}", [[f"bin:{op2}", [a, b]], c]])
            pairs.append([f"bin:{op1}", [a, [f"bin:{op2}", [b, c]]]])
    unary = ["+", "-", "!", "~", "*", "&", "++", "--"]
    wrappers = [lambda t, op=op: [f"un:{op}", [t]] for op in unary]
    wrappers += [
        lambda t: ["post:++", [t]],
        lambda t: ["post:--", [t]],
        lambda t: ["index", [t, ["bin:+", [a, b]]]],
        lambda t: ["arrow:f", [t]],
        lambda t: ["dot:f", [t]],
        lambda t: ["call:g", [t, c]],
        lambda t: ["un:sizeof", [t]],
    ]
    operands = [a, ["bin:*", [a, b]], ["bin:||", [a, b]]]
    operands += [wrap(a) for wrap in wrappers]
    forms = list(pairs)
    for wrap in wrappers:
        for operand in operands:
            forms.append(wrap(operand))
            forms.append(["bin:-", [wrap(operand), wrap(operand)]])
    return forms


def test_rendered_expressions_parse_back_to_the_same_tree():
    forms = _expressions()
    assert len(forms) > 2 * len(BINARY_LEVEL) ** 2
    for tree in forms:
        text = render_expr(tree)
        parser = _Parser(tokenize(text))
        assert parser.parse_expr() == tree, text
        assert parser.at("end"), text


def _in_method(statement: str) -> str:
    return "int f(int a) {\n" + statement + "\nreturn a;\n}\n"


@pytest.mark.parametrize(
    "build, deepest",
    [
        (lambda k: "if (" + "(" * k + "a" + ")" * k + ") a = 1;", NESTING_BOUND - 1),
        (lambda k: "if (" + "- " * k + "a) a = 1;", NESTING_BOUND - 1),
        (lambda k: "if (a" + " + a" * k + ") a = 1;", NESTING_BOUND - 1),
        (lambda k: "if (a" + "[0]" * k + ") a = 1;", NESTING_BOUND - 1),
        (lambda k: "if (" + "g(" * k + "a" + ")" * k + ") a = 1;", NESTING_BOUND - 1),
        (lambda k: "a = " + "- " * k + "a;", NESTING_BOUND - 2),
        (lambda k: "if (a) " * k + "a = 1;", NESTING_BOUND - 1),
        (lambda k: "{" * k + "a = 1;" + "}" * k, NESTING_BOUND - 1),
        (lambda k: "while (a) " * k + "a = 1;", NESTING_BOUND - 1),
        (lambda k: "int " + "*" * k + "p;", NESTING_BOUND - 2),
        (lambda k: "int p" + "[1]" * k + ";", NESTING_BOUND - 2),
        (lambda k: "return " + "!" * k + "a;", NESTING_BOUND - 2),
    ],
    ids=["parens", "unary", "binary_chain", "subscripts", "calls", "assigned_unary",
         "ifs", "blocks", "whiles", "pointer_declarator", "array_declarator", "return"],
)
def test_nesting_bound_admits_the_deepest_method_and_rejects_one_level_more(build, deepest):
    parse_method(_in_method(build(deepest)))
    with pytest.raises(ParseError, match=f"nesting deeper than {NESTING_BOUND} levels"):
        parse_method(_in_method(build(deepest + 1)))


# --- CFG ---------------------------------------------------------------------


def test_cfg_if_else_shape():
    m = parse_method("int f(int a) { if (a) a = 1; else a = 2; return a; }")
    cfg = build_cfg(m)
    edges = set(cfg.edges)
    assert (cfg.entry, 0, "seq") in edges
    assert (0, 1, "true") in edges and (0, 2, "false") in edges
    assert (1, 3, "seq") in edges and (2, 3, "seq") in edges
    assert (3, cfg.exit, "jump") in edges


def test_cfg_while_back_edge():
    m = parse_method("int f(int a) { while (a < 3) { a = a + 1; } return a; }")
    cfg = build_cfg(m)
    edges = set(cfg.edges)
    assert (0, 1, "true") in edges
    assert (1, 0, "seq") in edges  # back edge
    assert (0, 2, "false") in edges


def test_cfg_repairs_dead_code_and_nontermination():
    # statement after return is unreachable; ENTRY repair edge added
    m = parse_method("int f(int a) { return a; a = 1; }")
    cfg = build_cfg(m)
    assert (cfg.entry, 1, "seq") in set(cfg.edges)
    # goto cycle never reaches EXIT; repair edge to EXIT added
    m2 = parse_method("int f(int a) { top: a = a + 1; goto top; }")
    cfg2 = build_cfg(m2)
    succ = cfg2.successors()
    seen = set()
    stack = [0]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert cfg2.exit in seen


# --- dependences --------------------------------------------------------------


def test_straightline_data_dep():
    m = parse_method("int f(void) { int a = 1; int b = a; }")
    cfg = build_cfg(m)
    assert data_dependences(cfg, m.stmts) == [(0, 1, "a")]


def test_kill_blocks_data_dep():
    m = parse_method("int f(void) { int a = 1; a = 2; int b = a; }")
    cfg = build_cfg(m)
    deps = data_dependences(cfg, m.stmts)
    assert (1, 2, "a") in deps and (0, 2, "a") not in deps


def test_loop_carries_data_dep_but_no_self_loop():
    m = parse_method("int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }")
    cfg = build_cfg(m)
    deps = data_dependences(cfg, m.stmts)
    assert (0, 1, "i") in deps
    assert (2, 1, "i") in deps  # increment feeds the predicate around the loop
    assert (0, 2, "i") in deps and (2, 3, "i") in deps
    assert all(d != u for d, u, _ in deps)


def test_branch_control_dep():
    m = parse_method("int f(int a) { if (a) { a = 1; } return a; }")
    cfg = build_cfg(m)
    deps = control_dependences(cfg)
    assert (0, 1) in deps
    assert (0, 2) not in deps  # the return always executes
    assert (cfg.entry, 0) in deps and (cfg.entry, 2) in deps


def test_dependences_match_brute_force_on_random_programs():
    rng = Rng(20250814)
    for _ in range(60):
        src = random_source(rng.fork(str(rng.randint(0, 10**9))))
        m = parse_method(src)
        cfg = build_cfg(m)
        assert control_dependences(cfg) == brute_control_deps(cfg), src
        assert data_dependences(cfg, m.stmts) == brute_data_deps(cfg, m.stmts), src


REPAIR_SOURCES = [
    "int f(int a) { return a; a = 1; }",  # dead code
    "int f(int a) { top: a = a + 1; goto top; }",  # never reaches EXIT
    "int f(int a) { top: a = a + 1; if (a) goto top; goto top; a = 2; mid: a = a - 1;"
    " goto mid; return a; a = 5; low: a = 3; goto low; }",
    "int f(int a) { goto tail; a = 1; while (a) { a = a - 1; } tail: return a; }",
]


def test_dependences_and_repairs_match_set_reference_on_large_methods():
    rng = Rng(4242)
    sources = REPAIR_SOURCES + [random_source(rng.fork(str(i)), max_stmts=150) for i in range(25)]
    repaired = 0
    for src in sources:
        m = parse_method(src)
        structural = _structural_edges(m)
        want = per_node_repair_edges(len(m.stmts), structural)
        assert _repair_edges(Cfg(len(m.stmts), list(structural))) == want, src
        cfg = build_cfg(m)
        assert cfg.edges == structural + want, src
        assert control_dependences(cfg) == set_control_deps(cfg), src
        repaired += bool(want)
    assert repaired >= 10 and max(len(parse_method(src).stmts) for src in sources) > 100


# --- PDG ---------------------------------------------------------------------


def test_golden_pdg_byte_for_byte():
    src = (FIXTURES / "device_xcmd.c").read_text()
    golden = (FIXTURES / "device_xcmd.pdg.json").read_text()
    assert pdg_to_json(pdg_from_source(src)) == golden


def test_golden_pdg_edge_set():
    src = (FIXTURES / "device_xcmd.c").read_text()
    pdg = pdg_from_source(src)
    data = {(e.src, e.dst, e.var) for e in pdg.edges if e.kind == "data"}
    control = {(e.src, e.dst) for e in pdg.edges if e.kind == "control"}
    assert data == {
        (1, 2, "u_size"), (1, 4, "u_size"), (1, 5, "u_size"), (1, 8, "u_size"),
        (4, 5, "s_buf"), (4, 8, "s_buf"), (4, 10, "s_buf"),
        (5, 6, "ret"), (5, 11, "ret"),
    }
    assert control == {
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 9), (2, 10), (2, 11),
        (6, 7), (6, 8),
    }


def test_pdg_roundtrip_and_invariants():
    rng = Rng(99)
    for _ in range(25):
        src = random_source(rng.fork(str(rng.randint(0, 10**9))))
        pdg = pdg_from_source(src)
        n = len(pdg.nodes)
        for e in pdg.edges:
            assert 0 <= e.src < n and 0 <= e.dst < n
            assert e.src != e.dst
            if e.kind == "data":
                assert e.var in pdg.nodes[e.src].defs
                assert e.var in pdg.nodes[e.dst].uses
            else:
                assert pdg.nodes[e.src].kind in ("if-pred", "while-pred", "for-pred")
        again = pdg_from_dict(json.loads(pdg_to_json(pdg)))
        assert pdg_to_dict(again) == pdg_to_dict(pdg)


def test_pdg_node_index_that_is_not_an_integer_is_a_schema_error():
    # The nodes are sorted by index, so a string among the integers has to be
    # refused before the sort compares it with them.
    data = pdg_to_dict(pdg_from_source((FIXTURES / "device_xcmd.c").read_text()))
    data["nodes"][1]["index"] = "x"
    with pytest.raises(SchemaError, match=r"pdg node indices must be 0\.\.11$"):
        pdg_from_dict(data)


def test_pdg_neighbors_sorted_both_directions():
    src = (FIXTURES / "device_xcmd.c").read_text()
    pdg = pdg_from_source(src)
    assert pdg.neighbors(5, "data") == [1, 4, 6, 11]
    assert pdg.neighbors(5, "control") == [2]
    assert pdg.neighbors(5) == [1, 2, 4, 6, 11]


def test_dot_export_mentions_all_nodes():
    src = (FIXTURES / "device_xcmd.c").read_text()
    pdg = pdg_from_source(src)
    dot = pdg_to_dot(pdg)
    assert dot.startswith('digraph "device_xcmd"')
    for s in pdg.nodes:
        assert f"n{s.index} " in dot
