import json
import pathlib

import pytest

from vulgraph.errors import EmptyMethod, IllegalCharacter, ParseError, UnterminatedString
from vulgraph.frontend import (
    build_cfg,
    control_dependences,
    data_dependences,
    parse_method,
    pdg_from_dict,
    pdg_from_source,
    pdg_to_dict,
    pdg_to_dot,
    pdg_to_json,
    tokenize,
)
from vulgraph.frontend.cfg import _repair_edges, _structural_edges
from vulgraph.rng import Rng

from oracles import (
    brute_control_deps,
    brute_data_deps,
    per_node_repair_edges,
    random_source,
    set_control_deps,
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
        assert _repair_edges(len(m.stmts), structural) == want, src
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
