import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulgraph.errors import VocabularyError
from vulgraph.features import (
    PAD_ID,
    UNK_ID,
    Vocabulary,
    build_vocabulary,
    extract_method_features,
    split_identifier,
)
from vulgraph.corpus import generate_planted_corpus
from vulgraph.autodiff import Tensor, init_params
from vulgraph.encoders import GRU_GATES, _run_context_gru, _token_keys, _token_matrix, cell_layout, cell_params
from vulgraph.frontend import pdg_from_dict, pdg_from_source, pdg_to_dict
from vulgraph.rng import Rng

from oracles import context_gru_per_statement, method_features, random_source, token_matrix_per_row, vectorize


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


def test_split_identifier_cases():
    assert split_identifier("copy_to_user") == ["copy", "to", "user"]
    assert split_identifier("getFileName") == ["get", "file", "name"]
    assert split_identifier("s_cmd") == ["cmd"]  # single chars dropped
    assert split_identifier("HTTPResponse2xx") == ["http", "response", "xx"]
    assert split_identifier("x") == []
    assert split_identifier("var29name") == ["var", "29", "name"]


@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), max_size=30))
def test_split_identifier_lowercase_and_min_length(name):
    for tok in split_identifier(name):
        assert tok == tok.lower()
        assert len(tok) > 1
        assert tok.isalnum()


def test_statement_subtokens_composite_call():
    pdg = pdg_from_source(
        "int f(int arg) { int ret; struct dev *ec; int s_cmd;"
        " ret = cros_ec_cmd_xfer(ec->ec_dev, s_cmd); return ret; }"
    )
    bundle = extract_method_features(pdg)[3]
    expected_order = ["ret", "cros", "ec", "cmd", "xfer", "ec", "dev", "cmd"]
    assert _is_subsequence(expected_order, bundle.subtokens)
    # full sequence under the shallow field model: base then field name
    assert bundle.subtokens == ["ret", "cros", "ec", "cmd", "xfer", "ec", "ec", "dev", "cmd"]


def test_subtokens_empty_after_length_filter():
    pdg = pdg_from_source("int f(void) { int a = 1; int b = a; }")
    bundles = extract_method_features(pdg)
    assert bundles[1].subtokens == []  # int is a keyword, a/b too short


def test_var_names_types_and_unk():
    pdg = pdg_from_source(
        "int f(int arg) { size_t big_len = rd(arg); out_buf = big_len + stray_var; }"
    )
    bundles = extract_method_features(pdg)
    b = bundles[1]
    assert b.index == 1
    # variables sorted: big_len, out_buf, stray_var
    assert b.var_names == [["big", "len"], ["out", "buf"], ["stray", "var"]]
    assert b.var_types == [["size_t"], ["UNK"], ["UNK"]]
    b0 = bundles[0]
    assert b0.var_names == [["arg"], ["big", "len"]]
    assert b0.var_types == [["int"], ["size_t"]]


def test_context_lists_sorted_and_capped():
    pdg = pdg_from_source(
        """
        int f(int n) {
            int a = n;
            int b = a;
            if (a > 0) {
                b = a + 1;
            }
            return b;
        }
        """
    )
    bundles = extract_method_features(pdg)
    a_decl = bundles[0]
    assert a_decl.data_ctx == [1, 2, 3]
    assert a_decl.ctrl_ctx == []
    body = bundles[3]
    assert body.ctrl_ctx == [2]
    # cap: a statement with many data neighbors keeps the 8 nearest by index
    src_lines = ["int hub = seed;"] + [f"int v{i:02d} = hub + {i};" for i in range(12)]
    pdg2 = pdg_from_source("int g(int seed) { " + " ".join(src_lines) + " }")
    hub = extract_method_features(pdg2)[0]
    assert hub.data_ctx == list(range(1, 9))
    assert len(hub.data_ctx) == 8


def test_vocabulary_reserved_ids_and_ordering():
    pdg = pdg_from_source("int f(void) { int alpha_beta = 1; alpha_beta = alpha_beta + 2; }")
    bundles = extract_method_features(pdg)
    vocab = build_vocabulary([bundles])
    ids = sorted(vocab.token_to_id.values())
    assert ids == list(range(2, 2 + len(ids)))
    assert PAD_ID == 0 and UNK_ID == 1
    # "alpha" and "beta" tie on count; lexicographic order breaks the tie
    assert vocab.token_to_id["alpha"] + 1 == vocab.token_to_id["beta"]
    counts_order = sorted(
        vocab.token_to_id.items(), key=lambda kv: kv[1]
    )
    assert counts_order[0][0] in ("alpha", "id:alpha_beta", "intlit")  # most frequent first


def test_vectorize_pad_truncate_mask():
    vocab = Vocabulary({"aa": 2, "bb": 3})
    ids, mask = vectorize(["aa", "zz", "bb"], vocab, 5)
    assert ids.tolist() == [2, UNK_ID, 3, PAD_ID, PAD_ID]
    assert mask.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    ids2, mask2 = vectorize(["aa", "bb", "aa", "bb"], vocab, 2)
    assert ids2.tolist() == [2, 3]  # prefix kept
    assert mask2.tolist() == [1.0, 1.0]
    ids3, mask3 = vectorize([], vocab, 3)
    assert ids3.tolist() == [0, 0, 0] and mask3.tolist() == [0.0, 0.0, 0.0]
    assert ids.dtype == np.int64 and mask.dtype == np.float64


def test_vocabulary_roundtrip_and_validation():
    vocab = Vocabulary({"aa": 2, "bb": 3})
    again = Vocabulary.from_dict(vocab.to_dict())
    assert again.token_to_id == vocab.token_to_id
    with pytest.raises(VocabularyError):
        Vocabulary.from_dict({"tokens": {"aa": 5}})
    with pytest.raises(VocabularyError):
        vectorize(["aa"], vocab, 0)


def test_vocabulary_deterministic_across_orderings():
    pdg = pdg_from_source("int f(void) { int foo_bar = 1; int baz_qux = foo_bar; }")
    bundles = extract_method_features(pdg)
    v1 = build_vocabulary([bundles])
    v2 = build_vocabulary([list(reversed(bundles))])
    # counts identical regardless of bundle order -> identical table
    assert v1.token_to_id == v2.token_to_id


def test_split_identifier_returns_a_fresh_list():
    first = split_identifier("copy_to_user")
    first.append("extra")
    assert split_identifier("copy_to_user") == ["copy", "to", "user"]


def test_features_match_the_neighbors_reference():
    rng = Rng(8)
    sources = [line["source"] for seed in (1, 2, 3) for line in generate_planted_corpus(60, seed)]
    sources += [random_source(rng.fork(str(i)), max_stmts=60) for i in range(60)]
    hubs = ["int hub = seed;"] + [f"int v{i:02d} = hub + v{i - 1:02d};" for i in range(1, 20)]
    sources.append("int g(int seed) { int v00 = 0; " + " ".join(hubs) + " return hub; }")
    capped = 0
    for source in sources:
        pdg = pdg_from_source(source)
        for graph in (pdg, pdg_from_dict(pdg_to_dict(pdg))):
            bundles = extract_method_features(graph)
            assert bundles == method_features(graph), source
            capped += sum(len(b.data_ctx) == 8 for b in bundles)
    assert capped > 0  # the cap on context length was exercised


_TOKENS = st.sampled_from(["aa", "bb", "cc", "zz", "intlit", "", "id:x"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seqs=st.lists(st.lists(_TOKENS, max_size=9), min_size=1, max_size=12))
def test_token_matrix_is_bitwise_the_per_row_vectorize(seqs):
    vocab = Vocabulary({"aa": 2, "bb": 3, "cc": 4, "intlit": 5, "": 6})
    ids, mask = _token_matrix(_token_keys(seqs, vocab))
    want_ids, want_mask = token_matrix_per_row(seqs, vocab)
    for got, want in ((ids, want_ids), (mask, want_mask)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(contexts=st.lists(st.lists(st.integers(0, 9), max_size=8), min_size=1, max_size=12))
def test_context_gru_is_bitwise_the_per_statement_fill(contexts):
    gru = cell_params(init_params(Rng(5), cell_layout("g", GRU_GATES, 6, 6)), "g", GRU_GATES)
    f1 = Tensor(np.random.default_rng(len(contexts)).normal(0.0, 1.0, (10, 6)))
    got = _run_context_gru(gru, f1, contexts).data
    want = context_gru_per_statement(gru, f1, contexts).data
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
