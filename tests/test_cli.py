import collections
import hashlib
import json
import pathlib
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from vulgraph import explain
from vulgraph.autodiff import ParamStore, Tensor
from vulgraph.cli import load_run_config, main
from vulgraph.corpus import iter_corpus, load_corpus
from vulgraph.encoders import EncoderConfig
from vulgraph.errors import CheckpointError, ConfigError
from vulgraph.autodiff import save_checkpoint
from vulgraph.autodiff.checkpoint import MAGIC
from vulgraph.fagcn import _chunk_logits, forward_methods, frozen, graph_logits, load_model, new_model, save_model
from vulgraph.features import build_vocabulary, extract_method_features
from vulgraph.frontend import pdg_from_source, pdg_to_dict
from vulgraph.frontend.parser import NESTING_BOUND

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

FAST_CONFIG = {
    "epochs": 2,
    "embed_dim": 8,
    "gru_hidden": 8,
    "stmt_dim": 12,
    "explain_iterations": 40,
    "real_ratio": 1.0,
}


# --- configuration ----------------------------------------------------------


def test_config_defaults_file_flags_precedence(tmp_path):
    assert load_run_config(None, {}).k == 5

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 7, "seed": 3}), encoding="utf-8")
    cfg = load_run_config(str(path), {})
    assert cfg.k == 7 and cfg.seed == 3

    cfg = load_run_config(str(path), {"k": 9, "seed": None})
    assert cfg.k == 9 and cfg.seed == 3  # flag overrides file; None means unset


def test_config_rejects_unknown_keys_and_bad_json(tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"warp_factor": 9}), encoding="utf-8")
    with pytest.raises(ConfigError, match="warp_factor"):
        load_run_config(str(bad_key), {})

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_run_config(str(not_json), {})

    removed = tmp_path / "jobs.json"
    removed.write_text(json.dumps({"jobs": 2}), encoding="utf-8")
    with pytest.raises(ConfigError, match="jobs"):
        load_run_config(str(removed), {})

    removed.write_text(json.dumps({"tree_hidden": 32}), encoding="utf-8")
    with pytest.raises(ConfigError, match="tree_hidden"):
        load_run_config(str(removed), {})


# --- parse ------------------------------------------------------------------


def test_parse_emits_golden_bytes(capsys):
    assert main(["parse", str(FIXTURES / "device_xcmd.c")]) == 0
    out = capsys.readouterr().out
    assert out == (FIXTURES / "device_xcmd.pdg.json").read_text()


def test_parse_writes_json_and_dot_files(tmp_path):
    out = tmp_path / "parsed"
    code = main(
        ["parse", str(FIXTURES / "device_xcmd.c"), "--out", str(out), "--dot"]
    )
    assert code == 0
    json_files = list(out.glob("*.pdg.json"))
    dot_files = list(out.glob("*.dot"))
    assert len(json_files) == 1 and len(dot_files) == 1
    assert dot_files[0].read_text().startswith("digraph")


def test_parse_dot_without_out_is_validation_error(capsys):
    # DOT files are only written into --out; without it they would be dropped
    assert main(["parse", str(FIXTURES / "device_xcmd.c"), "--dot"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--out" in captured.err
    assert captured.out == ""


def test_parse_error_names_its_file_after_the_earlier_files_are_written(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int f(void) {\n    int x = @;\n}\n", encoding="utf-8")
    assert main(["parse", str(FIXTURES / "device_xcmd.c"), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (FIXTURES / "device_xcmd.pdg.json").read_text()
    assert captured.err == f"error: {bad}: illegal character '@' at 2:13\n"


def test_parse_missing_file_is_validation_error(capsys):
    assert main(["parse", "/nonexistent/source.c"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, where",
    [
        ("int b = \u00b2;", "2:13"),
        ("int x;\n    x = \u0663;", "3:9"),
        ("int c = 0x;", "2:13"),
        # nesting past NESTING_BOUND (100): the first token one level deeper
        pytest.param("x = " + "(" * 400 + "a" + ")" * 400 + ";", "2:109", id="400_parentheses"),
        pytest.param("x = " + "- " * 600 + "a;", "2:209", id="600_unary_minuses"),
        pytest.param("if (x) " * 2000 + "x = 1;", "2:709", id="2000_nested_ifs"),
        pytest.param("{" * 2000 + "x = 1;" + "}" * 2000, "2:105", id="2000_nested_blocks"),
        pytest.param("x = a" + " + a" * 2000 + ";", "2:407", id="2000_term_sum"),
    ],
)
def test_parse_rejects_literals_outside_the_grammar(tmp_path, capsys, body, where):
    source = tmp_path / "literal.c"
    source.write_text(f"int f(void) {{\n    {body}\n}}\n", encoding="utf-8")
    assert main(["parse", str(source)]) == 1
    assert f"at {where}" in capsys.readouterr().err


# --- pipeline ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-corpus -> train -> detect -> explain, with artifacts on disk."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "fast.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    corpus = root / "tiny.jsonl"
    model = root / "model.json"

    assert main(["gen-corpus", "--n", "24", "--seed", "3", "--out", str(corpus)]) == 0
    assert (
        main(
            [
                "train", str(corpus), "--out", str(model),
                "--split-out", str(root / "splits"), "--config", str(cfg_path),
            ]
        )
        == 0
    )
    test_corpus = root / "splits.test.jsonl"
    detections = root / "det.json"
    assert (
        main(["detect", str(test_corpus), "--model", str(model), "--out", str(detections)])
        == 0
    )

    vuln_id = None
    for line in test_corpus.read_text().splitlines():
        entry = json.loads(line)
        if entry["label"] == "V":
            vuln_id = entry["id"]
            break
    assert vuln_id is not None

    explanations = root / "expl"
    assert (
        main(
            [
                "explain", str(test_corpus), "--model", str(model),
                "--method", vuln_id, "--out", str(explanations),
                "--config", str(cfg_path),
            ]
        )
        == 0
    )
    return {
        "root": root,
        "config": cfg_path,
        "corpus": corpus,
        "model": model,
        "test_corpus": test_corpus,
        "detections": detections,
        "explanations": explanations / "explanations.json",
        "vuln_id": vuln_id,
    }


def test_train_writes_checkpoint_log_and_splits(pipeline):
    root = pipeline["root"]
    assert pipeline["model"].exists()
    log = json.loads((root / "model.json.log.json").read_text())
    assert log["epochs"] and {"epoch", "loss", "tuning_auc"} <= set(log["epochs"][0])
    assert set(log["splits"]) == {"train", "tune", "test"}
    split_ids = [i for part in log["splits"].values() for i in part]
    assert len(split_ids) == len(set(split_ids))
    for name in ("train", "tune", "test"):
        assert (root / f"splits.{name}.jsonl").exists()


def test_train_extracts_features_once_per_method(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n", "24", "--seed", "3", "--out", str(corpus)]) == 0
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    calls = collections.Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("vulgraph") and hasattr(module, "extract_method_features"):
            extract = module.extract_method_features

            def counting(pdg, extract=extract):
                calls[pdg.method] += 1
                return extract(pdg)

            monkeypatch.setattr(module, "extract_method_features", counting)
    model = tmp_path / "model.json"
    assert main(["train", str(corpus), "--out", str(model), "--config", str(cfg)]) == 0
    splits = json.loads((tmp_path / "model.json.log.json").read_text())["splits"]
    names = {e.id: e.pdg.method for e in load_corpus(corpus)}
    assert calls == collections.Counter(names[mid] for mid in splits["train"] + splits["tune"])


def test_detect_report_is_ranked(pipeline):
    report = json.loads(pipeline["detections"].read_text())
    rows = report["methods"]
    assert rows and [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(r["decision"] in ("V", "NV") for r in rows)
    assert 0.0 <= report["threshold"] <= 1.0


def test_explain_report_contents(pipeline):
    rows = json.loads(pipeline["explanations"].read_text())
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == pipeline["vuln_id"]
    assert {"decision", "edges", "statements", "abstract", "score", "k"} <= set(row)
    masks = [e["mask"] for e in row["edges"]]
    assert masks == sorted(masks, reverse=True)
    labels = [label for _, label in row["abstract"]["nodes"]]
    assert labels and all("VAR" in l or "LITERAL" in l or "(" in l for l in labels)
    dot = (pipeline["explanations"].parent / f"{row['method']}.dot").read_text()
    assert dot.startswith("digraph")


def test_evaluate_full_report(pipeline, capsys):
    code = main(
        [
            "evaluate",
            "--detections", str(pipeline["detections"]),
            "--explanations", str(pipeline["explanations"]),
            "--corpus", str(pipeline["test_corpus"]),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert {"auc", "classification", "ranking", "interpretation", "counts"} <= set(report)
    assert report["counts"]["explanations_evaluated"] == 1
    assert 0.0 <= report["interpretation"]["accuracy"] <= 1.0


def test_evaluate_without_explanations_skips_interpretation(pipeline, capsys):
    code = main(
        [
            "evaluate",
            "--detections", str(pipeline["detections"]),
            "--corpus", str(pipeline["test_corpus"]),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "interpretation" not in report


def test_evaluate_skips_explanations_of_pdg_entries(pipeline, tmp_path, capsys):
    # fix lines are source lines; a serialized PDG's statements carry none
    rows = []
    for e in load_corpus(pipeline["test_corpus"]):
        fix = e.fix and {"changed": list(e.fix.changed), "added": list(e.fix.added)}
        rows.append({"id": e.id, "source": None, "pdg": pdg_to_dict(e.pdg), "label": e.label, "fix": fix})
    corpus = tmp_path / "pdgs.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    args = ["evaluate", "--detections", str(pipeline["detections"]), "--explanations", str(pipeline["explanations"])]
    for path, evaluated in ((pipeline["test_corpus"], 1), (corpus, 0)):
        assert main(args + ["--corpus", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["explanations_evaluated"] == evaluated
        assert report["counts"]["explanations_skipped"] == 1 - evaluated
        assert ("interpretation" in report) == bool(evaluated)


def test_evaluate_unknown_method_is_validation_error(pipeline, tmp_path, capsys):
    bogus = tmp_path / "det.json"
    bogus.write_text(
        json.dumps(
            {"methods": [{"method": "ghost", "score": 0.9, "decision": "V", "rank": 1}]}
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "evaluate",
            "--detections", str(bogus),
            "--corpus", str(pipeline["test_corpus"]),
        ]
    )
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_detect_bytes_stable_across_runs(pipeline, tmp_path):
    out = tmp_path / "det_again.json"
    assert (
        main(
            [
                "detect", str(pipeline["test_corpus"]),
                "--model", str(pipeline["model"]), "--out", str(out),
            ]
        )
        == 0
    )
    assert out.read_bytes() == pipeline["detections"].read_bytes()


def _nested_list(height: int) -> list:
    tree: list = ["id:x", []]
    for _ in range(height - 1):
        tree = ["un:-", [tree]]
    return tree


def _break_node_order(pdg: dict) -> None:
    for node in pdg["nodes"]:
        node["index"] += 1
    for edge in pdg["edges"]:
        edge["src"] += 1
        edge["dst"] += 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda pdg: pdg["edges"].append({"src": 0, "dst": 99, "kind": "data", "var": "x"}),
        _break_node_order,
        lambda pdg: pdg["edges"].append({"src": 0, "dst": 1, "kind": "alias", "var": None}),
        lambda pdg: pdg["nodes"][0].update(kind="alias"),
        lambda pdg: pdg["nodes"][0].update(ast="x"),
        lambda pdg: pdg["nodes"][0].update(ast=["id:x", "y"]),
        lambda pdg: pdg["nodes"][0].update(ast=["id:x"]),
        lambda pdg: pdg["nodes"][0].update(ast=_nested_list(NESTING_BOUND + 1)),
        lambda pdg: pdg["nodes"][0].update(kind="decl", ast=["decl", [["id:x", []]]]),
        lambda pdg: pdg["nodes"][0].update(kind="assign", ast=["assign:=", [["id:x", []]]]),
        lambda pdg: pdg["nodes"][0].update(text=5),
        lambda pdg: pdg["nodes"][0].update(defs=[7]),
        lambda pdg: pdg["nodes"][0].update(uses="ab"),
        lambda pdg: pdg["edges"][0].update(var=9),
    ],
    ids=["edge_out_of_range", "indices_from_one", "unknown_edge_kind", "unknown_statement_kind",
         "ast_not_a_list", "ast_children_not_a_list", "ast_without_children", "ast_past_the_nesting_bound",
         "decl_without_declarator", "assign_with_one_side", "text_not_a_string", "defs_not_strings",
         "uses_a_string", "var_not_a_string"],
)
def test_detect_skips_malformed_pdg_entries(tmp_path, capsys, corrupt):
    generated = tmp_path / "generated.jsonl"
    assert main(["gen-corpus", "--n", "20", "--seed", "5", "--out", str(generated)]) == 0
    entries = load_corpus(generated)
    lines = []
    for e in entries:
        row = {"id": e.id, "source": None, "pdg": pdg_to_dict(e.pdg), "label": e.label, "fix": None}
        if e is entries[7]:
            corrupt(row["pdg"])
        lines.append(json.dumps(row))
    corpus = tmp_path / "pdgs.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = build_vocabulary([extract_method_features(e.pdg) for e in entries])
    model = tmp_path / "model.json"
    save_model(model, new_model(vocab, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)))
    out = tmp_path / "det.json"
    capsys.readouterr()
    assert main(["detect", str(corpus), "--model", str(model), "--out", str(out)]) == 0
    assert f"skipping {entries[7].id}: SchemaError" in capsys.readouterr().err
    ranked = [row["method"] for row in json.loads(out.read_text())["methods"]]
    assert sorted(ranked) == sorted(e.id for e in entries if e is not entries[7])


def _deep_method(levels: int) -> str:
    """A method nested `levels` deep three ways: if bodies with a sum inside,
    parentheses, and calls."""
    innermost = "a = a" + " + a" * (levels - 2) + ";"
    return (
        "int deep(int a) {\n"
        + "if (a) { " * (levels - 2) + innermost + " }" * (levels - 2) + "\n"
        + "a = " + "(" * (levels - 1) + "a" + ")" * (levels - 1) + ";\n"
        + "a = " + "g(" * (levels - 2) + "a" + ")" * (levels - 2) + ";\n"
        + "return a;\n}\n"
    )


def _corpus_with(tmp_path, source: str):
    """The 20-method generated corpus with entry 7's source replaced, and an
    untrained model over its vocabulary."""
    generated = tmp_path / "generated.jsonl"
    assert main(["gen-corpus", "--n", "20", "--seed", "5", "--out", str(generated)]) == 0
    entries = load_corpus(generated)
    rows = [{"id": e.id, "source": e.source, "pdg": None, "label": e.label, "fix": None} for e in entries]
    rows[7]["source"] = source
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    vocab = build_vocabulary([extract_method_features(e.pdg) for e in entries])
    model = tmp_path / "model.json"
    save_model(model, new_model(vocab, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)))
    return corpus, model, [row["id"] for row in rows]


def test_detect_skips_a_method_nested_past_the_bound(tmp_path, capsys):
    corpus, model, ids = _corpus_with(tmp_path, _deep_method(NESTING_BOUND + 1))
    out = tmp_path / "det.json"
    capsys.readouterr()
    assert main(["detect", str(corpus), "--model", str(model), "--out", str(out)]) == 0
    assert f"skipping {ids[7]}: ParseError: nesting deeper than {NESTING_BOUND} levels" in capsys.readouterr().err
    ranked = [row["method"] for row in json.loads(out.read_text())["methods"]]
    assert sorted(ranked) == sorted(ids[:7] + ids[8:])


def test_method_at_the_nesting_bound_goes_through_detect_and_explain(tmp_path, capsys):
    source = _deep_method(NESTING_BOUND)
    assert max(_tree_height(node.ast) for node in pdg_from_source(source).nodes) == NESTING_BOUND
    corpus, model, ids = _corpus_with(tmp_path, source)
    out = tmp_path / "det.json"
    assert main(["detect", str(corpus), "--model", str(model), "--out", str(out)]) == 0
    assert sorted(row["method"] for row in json.loads(out.read_text())["methods"]) == sorted(ids)
    explained = tmp_path / "expl"
    assert main(["explain", str(corpus), "--model", str(model), "--method", ids[7], "--out", str(explained)]) == 0
    (report,) = json.loads((explained / "explanations.json").read_text())
    assert report["method"] == ids[7] and report["edges"]
    capsys.readouterr()


def test_detect_skips_a_pdg_with_no_statements(tmp_path, capsys):
    source = "int one(int src) { int n = read_size(src); return n; }"
    row = {"id": "m_src", "source": source, "pdg": None, "label": "NV", "fix": None}
    empty = {"id": "m_empty", "source": None, "pdg": {"method": "empty", "nodes": [], "edges": []},
             "label": "NV", "fix": None}
    model = tmp_path / "model.json"
    vocab = build_vocabulary([extract_method_features(pdg_from_source(source))])
    save_model(model, new_model(vocab, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)))

    def detect(name, rows):
        corpus, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.det.json"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        assert main(["detect", str(corpus), "--model", str(model), "--out", str(out)]) == 0
        return json.loads(out.read_text())["methods"]

    alone = detect("alone", [row])
    capsys.readouterr()
    # the empty entry is skipped, and the method after it scores as it does alone
    assert detect("mixed", [empty, row]) == alone
    assert "skipping m_empty: EmptyMethod: pdg of method 'empty' has no statements" in capsys.readouterr().err
    assert [r["method"] for r in alone] == ["m_src"]
    assert detect("empty", [empty]) == []


def _tree_height(ast) -> int:
    return 1 + max((_tree_height(child) for child in ast[1]), default=0)


def test_explain_bytes_stable_across_runs(pipeline, tmp_path):
    out = tmp_path / "expl_again"
    assert (
        main(
            [
                "explain", str(pipeline["test_corpus"]),
                "--model", str(pipeline["model"]),
                "--method", pipeline["vuln_id"], "--out", str(out),
                "--config", str(pipeline["config"]),
            ]
        )
        == 0
    )
    assert (out / "explanations.json").read_bytes() == pipeline["explanations"].read_bytes()


@pytest.fixture(scope="module")
def untrained(tmp_path_factory):
    """A 48-method corpus and an untrained model whose statement matrices for
    some methods differ in the last bits between a 16-method chunk and a
    chunk of one."""
    root = tmp_path_factory.mktemp("untrained")
    corpus = root / "corpus.jsonl"
    assert main(["gen-corpus", "--n", "48", "--seed", "3", "--out", str(corpus)]) == 0
    entries = [e for e in load_corpus(corpus) if e.pdg is not None]
    assert all(e.pdg.edges for e in entries)
    vocab = build_vocabulary([extract_method_features(e.pdg) for e in entries])
    model = root / "model.json"
    save_model(model, new_model(vocab, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12), seed=2))
    quick = root / "quick.json"
    quick.write_text(json.dumps({"explain_iterations": 1}), encoding="utf-8")
    args = ["explain", str(corpus), "--model", str(model), "--config", str(quick)]
    for e in entries:
        args += ["--method", e.id]
    return entries, model, args


def test_explain_scores_are_the_detection_scores(untrained, tmp_path):
    entries, model, args = untrained
    detections = tmp_path / "det.json"
    assert main(["detect", args[1], "--model", str(model), "--out", str(detections)]) == 0
    assert main(args + ["--out", str(tmp_path / "expl")]) == 0
    detected = {
        row["method"]: (row["score"], row["decision"])
        for row in json.loads(detections.read_text())["methods"]
    }
    rows = json.loads((tmp_path / "expl" / "explanations.json").read_text())
    assert sorted(row["method"] for row in rows) == sorted(detected)
    for row in rows:
        assert (row["score"], row["decision"]) == detected[row["method"]]


def test_explain_masks_the_forward_pass_detect_scored(untrained, monkeypatch, tmp_path):
    entries, model_path, args = untrained
    seen = []  # the statement matrix of each explainer iteration, one per method here
    explain_logits = explain.graph_logits

    def recording(slots, weights, feats, store):
        seen.append(feats.data.copy())
        return explain_logits(slots, weights, feats, store)

    monkeypatch.setattr(explain, "graph_logits", recording)
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert len(seen) == len(entries) >= 32

    model = frozen(load_model(model_path))
    items = [(e.id, e.pdg) for e in entries]
    moved = 0
    for lo in range(0, len(items), 16):
        detect_logits, detect_feats = _chunk_logits(model, items[lo : lo + 16])
        for i, (_, pdg) in enumerate(items[lo : lo + 16]):
            assert np.array_equal(seen[lo + i], detect_feats[i].data), pdg.method
            edges = explain.edge_slots(pdg)
            open_gate = explain.masked_adjacency(edges, Tensor(np.full(len(pdg.edges), np.inf)))
            got = graph_logits(edges.slots, open_gate, Tensor(seen[lo + i]), model.store).data
            assert np.array_equal(got, detect_logits.data[i : i + 1]), pdg.method
            ((_, _, alone),) = forward_methods(model, [("m", pdg)])
            moved += not np.array_equal(alone.data, seen[lo + i])
    assert moved  # the chunk's matrices are not those of encoding a method alone


def test_explain_encodes_each_method_once(untrained, monkeypatch, tmp_path):
    entries, _, args = untrained
    calls = collections.Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("vulgraph") and hasattr(module, "encode_method_batch"):
            encode = module.encode_method_batch

            def counting(pdgs, *rest, encode=encode, **kw):
                calls.update(p.method for p in pdgs)
                return encode(pdgs, *rest, **kw)

            monkeypatch.setattr(module, "encode_method_batch", counting)
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert calls == collections.Counter(e.pdg.method for e in entries)


def test_explain_unknown_method_is_validation_error(pipeline, capsys):
    code = main(
        [
            "explain", str(pipeline["test_corpus"]),
            "--model", str(pipeline["model"]), "--method", "nope",
        ]
    )
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_explain_names_a_forced_method_whose_parse_failed(tmp_path, capsys):
    corpus, model, ids = _corpus_with(tmp_path, _deep_method(NESTING_BOUND + 1))
    out = tmp_path / "expl"
    capsys.readouterr()
    assert main(["explain", str(corpus), "--model", str(model), "--method", ids[7], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"skipping {ids[7]}: ParseError" in err
    assert err.endswith(f"error: method ids skipped because their parse failed: [{ids[7]!r}]\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "last_line",
    [lambda lines: "{not json", lambda lines: lines[0]],
    ids=["invalid_json", "duplicate_id"],
)
@pytest.mark.parametrize("command", ["detect", "explain", "evaluate"])
def test_a_bad_last_line_writes_no_report(pipeline, tmp_path, capsys, command, last_line):
    # detect and explain score methods before the corpus is read to its end
    lines = pipeline["test_corpus"].read_text(encoding="utf-8").splitlines()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines + [last_line(lines)]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {
        "detect": ["detect", str(corpus), "--model", str(pipeline["model"])],
        "explain": ["explain", str(corpus), "--model", str(pipeline["model"]), "--config", str(pipeline["config"])],
        "evaluate": ["evaluate", "--corpus", str(corpus), "--detections", str(pipeline["detections"]),
                     "--explanations", str(pipeline["explanations"])],
    }[command]
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {len(lines) + 1}: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """Planted corpora of 32 and 256 methods, whose first 32 methods are
    the same, and an untrained model over the larger one's vocabulary."""
    root = tmp_path_factory.mktemp("streamed")
    corpora = {}
    for n in (32, 256):
        corpora[n] = root / f"corpus{n}.jsonl"
        assert main(["gen-corpus", "--n", str(n), "--seed", "1", "--out", str(corpora[n])]) == 0
    entries = load_corpus(corpora[256])
    vocab = build_vocabulary([extract_method_features(e.pdg) for e in entries])
    model = root / "model.json"
    save_model(model, new_model(vocab, EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)))
    quick = root / "quick.json"
    quick.write_text(json.dumps({"explain_iterations": 2}), encoding="utf-8")
    return corpora, model, quick, entries[0].id


@pytest.mark.parametrize("command", ["detect", "explain"])
def test_a_run_holds_one_chunk_of_parsed_methods(streamed, tmp_path, capsys, command):
    # A run's peak Python heap may grow with the corpus only by its per-method
    # rows (an id, a score, a report row), not by the methods it has parsed:
    # a parsed planted method is about 10 KiB.
    corpora, model, quick, method = streamed
    args = {
        "detect": ["detect", "--model", str(model), "--out", str(tmp_path / "det.json")],
        "explain": ["explain", "--model", str(model), "--config", str(quick), "--method", method,
                    "--out", str(tmp_path / "expl")],
    }[command]
    assert main(args + [str(corpora[32])]) == 0  # fill the caches a first run fills
    peaks = {}
    for n, corpus in corpora.items():
        tracemalloc.start()
        try:
            assert main(args + [str(corpus)]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[256] - peaks[32] <= 2048 * (256 - 32), peaks


# --- mine -------------------------------------------------------------------


def _fake_explanation(method):
    return {
        "method": method,
        "decision": "V",
        "k": 2,
        "score": 0.9,
        "edges": [],
        "statements": [],
        "abstract": {
            "nodes": [[0, "int VAR = read_input(VAR);"], [1, "copy_bytes(VAR, VAR);"]],
            "edges": [[0, 1, "data"]],
        },
    }


def test_mine_reports_patterns_and_count_table(tmp_path, capsys):
    path = tmp_path / "expl.json"
    path.write_text(
        json.dumps([_fake_explanation("a"), _fake_explanation("b")]), encoding="utf-8"
    )
    assert main(["mine", str(path), "--min-support", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_support"] == 2
    assert len(report["patterns"]) == 1
    assert report["patterns"][0]["support"] == 2
    table = report["count_table"]
    assert table["sizes"] == [2, 3, 4, 5] and table["supports"] == [2, 3, 4, 5]


def test_mine_writes_dot_files(tmp_path):
    path = tmp_path / "expl.json"
    path.write_text(
        json.dumps([_fake_explanation("a"), _fake_explanation("b")]), encoding="utf-8"
    )
    out = tmp_path / "mined"
    assert main(["mine", str(path), "--min-support", "2", "--out", str(out)]) == 0
    assert (out / "patterns.json").exists()
    assert (out / "pattern_000.dot").read_text().startswith("digraph")


def test_mine_sizes_out_of_order_names_the_rule_and_the_pair(tmp_path, capsys):
    path = tmp_path / "expl.json"
    path.write_text(json.dumps([_fake_explanation("a"), _fake_explanation("b")]), encoding="utf-8")
    assert main(["mine", str(path), "--sizes", "3,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1 <= LO <= HI <= 8" in err and "LO=3, HI=1" in err


def test_mine_requires_abstract_graphs(tmp_path, capsys):
    path = tmp_path / "expl.json"
    row = _fake_explanation("a")
    del row["abstract"]
    path.write_text(json.dumps([row]), encoding="utf-8")
    assert main(["mine", str(path)]) == 1
    assert "abstract" in capsys.readouterr().err


@pytest.mark.parametrize(
    "part, value, message",
    [
        ("abstract", {"nodes": [[0, "A"], [0, "B"], [1, "C"]], "edges": [[0, 1, "data"]]},
         "an abstract node id is listed twice"),
        ("abstract", {"nodes": [[0, 7], [1, "C"]], "edges": [[0, 1, "data"]]},
         "an abstract node label is not a string"),
        ("abstract", {"nodes": [[0, {"x": 1}], [1, "C"]], "edges": [[0, 1, "data"]]},
         "an abstract node label is not a string"),
        ("statements", [{"index": 3, "importance": 0.9}, {"index": 3, "importance": 0.4}],
         "a statement index is listed twice"),
    ],
    ids=["node_id_listed_twice", "label_an_integer", "label_an_object", "statement_index_listed_twice"],
)
def test_mine_rejects_a_repeated_id_or_a_label_that_is_not_a_string(tmp_path, capsys, part, value, message):
    # read whole, the first row's B -> C would count toward a support of 2
    second = dict(_fake_explanation("b"), abstract={"nodes": [[0, "B"], [1, "C"]], "edges": [[0, 1, "data"]]})
    path = tmp_path / "expl.json"
    path.write_text(json.dumps([dict(_fake_explanation("a"), **{part: value}), second]), encoding="utf-8")
    assert main(["mine", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: explanations row 1: {message}\n"


def _drop(key):
    def damage(rows):
        del rows[0][key]
        return rows

    return damage


@pytest.mark.parametrize(
    "command, damage",
    [
        ("evaluate-detections", lambda report: {"methods": _drop("method")(report["methods"])}),
        ("evaluate-detections", lambda report: report["methods"]),  # a bare list is not a report
        ("evaluate-explanations", _drop("statements")),
        ("evaluate-explanations", lambda rows: {"explanations": rows}),
        ("mine", lambda rows: [dict(rows[0], abstract={"nodes": 5, "edges": []})]),
        ("mine", lambda rows: {"explanations": rows}),  # only the list explain writes
        ("mine", lambda rows: [7]),
    ],
    ids=[
        "row_without_method", "bare_detection_list", "row_without_statements",
        "wrapped_explanations", "abstract_nodes_not_a_list", "wrapped_for_mine", "row_not_an_object",
    ],
)
def test_malformed_report_files_are_validation_errors(pipeline, tmp_path, capsys, command, damage):
    which = "detections" if command == "evaluate-detections" else "explanations"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(damage(json.loads(pipeline[which].read_text()))), encoding="utf-8")
    if command == "mine":
        args = ["mine", str(bad)]
    else:
        files = {"detections": pipeline["detections"], "explanations": pipeline["explanations"], which: bad}
        args = [
            "evaluate", "--corpus", str(pipeline["test_corpus"]),
            "--detections", str(files["detections"]), "--explanations", str(files["explanations"]),
        ]
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error:")


def _first_score(value):
    def damage(report):
        report["methods"][0]["score"] = value
        return report

    return damage


def _edge_to_unknown_node(rows):
    rows[0]["abstract"]["edges"].append([0, 99, "data"])
    return rows


def _every_decision(value):
    def damage(report):
        for row in report["methods"]:
            row["decision"] = value
        return report

    return damage


def _statement_index_as_string(rows):
    for row in rows:
        for stmt in row["statements"]:
            stmt["index"] = str(stmt["index"])
    return rows


def _rows_out_of_rank_order(report):
    report["methods"].reverse()  # each row keeps its rank
    return report


def _method_listed_twice(report):
    rows = report["methods"]
    rows.append(dict(rows[0], rank=len(rows) + 1))
    return report


def _method_a_list(report):
    report["methods"][0]["method"] = [report["methods"][0]["method"]]
    return report


def _every_statement_index(shift):
    def damage(rows):
        for row in rows:
            for stmt in row["statements"]:
                stmt["index"] += shift
        return rows

    return damage


def _first_statement_index(value):
    def damage(rows):
        rows[0]["statements"][0]["index"] = value
        return rows

    return damage


def _statement_listed_twice(rows):
    rows[0]["statements"].append(rows[0]["statements"][0])
    return rows


def _method_explained_twice(rows):
    return rows + [rows[0]]


def _fractional_node_id(rows):
    graph = rows[0]["abstract"]
    first = graph["nodes"][0][0]
    graph["nodes"][0][0] = first + 0.9
    for edge in graph["edges"]:
        edge[:2] = [v + 0.9 if v == first else v for v in edge[:2]]
    return rows


def _unknown_edge_kind(rows):
    (first, _), (second, _) = rows[0]["abstract"]["nodes"][:2]
    rows[0]["abstract"]["edges"].append([first, second, "banana"])
    return rows


@pytest.mark.parametrize(
    "args, damage",
    [
        (["mine", "{explanations}", "--min-support", "1"], None),
        (["mine", "{explanations}", "--sizes", "0,3"], None),
        (["gradcheck", "--seed", "-1"], None),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], ("detections", _first_score("high"))),
        (["mine", "{bad}"], ("explanations", _edge_to_unknown_node)),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], ("detections", _every_decision("maybe"))),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            ("explanations", _statement_index_as_string),
        ),
        (["mine", "{bad}"], ("explanations", _fractional_node_id)),
        (["mine", "{bad}"], ("explanations", _unknown_edge_kind)),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], ("detections", _rows_out_of_rank_order)),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], ("detections", _method_listed_twice)),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], ("detections", _method_a_list)),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            ("explanations", _every_statement_index(1000)),
        ),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            ("explanations", _first_statement_index(-1)),
        ),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            ("explanations", _method_explained_twice),
        ),
        (["mine", "{bad}"], ("explanations", _method_explained_twice)),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            ("explanations", _statement_listed_twice),
        ),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            ("explanations", _edge_to_unknown_node),
        ),
    ],
    ids=["min_support_below_two", "sizes_from_zero", "negative_seed", "score_not_a_number", "edge_to_unknown_node",
         "decision_maybe", "statement_index_a_string", "fractional_node_id", "unknown_edge_kind",
         "rows_out_of_rank_order", "method_listed_twice", "method_not_a_string",
         "statement_index_past_the_method", "statement_index_negative", "method_explained_twice",
         "mine_method_explained_twice", "statement_listed_twice", "evaluate_edge_to_unknown_node"],
)
def test_bad_flag_and_report_values_are_validation_errors(pipeline, tmp_path, capsys, args, damage):
    paths = {name: str(path) for name, path in pipeline.items() if isinstance(path, pathlib.Path)}
    if damage is not None:
        which, fn = damage
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fn(json.loads(pipeline[which].read_text()))), encoding="utf-8")
        paths["bad"] = str(bad)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in args]) == 1
    assert capsys.readouterr().err.startswith("error:")


_NOT_UTF8 = b'{"id": "caf\xe9"}'  # Latin-1 text
_TOO_DEEP = b"[" * 200_000  # past the JSON decoder's nesting limit


def _corpus_line_2(line):
    return lambda pipeline: pipeline["test_corpus"].read_bytes().splitlines()[0] + b"\n" + line + b"\n"


def _manifest(manifest):
    return lambda pipeline: MAGIC + struct.pack("<Q", len(manifest)) + manifest


@pytest.mark.parametrize(
    "args, content, where",
    [
        (["detect", "{bad}", "--model", "{model}"], _corpus_line_2(_NOT_UTF8), "line 2"),
        (["evaluate", "--corpus", "{bad}", "--detections", "{detections}"], _corpus_line_2(_NOT_UTF8), "line 2"),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], lambda p: _NOT_UTF8, "{bad}"),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            lambda p: _NOT_UTF8, "{bad}",
        ),
        (["mine", "{bad}"], lambda p: _NOT_UTF8, "{bad}"),
        (["mine", "{explanations}", "--config", "{bad}"], lambda p: _NOT_UTF8, "{bad}"),
        (["detect", "{test_corpus}", "--model", "{bad}"], _manifest(_NOT_UTF8), "{bad}: manifest"),
        (["parse", "{bad}"], lambda p: b"int f(void) {\n  return 0; /* caf\xe9 */\n}\n", "{bad}"),
        (["evaluate", "--corpus", "{test_corpus}", "--detections", "{bad}"], lambda p: _TOO_DEEP, "{bad}"),
        (
            ["evaluate", "--corpus", "{test_corpus}", "--detections", "{detections}", "--explanations", "{bad}"],
            lambda p: _TOO_DEEP, "{bad}",
        ),
        (["mine", "{bad}"], lambda p: _TOO_DEEP, "{bad}"),
        (["mine", "{explanations}", "--config", "{bad}"], lambda p: _TOO_DEEP, "{bad}"),
        (["detect", "{test_corpus}", "--model", "{bad}"], _manifest(_TOO_DEEP), "{bad}: manifest"),
    ],
    ids=["corpus_not_utf8_detect", "corpus_not_utf8_evaluate", "detections_not_utf8",
         "explanations_not_utf8_evaluate", "explanations_not_utf8_mine", "config_not_utf8", "manifest_not_utf8",
         "source_not_utf8", "detections_too_deep", "explanations_too_deep_evaluate",
         "explanations_too_deep_mine", "config_too_deep", "manifest_too_deep"],
)
def test_undecodable_input_files_are_validation_errors(pipeline, tmp_path, capsys, args, content, where):
    # every file is decoded by one step: bad bytes and runaway nesting exit 1
    # with an error that names the file, or the line of a corpus
    bad = tmp_path / "bad"
    bad.write_bytes(content(pipeline))
    paths = {name: str(path) for name, path in pipeline.items() if isinstance(path, pathlib.Path)}
    capsys.readouterr()
    assert main([arg.format(bad=bad, **paths) for arg in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where.format(bad=bad)}: ") and "internal error" not in err, err


def test_evaluate_checks_the_detections_rows_before_it_reads_the_corpus(tmp_path, capsys):
    detections = tmp_path / "detections.json"
    row = {"method": "m", "score": 0.9, "decision": "V", "rank": 2}
    detections.write_text(json.dumps({"threshold": 0.5, "methods": [row]}), encoding="utf-8")
    assert main(["evaluate", "--detections", str(detections), "--corpus", str(tmp_path / "missing.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {detections}: detections row 1: rank 2 ")


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", 0), ("fractions", [0.5, 0.5]), ("batch_size", 0), ("epochs", "3"), ("k", "3"), ("real_ratio", -1),
        ("explain_iterations", -3), ("patience", 0), ("patience", -2), ("lr", 0), ("lr", -1e-3),
        ("explain_lr", -0.05), ("sparsity_weight", -1), ("entropy_weight", -0.1), ("gru_hidden", 1),
        ("stmt_dim", 1), ("min_support", 1),
    ],
    ids=["epochs_zero", "two_fractions", "batch_size_zero", "epochs_a_string", "k_a_string", "negative_real_ratio",
         "negative_explain_iterations", "patience_zero", "negative_patience", "lr_zero", "negative_lr",
         "negative_explain_lr", "negative_sparsity_weight", "negative_entropy_weight", "gru_hidden_one",
         "stmt_dim_one", "min_support_one"],
)
def test_train_rejects_bad_config_values(tmp_path, capsys, key, value):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["gen-corpus", "--n", "24", "--seed", "3", "--out", str(corpus)]) == 0
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(FAST_CONFIG, **{key: value})), encoding="utf-8")
    model = tmp_path / "model.json"
    capsys.readouterr()
    assert main(["train", str(corpus), "--out", str(model), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error:") and key in err
    assert not model.exists()


@pytest.mark.parametrize("key, value", [("epochs", 0), ("batch_size", 0), ("embed_dim", 1), ("min_support", 1)])
@pytest.mark.parametrize("command", ["train", "detect", "explain", "evaluate", "mine", "gen-corpus"])
def test_every_command_checks_its_whole_config_before_it_reads_input(tmp_path, capsys, command, key, value):
    # every key is checked whatever the command reads of the config, and
    # before any input is opened: the inputs here do not exist
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    argv = {
        "train": ["train", missing, "--out", str(out)],
        "detect": ["detect", missing, "--model", missing, "--out", str(out)],
        "explain": ["explain", missing, "--model", missing, "--out", str(out)],
        "evaluate": ["evaluate", "--detections", missing, "--explanations", missing, "--corpus", missing,
                     "--out", str(out)],
        "mine": ["mine", missing, "--out", str(out)],
        "gen-corpus": ["gen-corpus", "--n", "20", "--out", str(out)],
    }[command]
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith(f"error: {key} must be")
    assert captured.out == "" and not out.exists()


# --- developer utilities ----------------------------------------------------


def test_gradcheck_passes_and_reports_table(capsys):
    assert main(["gradcheck"]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert [row["op"] for row in rows] == [
        "gru_sequence", "graph_logits", "masked_adjacency", "encode_forest", "attend_and_fuse", "cross_entropy",
        "mask_loss",
    ]
    assert all(row["pass"] for row in rows)
    assert all(row["max_rel_err"] < 1e-4 for row in rows)


def test_gen_corpus_counts(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["gen-corpus", "--n", "20", "--seed", "1", "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 20
    assert sum(1 for l in lines if l["label"] == "V") == 10


# SHA-256 of the files gen-corpus wrote before it stopped parsing what it
# generates; the generator's lines must stay byte for byte the same.
GEN_CORPUS_DIGESTS = {
    (200, 1): "91111b8fc34726bb26c357feae258beb89329fad0addea1ca97d2c08f47ff5be",
    (2000, 4): "9928c36919c9f0a812d730b1938d9e322be0d32271944336f6d14038fbd41e55",
}


@pytest.mark.parametrize("n, seed", sorted(GEN_CORPUS_DIGESTS))
def test_gen_corpus_bytes_are_pinned(tmp_path, capsys, n, seed):
    out = tmp_path / "c.jsonl"
    assert main(["gen-corpus", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_CORPUS_DIGESTS[n, seed]
    capsys.readouterr()


def test_gen_corpus_methods_all_parse_when_read(tmp_path, capsys):
    # gen-corpus writes its methods unparsed; every one must parse when the
    # corpus is read
    out = tmp_path / "c.jsonl"
    for seed in range(10):
        assert main(["gen-corpus", "--n", "200", "--seed", str(seed), "--out", str(out)]) == 0
        entries = list(iter_corpus(out))
        assert len(entries) == 200
        assert all(e.pdg is not None and e.parse_error is None for e in entries), seed
    capsys.readouterr()


def test_gen_corpus_below_its_minimum_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["gen-corpus", "--n", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "--n" in err and "at least 20" in err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["detect", "corpus.jsonl", "--model", "m.json", "--jobs", "2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["detect", "{test_corpus}", "--model", "{model}"],
        ["explain", "{test_corpus}", "--model", "{model}", "--method", "{vuln_id}", "--config", "{config}"],
        ["evaluate", "--detections", "{detections}", "--corpus", "{test_corpus}"],
        ["mine", "{explanations}"],
    ],
    ids=["detect", "explain", "evaluate", "mine"],
)
def test_seed_is_a_usage_error_where_nothing_is_drawn(pipeline, tmp_path, capsys, args):
    # only train, gen-corpus and gradcheck make random draws
    args = [arg.format(**pipeline) for arg in args] + ["--out", str(tmp_path / "out")]
    assert main(args) == 0
    assert main(args + ["--seed", "3"]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_internal_error_exit_code(monkeypatch, capsys):
    import vulgraph.gradcheck as gradcheck_mod

    def boom(seed=0):
        raise RuntimeError("synthetic failure")

    # cmd_gradcheck imports run_gradcheck when it runs, from its own module
    monkeypatch.setattr(gradcheck_mod, "run_gradcheck", boom)
    assert main(["gradcheck"]) == 2
    assert "internal error" in capsys.readouterr().err


def test_corrupt_checkpoint_is_validation_error(pipeline, tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{}", encoding="utf-8")
    code = main(["detect", str(pipeline["test_corpus"]), "--model", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage",
    [
        lambda meta: meta["encoder_config"].update(dropout=0.5),
        lambda meta: meta.pop("threshold"),
        lambda meta: meta["encoder_config"].pop("stmt_dim"),
        lambda meta: meta.update(optimizer="adam"),
    ],
    ids=["extra_encoder_key", "no_threshold", "no_encoder_key", "extra_metadata_key"],
)
def test_malformed_checkpoint_metadata_is_validation_error(pipeline, tmp_path, capsys, damage):
    entries = load_corpus(pipeline["test_corpus"])
    vocab = build_vocabulary([extract_method_features(e.pdg) for e in entries])
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    meta = {"threshold": 0.5, "vocab": vocab.to_dict(), "encoder_config": cfg.to_dict()}
    damage(meta)
    bad = tmp_path / "model.json"
    save_checkpoint(bad, new_model(vocab, cfg).store, meta=meta)
    capsys.readouterr()
    assert main(["detect", str(pipeline["test_corpus"]), "--model", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.json" in err


@pytest.mark.parametrize(
    "damage",
    [
        lambda params: params.pop(),  # fc.b3
        lambda params: params.__setitem__(-3, ("fc.b2", np.zeros(1))),
        lambda params: params.append(("fc.b4", np.zeros(2))),
    ],
    ids=["missing_parameter", "parameter_of_wrong_shape", "extra_parameter"],
)
def test_checkpoint_outside_the_model_layout_is_validation_error(pipeline, tmp_path, capsys, damage):
    entries = load_corpus(pipeline["test_corpus"])
    vocab = build_vocabulary([extract_method_features(e.pdg) for e in entries])
    cfg = EncoderConfig(embed_dim=8, gru_hidden=8, stmt_dim=12)
    params = [(name, t.data) for name, t in new_model(vocab, cfg).store.items()]
    damage(params)
    store = ParamStore(params)
    bad = tmp_path / "model.json"
    save_checkpoint(bad, store, meta={"threshold": 0.5, "vocab": vocab.to_dict(), "encoder_config": cfg.to_dict()})
    capsys.readouterr()
    assert main(["detect", str(pipeline["test_corpus"]), "--model", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.json" in err


def test_checkpoint_with_the_removed_fusion_bias_is_refused(pipeline, tmp_path, capsys):
    # The earlier layout held a bias of the fusion scores right after
    # fuse.score_w; no compatibility path loads a checkpoint written in it
    model = load_model(pipeline["model"])
    params = []
    for name, t in model.store.items():
        params.append((name, t.data))
        if name == "fuse.score_w":
            params.append(("fuse.score_b", np.zeros(1)))
    old = tmp_path / "model.json"
    model.store = ParamStore(params)
    save_model(old, model)
    with pytest.raises(CheckpointError, match="fuse.score_b"):
        load_model(old)
    capsys.readouterr()
    assert main(["detect", str(pipeline["test_corpus"]), "--model", str(old)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fuse.score_b" in err
