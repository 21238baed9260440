import json

import pytest

from vulgraph.corpus import (
    CorpusEntry,
    FixInfo,
    SplitSpec,
    dump_corpus,
    entry_to_obj,
    fix_truth,
    generate_planted_corpus,
    load_corpus,
    split,
)
from vulgraph.errors import (
    ConfigError,
    CorpusError,
    DuplicateId,
    InsufficientNegatives,
    SchemaError,
)
from vulgraph.frontend import pdg_from_source, pdg_to_dict

from oracles import logistic_baseline_auc, planted_entries


SRC_A = "int a(int x) { int y = x + 1; return y; }"
SRC_B = "int b(int x) { if (x > 0) { x = x - 1; } return x; }"


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _entry_line(ident, label, source=SRC_A, fix=None, pdg=None):
    return json.dumps(
        {"id": ident, "source": source, "pdg": pdg, "label": label, "fix": fix}
    )


def test_two_entry_file_loads(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        [
            _entry_line("m1", "NV"),
            _entry_line("m2", "V", SRC_B, fix={"changed": [2], "added": []}),
        ],
    )
    entries = load_corpus(path)
    assert [e.id for e in entries] == ["m1", "m2"]
    assert [e.label for e in entries] == ["NV", "V"]
    assert entries[0].pdg is not None and entries[1].pdg is not None
    assert entries[1].fix == FixInfo(changed=(2,), added=())
    assert entries[1].interpretable


def test_vulnerable_without_fix_is_not_interpretable(tmp_path):
    path = _write_lines(tmp_path / "c.jsonl", [_entry_line("m1", "V")])
    (entry,) = load_corpus(path)
    assert entry.label == "V" and entry.fix is None
    assert not entry.interpretable


def test_malformed_json_names_line_number(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        [_entry_line("m1", "NV"), _entry_line("m2", "NV"), "{not json"],
    )
    with pytest.raises(SchemaError, match="line 3"):
        load_corpus(path)


def test_json_nested_past_the_decoder_limit_names_line_number(tmp_path):
    ast = '["un:-", [' * 5000 + '["id:x", []]' + "]]" * 5000
    deep = _entry_line("m2", "NV", source=None, pdg={"method": "f", "nodes": [], "edges": []})
    deep = deep.replace('"nodes": []', '"nodes": [{"index": 0, "kind": "assign", "ast": ' + ast + "}]")
    path = _write_lines(tmp_path / "c.jsonl", [_entry_line("m1", "NV"), deep])
    with pytest.raises(SchemaError, match="line 2: JSON nested too deeply"):
        load_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl", [_entry_line("m1", "NV"), _entry_line("m1", "V")]
    )
    with pytest.raises(DuplicateId, match="m1"):
        load_corpus(path)


@pytest.mark.parametrize(
    "obj",
    [
        {"source": SRC_A, "pdg": None, "label": "NV", "fix": None},  # no id
        {"id": "m", "source": SRC_A, "pdg": None, "label": "BAD", "fix": None},
        {"id": "m", "source": None, "pdg": None, "label": "NV", "fix": None},
        {"id": "m", "source": SRC_A, "pdg": None, "label": "V", "fix": [1]},
        {"id": "m", "source": SRC_A, "pdg": None, "label": "V",
         "fix": {"changed": ["2"], "added": []}},
        {"id": "m", "source": 7, "pdg": None, "label": "NV", "fix": None},
    ],
)
def test_schema_violations_rejected(tmp_path, obj):
    path = _write_lines(tmp_path / "c.jsonl", [json.dumps(obj)])
    with pytest.raises(SchemaError, match="line 1"):
        load_corpus(path)


def test_parse_failure_is_per_entry(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        [
            _entry_line("good", "NV"),
            _entry_line("broken", "NV", source="int f( {"),
            _entry_line("also_good", "NV", SRC_B),
        ],
    )
    entries = load_corpus(path)
    assert len(entries) == 3
    broken = entries[1]
    assert broken.pdg is None and broken.parse_error
    assert entries[0].pdg is not None and entries[2].pdg is not None


def test_pdg_object_entries_and_round_trip(tmp_path):
    pdg = pdg_from_source(SRC_B)
    path = _write_lines(
        tmp_path / "c.jsonl",
        [
            json.dumps(
                {
                    "id": "p1",
                    "source": None,
                    "pdg": pdg_to_dict(pdg),
                    "label": "V",
                    "fix": {"changed": [1], "added": [2]},
                }
            )
        ],
    )
    (entry,) = load_corpus(path)
    assert entry.pdg is not None
    assert entry.pdg.method == pdg.method
    assert [e for e in entry.pdg.edges] == [e for e in pdg.edges]

    out = tmp_path / "round.jsonl"
    dump_corpus([entry], out)
    (again,) = load_corpus(str(out))
    assert entry_to_obj(again) == entry_to_obj(entry)
    # serialization is byte-deterministic
    first = out.read_bytes()
    dump_corpus([entry], out)
    assert out.read_bytes() == first


def _synthetic_entries(n_vuln, n_nonvuln):
    pdg = pdg_from_source(SRC_A)
    out = []
    for i in range(n_vuln):
        out.append(
            CorpusEntry(
                id=f"v{i}", source=SRC_A, pdg=pdg, label="V",
                fix=FixInfo(changed=(1,), added=()),
            )
        )
    for i in range(n_nonvuln):
        out.append(CorpusEntry(id=f"n{i}", source=SRC_A, pdg=pdg, label="NV", fix=None))
    return out


def test_split_matches_worked_example():
    entries = _synthetic_entries(10, 200)
    spec = SplitSpec(fractions=(0.8, 0.1, 0.1), seed=3, real_ratio=9.9)
    parts = split(entries, spec)

    def count(part, label):
        return sum(1 for e in part if e.label == label)

    assert (count(parts["train"], "V"), count(parts["train"], "NV")) == (8, 8)
    assert (count(parts["tune"], "V"), count(parts["tune"], "NV")) == (1, 9)
    assert (count(parts["test"], "V"), count(parts["test"], "NV")) == (1, 9)


def test_split_is_deterministic_and_disjoint():
    entries = _synthetic_entries(10, 60)
    spec = SplitSpec(seed=11, real_ratio=2.0)
    a = split(entries, spec)
    b = split(entries, spec)
    ids = lambda part: [e.id for e in part]  # noqa: E731
    for key in ("train", "tune", "test"):
        assert ids(a[key]) == ids(b[key])
    all_ids = ids(a["train"]) + ids(a["tune"]) + ids(a["test"])
    assert len(all_ids) == len(set(all_ids))
    vuln_ids = {e.id for e in entries if e.label == "V"}
    assert {i for i in all_ids if i.startswith("v")} == vuln_ids

    different = split(entries, SplitSpec(seed=12, real_ratio=2.0))
    assert any(ids(a[k]) != ids(different[k]) for k in ("train", "tune", "test"))


def test_split_ratio_zero_gives_all_vulnerable_tune_test():
    entries = _synthetic_entries(10, 20)
    parts = split(entries, SplitSpec(seed=0, real_ratio=0.0))
    assert all(e.label == "V" for e in parts["tune"])
    assert all(e.label == "V" for e in parts["test"])
    assert sum(1 for e in parts["train"] if e.label == "NV") == 8


def test_split_insufficient_negatives():
    entries = _synthetic_entries(10, 10)
    with pytest.raises(InsufficientNegatives):
        split(entries, SplitSpec(seed=0, real_ratio=9.9))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"fractions": (0.5, 0.5, 0.2)},
        {"fractions": (1.0, 0.0, 0.0)},
        {"fractions": (0.8, 0.1)},
        {"real_ratio": -1.0},
    ],
)
def test_split_spec_validation(kwargs):
    with pytest.raises(ConfigError):
        SplitSpec(**kwargs)


def test_generator_counts_and_fix_lines():
    entries = planted_entries(100, seed=7)
    assert sum(1 for e in entries if e.label == "V") == 50
    assert sum(1 for e in entries if e.label == "NV") == 50
    for e in entries:
        assert e.pdg is not None and e.parse_error is None
        if e.label == "V":
            assert e.fix is not None and e.fix.changed
            assert e.interpretable


def test_generator_minimum_size_enforced():
    with pytest.raises(ValueError):
        generate_planted_corpus(19, seed=0)


def test_generator_twins_differ_only_in_guard():
    entries = planted_entries(20, seed=5)
    by_id = {e.id: e for e in entries}
    for e in entries:
        if e.label != "V":
            continue
        twin = by_id[e.id.replace("_v", "_s")]
        v_lines = [ln.strip() for ln in e.source.splitlines() if ln.strip()]
        s_lines = [ln.strip() for ln in twin.source.splitlines() if ln.strip()]
        guards = [i for i, ln in enumerate(s_lines) if ln.startswith("if (")]
        assert len(guards) == 1
        gi = guards[0]
        # drop the guard line and its closing brace; the body must match
        reduced = s_lines[:gi] + [s_lines[gi + 1]] + s_lines[gi + 3 :]
        assert s_lines[gi + 2] == "}"
        assert reduced == v_lines


def test_generator_fix_marks_risky_statement():
    entries = planted_entries(40, seed=2)
    for e in entries:
        if e.label != "V":
            continue
        truth = fix_truth(e)
        assert truth.deleted_or_modified
        marked_texts = {e.pdg.nodes[i].text for i in truth.deleted_or_modified}
        assert any(
            any(call in text for call in
                ("copy_buffer", "store_slot", "alloc_mem", "read_bytes"))
            for text in marked_texts
        )


def test_generator_deterministic():
    a = planted_entries(30, seed=9)
    b = planted_entries(30, seed=9)
    assert [(e.id, e.source, e.label) for e in a] == [
        (e.id, e.source, e.label) for e in b
    ]


def test_generated_corpus_is_learnable():
    entries = planted_entries(60, seed=1)
    sources = [e.source for e in entries]
    labels = [1 if e.label == "V" else 0 for e in entries]
    assert logistic_baseline_auc(sources, labels) >= 0.8


def test_fix_truth_added_lines_use_anchor_and_neighbors():
    src = "int g(int x) { int y = x + 1; int z = y * 2; return z; }"
    pdg = pdg_from_source(src)
    entry = CorpusEntry(
        id="m", source=src, pdg=pdg, label="V",
        fix=FixInfo(changed=(), added=(1,)),
    )
    truth = fix_truth(entry)
    assert truth.deleted_or_modified == frozenset()
    assert truth.added_dependents  # anchor statement plus its dependence neighbors
    anchor_lines = {pdg.nodes[i].line for i in truth.added_dependents}
    assert 1 in anchor_lines


def test_fix_truth_requires_fix_and_pdg():
    pdg = pdg_from_source(SRC_A)
    no_fix = CorpusEntry(id="m", source=SRC_A, pdg=pdg, label="V", fix=None)
    with pytest.raises(CorpusError):
        fix_truth(no_fix)
    no_pdg = CorpusEntry(
        id="m", source="int f( {", pdg=None, label="V",
        fix=FixInfo(changed=(1,), added=()), parse_error="ParseError: x",
    )
    with pytest.raises(CorpusError):
        fix_truth(no_pdg)
