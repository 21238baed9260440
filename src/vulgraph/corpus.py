"""Corpus ingestion, split protocol, and a seeded planted-defect generator.

The on-disk format is JSON lines, one method per line:

    {"id": str, "source": str|null, "pdg": obj|null,
     "label": "V"|"NV", "fix": {"changed": [int], "added": [int]}|null}

The reader is the one place a method is parsed: each entry given as source
is parsed into its PDG as its line is read, and a method that fails to parse
is kept with its parse_error, for the commands to skip with a `skipping`
line. Splitting shuffles the vulnerable methods by seed and cuts them by the
configured fractions; the training split is balanced with an equal number of
non-vulnerable methods while tune/test receive floor(ratio * |V|) each, all
drawn without overlap. The generator emits paired methods as corpus lines,
unparsed: a vulnerable variant whose risky call lacks its bounds guard, and a
twin that differs only by the guard's presence. This module loads the
frontend only when it parses or serializes a PDG, so writing a generated
corpus loads none of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import SplitSpec
from .errors import (
    CorpusError,
    DuplicateId,
    InsufficientNegatives,
    SchemaError,
    VulgraphError,
)
from .metrics import FixGroundTruth
from .rng import Rng
from .util import decode_json

if TYPE_CHECKING:
    from .frontend import Pdg


@dataclass(frozen=True)
class FixInfo:
    changed: tuple  # line numbers the fix deletes or modifies
    added: tuple  # line numbers the fix introduces


@dataclass
class CorpusEntry:
    id: str
    source: str | None
    pdg: Pdg | None
    label: str  # "V" | "NV"
    fix: FixInfo | None
    parse_error: str | None = None

    @property
    def interpretable(self) -> bool:
        """Only vulnerable entries with fix information can anchor
        explanation scoring, and only when given as source: fix lines are
        source lines, and a serialized PDG's statements carry none."""
        return self.label == "V" and self.fix is not None and self.source is not None


def _schema_error(lineno: int, message: str) -> SchemaError:
    return SchemaError(f"line {lineno}: {message}")


def _parse_fix(value, lineno: int) -> FixInfo | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise _schema_error(lineno, "fix must be an object or null")
    out = {}
    for key in ("changed", "added"):
        lines = value.get(key, [])
        if not isinstance(lines, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in lines
        ):
            raise _schema_error(lineno, f"fix.{key} must be a list of integers")
        out[key] = tuple(sorted(set(lines)))
    return FixInfo(changed=out["changed"], added=out["added"])


def _entry_from_obj(obj, lineno: int) -> CorpusEntry:
    if not isinstance(obj, dict):
        raise _schema_error(lineno, "entry must be a JSON object")
    ident = obj.get("id")
    if not isinstance(ident, str) or not ident:
        raise _schema_error(lineno, "id must be a non-empty string")
    label = obj.get("label")
    if label not in ("V", "NV"):
        raise _schema_error(lineno, 'label must be "V" or "NV"')
    source = obj.get("source")
    if source is not None and not isinstance(source, str):
        raise _schema_error(lineno, "source must be a string or null")
    pdg_obj = obj.get("pdg")
    if pdg_obj is not None and not isinstance(pdg_obj, dict):
        raise _schema_error(lineno, "pdg must be an object or null")
    if source is None and pdg_obj is None:
        raise _schema_error(lineno, "entry must provide source or pdg")
    fix = _parse_fix(obj.get("fix"), lineno)

    from .frontend import pdg_from_dict, pdg_from_source

    pdg = None
    parse_error = None
    try:
        if pdg_obj is not None:
            pdg = pdg_from_dict(pdg_obj)
        else:
            pdg = pdg_from_source(source)
    except (VulgraphError, KeyError, TypeError, ValueError) as exc:
        parse_error = f"{type(exc).__name__}: {exc}"
    return CorpusEntry(
        id=ident, source=source, pdg=pdg, label=label, fix=fix, parse_error=parse_error
    )


def iter_corpus(path):
    """Read and validate a JSON-lines corpus one line at a time, yielding
    each entry as its line is read.

    A line that is not UTF-8, not JSON or not of the schema aborts with its
    line number; method-parse failures are recorded on the entry (pdg None,
    parse_error set) so one bad method cannot sink a whole corpus. Only the
    ids seen so far are kept, to reject a duplicate.
    """
    seen = set()
    with open(path, "rb") as fh:  # lines end at \n; each is decoded on its own
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            entry = _entry_from_obj(decode_json(raw, SchemaError, f"line {lineno}"), lineno)
            if entry.id in seen:
                raise DuplicateId(f"line {lineno}: duplicate method id {entry.id!r}")
            seen.add(entry.id)
            yield entry


def load_corpus(path) -> list[CorpusEntry]:
    """Every entry of a JSON-lines corpus, read and checked as iter_corpus
    does."""
    return list(iter_corpus(path))


def entry_to_obj(entry: CorpusEntry) -> dict:
    fix = None
    if entry.fix is not None:
        fix = {"changed": list(entry.fix.changed), "added": list(entry.fix.added)}
    pdg_obj = None
    if entry.source is None and entry.pdg is not None:
        from .frontend import pdg_to_dict

        pdg_obj = pdg_to_dict(entry.pdg)
    return {
        "id": entry.id,
        "source": entry.source,
        "pdg": pdg_obj,
        "label": entry.label,
        "fix": fix,
    }


def write_corpus_lines(lines, path) -> None:
    """Write corpus lines, each a JSON object of the schema above, one per
    line with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def dump_corpus(entries, path) -> None:
    write_corpus_lines(map(entry_to_obj, entries), path)


def _floor(x: float) -> int:
    # recover the mathematical floor for values that land within rounding
    # error below an integer (e.g. 0.29 * 100)
    return math.floor(x + 1e-9)


def split(entries, spec: SplitSpec) -> dict:
    """Partition into train/tune/test per the balancing protocol.

    Vulnerable methods are shuffled by seed and cut by the fractions; train
    receives exactly as many non-vulnerable methods, tune and test receive
    floor(real_ratio * |V_split|) each. Non-vulnerable methods are never
    shared across splits; any surplus is discarded.
    """
    vuln = [e for e in entries if e.label == "V"]
    nonvuln = [e for e in entries if e.label == "NV"]
    rng = Rng(spec.seed)
    v_order = list(vuln)
    rng.shuffle(v_order)
    nv_order = list(nonvuln)
    rng.shuffle(nv_order)

    n = len(v_order)
    n_train = _floor(spec.fractions[0] * n)
    n_tune = _floor(spec.fractions[1] * n)
    n_test = n - n_train - n_tune
    v_train = v_order[:n_train]
    v_tune = v_order[n_train : n_train + n_tune]
    v_test = v_order[n_train + n_tune :]

    nv_counts = (
        len(v_train),
        _floor(spec.real_ratio * len(v_tune)),
        _floor(spec.real_ratio * len(v_test)),
    )
    if sum(nv_counts) > len(nv_order):
        raise InsufficientNegatives(
            f"split needs {sum(nv_counts)} non-vulnerable entries, have {len(nv_order)}"
        )
    cursor = 0
    parts = []
    for count in nv_counts:
        parts.append(nv_order[cursor : cursor + count])
        cursor += count
    return {
        "train": v_train + parts[0],
        "tune": v_tune + parts[1],
        "test": v_test + parts[2],
    }


def fix_truth(entry: CorpusEntry) -> FixGroundTruth:
    """Map an entry's fix line numbers onto statement indices.

    Deleted/modified lines select the statements on those lines. Each added
    line is anchored to the nearest statement at or before it (falling back
    to the nearest after); the anchor and its dependence neighbors form the
    added-dependents set.
    """
    if entry.pdg is None:
        raise CorpusError(f"entry {entry.id!r} has no parsed method")
    if entry.fix is None:
        raise CorpusError(f"entry {entry.id!r} has no fix information")
    if entry.source is None:
        raise CorpusError(f"entry {entry.id!r} is a PDG without source lines to anchor its fix")
    pdg = entry.pdg
    changed = frozenset(
        node.index for node in pdg.nodes if node.line in set(entry.fix.changed)
    )
    dependents = set()
    lines = sorted({node.line for node in pdg.nodes})
    for added_line in entry.fix.added:
        at_or_before = [ln for ln in lines if ln <= added_line]
        anchor_line = max(at_or_before) if at_or_before else min(lines, default=None)
        if anchor_line is None:
            continue
        anchors = [node.index for node in pdg.nodes if node.line == anchor_line]
        for idx in anchors:
            dependents.add(idx)
            dependents.update(pdg.neighbors(idx))
    return FixGroundTruth(
        method=entry.id,
        deleted_or_modified=changed,
        added_dependents=frozenset(dependents),
    )


# ---------------------------------------------------------------------------
# Planted-defect generator


_FILLER_CALLS = ("log_event", "trace_step", "touch_sensor")


def _filler_lines(rng: Rng, tag: str, count: int) -> list[str]:
    lines = [f"int {tag}0 = seed_val({rng.randint(1, 9)});"]
    for k in range(1, count):
        roll = rng.random()
        if roll < 0.4:
            lines.append(f"int {tag}{k} = {tag}{k - 1} + {rng.randint(1, 5)};")
        elif roll < 0.7:
            lines.append(f"{tag}0 = {tag}0 * {rng.randint(2, 4)};")
        else:
            callee = rng.choice(_FILLER_CALLS)
            lines.append(f"{callee}({tag}0);")
    return lines


# (signature, preparation lines, risky statement, guard predicate, tail)
_TEMPLATES = (
    (
        "int %s(int len, int cap)",
        ("int dst = alloc_buffer(cap);", "int src = read_input(len);"),
        "copy_buffer(dst, src, len);",
        "if (check_bounds(len, cap))",
        "return dst;",
    ),
    (
        "int %s(int idx, int limit)",
        ("int table = make_table(limit);", "int value = next_value(limit);"),
        "store_slot(table, idx, value);",
        "if (idx < limit)",
        "return table;",
    ),
    (
        "int %s(int count, int unit)",
        ("int total = count * unit;", "int region = zero_region();"),
        "region = alloc_mem(total);",
        "if (count <= max_items())",
        "return region;",
    ),
    (
        "int %s(int fd, int amount, int avail)",
        ("int buf = alloc_buffer(avail);",),
        "read_bytes(fd, buf, amount);",
        "if (amount <= avail)",
        "return buf;",
    ),
)


def _render_method(name, signature, prep, risky, guard, tail, filler_pre, filler_post, guarded):
    lines = [signature % name + " {"]
    body = list(filler_pre) + list(prep)
    if guarded:
        body += [guard + " {", "    " + risky, "}"]
        risky_offset = len(body) - 2
    else:
        body.append(risky)
        risky_offset = len(body) - 1
    body += list(filler_post) + [tail]
    lines += ["    " + ln for ln in body]
    lines.append("}")
    risky_line = 1 + risky_offset + 1  # header line, then 1-based body offset
    return "\n".join(lines) + "\n", risky_line


def generate_planted_corpus(n_methods: int, seed: int) -> list[dict]:
    """Seeded synthetic corpus of paired methods, as the corpus lines that
    write_corpus_lines writes: id, source, label and fix, with pdg null.

    Half the methods are vulnerable: one of four templates plants a risky
    call (buffer copy, raw index store, unchecked allocation size, raw read)
    without its bounds guard; the twin wraps the same call in the guard and
    is otherwise identical. The fix marks the planted statement's line. No
    method is parsed here: its PDG is the one the corpus reader builds from
    the written line.
    """
    if n_methods < 20:
        raise ValueError("n_methods must be at least 20")
    rng = Rng(seed)
    n_vuln = n_methods // 2
    lines = []
    for i in range(n_methods - n_vuln):
        signature, prep, risky, guard, tail = _TEMPLATES[
            rng.randint(0, len(_TEMPLATES) - 1)
        ]
        filler_pre = _filler_lines(rng, "pre", rng.randint(1, 3))
        filler_post = _filler_lines(rng, "post", rng.randint(1, 2))
        paired = i < n_vuln

        safe_src, _ = _render_method(
            f"handler_{i:04d}", signature, prep, risky, guard, tail,
            filler_pre, filler_post, guarded=True,
        )
        lines.append(
            {"id": f"m{i:04d}_s", "source": safe_src, "pdg": None, "label": "NV", "fix": None}
        )
        if paired:
            vuln_src, risky_line = _render_method(
                f"handler_{i:04d}", signature, prep, risky, guard, tail,
                filler_pre, filler_post, guarded=False,
            )
            lines.append({
                "id": f"m{i:04d}_v", "source": vuln_src, "pdg": None, "label": "V",
                "fix": {"changed": [risky_line], "added": []},
            })
    return lines
