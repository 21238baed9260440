"""Small shared helpers."""

from __future__ import annotations

import json


def dump_json(obj, indent: int | None = None) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline.

    Every JSON report the package writes, and each checkpoint's manifest,
    goes through here so that identical inputs yield identical bytes. A
    corpus file does not: corpus.write_corpus_lines writes one sorted-key
    json.dumps line per method, with the default separators.
    """
    if indent is None:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    else:
        text = json.dumps(obj, sort_keys=True, indent=indent, ensure_ascii=True)
    return text + "\n"


def dot_escape(text: str) -> str:
    """`text` escaped for a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
