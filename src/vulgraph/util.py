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


def decode_text(raw: bytes, error: type[Exception], where: str) -> str:
    """`raw` read as UTF-8. Bytes that are not UTF-8 raise `error`, its
    message led by `where`: the file path, or `line N` for a corpus line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def decode_json(raw: bytes, error: type[Exception], where: str):
    """The JSON value of `raw`, the one place input bytes become JSON. Bytes
    that are not UTF-8, text that is not JSON and JSON nested past the
    decoder's limit each raise `error`, its message led by `where`."""
    text = decode_text(raw, error, where)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON ({exc.msg} at character {exc.pos})") from exc
    except RecursionError as exc:  # the decoder's own nesting limit
        raise error(f"{where}: JSON nested too deeply to decode") from exc


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def dot_escape(text: str) -> str:
    """`text` escaped for a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
