"""Checkpoint codec.

Layout: 8-byte magic "IVDCKPT1", little-endian u64 manifest length, canonical
JSON manifest, then one contiguous little-endian fp64 blob. The manifest
records parameter names/shapes/offsets (in elements) and an arbitrary JSON
metadata object (vocabulary, model config, decision threshold). The
parameters tile the blob in manifest order: each offset is the sum of the
sizes before it, and the sizes sum to the blob's length, so files are
byte-reproducible. Optimizer state is not stored: the CLI never resumes
training.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from ..util import decode_json, dump_json
from .params import ParamStore

MAGIC = b"IVDCKPT1"


def save_checkpoint(path: str | Path, store: ParamStore, meta: dict | None = None) -> None:
    offset = 0
    params_manifest = []
    for name, tensor in store.items():
        params_manifest.append(
            {"name": name, "shape": list(tensor.data.shape), "offset": offset}
        )
        offset += tensor.data.size
    manifest = {"version": 1, "params": params_manifest, "meta": meta or {}}
    manifest_bytes = dump_json(manifest).encode("utf-8")
    blob = store.values.astype("<f8", copy=False).tobytes()  # manifest order
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(manifest_bytes)))
        fh.write(manifest_bytes)
        fh.write(blob)


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict]:
    """Returns (store, meta)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    (manifest_len,) = struct.unpack("<Q", raw[8:16])
    manifest_end = 16 + manifest_len
    if manifest_end > len(raw):
        raise CheckpointError(f"{path}: truncated manifest")
    manifest = decode_json(raw[16:manifest_end], CheckpointError, f"{path}: manifest")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != 1:
        raise CheckpointError(f"{path}: unsupported version {manifest.get('version')!r}")
    if (len(raw) - manifest_end) % 8:
        raise CheckpointError(f"{path}: blob is not a whole number of fp64 values")
    blob = np.frombuffer(memoryview(raw)[manifest_end:], dtype="<f8")
    params, total = [], 0  # each parameter starts where the one before it ends
    try:
        for entry in manifest["params"]:
            shape = entry["shape"]
            size = int(np.prod(shape)) if shape else 1
            if entry["offset"] != total:
                raise CheckpointError(
                    f"{path}: {entry['name']!r} at offset {entry['offset']!r}, expected {total}"
                )
            if total + size > blob.size:
                raise CheckpointError(f"{path}: blob shorter than manifest claims")
            params.append((entry["name"], blob[total : total + size].reshape(shape)))
            total += size
        if total != blob.size:
            raise CheckpointError(f"{path}: blob holds {blob.size} values, manifest claims {total}")
        store = ParamStore(params)  # copies the values out of the blob
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed parameter list: {exc!r}") from exc
    return store, manifest.get("meta", {})
