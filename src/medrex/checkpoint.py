"""Self-describing binary checkpoints: version byte, JSON header, raw float64 payloads."""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def save_checkpoint(path: str, params: dict[str, np.ndarray], config: dict) -> None:
    """Write parameters and a config echo atomically.

    Layout: 1 version byte, 8-byte little-endian header length, UTF-8 JSON
    header (parameter names + shapes in payload order, config echo), then the
    concatenated little-endian float64 payloads.
    """
    header = {
        "params": [{"name": name, "shape": list(arr.shape)} for name, arr in params.items()],
        "config": config,
    }
    header_bytes = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes([FORMAT_VERSION]))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for arr in params.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _check_entries(entries) -> None:
    if not isinstance(entries, list):
        raise CheckpointError(f"checkpoint header key 'params' must be a list, got {type(entries).__name__}")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointError(f"checkpoint header 'params' entry {k} has no string 'name'")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(
                f"checkpoint header 'params' entry {k} ({entry['name']!r}) has no 'shape' list of non-negative integers"
            )


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 9:
        raise CheckpointError("checkpoint truncated before header")
    if blob[0] != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {blob[0]} (expected {FORMAT_VERSION})")
    (header_len,) = struct.unpack("<Q", blob[1:9])
    header_end = 9 + header_len
    if len(blob) < header_end:
        raise CheckpointError("checkpoint truncated inside header")
    try:
        header = json.loads(blob[9:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    missing = [key for key in ("params", "config") if key not in header]
    if missing:
        raise CheckpointError(f"checkpoint header has no key {', '.join(map(repr, missing))}")

    _check_entries(header["params"])
    params: dict[str, np.ndarray] = {}
    offset = header_end
    for entry in header["params"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)  # exact: a hand-edited shape cannot wrap to a small count
        nbytes = count * 8
        if len(blob) < offset + nbytes:
            raise CheckpointError(f"checkpoint truncated inside payload of {entry['name']!r}")
        try:
            params[entry["name"]] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        except ValueError as exc:  # an empty payload whose other dimensions numpy cannot hold
            raise CheckpointError(f"checkpoint shape {list(shape)} of {entry['name']!r}: {exc}") from None
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{len(blob) - offset} trailing bytes after last payload")
    return params, header["config"]
