"""Single-file containers: DQC1 checkpoints, and the framing HSC1 shares.

This module owns the one layout of both: an 8-byte magic, one UTF-8 JSON
object line (the header), then the raw little-endian payload, cut into
entries of {shape, dtype, offset} that must tile it exactly: no gap, overlap
or trailing byte.  A malformed file raises ValueError naming its path.  A
DQC1 header (its index) maps entry names to specs in sorted name order, so
save -> load -> save is byte-identical; strings are u8 entries.  HSC1's
``cubes.read_hsc1`` is a header schema over ``read_container``.

Every entry keeps its shape, so a 0-d scalar (``optimizer.t``, the penalty
scalars) loads back 0-d.  Earlier files hold such scalars with shape ``[1]``
and load back ``(1,)``; ``ScalarParams`` and ``Adam.load_state_entries``
reshape them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

MAGIC_DQC1 = b"DQC1\x00\x00\x00\x00"

_DTYPES = {"f64": "<f8", "f32": "<f4", "i64": "<i8", "u8": "|u1"}
_CODES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32",
          np.dtype(np.int64): "i64", np.dtype(np.uint8): "u8"}


def pack_str(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def unpack_str(arr: np.ndarray) -> str:
    return bytes(np.asarray(arr, dtype=np.uint8)).decode("utf-8")


def write_container(path, magic: bytes, header: dict, payloads,
                    separators=None) -> None:
    """Write magic, ``header`` as one sorted-key JSON line, the payloads."""
    with open(path, "wb") as fh:
        fh.write(magic + json.dumps(header, sort_keys=True,
                                    separators=separators).encode() + b"\n")
        for raw in payloads:
            fh.write(raw)


def read_container(path, magic: bytes, kind: str, line: str, index=None):
    """{name: array} of a file; ``index(header)``, by default the header
    itself, maps names to entry specs.  The payload is read once into a
    buffer sized from the file, and aligned entries are views of it."""
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not {kind}")
        text = fh.readline()
        if not text.endswith(b"\n"):
            raise ValueError(f"{path}: truncated {line}")
        try:
            header = json.loads(text.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: bad {line} JSON ({exc})") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: {line} is not a JSON object")
        payload = np.empty(os.fstat(fh.fileno()).st_size - fh.tell(), np.uint8)
        payload = payload[:fh.readinto(payload)]
    spans = []
    for name, spec in (index(header) if index else header).items():
        code, start, shape = (spec.get(key) if isinstance(spec, dict) else None
                              for key in ("dtype", "offset", "shape"))
        if not (isinstance(code, str) and code in _DTYPES
                and isinstance(shape, list) and all(
                    type(v) is int and v >= 0 for v in [start, *shape])):
            raise ValueError(f"{path}: entry {name!r} has dtype {code!r}, "
                             f"offset {start} and shape {shape}")
        stop = start + math.prod(shape) * np.dtype(_DTYPES[code]).itemsize
        spans.append((start, stop, name, code, shape))
    entries, end = {}, 0
    for start, stop, name, code, shape in sorted(spans):  # they must tile
        if start != end or stop > payload.size:
            raise ValueError(f"{path}: entry {name!r} needs payload bytes "
                             f"{start}..{stop}, the file holds {payload.size}"
                             f" and the entries before it end at {end}")
        try:
            arr = payload[start:stop].view(_DTYPES[code]).reshape(shape)
        except ValueError as exc:  # a zero-size shape numpy cannot hold
            raise ValueError(f"{path}: entry {name!r}: {exc}") from None
        entries[name] = arr if arr.flags.aligned else arr.copy()
        end = stop
    if end != payload.size:
        raise ValueError(f"{path}: {payload.size - end} bytes past the entries")
    return entries


def save_checkpoint(path, entries: dict) -> None:
    """Write named arrays; names are sorted for deterministic bytes."""
    index, payloads, offset = {}, [], 0
    for name in sorted(entries):
        arr = np.asarray(entries[name])  # 0-d stays 0-d; tobytes() is C order
        code = _CODES.get(arr.dtype, "f64")
        payloads.append(arr.astype(_DTYPES[code], copy=False).tobytes())
        index[name] = {"shape": list(arr.shape), "dtype": code,
                       "offset": offset}
        offset += len(payloads[-1])
    write_container(path, MAGIC_DQC1, index, payloads, separators=(",", ":"))


def load_checkpoint(path) -> dict:
    return read_container(path, MAGIC_DQC1, "a DQC1 checkpoint", "index")
