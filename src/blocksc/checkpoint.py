"""Single-file checkpoint container ("DQC1").

Layout: 8-byte magic, one UTF-8 JSON index line mapping entry names to
{shape, dtype, offset}, then the raw little-endian payloads.  Entries are
laid out in sorted name order so save -> load -> save is byte-identical.
Strings (metadata) are stored as u8 payloads.

Every entry keeps its own shape: a 0-d scalar (``np.int64(42)``, the
penalty scalars ``scalars.raw_b``/``scalars.raw_mu``, ``optimizer.t``) is
stored with shape ``[]`` and loads back 0-d.  Files written by earlier
versions hold such scalars with shape ``[1]`` and load back as ``(1,)``;
``pipeline.load_model_bundle`` keeps its ``.reshape(())`` on the penalty
scalars so those bundles still load.
"""

from __future__ import annotations

import json

import numpy as np

MAGIC_DQC1 = b"DQC1\x00\x00\x00\x00"

_DTYPES = {"f64": "<f8", "f32": "<f4", "i64": "<i8", "u8": "|u1"}
_CODES = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32",
          np.dtype(np.int64): "i64", np.dtype(np.uint8): "u8"}


def pack_str(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def unpack_str(arr: np.ndarray) -> str:
    return bytes(np.asarray(arr, dtype=np.uint8)).decode("utf-8")


def save_checkpoint(path, entries: dict) -> None:
    """Write named arrays; names are sorted for deterministic bytes."""
    index = {}
    payloads = []
    offset = 0
    for name in sorted(entries):
        # np.asarray keeps 0-d entries 0-d (np.ascontiguousarray returns
        # ndim >= 1); tobytes() writes C order for any layout.
        arr = np.asarray(entries[name])
        if arr.dtype not in _CODES:
            arr = arr.astype(np.float64)
        code = _CODES[arr.dtype]
        raw = arr.astype(_DTYPES[code], copy=False).tobytes()
        index[name] = {"shape": list(arr.shape), "dtype": code,
                       "offset": offset}
        payloads.append(raw)
        offset += len(raw)
    with open(path, "wb") as fh:
        fh.write(MAGIC_DQC1)
        fh.write(json.dumps(index, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for raw in payloads:
            fh.write(raw)


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC_DQC1:
            raise ValueError(f"{path}: not a DQC1 checkpoint")
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise ValueError(f"{path}: truncated index")
        index = json.loads(header.decode("utf-8"))
        payload = fh.read()
    entries = {}
    for name, spec in index.items():
        code, start, shape = spec["dtype"], spec["offset"], spec["shape"]
        if code not in _DTYPES or start < 0 or min(shape, default=0) < 0:
            raise ValueError(f"{path}: entry {name!r} has dtype {code!r}, "
                             f"offset {start} and shape {shape}")
        dt = np.dtype(_DTYPES[code])
        count = int(np.prod(shape)) if shape else 1
        end = start + count * dt.itemsize
        if end > len(payload):
            raise ValueError(f"{path}: entry {name!r} needs payload bytes "
                             f"{start}..{end}, the file holds {len(payload)}")
        arr = np.frombuffer(payload[start:end], dtype=dt, count=count)
        entries[name] = arr.reshape(shape).copy()
    return entries
