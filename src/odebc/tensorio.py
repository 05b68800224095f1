"""Portable tensor files: magic "ODBC1", u32 rank, u32 dims, f64 payload.

Everything is little-endian and row-major, so files written on one machine
load bit-identically on another.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError

_MAGIC = b"ODBC1"


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"refusing to write non-finite tensor to {path}")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:5] != _MAGIC:
        raise ValidationError(f"{path}: bad magic, not an ODBC1 tensor file")
    offset = 5
    if len(blob) < offset + 4:
        raise ValidationError(f"{path}: truncated header, no rank")
    (rank,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if rank > 8:
        raise ValidationError(f"{path}: implausible rank {rank}")
    if len(blob) < offset + 4 * rank:
        raise ValidationError(f"{path}: truncated header, rank {rank} without its dims")
    dims = struct.unpack_from(f"<{rank}I", blob, offset)
    offset += 4 * rank
    count = math.prod(dims)  # a Python int: an int64 product can wrap
    payload = blob[offset:]
    if len(payload) != 8 * count:
        raise ValidationError(
            f"{path}: payload holds {len(payload) // 8} values, header says {count}"
        )
    arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: tensor contains non-finite values")
    return arr
