"""Versioned binary container for checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"SPLMCKPT"
    version u32
    then repeated sections:
        u16 name length, name (UTF-8), u64 payload length, payload

Section payload encodings:
    tensor map   repeated [u16 path len][path][u8 dtype 0=f32/1=f64]
                 [u8 ndim][u32 extents...][raw little-endian floats]
    bitset map   repeated [u16 path len][path][u8 ndim][u32 extents...]
                 [bits packed little-endian, one per element]
    json         UTF-8 JSON, sorted keys (byte-stable)
    u64          one unsigned 64-bit integer

Every read goes through `_take`, which bounds-checks it, so a truncated
file raises ContractError. What the sections of a model and of a train
checkpoint are is decided in `training`.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import ContractError

MAGIC = b"SPLMCKPT"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: "<f4", 1: "<f8"}


def save_container(path, sections: dict[str, bytes]):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for name, payload in sections.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


def _take(buf, off, n):
    """(buf[off:off + n], off + n); ContractError when buf ends before that.
    Every read of a checkpoint goes through here."""
    end = off + n
    if end > len(buf):
        raise ContractError(f"checkpoint truncated: {n} bytes wanted at offset {off}, "
                            f"{len(buf) - off} left")
    return buf[off:end], end


def _unpack(fmt, buf, off):
    raw, off = _take(buf, off, struct.calcsize(fmt))
    return struct.unpack(fmt, raw), off


def load_container(path) -> dict[str, bytes]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ContractError(f"{path}: not a checkpoint container (bad magic)")
    (version,), off = _unpack("<I", blob, 8)
    if version != FORMAT_VERSION:
        raise ContractError(f"{path}: unsupported container version {version}")
    sections = {}
    while off < len(blob):
        (name_len,), off = _unpack("<H", blob, off)
        name, off = _take(blob, off, name_len)
        (payload_len,), off = _unpack("<Q", blob, off)
        sections[name.decode("utf-8")], off = _take(blob, off, payload_len)
    return sections


def _pack_header(path: str, arr: np.ndarray, with_dtype: bool) -> bytes:
    encoded = path.encode("utf-8")
    parts = [struct.pack("<H", len(encoded)), encoded]
    if with_dtype:
        parts.append(struct.pack("<B", _DTYPE_CODES[arr.dtype]))
    parts.append(struct.pack("<B", arr.ndim))
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    return b"".join(parts)


def encode_tensor_map(arrays: dict[str, np.ndarray]) -> bytes:
    chunks = []
    for path, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise ContractError(f"{path}: dtype {arr.dtype} is not checkpointable")
        code = _DTYPE_CODES[arr.dtype]
        chunks.append(_pack_header(path, arr, with_dtype=True))
        chunks.append(arr.astype(_CODE_DTYPES[code], copy=False).tobytes())
    return b"".join(chunks)


def _read_header(buf, off, with_dtype):
    """Parse one map entry's header (the inverse of `_pack_header`):
    (path, dtype or None, shape, offset of the entry's payload)."""
    (path_len,), off = _unpack("<H", buf, off)
    raw, off = _take(buf, off, path_len)
    path, dtype = raw.decode("utf-8"), None
    if with_dtype:
        (code,), off = _unpack("<B", buf, off)
        if code not in _CODE_DTYPES:
            raise ContractError(f"checkpoint tensor {path!r}: unknown dtype code {code}")
        dtype = np.dtype(_CODE_DTYPES[code])
    (ndim,), off = _unpack("<B", buf, off)
    shape, off = _unpack(f"<{ndim}I", buf, off)
    return path, dtype, shape, off


def decode_tensor_map(buf: bytes) -> dict[str, np.ndarray]:
    out, off = {}, 0
    while off < len(buf):
        path, dtype, shape, off = _read_header(buf, off, with_dtype=True)
        raw, off = _take(buf, off, math.prod(shape) * dtype.itemsize)
        out[path] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return out


def encode_bitset_map(masks: dict[str, np.ndarray]) -> bytes:
    chunks = []
    for path, mask in masks.items():
        mask = np.ascontiguousarray(mask)
        chunks.append(_pack_header(path, mask, with_dtype=False))
        bits = np.packbits((mask != 0).reshape(-1).astype(np.uint8), bitorder="little")
        chunks.append(bits.tobytes())
    return b"".join(chunks)


def decode_bitset_map(buf: bytes, dtype=np.float32) -> dict[str, np.ndarray]:
    out, off = {}, 0
    while off < len(buf):
        path, _, shape, off = _read_header(buf, off, with_dtype=False)
        size = math.prod(shape)
        raw, off = _take(buf, off, (size + 7) // 8)
        flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]
        out[path] = flat.reshape(shape).astype(dtype)
    return out


def encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_json(buf: bytes):
    try:
        return json.loads(buf.decode("utf-8"))
    except ValueError as exc:
        raise ContractError(f"checkpoint JSON section is malformed: {exc}") from exc


def encode_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def decode_u64(buf: bytes) -> int:
    return _unpack("<Q", buf, 0)[0][0]
