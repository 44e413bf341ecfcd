"""Versioned binary container for checkpoints.

Layout (all integers little-endian):

    magic   8 bytes  b"SPLMCKPT"
    version u32      2, the only version read
    then repeated sections:
        u16 name length (>= 1), name (UTF-8), u64 payload length, payload,
        u32 CRC32 (zlib) of the section's bytes before it
    then the end marker:
        u16 0, u32 number of sections

Section payload encodings:
    tensor map   repeated [u16 path len][path][u8 dtype 0=f32/1=f64]
                 [u8 ndim][u32 extents...][raw little-endian floats]
    bitset map   repeated [u16 path len][path][u8 ndim][u32 extents...]
                 [bits packed little-endian, one per element]; read as the
                 int32 flat index of the 1 bits
    json         UTF-8 JSON object, sorted keys (byte-stable); read against
                 a shape (`errors.check_record`)
    u64          one unsigned 64-bit integer

Every read goes through `_read` (of the file) or `_take` (of a payload),
which bounds-check it, so a truncated file raises ContractError, as do a CRC
mismatch and a missing or misplaced end marker; each names the file. What the
sections of a model and of a train checkpoint are is decided in `training`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import struct
import zlib

import numpy as np

from .errors import ContractError, check_record, naming

MAGIC = b"SPLMCKPT"
FORMAT_VERSION = 2

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: "<f4", 1: "<f8"}


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Open a new file beside `path` for writing and, when the block ends
    without an exception, move it onto `path` with one `os.replace`; on an
    exception it is removed. So a failed or interrupted write leaves `path`
    with its old bytes (there is no fsync: a power loss is not covered)."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_container(path, sections):
    """Write `sections`, name -> payload, atomically. A payload is bytes or
    a list of bytes-like chunks (arrays included), which are streamed to the
    file one by one under a running CRC and never joined."""
    with atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION))
        for name, payload in sections.items():
            chunks = [payload] if isinstance(payload, bytes) else payload
            encoded = name.encode("utf-8")
            if not encoded:
                raise ContractError("checkpoint section names must not be empty")
            size = sum(memoryview(c).nbytes for c in chunks)
            head = struct.pack("<H", len(encoded)) + encoded + struct.pack("<Q", size)
            fh.write(head)
            crc = zlib.crc32(head)
            for chunk in chunks:
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
        fh.write(struct.pack("<HI", 0, len(sections)))


def _take(buf, off, n):
    """(buf[off:off + n], off + n); ContractError when buf ends before that.
    Every read of a payload goes through here."""
    end = off + n
    if end > len(buf):
        raise ContractError(f"checkpoint truncated: {n} bytes wanted at offset {off}, "
                            f"{len(buf) - off} left")
    return buf[off:end], end


def _unpack(fmt, buf, off):
    raw, off = _take(buf, off, struct.calcsize(fmt))
    return struct.unpack(fmt, raw), off


def _read(fh, n, size):
    """The next n bytes of the open file `fh` of `size` bytes; ContractError
    when the file ends before that. Every read after the magic goes through
    here, so a length read from a damaged file never sizes a buffer."""
    off = fh.tell()
    if off + n > size:
        raise ContractError(f"checkpoint truncated: {n} bytes wanted at offset {off}, "
                            f"{size - off} left")
    return fh.read(n)


def load_container(path) -> dict[str, bytes]:
    """Section name -> payload. Each payload is read from the file straight
    into its own bytes object, so no copy of the whole file is held beside
    them, and a caller that drops a payload once it is decoded frees it."""
    with open(path, "rb") as fh, naming(path):
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != MAGIC:
            raise ContractError("not a checkpoint container (bad magic)")
        (version,) = struct.unpack("<I", _read(fh, 4, size))
        if version != FORMAT_VERSION:
            raise ContractError(f"unsupported container version {version}")
        sections = {}
        while True:
            start = fh.tell()
            head = _read(fh, 2, size)
            (name_len,) = struct.unpack("<H", head)
            if name_len == 0:
                (count,) = struct.unpack("<I", _read(fh, 4, size))
                if count != len(sections) or fh.tell() != size:
                    raise ContractError(f"end marker does not close the "
                                        f"{len(sections)} sections read")
                return sections
            head += _read(fh, name_len + 8, size)
            (payload_len,) = struct.unpack("<Q", head[-8:])
            payload = _read(fh, payload_len, size)
            (crc,) = struct.unpack("<I", _read(fh, 4, size))
            if zlib.crc32(payload, zlib.crc32(head)) != crc:
                raise ContractError(f"section at offset {start} fails its CRC check")
            name = _utf8(head[2:-8], "section name")
            if name in sections:
                raise ContractError(f"duplicate checkpoint section {name!r}")
            sections[name] = payload


def _pack_header(path: str, shape, dtype=None) -> bytes:
    encoded = path.encode("utf-8")
    parts = [struct.pack("<H", len(encoded)), encoded]
    if dtype is not None:
        parts.append(struct.pack("<B", _DTYPE_CODES[dtype]))
    parts.append(struct.pack("<B", len(shape)))
    parts.append(struct.pack(f"<{len(shape)}I", *shape))
    return b"".join(parts)


def encode_tensor_map(arrays: dict[str, np.ndarray]) -> list:
    """Chunks of the payload: each header, then the array itself at its own
    shape (a little-endian view where the machine's byte order allows, not a
    copy)."""
    chunks = []
    for path, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise ContractError(f"{path}: dtype {arr.dtype} is not checkpointable")
        chunks.append(_pack_header(path, arr.shape, arr.dtype))
        chunks.append(arr.astype(_CODE_DTYPES[_DTYPE_CODES[arr.dtype]], copy=False).reshape(-1))
    return chunks


def _utf8(raw, what):
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"checkpoint {what} is not UTF-8") from exc


def _read_header(buf, off, with_dtype):
    """Parse one map entry's header (the inverse of `_pack_header`):
    (path, dtype or None, shape, offset of the entry's payload)."""
    (path_len,), off = _unpack("<H", buf, off)
    raw, off = _take(buf, off, path_len)
    path, dtype = _utf8(raw, "tensor path"), None
    if with_dtype:
        (code,), off = _unpack("<B", buf, off)
        if code not in _CODE_DTYPES:
            raise ContractError(f"checkpoint tensor {path!r}: unknown dtype code {code}")
        dtype = np.dtype(_CODE_DTYPES[code])
    (ndim,), off = _unpack("<B", buf, off)
    shape, off = _unpack(f"<{ndim}I", buf, off)
    return path, dtype, shape, off


def decode_tensor_map(buf: bytes) -> dict[str, np.ndarray]:
    """Each array is copied once out of `buf` (slices of the memoryview are
    views), so the arrays own their memory and `buf` can be freed."""
    buf, out, off = memoryview(buf), {}, 0
    while off < len(buf):
        path, dtype, shape, off = _read_header(buf, off, with_dtype=True)
        raw, off = _take(buf, off, math.prod(shape) * dtype.itemsize)
        out[path] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return out


def encode_bitset_map(entries: dict) -> list:
    """Chunks of the payload, as for `encode_tensor_map`, from path ->
    (shape, flat index of the 1 bits): each path's bits packed from its
    index."""
    chunks = []
    for path, (shape, index) in entries.items():
        chunks.append(_pack_header(path, shape))
        chunks.append(_pack_bits(index, math.prod(shape)))
    return chunks


def _pack_bits(index, size):
    bits = np.zeros(size, dtype=bool)
    bits[index] = True
    return np.packbits(bits, bitorder="little")


def decode_bitset_map(buf: bytes) -> dict:
    """path -> (shape, int32 flat index of the 1 bits, row-major), each
    path's bits unpacked only to build its index; bits past the last entry
    are ignored."""
    buf, out, off = memoryview(buf), {}, 0
    while off < len(buf):
        path, _, shape, off = _read_header(buf, off, with_dtype=False)
        size = math.prod(shape)
        raw, off = _take(buf, off, (size + 7) // 8)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=size, bitorder="little")
        out[path] = (shape, np.flatnonzero(bits).astype(np.int32))
    return out


def encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_json(buf: bytes, shape, name: str) -> dict:
    """The JSON section `name`, checked against `shape`; a ContractError names it."""
    try:
        value = json.loads(buf.decode("utf-8"))
    except ValueError as exc:
        raise ContractError(f"{name} section is malformed JSON: {exc}") from exc
    return check_record(value, shape, f"{name} section")


def encode_u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def decode_u64(buf: bytes) -> int:
    return _unpack("<Q", buf, 0)[0][0]
