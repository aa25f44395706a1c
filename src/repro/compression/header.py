"""A container's frame: everything before its sections.

Version 3, the one written::

    MAGIC "OCLT" | version (u32) | checked (u8) | header length (varint)
    | header | [header checksum (8 B)] | sections, back to back

The header is a dict in a compact tagged binary form, its section table
under ``_sections``: ``[name, size]`` per section or, in a *checked*
container, ``[name, size, checksum]``.  Checksums are blake2b-8
(:func:`~repro.cache.keys.checksum`).  Versions 1 and 2 — a u32 header
length, then a JSON header whose table holds ``{"name", "size"}`` — are
read, never written.

A value is one tag byte — a major type in its top three bits, an argument
``n`` in the low five — followed by what the type needs (RFC 8949's
layout, cut down to what headers hold):

  major  value                     ``n`` is
  0      int ``n``                 the value
  1      int ``-1 - n``            the value's complement
  2      bytes                     their length; the bytes follow
  3      str, spelled out          its UTF-8 length; the UTF-8 follows
  4      list                      the item count; the items follow
  5      dict                      the pair count; key, value, ... follow
  6      str from :data:`NAMES`    its index in the table
  7      False / True / None / float   0 / 1 / 2 / 3 (eight bytes of f64 follow)

An ``n`` under 28 is the low five bits themselves; 28 says a LEB128
varint of ``n - 28`` follows.  Dict keys are strings, written sorted.
Every string the writers use — key names, predictor, codec, backend,
dtype and section names — is one or two bytes through the table; any
other string is spelled out, so metadata stays open-ended.  The table is
append-only: an index, once written, names its string forever.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from ..cache.keys import checksum
from ..errors import EncodingError, IntegrityError

__all__ = [
    "CHECKSUM_PLACEHOLDER", "FORMAT_VERSION", "NAMES", "decode_header", "encode_header",
    "read_frame", "write_frame",
]

MAGIC = b"OCLT"
FORMAT_VERSION = 3
_JSON_VERSIONS = (1, 2)
#: What a checksum is counted as when a frame is sized without hashing.
CHECKSUM_PLACEHOLDER = bytes(8)

NAMES = (
    # 0-27: one byte
    "_sections", "_arrays", "dtype", "shape", "compressor", "error_bound_abs", "metadata",
    "predictor", "entropy_stage", "lossless_backend", "payload", "interpolation", "float32",
    "float64", "int64", "deflate", "huffman", "none", "predictor_meta", "num_codes",
    "huffman_count", "aux_names", "escape_indices", "literals", "codes_payload", "entropy",
    "error_bound_request", "sz3",
    # 28 onwards: two bytes
    "codes_raw", "codes_sync", "codes_codebook", "codes_freqs", "huffman_sync_every", "rans",
    "rans_count", "huffman_shared", "rans_shared", "block_shape", "block_index",
    "shared_codebook", "num_blocks", "adaptive_predictor", "block_codecs", "id", "origin",
    "section", "alias_of", "codebook", "shared", "block", "stream_block", "blob_header",
    "lorenzo", "regression", "block-transform", "raw", "int8", "int16", "int32", "uint8",
    "float16", "order", "cubic", "linear", "base_stride", "bin_radius", "fallback",
    "block_size", "padded_shape", "pad_widths", "coeff_bound", "base", "coefficients",
    "aux_base", "aux_coefficients", "sz2", "sz-lorenzo", "zfp-like", "stage_timings",
    "predict_quantize_s", "entropy_s", "lossless_s", "content_digest", "cache_key", "sz3-linear",
)
_INDEX = {name: i for i, name in enumerate(NAMES)}

#: Deepest nesting a header may have (the writers use four levels).
MAX_DEPTH = 16
_IMMEDIATE = 28
_F64 = struct.Struct("<d")


def write_varint(out: bytearray, n: int) -> None:
    """Append ``n >= 0`` as LEB128."""
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def read_varint(data: bytes, at: int) -> Tuple[int, int]:
    """The LEB128 value at ``data[at:]`` and the offset after it; ten bytes at most."""
    n = 0
    for i in range(10):
        if at + i >= len(data):
            raise EncodingError("container header ends inside a varint")
        byte = data[at + i]
        n |= (byte & 0x7F) << (7 * i)
        if byte < 0x80:
            return n, at + i + 1
    raise EncodingError("varint in container header is longer than ten bytes")


def encode_header(header: Dict[str, Any]) -> bytes:
    """``header`` in the v3 binary form."""
    out = bytearray()
    _encode(header, out)
    return bytes(out)


def _head(out: bytearray, major: int, n: int) -> None:
    if n < _IMMEDIATE:
        out.append(major << 5 | n)
        return
    if n >= 1 << 64:
        raise EncodingError(f"integer {n} is too large for a container header")
    out.append(major << 5 | _IMMEDIATE)
    write_varint(out, n - _IMMEDIATE)


def _tag(major: int, n: int) -> bytes:
    out = bytearray()
    _head(out, major, n)
    return bytes(out)


#: Each table name's encoding, ready to append (the common case by far).
_NAME_TAGS = {name: _tag(6, i) for i, name in enumerate(NAMES)}


def _encode(value: Any, out: bytearray) -> None:
    # Exact types first, in the order headers hold them; subclasses (a
    # NumPy float, say) take the slower path at the end.
    kind = type(value)
    if kind is str:
        tag = _NAME_TAGS.get(value)
        if tag is None:
            raw = value.encode("utf-8")
            _head(out, 3, len(raw))
            out += raw
        else:
            out += tag
    elif kind is int:
        if value >= 0:
            _head(out, 0, value)
        else:
            _head(out, 1, -1 - value)
    elif kind is dict:
        if not all(type(key) is str for key in value):
            raise EncodingError("container header keys must be strings")
        _head(out, 5, len(value))
        for key in sorted(value):
            tag = _NAME_TAGS.get(key)
            if tag is None:
                _encode(key, out)
            else:
                out += tag
            _encode(value[key], out)
    elif kind is list or kind is tuple:
        _head(out, 4, len(value))
        for item in value:
            _encode(item, out)
    elif kind is float:
        out.append(0xE3)
        out += _F64.pack(value)
    elif value is None or kind is bool:
        out.append(0xE2 if value is None else 0xE1 if value else 0xE0)
    elif kind is bytes or kind is bytearray:
        _head(out, 2, len(value))
        out += value
    else:
        for base in (str, int, float, bytes, dict, list):
            if isinstance(value, base):
                return _encode(base(value), out)
        raise EncodingError(f"cannot write a {kind.__name__} into a container header")


def decode_header(data: bytes) -> Dict[str, Any]:
    """Invert :func:`encode_header`; anything else in ``data`` is an :class:`EncodingError`."""
    value, end = _decode(data, 0, 0)
    if end != len(data):
        raise EncodingError("trailing bytes after the container header")
    if type(value) is not dict:
        raise EncodingError("container header is not a dict")
    return value


#: The value of each tag byte that is a whole value by itself (a small int,
#: a table name, False / True / None); ``_SLOW`` for the others.
_SLOW = object()
_QUICK = [_SLOW] * 256
_QUICK[:_IMMEDIATE] = range(_IMMEDIATE)
_QUICK[0xC0 : 0xC0 + _IMMEDIATE] = NAMES[:_IMMEDIATE]
_QUICK[0xE0:0xE3] = (False, True, None)


def _decode(data: bytes, at: int, depth: int) -> Tuple[Any, int]:
    if at >= len(data):
        raise EncodingError("container header ends inside a value")
    tag = data[at]
    at += 1
    value = _QUICK[tag]
    if value is not _SLOW:
        return value, at
    major, n = tag >> 5, tag & 31
    if n >= _IMMEDIATE:
        if n > _IMMEDIATE:
            raise EncodingError(f"reserved argument {n} in container header")
        n, at = read_varint(data, at)
        n += _IMMEDIATE
    if major == 6:
        if n >= len(NAMES):
            raise EncodingError(f"container header names string {n}, past the table")
        return NAMES[n], at
    if major == 0:
        return n, at
    if major == 7:
        if n == 3:
            if at + 8 > len(data):
                raise EncodingError("container header ends inside a float")
            return _F64.unpack_from(data, at)[0], at + 8
        if n > 2:
            raise EncodingError(f"unknown simple value {n} in container header")
        return (False, True, None)[n], at
    if major == 1:
        return -1 - n, at
    if n > len(data) - at:  # every item takes a byte at least
        raise EncodingError("container header is truncated")
    if major == 2:
        return bytes(data[at : at + n]), at + n
    if major == 3:
        try:
            return str(data[at : at + n], "utf-8"), at + n
        except UnicodeDecodeError as exc:
            raise EncodingError("container header string is not UTF-8") from exc
    if depth >= MAX_DEPTH:
        raise EncodingError("container header nests too deep")
    depth += 1
    if major == 4:
        items = []
        for _ in range(n):
            item, at = _decode(data, at, depth)
            items.append(item)
        return items, at
    mapping: Dict[str, Any] = {}
    for _ in range(n):
        key, at = _decode(data, at, depth)
        if type(key) is not str or key in mapping:
            raise EncodingError(f"container header key {key!r} is not a new string")
        mapping[key], at = _decode(data, at, depth)
    return mapping, at


def write_frame(
    header: Dict[str, Any], table: List[list], checked: bool, header_sum: Optional[bytes] = None
) -> bytes:
    """The v3 frame of ``header`` and its section ``table``; ``header_sum``
    stands in for the header's checksum (sizing, without hashing)."""
    body = encode_header({**header, "_sections": table})
    frame = bytearray(MAGIC)
    frame += struct.pack("<IB", FORMAT_VERSION, checked)
    write_varint(frame, len(body))
    frame += body
    if checked:
        frame += header_sum or checksum(body)
    return bytes(frame)


Section = Tuple[str, int, Optional[bytes]]


def read_frame(data: bytes) -> Tuple[int, Dict[str, Any], List[Section], int, bool]:
    """``(version, header, table, offset, checked)`` of a container of any version:
    its section table as ``(name, size, checksum or None)`` and the offset of its
    first section.  A v3 header is checked against its checksum before it is decoded."""
    if len(data) < 12 or data[:4] != MAGIC:
        raise EncodingError("not a valid Ocelot container (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version in _JSON_VERSIONS:
        start, checked = 12, False
        end = offset = start + struct.unpack_from("<I", data, 8)[0]
    elif version == FORMAT_VERSION:
        if data[8] > 1:
            raise EncodingError(f"unknown container flags {data[8]}")
        checked = bool(data[8])
        size, start = read_varint(data, 9)
        end = start + size
        offset = end + len(CHECKSUM_PLACEHOLDER) * checked
    else:
        raise EncodingError(f"unsupported container version {version}")
    if offset > len(data):
        raise EncodingError("truncated container header")
    if checked and checksum(data[start:end]) != data[end:offset]:
        raise IntegrityError("container header does not match its checksum")
    header = decode_header(data[start:end]) if version == FORMAT_VERSION else _json(data[start:end])
    table = header.pop("_sections", [])
    if not isinstance(table, list):
        raise EncodingError("container header has no section list")
    return version, header, [_entry(e, version, checked) for e in table], offset, checked


def _json(raw: bytes) -> Dict[str, Any]:
    try:  # JSONDecodeError and UnicodeDecodeError are both ValueErrors
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise EncodingError("container header is not valid JSON") from exc
    if not isinstance(header, dict):
        raise EncodingError("container header is not an object")
    return header


def _entry(entry: Any, version: int, checked: bool) -> Section:
    """One section-table entry, checked for shape and types."""
    try:
        if version in _JSON_VERSIONS:
            name, size, digest = entry["name"], int(entry["size"]), None
        else:
            name, size, *rest = entry
            (digest,) = rest if checked else (None, *rest)
            if checked and not (isinstance(digest, bytes) and len(digest) == 8):
                raise TypeError(f"section checksum {digest!r} is not 8 bytes")
            if isinstance(size, bool) or not isinstance(size, int):
                raise TypeError(f"section size {size!r} is not an integer")
        if not isinstance(name, str):
            raise TypeError(f"section name {name!r} is not a string")
    except (KeyError, TypeError, ValueError) as exc:
        raise EncodingError("malformed section entry in container header") from exc
    return name, size, digest
