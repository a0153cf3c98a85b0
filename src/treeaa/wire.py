"""Binary payload formats used on simulated channels.

Every protocol message is a frame: 1 tag byte, 4-byte big-endian body
length, body.  Bodies:

* value round:  the sender's opaque value bytes, verbatim;
* echo / vote rounds:  a per-party vector, one entry per party id 1..n,
  each entry a presence byte (0 or 1) followed, when present, by a 4-byte
  big-endian length and the entry bytes;
* real values: 8-byte big-endian IEEE-754 double;
* tree paths:  4-byte big-endian vertex count, then per vertex a 2-byte
  big-endian length and the UTF-8 label bytes.

Decoders never raise on foreign bytes: anything malformed decodes to None,
which protocol layers treat as an absent or grade-0 message.  A label
longer than a path entry's 2-byte length field can hold cannot be sent.
"""

from __future__ import annotations

import math
import struct

from .errors import InvalidParams

TAG_VALUE = 0x01
TAG_ECHO = 0x02
TAG_VOTE = 0x03

_MAX_BODY = 64 * 1024 * 1024
_MAX_PATH_VERTICES = 1 << 20
_HDR = struct.Struct(">BI")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_F64 = struct.Struct(">d")


def frame(tag: int, body: bytes) -> bytes:
    return _HDR.pack(tag, len(body)) + body


def parse_frame(buf: bytes) -> tuple[int, bytes] | None:
    """Split a frame; None unless the length field matches exactly."""
    if len(buf) < 5:
        return None
    tag, size = _HDR.unpack_from(buf)
    if size > _MAX_BODY or len(buf) != 5 + size:
        return None
    return tag, buf[5:]


def encode_vector(entries: list[bytes | None]) -> bytes:
    parts = []
    for e in entries:
        if e is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + _U32.pack(len(e)) + e)
    return b"".join(parts)


def decode_vector(body: bytes, n: int) -> list[bytes | None] | None:
    """Read exactly n optional entries; None on any structural mismatch."""
    entries: list[bytes | None] = []
    pos = 0
    size = len(body)
    for _ in range(n):
        if pos >= size:
            return None
        flag = body[pos]
        pos += 1
        if flag == 0:
            entries.append(None)
        elif flag == 1:
            if pos + 4 > size:
                return None
            (length,) = _U32.unpack_from(body, pos)
            pos += 4
            if length > _MAX_BODY or pos + length > size:
                return None
            entries.append(body[pos : pos + length])
            pos += length
        else:
            return None
    if pos != size:
        return None
    return entries


def encode_double(x: float) -> bytes:
    return _F64.pack(x)


def decode_double(data: bytes) -> float | None:
    """A finite double from exactly 8 bytes; None otherwise (incl. NaN/inf)."""
    if len(data) != 8:
        return None
    (x,) = _F64.unpack(data)
    if not math.isfinite(x):
        return None
    return x


def encode_path(path: tuple[str, ...]) -> bytes:
    parts = [_U32.pack(len(path))]
    for label in path:
        raw = label.encode("utf-8")
        parts.append(_U16.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def path_entry(label: str) -> bytes:
    """One label of a tree path; InvalidParams if its length does not fit."""
    raw = label.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise InvalidParams(f"a label of {len(raw)} UTF-8 bytes cannot be sent as a "
                            "path entry; the limit is 65535 bytes")
    return _U16.pack(len(raw)) + raw


def decode_path(data: bytes) -> tuple[str, ...] | None:
    if len(data) < 4:
        return None
    (count,) = _U32.unpack_from(data)
    if count > _MAX_PATH_VERTICES:
        return None
    labels = []
    pos = 4
    size = len(data)
    for _ in range(count):
        if pos + 2 > size:
            return None
        (length,) = _U16.unpack_from(data, pos)
        pos += 2
        if pos + length > size:
            return None
        try:
            labels.append(data[pos : pos + length].decode("utf-8"))
        except UnicodeDecodeError:
            return None
        pos += length
    if pos != size:
        return None
    return tuple(labels)
