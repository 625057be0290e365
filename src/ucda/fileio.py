"""Raw tensor files and PPM conversion helpers.

A raw tensor file is a little-endian header (u32 height, u32 width,
u32 channels, i32 scale_exp) followed by the int8 payload in row-major
(row, column, channel) order.
"""
from __future__ import annotations

import struct

import numpy as np

from .qtensor import QTensor

_HEADER = struct.Struct("<IIIi")


def tensor_bytes(t: QTensor) -> bytes:
    return _HEADER.pack(t.height, t.width, t.channels, t.scale_exp) + t.data.tobytes()


def write_tensor(path, t: QTensor) -> None:
    with open(path, "wb") as f:
        f.write(tensor_bytes(t))


def read_tensor(path) -> QTensor:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated tensor header")
    h, w, c, scale_exp = _HEADER.unpack_from(blob)
    if 0 in (h, w, c):
        raise ValueError(f"{path}: header has a zero dimension: {h}x{w}x{c} (h x w x c)")
    payload = blob[_HEADER.size:]
    if len(payload) != h * w * c:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, header says {h * w * c}")
    data = np.frombuffer(payload, dtype=np.int8).reshape(h, w, c).copy()
    return QTensor(data, scale_exp)


def ppm_to_tensor(path, scale_exp: int = -7) -> QTensor:
    """Load a binary PPM (P6) or PGM (P5); pixels shift from 0..255 to q8."""
    with open(path, "rb") as f:
        blob = f.read()
    names = ("magic", "width", "height", "maxval")
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(blob):
            raise ValueError(f"{path}: header ends at byte {pos}, "
                             f"before its {names[len(fields)]} field")
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append((start, blob[start:pos]))
    magic = fields[0][1].decode(errors="replace")
    if magic not in ("P5", "P6"):
        raise ValueError(f"{path}: expected binary PGM/PPM, got {magic}")
    for name, (start, value) in zip(names[1:], fields[1:]):
        if not value.isdigit():
            raise ValueError(f"{path}: {name} field at byte {start} is not a number: "
                             f"{value.decode(errors='replace')!r}")
        if name != "maxval" and int(value) == 0:
            raise ValueError(f"{path}: {name} field at byte {start} is 0")
    w, h, maxval = (int(value) for _, value in fields[1:])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported")
    pos += 1  # single whitespace after maxval
    channels = 3 if magic == "P6" else 1
    need = h * w * channels
    have = max(0, len(blob) - pos)
    if have < need:
        raise ValueError(
            f"{path}: payload holds {have} bytes from byte {pos}, header says {need}")
    raw = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos)
    data = (raw.astype(np.int16) - 128).astype(np.int8).reshape(h, w, channels)
    return QTensor(data, scale_exp)


def tensor_to_ppm(path, t: QTensor) -> None:
    """Write 1-channel data as PGM and 3-channel as PPM, shifting to 0..255."""
    if t.channels not in (1, 3):
        raise ValueError(f"PPM export needs 1 or 3 channels, got {t.channels}")
    magic = b"P6" if t.channels == 3 else b"P5"
    pixels = (t.data.astype(np.int16) + 128).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (t.width, t.height))
        f.write(pixels.tobytes())
