"""The binary container layout that every file format shares (docs/formats.md).

A container is a 4-byte magic, a little-endian uint32 header length,
that many bytes of UTF-8 JSON (an object), then raw little-endian data
blocks back to back. A format supplies its magic, its header and a
layout: a function from the header to each block's (dtype, shape).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import struct

import numpy as np

from .errors import InvalidParameter

# The block dtypes each format defines (backbone, graph, embeddings, checkpoint, attention).
DTYPES = {b"IFB1": ("<u8", "<f4"), b"IFG1": ("<i4", "<f4"), b"IFE1": ("<f4",),
          b"IFC1": ("<f8",), b"IFA1": ("<i4", "<f4")}


def pack(magic: bytes, header: dict, blocks) -> bytearray:
    """Container bytes; `blocks` holds (dtype, array) pairs, each cast and
    written in C order straight into its slot of the one buffer."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    specs = [(np.dtype(dtype), np.shape(a), a) for dtype, a in blocks]
    sizes = [math.prod(shape) * dtype.itemsize for dtype, shape, _ in specs]
    starts = list(itertools.accumulate(sizes, initial=8 + len(head)))
    out = bytearray(starts[-1])
    out[:8 + len(head)] = magic + struct.pack("<I", len(head)) + head
    for (dtype, shape, a), start in zip(specs, starts):
        slot = np.frombuffer(out, dtype, math.prod(shape), start).reshape(shape)
        np.copyto(slot, a, casting="unsafe")
    return out


@contextlib.contextmanager
def checked(error, what: str):
    """Re-raise a malformed header's lookup, type or value failure, or a
    record that rejects the values (InvalidParameter), as `error`."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, InvalidParameter) as exc:
        raise error(f"{what}: malformed ({type(exc).__name__}: {exc})") from exc


def unpack(data, magic: bytes, layout, error, what: str):
    """Returns (header, read-only block views into `data`, shaped as
    `layout(header)` says); `data` is any bytes-like object. Raises
    `error` on a wrong magic, a cut or non-object header, a dtype the
    format does not define, a dimension that is not a non-negative int,
    or a byte length that is not exact."""
    data = memoryview(data).toreadonly()
    if data[:4] != magic:
        raise error(f"{what}: bad magic")
    if len(data) < 8:
        raise error(f"{what}: truncated at {len(data)} bytes")
    (hlen,) = struct.unpack_from("<I", data, 4)
    if 8 + hlen > len(data):
        raise error(f"{what}: truncated header ({hlen} bytes, {len(data) - 8} follow)")
    with checked(error, f"{what} header"):
        header = json.loads(str(data[8:8 + hlen], "utf-8"))
        if not isinstance(header, dict):
            raise TypeError("not a JSON object")
        specs = [(dtype, tuple(shape)) for dtype, shape in layout(header)]
    for dtype, shape in specs:
        if dtype not in DTYPES[magic]:
            raise error(f"{what}: block dtype {dtype!r} is not one of {DTYPES[magic]}")
        if not all(type(d) is int and d >= 0 for d in shape):
            raise error(f"{what}: block shape {list(shape)} is not non-negative ints")
    sizes = [math.prod(s) * np.dtype(t).itemsize for t, s in specs]
    starts = list(itertools.accumulate(sizes, initial=8 + hlen))
    if starts[-1] != len(data):
        raise error(f"{what}: {len(data)} bytes, but the header describes {starts[-1]}")
    return header, [np.frombuffer(data, dtype=t, count=math.prod(s), offset=o).reshape(s)
                    for (t, s), o in zip(specs, starts)]
