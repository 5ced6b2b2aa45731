"""Minimal self-contained MessagePack encoder/decoder.

The paper's tracer can flush its records either as JSON Lines or as
MessagePack [22].  Since no third-party msgpack package is available in this
environment, this module implements the subset of the MessagePack
specification needed to round-trip the TMIO flush schema (and a bit more):

* nil, booleans
* integers (positive/negative fixint, uint8/16/32/64, int8/16/32/64)
* float64
* strings (fixstr, str8/16/32)
* binary (bin8/16/32)
* arrays (fixarray, array16/32)
* maps (fixmap, map16/32)

The wire format follows https://github.com/msgpack/msgpack/blob/master/spec.md,
so files written here are readable by any compliant MessagePack reader.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any

from repro.exceptions import TraceFormatError
from repro.trace.jsonl import FlushRecord, flushes_to_trace
from repro.trace.record import IORequest
from repro.trace.trace import Trace


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #
def packb(obj: Any) -> bytes:
    """Serialize ``obj`` to MessagePack bytes."""
    out = bytearray()
    _pack_into(obj, out)
    return bytes(out)


def _pack_into(obj: Any, out: bytearray) -> None:
    if obj is None:
        out.append(0xC0)
    elif obj is True:
        out.append(0xC3)
    elif obj is False:
        out.append(0xC2)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        _pack_int(obj, out)
    elif isinstance(obj, float):
        out.append(0xCB)
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        _pack_str(obj, out)
    elif isinstance(obj, (bytes, bytearray)):
        _pack_bin(bytes(obj), out)
    elif isinstance(obj, (list, tuple)):
        _pack_array(obj, out)
    elif isinstance(obj, dict):
        _pack_map(obj, out)
    else:
        raise TypeError(f"cannot MessagePack-serialize object of type {type(obj).__name__}")


def _pack_int(value: int, out: bytearray) -> None:
    if 0 <= value <= 0x7F:
        out.append(value)
    elif -32 <= value < 0:
        out.append(value & 0xFF)
    elif 0 <= value <= 0xFF:
        out += struct.pack(">BB", 0xCC, value)
    elif 0 <= value <= 0xFFFF:
        out += struct.pack(">BH", 0xCD, value)
    elif 0 <= value <= 0xFFFFFFFF:
        out += struct.pack(">BI", 0xCE, value)
    elif 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        out += struct.pack(">BQ", 0xCF, value)
    elif -0x80 <= value < 0:
        out += struct.pack(">Bb", 0xD0, value)
    elif -0x8000 <= value < 0:
        out += struct.pack(">Bh", 0xD1, value)
    elif -0x80000000 <= value < 0:
        out += struct.pack(">Bi", 0xD2, value)
    elif -0x8000000000000000 <= value < 0:
        out += struct.pack(">Bq", 0xD3, value)
    else:
        raise OverflowError(f"integer {value} out of MessagePack range")


def _pack_str(value: str, out: bytearray) -> None:
    data = value.encode("utf-8")
    n = len(data)
    if n <= 31:
        out.append(0xA0 | n)
    elif n <= 0xFF:
        out += struct.pack(">BB", 0xD9, n)
    elif n <= 0xFFFF:
        out += struct.pack(">BH", 0xDA, n)
    else:
        out += struct.pack(">BI", 0xDB, n)
    out += data


def _pack_bin(data: bytes, out: bytearray) -> None:
    n = len(data)
    if n <= 0xFF:
        out += struct.pack(">BB", 0xC4, n)
    elif n <= 0xFFFF:
        out += struct.pack(">BH", 0xC5, n)
    else:
        out += struct.pack(">BI", 0xC6, n)
    out += data


def _pack_array(items: Iterable[Any], out: bytearray) -> None:
    items = list(items)
    n = len(items)
    if n <= 15:
        out.append(0x90 | n)
    elif n <= 0xFFFF:
        out += struct.pack(">BH", 0xDC, n)
    else:
        out += struct.pack(">BI", 0xDD, n)
    for item in items:
        _pack_into(item, out)


def _pack_map(mapping: dict, out: bytearray) -> None:
    n = len(mapping)
    if n <= 15:
        out.append(0x80 | n)
    elif n <= 0xFFFF:
        out += struct.pack(">BH", 0xDE, n)
    else:
        out += struct.pack(">BI", 0xDF, n)
    for key, value in mapping.items():
        _pack_into(key, out)
        _pack_into(value, out)


# --------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------- #
# One handler per type code, looked up in a 256-entry table built at import.
# A handler is called as ``handler(data, pos)`` with ``pos`` just past the
# type code and returns ``(value, next_pos)``.  Everything reads in place with
# ``struct.unpack_from`` and integer indexing, which run at ``bytes`` speed on
# a ``memoryview``; only string and binary values slice (they have to copy).
# Fixed-width reads past the end raise ``IndexError`` / ``struct.error``,
# which :func:`unpack_at` turns into the one truncation error.
_Handler = Callable[[Any, int], tuple[Any, int]]


def _truncated() -> TraceFormatError:
    return TraceFormatError("truncated MessagePack data")


def _fixint(data: Any, pos: int) -> tuple[int, int]:
    return data[pos - 1], pos


def _negative_fixint(data: Any, pos: int) -> tuple[int, int]:
    return data[pos - 1] - 0x100, pos


def _constant(value: Any) -> _Handler:
    return lambda data, pos: (value, pos)


def _scalar(fmt: str) -> _Handler:
    packed = struct.Struct(fmt)
    unpack_from, size = packed.unpack_from, packed.size

    def handler(data: Any, pos: int) -> tuple[Any, int]:
        return unpack_from(data, pos)[0], pos + size

    return handler


def _str_n(data: Any, pos: int, n: int) -> tuple[str, int]:
    end = pos + n
    if end > len(data):
        raise _truncated()
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"MessagePack string is not valid UTF-8: {exc}") from exc


def _bin_n(data: Any, pos: int, n: int) -> tuple[bytes, int]:
    end = pos + n
    if end > len(data):
        raise _truncated()
    return bytes(data[pos:end]), end


def _array_n(data: Any, pos: int, n: int) -> tuple[list, int]:
    out = []
    dispatch = _DISPATCH
    for _ in range(n):
        item, pos = dispatch[data[pos]](data, pos + 1)
        out.append(item)
    return out, pos


def _map_n(data: Any, pos: int, n: int) -> tuple[dict, int]:
    out = {}
    dispatch = _DISPATCH
    for _ in range(n):
        key, pos = dispatch[data[pos]](data, pos + 1)
        value, pos = dispatch[data[pos]](data, pos + 1)
        try:
            out[key] = value
        except TypeError as exc:
            raise TraceFormatError(f"unhashable MessagePack map key: {exc}") from exc
    return out, pos


def _fixstr(data: Any, pos: int) -> tuple[str, int]:
    return _str_n(data, pos, data[pos - 1] & 0x1F)


def _fixarray(data: Any, pos: int) -> tuple[list, int]:
    return _array_n(data, pos, data[pos - 1] & 0x0F)


def _fixmap(data: Any, pos: int) -> tuple[dict, int]:
    return _map_n(data, pos, data[pos - 1] & 0x0F)


def _sized(fmt: str, body: Callable[[Any, int, int], tuple[Any, int]]) -> _Handler:
    """A length- or count-prefixed type: read the prefix, then ``body``."""
    packed = struct.Struct(fmt)
    unpack_from, size = packed.unpack_from, packed.size

    def handler(data: Any, pos: int) -> tuple[Any, int]:
        return body(data, pos + size, unpack_from(data, pos)[0])

    return handler


def _unsupported(data: Any, pos: int) -> tuple[Any, int]:
    raise TraceFormatError(f"unsupported MessagePack type code 0x{data[pos - 1]:02x}")


def _build_dispatch() -> tuple[_Handler, ...]:
    table: list[_Handler] = [_unsupported] * 256
    table[0x00:0x80] = [_fixint] * 0x80
    table[0x80:0x90] = [_fixmap] * 0x10
    table[0x90:0xA0] = [_fixarray] * 0x10
    table[0xA0:0xC0] = [_fixstr] * 0x20
    table[0xE0:0x100] = [_negative_fixint] * 0x20
    table[0xC0] = _constant(None)
    table[0xC2] = _constant(False)
    table[0xC3] = _constant(True)
    scalars = (
        (0xCA, ">f"), (0xCB, ">d"),
        (0xCC, ">B"), (0xCD, ">H"), (0xCE, ">I"), (0xCF, ">Q"),
        (0xD0, ">b"), (0xD1, ">h"), (0xD2, ">i"), (0xD3, ">q"),
    )
    for code, fmt in scalars:
        table[code] = _scalar(fmt)
    for first, body in ((0xC4, _bin_n), (0xD9, _str_n)):
        for code, fmt in zip(range(first, first + 3), (">B", ">H", ">I")):
            table[code] = _sized(fmt, body)
    for first, body in ((0xDC, _array_n), (0xDE, _map_n)):
        for code, fmt in zip(range(first, first + 2), (">H", ">I")):
            table[code] = _sized(fmt, body)
    return tuple(table)


_DISPATCH = _build_dispatch()


def unpack_at(data: bytes | memoryview, pos: int) -> tuple[Any, int]:
    """Decode the object starting at ``data[pos]``; returns ``(object, next_pos)``.

    Accepts any C-contiguous byte buffer; a ``memoryview`` is decoded in place
    without materializing a ``bytes`` copy, which is what keeps the framed
    ingest path zero-copy.  Malformed input of any kind raises
    :class:`~repro.exceptions.TraceFormatError` and nothing else.
    """
    try:
        return _DISPATCH[data[pos]](data, pos + 1)
    except (IndexError, struct.error):
        raise _truncated() from None
    except RecursionError:
        raise TraceFormatError("MessagePack data is nested too deeply") from None


def unpackb(data: bytes | memoryview) -> Any:
    """Deserialize a single MessagePack object from ``data``."""
    obj, pos = unpack_at(data, 0)
    if pos != len(data):
        raise TraceFormatError("trailing bytes after MessagePack object")
    return obj


def unpack_stream(data: bytes) -> Iterator[Any]:
    """Yield every MessagePack object concatenated in ``data``."""
    pos = 0
    while pos < len(data):
        obj, pos = unpack_at(data, pos)
        yield obj


# --------------------------------------------------------------------- #
# TMIO flush-file helpers
# --------------------------------------------------------------------- #
class MsgpackTraceWriter:
    """Append-only writer of TMIO flush records in MessagePack form."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._flush_index = 0

    @property
    def path(self) -> Path:
        """Location of the trace file."""
        return self._path

    @property
    def flush_count(self) -> int:
        """Number of flushes written so far."""
        return self._flush_index

    def append(self, requests: Iterable[IORequest], *, timestamp: float, metadata: dict | None = None) -> FlushRecord:
        """Append one flush and return the record written."""
        # Imported here: the encoder's module builds on this one.
        from repro.trace.columns import encode_flush_payload

        record = FlushRecord(
            flush_index=self._flush_index,
            timestamp=timestamp,
            requests=tuple(requests),
            metadata=dict(metadata or {}),
        )
        payload = encode_flush_payload(record)
        with self._path.open("ab") as handle:
            handle.write(payload)
        self._flush_index += 1
        return record


def iter_flushes(path: str | Path) -> Iterator[FlushRecord]:
    """Yield every flush record stored in a MessagePack trace file."""
    data = Path(path).read_bytes()
    for obj in unpack_stream(data):
        if not isinstance(obj, dict):
            raise TraceFormatError(f"expected a map per flush, got {type(obj).__name__}")
        yield FlushRecord.from_dict(obj)


def read_trace(path: str | Path) -> Trace:
    """Read a MessagePack trace file into a single merged :class:`Trace`."""
    return flushes_to_trace(iter_flushes(path))


def write_trace(trace: Trace, path: str | Path) -> int:
    """Write a whole trace as a single-flush MessagePack file. Returns the flush count."""
    path = Path(path)
    if path.exists():
        path.unlink()
    writer = MsgpackTraceWriter(path)
    requests = trace.requests()
    if requests:
        writer.append(requests, timestamp=trace.t_end, metadata=trace.metadata)
    return writer.flush_count
