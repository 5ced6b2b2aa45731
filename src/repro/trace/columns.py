"""Columnar flushes: one flush as five numpy columns, decoded a feed at a time.

The streaming service never looks at a flush request by request: a session
sorts the requests of a flush and appends them to its columnar window.  So the
service's form of a flush is :class:`FlushColumns` — the scalar header fields
plus five columns in wire order — and rows (:class:`IORequest`) are only
built when somebody asks for them.

:func:`decode_flush_payloads` turns the FTS1 payloads of a feed (each the
MessagePack flush map of :meth:`FlushRecord.to_dict`) into :class:`FlushColumns`
without the dict, the :class:`FlushRecord` and the per-request objects in
between; :func:`decode_flush_columns` is a feed of one.  Both know the one byte
layout every writer in this repository produces — the *canonical* shape::

    fixmap(4)  "flush_index" int  "timestamp" float64  "metadata" map
               "requests" array of
                   fixmap(5)  "rank" int  "start" float64  "end" float64
                              "bytes" int  "kind" "write" | "read"

with every key a fixstr and in exactly that order, each integer in its
narrowest width.  A request's bytes are fixed by its kind, the width of its
rank and the width of its byte count: 50 layouts, compiled once into one
table, each entry the request's ``struct``, its five key runs and its numpy
record.  That table is read three ways:

* **written.**  :func:`encode_flush_payload` packs each request with its
  entry's ``struct``, byte for byte ``packb(flush.to_dict())``;
  ``trace.framing.encode_us`` is its price.  A flush whose fields are not of
  the canonical Python types goes whole to ``packb(flush.to_dict())``, the
  encoder's oracle.
* **read a batch at a time.**  Payloads whose requests all share one layout
  are grouped, and a group is read through one numpy structured view of its
  entry's record, checked once (every key run, a fixint below ``0x80``, a
  uint64 within int64, ``end >= start``) and cut into per-flush slices of
  its columns;
* **read request by request.**  A payload of mixed layouts, or one too small
  for a batch to pay, is walked (:func:`_decode_canonical`): one ``struct``
  call per request, with the entry its type codes and kind pick — the same
  pick that groups a payload by its first request — and its key runs
  compared to the entry's.

Each payload's head — up to its first request — is read in place with
``struct``, its free-form ``metadata`` map by the generic walker
(:func:`repro.trace.msgpack.unpack_at`).  Whatever no read takes — another
key order, an unknown key, a ``str8`` key, an integer ``start``, a missing
``kind``, a value that fails validation, a truncated or trailing byte — goes,
whole, through the oracle,
``FlushColumns.from_record(FlushRecord.from_dict(unpackb(payload)))``.

The fast reads only ever *accept*: a group any check rejects is decoded again
payload by payload, and a payload the walker rejects goes to the oracle, so
what is accepted, what is rejected and with which message are the oracle's by
construction — one bad payload costs only itself.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import TraceFormatError
from repro.trace.jsonl import FlushRecord
from repro.trace.msgpack import packb, unpack_at, unpackb
from repro.trace.record import IOKind, IORequest, iter_requests

#: Fixed dtype of a kind column ("write"/"read" fit comfortably).
KIND_DTYPE = "<U8"


class SortedColumns(NamedTuple):
    """Request columns ordered by start, end, rank: a chunk a window can append."""

    starts: NDArray[np.float64]
    ends: NDArray[np.float64]
    nbytes: NDArray[np.int64]
    ranks: NDArray[np.int64]
    kinds: NDArray[np.str_]


@dataclass(eq=False)
class FlushColumns:
    """One flush, columnar: header fields plus five columns in wire order.

    Interchangeable with :class:`FlushRecord` wherever the service takes a
    flush, and equal (``==``) to the record holding the same flush.  Every
    instance is valid: the constructor checks what :class:`IORequest` checks
    per request (``end >= start``, ``bytes >= 0``, ``rank >= 0``), vectorised,
    and raises :class:`~repro.exceptions.TraceFormatError` otherwise; the
    decoders check the same before they wrap their columns unchecked.

    A decoded flush's columns may be slices of arrays shared with the other
    flushes of its feed (read-only by convention, like every column here);
    none aliases the payload they were read from, so a borrowed buffer — a
    ring view — can be reclaimed as soon as the decode returns.

    Attributes
    ----------
    flush_index, timestamp, metadata:
        As in :class:`FlushRecord`.
    starts, ends:
        Request start/end timestamps (float64), in the order they were written.
    nbytes, ranks:
        Bytes moved and issuing rank per request (int64).
    kinds:
        Request direction per request (``IOKind`` values, :data:`KIND_DTYPE`).
    """

    flush_index: int
    timestamp: float
    metadata: dict
    starts: NDArray[np.float64]
    ends: NDArray[np.float64]
    nbytes: NDArray[np.int64]
    ranks: NDArray[np.int64]
    kinds: NDArray[np.str_]

    def __post_init__(self) -> None:
        n = len(self.starts)
        if not (len(self.ends) == len(self.nbytes) == len(self.ranks) == len(self.kinds) == n):
            raise TraceFormatError("flush columns differ in length")
        if n == 0:
            return
        if (self.ends < self.starts).any():
            raise TraceFormatError("every request must satisfy end >= start")
        if (self.nbytes < 0).any():
            raise TraceFormatError("request byte counts must be >= 0")
        if (self.ranks < 0).any():
            raise TraceFormatError("request ranks must be >= 0")

    @classmethod
    def _trusted(
        cls,
        flush_index: int,
        timestamp: float,
        metadata: dict,
        starts: NDArray[np.float64],
        ends: NDArray[np.float64],
        nbytes: NDArray[np.int64],
        ranks: NDArray[np.int64],
        kinds: NDArray[np.str_],
    ) -> FlushColumns:
        """Wrap columns a batch decode already checked, without checking them again.

        As :meth:`Trace._trusted <repro.trace.trace.Trace._trusted>`: the
        flush takes the arrays and the dict as they are.
        """
        flush = object.__new__(cls)
        flush.__dict__.update(
            flush_index=flush_index,
            timestamp=timestamp,
            metadata=metadata,
            starts=starts,
            ends=ends,
            nbytes=nbytes,
            ranks=ranks,
            kinds=kinds,
        )
        return flush

    @classmethod
    def from_record(cls, record: FlushRecord) -> FlushColumns:
        """The columnar form of ``record`` (requests keep their order)."""
        requests = record.requests
        try:
            nbytes = np.array([r.nbytes for r in requests], dtype=np.int64)
            ranks = np.array([r.rank for r in requests], dtype=np.int64)
        except OverflowError as exc:
            raise TraceFormatError(f"request bytes and rank must fit int64: {exc}") from exc
        return cls(
            flush_index=record.flush_index,
            timestamp=record.timestamp,
            metadata=dict(record.metadata),
            starts=np.array([r.start for r in requests], dtype=np.float64),
            ends=np.array([r.end for r in requests], dtype=np.float64),
            nbytes=nbytes,
            ranks=ranks,
            kinds=np.array([r.kind.value for r in requests], dtype=KIND_DTYPE),
        )

    def to_record(self) -> FlushRecord:
        """The row form of this flush."""
        return FlushRecord(
            flush_index=self.flush_index,
            timestamp=self.timestamp,
            requests=self.requests,
            metadata=dict(self.metadata),
        )

    @cached_property
    def requests(self) -> tuple[IORequest, ...]:
        """The flush row by row, in wire order (built on first use)."""
        return tuple(iter_requests(self.ranks, self.starts, self.ends, self.nbytes, self.kinds))

    def __len__(self) -> int:
        return len(self.starts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlushColumns):
            other = other.to_record()
        if isinstance(other, FlushRecord):
            return self.to_record() == other
        return NotImplemented

    def time_ordered(self) -> SortedColumns:
        """The five columns sorted by start, end, rank.

        The order :meth:`Trace.from_requests` gives the same requests — what a
        session appends to its window.
        """
        order = np.lexsort((self.ranks, self.ends, self.starts))
        return SortedColumns(
            self.starts[order],
            self.ends[order],
            self.nbytes[order],
            self.ranks[order],
            self.kinds[order],
        )


def as_flush_columns(flush: FlushRecord | FlushColumns) -> FlushColumns:
    """``flush`` itself when already columnar, else :meth:`FlushColumns.from_record`."""
    if isinstance(flush, FlushColumns):
        return flush
    return FlushColumns.from_record(flush)


# --------------------------------------------------------------------- #
# the canonical layout: one table, written and read
# --------------------------------------------------------------------- #
class _NotCanonical(Exception):
    """The flush or payload is not exactly the canonical shape: ask the oracle."""


# A key is the bytes it is written as (fixstr header included), fused with
# what has to follow it where that is fixed too — the 0xCB of a float64
# value, the fixmap(5) header in front of "rank".
_K_FLUSH_HEAD = b"\x84\xabflush_index"
_K_TIMESTAMP = b"\xa9timestamp\xcb"
_K_METADATA = b"\xa8metadata"
_K_REQUESTS = b"\xa8requests"
_K_RANK = b"\x85\xa4rank"
_K_START = b"\xa5start\xcb"
_K_END = b"\xa3end\xcb"
_K_BYTES = b"\xa5bytes"
_K_KIND = b"\xa4kind"
_KIND_VALUES = {IOKind.WRITE: b"\xa5write", IOKind.READ: b"\xa4read"}

# The widths an integer of the layout (flush index, rank, byte count) is
# written in, narrowest first: the type code in front of the value (none for a
# positive fixint) and the value's struct.  The encoder picks a width by the
# value's bit length — 64 bits or more is past int64, which no reader takes —
# and the decoders look one up by its type code.
_UINT_WIDTHS = tuple(
    (code, struct.Struct(fmt))
    for code, fmt in (
        (b"", ">B"), (b"\xcc", ">B"), (b"\xcd", ">H"), (b"\xce", ">I"), (b"\xcf", ">Q")
    )
)
#: Width index by bit length: up to 7 bits a fixint, 8 a uint8, ... 63 a uint64.
_WIDTH_OF_BITS = tuple(sum(bits > top for top in (7, 8, 16, 32)) for bits in range(64))
#: Width index by type code (a fixint is its own code); ``None``: not an unsigned int.
_WIDTH_OF_CODE = tuple(
    0 if code <= 0x7F else {c[0]: w for w, (c, _) in enumerate(_UINT_WIDTHS) if c}.get(code)
    for code in range(256)
)
_INT_SIZE = tuple(len(code) + uint.size for code, uint in _UINT_WIDTHS)  # type code + value

_FLOAT64 = struct.Struct(">d")
_COUNT16 = struct.Struct(">H")
_COUNT32 = struct.Struct(">I")


#: One request layout, a plain tuple the hot loops unpack whole:
#: ``(pack, keys, unpack, size, kind, dtype, mask, fixed)`` — the request's
#: ``struct`` (key runs as bytes, values big-endian) by its ``pack``, its five
#: key runs in wire order (``"rank"`` and ``"bytes"`` with the type code of
#: their value fused on, ``"kind"`` with its value), the ``struct``'s
#: ``unpack_from`` and size, the kind value a kind column holds, and for the
#: batch reader the same request as a numpy record, the bits of its bytes the
#: layout fixes (every key bit, and the top bit of a fixint value, ``< 0x80``,
#: or of a uint64 one, the int64 range) and what those bits must read.
_Layout = tuple[
    Callable[..., bytes], tuple[bytes, ...], Callable[..., tuple], int, str,
    np.dtype, NDArray[np.uint8], bytes,
]


def _request_layout(kind: IOKind, rank_width: int, bytes_width: int) -> _Layout:
    """One request of ``kind``, its rank and byte count in the given widths."""
    rank_code, rank_uint = _UINT_WIDTHS[rank_width]
    bytes_code, bytes_uint = _UINT_WIDTHS[bytes_width]
    k_rank, k_start, k_end = _K_RANK + rank_code, _K_START, _K_END
    k_bytes, k_kind = _K_BYTES + bytes_code, _K_KIND + _KIND_VALUES[kind]
    request = struct.Struct(
        f">{len(k_rank)}s{rank_uint.format[1:]}{len(k_start)}sd{len(k_end)}sd"
        f"{len(k_bytes)}s{bytes_uint.format[1:]}{len(k_kind)}s"
    )
    dtype = np.dtype(
        [
            ("k_rank", f"S{len(k_rank)}"), ("rank", f">u{rank_uint.size}"),
            ("k_start", f"S{len(k_start)}"), ("start", ">f8"),
            ("k_end", f"S{len(k_end)}"), ("end", ">f8"),
            ("k_bytes", f"S{len(k_bytes)}"), ("bytes", f">u{bytes_uint.size}"),
            ("k_kind", f"S{len(k_kind)}"),
        ]
    )
    assert dtype.itemsize == request.size
    zeros = request.pack(k_rank, 0, k_start, 0.0, k_end, 0.0, k_bytes, 0, k_kind)
    mask = np.zeros(request.size, np.uint8)
    for name, (field, offset) in dtype.fields.items():
        if name.startswith("k_"):
            mask[offset : offset + field.itemsize] = 0xFF
    for name, width in (("rank", rank_width), ("bytes", bytes_width)):
        if width in (0, len(_UINT_WIDTHS) - 1):
            mask[dtype.fields[name][1]] = 0x80
    keys = (k_rank, k_start, k_end, k_bytes, k_kind)
    return request.pack, keys, request.unpack_from, request.size, kind.value, dtype, mask, zeros


# ``_REQUEST_LAYOUTS[kind][rank width][bytes width]``, compiled once.
_REQUEST_LAYOUTS = {
    kind: tuple(
        tuple(_request_layout(kind, rank_w, bytes_w) for bytes_w in range(len(_UINT_WIDTHS)))
        for rank_w in range(len(_UINT_WIDTHS))
    )
    for kind in IOKind
}

# What picks a request's layout: the type code of its rank, of its byte count
# (how far behind depends on the rank's width) and the first byte of its kind
# value (how far behind that, on the byte count's width).
_RANK_CODE_AT = len(_K_RANK)
_BYTES_CODE_AT = tuple(
    len(_K_RANK) + size + len(_K_START) + 8 + len(_K_END) + 8 + len(_K_BYTES)
    for size in _INT_SIZE
)
_KIND_BYTE_AT = tuple(size + len(_K_KIND) for size in _INT_SIZE)
_KIND_OF_CODE = tuple({v[0]: kind for kind, v in _KIND_VALUES.items()}.get(c) for c in range(256))


def _layout_at(data: Any, pos: int) -> tuple[IOKind, int, int] | None:
    """The layout of the request at ``data[pos]`` — kind, rank width, bytes
    width — or ``None``; its key runs are the caller's to check."""
    rank_w = _WIDTH_OF_CODE[data[pos + _RANK_CODE_AT]]
    if rank_w is None:
        return None
    pos += _BYTES_CODE_AT[rank_w]
    bytes_w = _WIDTH_OF_CODE[data[pos]]
    if bytes_w is None:
        return None
    kind = _KIND_OF_CODE[data[pos + _KIND_BYTE_AT[bytes_w]]]
    if kind is None:
        return None
    return kind, rank_w, bytes_w


# --------------------------------------------------------------------- #
# the schema-specialised encoder
# --------------------------------------------------------------------- #
def _array_header(n: int) -> bytes:
    if n <= 0x0F:
        return bytes((0x90 | n,))
    if n <= 0xFFFF:
        return b"\xdc" + _COUNT16.pack(n)
    return b"\xdd" + _COUNT32.pack(n)


def _encode_canonical(flush: FlushRecord) -> bytes:
    flush_index, timestamp, metadata = flush.flush_index, flush.timestamp, flush.metadata
    if type(flush_index) is not int or type(timestamp) is not float or type(metadata) is not dict:
        raise _NotCanonical
    code, uint = _UINT_WIDTHS[_WIDTH_OF_BITS[flush_index.bit_length()]]
    requests = flush.requests
    parts = [_K_FLUSH_HEAD, code, uint.pack(flush_index), _K_TIMESTAMP, _FLOAT64.pack(timestamp)]
    parts += [_K_METADATA, packb(metadata), _K_REQUESTS, _array_header(len(requests))]
    append, layouts, width_of_bits = parts.append, _REQUEST_LAYOUTS, _WIDTH_OF_BITS
    for request in requests:
        rank, nbytes, kind = request.rank, request.nbytes, request.kind
        start, end = request.start, request.end
        if (
            type(rank) is not int
            or type(nbytes) is not int
            or type(start) is not float
            or type(end) is not float
            or type(kind) is not IOKind
        ):
            raise _NotCanonical
        by_rank = layouts[kind][width_of_bits[rank.bit_length()]]
        layout = by_rank[width_of_bits[nbytes.bit_length()]]  # indexed: the cheapest read
        k_rank, k_start, k_end, k_bytes, k_kind = layout[1]
        pack = layout[0]
        append(pack(k_rank, rank, k_start, start, k_end, end, k_bytes, nbytes, k_kind))
    return b"".join(parts)


def encode_flush_payload(flush: FlushRecord) -> bytes:
    """Encode one flush as an FTS1 payload: the bytes of ``packb(flush.to_dict())``.

    A flush of the canonical types — ``int`` flush index, ranks and byte
    counts, ``float`` timestamp, starts and ends, :class:`IOKind` kinds, a
    ``dict`` of metadata — is written straight from the layout table, one
    ``struct`` pack per request.  Any other (a ``bool``, a numpy scalar, an
    ``IntEnum``, an integer start, a negative flush index) goes whole to
    ``packb(flush.to_dict())``, the oracle, so its bytes — or its exception —
    are the oracle's by construction.  The one departure: a rank or byte count
    outside int64, which no reader of the payload takes, raises
    :class:`~repro.exceptions.TraceFormatError` instead of being written.
    """
    try:
        return _encode_canonical(flush)
    except (_NotCanonical, IndexError, struct.error):
        # Off the canonical types or past their widths: the oracle writes it,
        # once the columns a reader would build from it are known to exist.
        FlushColumns.from_record(flush)
        return packb(flush.to_dict())


# --------------------------------------------------------------------- #
# the schema-specialised decoder
# --------------------------------------------------------------------- #
_FLUSH_HEAD = struct.Struct(f">{len(_K_FLUSH_HEAD)}s")
# "timestamp" 0xCB, the float64, "metadata" and its map's type code
_FLUSH_STAMP = struct.Struct(f">{len(_K_TIMESTAMP)}sd{len(_K_METADATA)}sB")
# "requests" and its array's type code
_FLUSH_REQUESTS = struct.Struct(f">{len(_K_REQUESTS)}sB")


def _int_at(data: Any, pos: int) -> tuple[int, int]:
    """The unsigned integer whose type code is ``data[pos]``; any other type is not canonical."""
    code = data[pos]
    if code <= 0x7F:
        return code, pos + 1
    width = _WIDTH_OF_CODE[code]
    if width is None:
        raise _NotCanonical
    uint = _UINT_WIDTHS[width][1]
    return uint.unpack_from(data, pos + 1)[0], pos + _INT_SIZE[width]


#: A canonical payload up to its first request: flush index, timestamp,
#: metadata, request count and the offset of the first request.
_Head = tuple[int, float, dict, int, int]


def _read_head(data: Any) -> _Head:
    if _FLUSH_HEAD.unpack_from(data, 0)[0] != _K_FLUSH_HEAD:
        raise _NotCanonical
    flush_index, pos = _int_at(data, _FLUSH_HEAD.size)
    k_timestamp, timestamp, k_metadata, code = _FLUSH_STAMP.unpack_from(data, pos)
    if k_timestamp != _K_TIMESTAMP or k_metadata != _K_METADATA:
        raise _NotCanonical
    pos += _FLUSH_STAMP.size
    if code == 0x80:
        metadata: dict = {}
    elif 0x80 < code <= 0x8F or code == 0xDE or code == 0xDF:
        metadata, pos = unpack_at(data, pos - 1)
    else:
        raise _NotCanonical
    k_requests, code = _FLUSH_REQUESTS.unpack_from(data, pos)
    if k_requests != _K_REQUESTS:
        raise _NotCanonical
    pos += _FLUSH_REQUESTS.size
    if 0x90 <= code <= 0x9F:
        n = code & 0x0F
    elif code == 0xDC:
        n = _COUNT16.unpack_from(data, pos)[0]
        pos += 2
    elif code == 0xDD:
        n = _COUNT32.unpack_from(data, pos)[0]
        pos += 4
    else:
        raise _NotCanonical
    return flush_index, timestamp, metadata, n, pos


def _decode_canonical(data: Any, head: _Head | None = None) -> FlushColumns:
    """The per-request walker: any mix of layouts, one ``struct`` call per request.

    ``head`` is ``_read_head(data)`` when the caller has read it already.
    """
    flush_index, timestamp, metadata, n, pos = _read_head(data) if head is None else head
    starts: list[float] = []
    ends: list[float] = []
    nbytes: list[int] = []
    ranks: list[int] = []
    kinds: list[str] = []
    layout_at, layouts = _layout_at, _REQUEST_LAYOUTS
    for _ in range(n):
        at = layout_at(data, pos)
        if at is None:
            raise _NotCanonical
        kind, rank_w, bytes_w = at
        _, keys, unpack, size, kind_value, _, _, _ = layouts[kind][rank_w][bytes_w]
        k_rank, rank, k_start, start, k_end, end, k_bytes, count, k_kind = unpack(data, pos)
        if (k_rank, k_start, k_end, k_bytes, k_kind) != keys or end < start:
            raise _NotCanonical
        pos += size
        starts.append(start)
        ends.append(end)
        nbytes.append(count)
        ranks.append(rank)
        kinds.append(kind_value)
    if pos != len(data):
        raise _NotCanonical
    # Checked as the constructor would: ``end >= start`` above, ranks and byte
    # counts unsigned, and past int64 an OverflowError here.
    return FlushColumns._trusted(
        flush_index,
        timestamp,
        metadata,
        np.fromiter(starts, np.float64, n),
        np.fromiter(ends, np.float64, n),
        np.fromiter(nbytes, np.int64, n),
        np.fromiter(ranks, np.int64, n),
        np.fromiter(kinds, KIND_DTYPE, n),
    )


def _decode_generic(payload: bytes | memoryview) -> FlushColumns:
    """The oracle: generic MessagePack walk → dict → record → columns."""
    data = unpackb(payload)
    if not isinstance(data, dict):
        raise TraceFormatError(f"frame payload must be a flush map, got {type(data).__name__}")
    return FlushColumns.from_record(FlushRecord.from_dict(data))


#: What sends a payload from a fast route to the next one: not the canonical
#: bytes, cut short, or a value out of range.
_OFF_ROUTE = (_NotCanonical, TraceFormatError, IndexError, KeyError, struct.error, OverflowError)


def _decode_alone(
    payload: bytes | memoryview, head: _Head | None = None
) -> FlushColumns | TraceFormatError:
    """One payload by the walker, else by the oracle, whose error is returned."""
    try:
        try:
            return _decode_canonical(payload, head)
        except _OFF_ROUTE:
            return _decode_generic(payload)
    except TraceFormatError as exc:
        return exc


#: A flush without requests joins any group; this one.
_EMPTY_GROUP = (IOKind.WRITE, 0, 0)
#: Fewer requests than this in a group, and the walker is the faster route.
_MIN_GROUP_REQUESTS = 8


def _group_of(data: Any, head: _Head) -> tuple[IOKind, int, int] | None:
    """The layout every request of the payload would have, or ``None``."""
    count, pos = head[3], head[4]
    if count == 0:
        return _EMPTY_GROUP if pos == len(data) else None
    layout = _layout_at(data, pos)
    if layout is None:
        return None
    kind, rank_w, bytes_w = layout
    if pos + count * _REQUEST_LAYOUTS[kind][rank_w][bytes_w][3] != len(data):
        return None
    return layout


def _decode_group(
    layout: _Layout, members: list[tuple[int, _Head]], payloads: Sequence[Any], out: list
) -> bool:
    """Decode payloads of one layout through one structured view into ``out``.

    ``False``, with ``out`` untouched, when any request fails a check — every
    key run, the fixint and int64 bounds, ``end >= start``.
    """
    _, _, _, size, kind, dtype, mask, fixed = layout
    requests = b"".join(memoryview(payloads[i])[head[4] :] for i, head in members)
    rows = np.frombuffer(requests, np.uint8).reshape(-1, size)
    if (rows & mask).tobytes() != fixed * len(rows):
        return False
    table = np.frombuffer(requests, dtype)
    starts = table["start"].astype(np.float64)
    ends = table["end"].astype(np.float64)
    if (ends < starts).any():
        return False
    nbytes = table["bytes"].astype(np.int64)
    ranks = table["rank"].astype(np.int64)
    kinds = np.full(len(table), kind, KIND_DTYPE)
    at = 0
    trusted = FlushColumns._trusted
    for i, (flush_index, timestamp, metadata, count, _) in members:
        to = at + count
        out[i] = trusted(
            flush_index, timestamp, metadata,
            starts[at:to], ends[at:to], nbytes[at:to], ranks[at:to], kinds[at:to],
        )
        at = to
    return True


def decode_flush_payloads(
    payloads: Sequence[bytes | memoryview],
) -> list[FlushColumns | TraceFormatError]:
    """Decode FTS1 payloads together; one result per payload, in order.

    Each result is the flush :func:`decode_flush_columns` returns for that
    payload alone, or the :class:`~repro.exceptions.TraceFormatError` it
    raises — returned, not raised, so one bad payload costs only itself.
    Payloads are read in place and nothing in a result aliases them.  See the
    module docstring for how the routes divide the work.
    """
    out: list[Any] = [None] * len(payloads)
    groups: dict[tuple[IOKind, int, int], list[tuple[int, _Head]]] = {}
    for i, payload in enumerate(payloads):
        head = None
        try:
            head = _read_head(payload)
            layout = _group_of(payload, head)
        except _OFF_ROUTE:
            layout = None
        if layout is None:
            out[i] = _decode_alone(payload, head)
        elif layout in groups:
            groups[layout].append((i, head))
        else:
            groups[layout] = [(i, head)]
    for (kind, rank_w, bytes_w), members in groups.items():
        if (
            sum([head[3] for _, head in members]) < _MIN_GROUP_REQUESTS
            or not _decode_group(
                _REQUEST_LAYOUTS[kind][rank_w][bytes_w], members, payloads, out
            )
        ):
            for i, head in members:
                out[i] = _decode_alone(payloads[i], head)
    return out


def decode_flush_columns(payload: bytes | memoryview) -> FlushColumns:
    """Decode one FTS1 payload (a MessagePack flush map) into columns.

    ``payload`` is read in place — ``bytes`` or a borrowed ``memoryview`` —
    and nothing in the result aliases it.  Anything but a well-formed flush
    raises :class:`~repro.exceptions.TraceFormatError`, never another
    exception; a batch of one of :func:`decode_flush_payloads`.
    """
    (flush,) = decode_flush_payloads((payload,))
    if isinstance(flush, TraceFormatError):
        raise flush
    return flush
