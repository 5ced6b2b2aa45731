"""Columnar flushes: one flush as five numpy columns, decoded in a single pass.

The streaming service never looks at a flush request by request: a session
sorts the requests of a flush and appends them to its columnar window.  So the
service's form of a flush is :class:`FlushColumns` — the scalar header fields
plus five owned arrays in wire order — and rows (:class:`IORequest`) are only
built when somebody asks for them.

:func:`decode_flush_columns` turns an FTS1 payload (the MessagePack flush map of
:meth:`FlushRecord.to_dict`) into a :class:`FlushColumns` without the dict, the
:class:`FlushRecord` and the per-request objects in between.  It knows the one
byte layout every writer in this repository produces — the *canonical* shape::

    fixmap(4)  "flush_index" int  "timestamp" float64  "metadata" map
               "requests" array of
                   fixmap(5)  "rank" int  "start" float64  "end" float64
                              "bytes" int  "kind" "write" | "read"

with every key a fixstr and in exactly that order, each integer in its
narrowest width — and walks it in place with ``struct.unpack_from``.  The
free-form ``metadata`` map goes through the generic walker
(:func:`repro.trace.msgpack.unpack_at`).  The walk only ever *accepts*:
whatever it cannot take — another key order, an unknown key, a ``str8`` key, an
integer ``start``, a missing ``kind``, a value that fails validation, a
truncated or trailing byte — sends the whole payload to the generic route
``FlushColumns.from_record(FlushRecord.from_dict(unpackb(payload)))``, the
oracle, so what is accepted, what is rejected and with which message are the
oracle's by construction.

The canonical layout is written and read from one table: the fused key
constants and one ``struct`` per integer width.  :func:`encode_flush_payload`
writes a flush from it with one ``struct`` pack per request, byte for byte
``packb(flush.to_dict())``; ``trace.framing.encode_us`` is its price.  It
mirrors the decoder: a flush whose fields are not of the canonical Python
types goes whole to ``packb(flush.to_dict())``, the encoder's oracle.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import TraceFormatError
from repro.trace.jsonl import FlushRecord
from repro.trace.msgpack import packb, unpack_at, unpackb
from repro.trace.record import IOKind, IORequest

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
    """One flush, columnar: header fields plus five owned columns in wire order.

    Interchangeable with :class:`FlushRecord` wherever the service takes a
    flush, and equal (``==``) to the record holding the same flush.  Every
    instance is valid: the constructor checks what :class:`IORequest` checks
    per request (``end >= start``, ``bytes >= 0``, ``rank >= 0``), vectorised,
    and raises :class:`~repro.exceptions.TraceFormatError` otherwise.

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
        return tuple(
            IORequest(rank=rank, start=start, end=end, nbytes=nbytes, kind=IOKind(kind))
            for rank, start, end, nbytes, kind in zip(
                self.ranks.tolist(),
                self.starts.tolist(),
                self.ends.tolist(),
                self.nbytes.tolist(),
                self.kinds.tolist(),
            )
        )

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
# and the decoder looks one up by its type code.
_UINT_WIDTHS = tuple(
    (code, struct.Struct(fmt))
    for code, fmt in (
        (b"", ">B"), (b"\xcc", ">B"), (b"\xcd", ">H"), (b"\xce", ">I"), (b"\xcf", ">Q")
    )
)
#: Width index by bit length: up to 7 bits a fixint, 8 a uint8, ... 63 a uint64.
_WIDTH_OF_BITS = tuple(sum(bits > top for top in (7, 8, 16, 32)) for bits in range(64))
_UINT_AT = {code[0]: uint for code, uint in _UINT_WIDTHS[1:]}

_FLOAT64 = struct.Struct(">d")
_COUNT16 = struct.Struct(">H")
_COUNT32 = struct.Struct(">I")


# --------------------------------------------------------------------- #
# the schema-specialised encoder
# --------------------------------------------------------------------- #
def _request_layout(
    kind: IOKind, rank_width: int, bytes_width: int
) -> tuple[Callable[..., bytes], bytes, bytes, bytes]:
    """One request of ``kind``, its rank and byte count in the given widths.

    Returns the request's ``struct`` pack and the three key runs that differ
    by width and kind: ``"rank"`` and ``"bytes"`` with the type code of their
    value fused on, ``"kind"`` with its value.
    """
    rank_code, rank_uint = _UINT_WIDTHS[rank_width]
    bytes_code, bytes_uint = _UINT_WIDTHS[bytes_width]
    k_rank, k_bytes = _K_RANK + rank_code, _K_BYTES + bytes_code
    k_kind = _K_KIND + _KIND_VALUES[kind]
    request = struct.Struct(
        f">{len(k_rank)}s{rank_uint.format[1:]}{len(_K_START)}sd{len(_K_END)}sd"
        f"{len(k_bytes)}s{bytes_uint.format[1:]}{len(k_kind)}s"
    )
    return request.pack, k_rank, k_bytes, k_kind


# ``_REQUEST_LAYOUTS[kind][rank width][bytes width]``, compiled once.
_REQUEST_LAYOUTS = {
    kind: tuple(
        tuple(_request_layout(kind, rank_w, bytes_w) for bytes_w in range(len(_UINT_WIDTHS)))
        for rank_w in range(len(_UINT_WIDTHS))
    )
    for kind in IOKind
}


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
        pack, k_rank, k_bytes, k_kind = by_rank[width_of_bits[nbytes.bit_length()]]
        append(pack(k_rank, rank, _K_START, start, _K_END, end, k_bytes, nbytes, k_kind))
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
_FLUSH_HEAD = struct.Struct(">13s")  # fixmap(4) "flush_index"
_FLUSH_STAMP = struct.Struct(">11sd9sB")  # "timestamp" 0xCB f64 "metadata" <map code>
_FLUSH_REQUESTS = struct.Struct(">9sB")  # "requests" <array code>

# A request up to its byte count.  ``_REQUEST`` reads it in one call when the
# rank is a one-byte fixint; a wider rank shifts what follows, which is then
# read again as ``_REQUEST_REST`` from behind the rank.
_REQUEST = struct.Struct(">6sB7sd5sd6sB")
_REQUEST_REST = struct.Struct(">7sd5sd6sB")
_REQUEST_KIND = struct.Struct(">5s5s")  # "kind" + the first five bytes of its value
_V_READ = _KIND_VALUES[IOKind.READ]
_V_WRITE = _KIND_VALUES[IOKind.WRITE][:5]  # + "e", checked on its own


def _int_at(data: Any, pos: int) -> tuple[int, int]:
    """The unsigned integer whose type code is ``data[pos]``; any other type is not canonical."""
    code = data[pos]
    if code <= 0x7F:
        return code, pos + 1
    uint = _UINT_AT[code]  # KeyError: not canonical
    return uint.unpack_from(data, pos + 1)[0], pos + 1 + uint.size


def _decode_canonical(data: Any) -> FlushColumns:
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

    starts: list[float] = []
    ends: list[float] = []
    nbytes: list[int] = []
    ranks: list[int] = []
    kinds: list[str] = []
    read_request, read_kind = _REQUEST.unpack_from, _REQUEST_KIND.unpack_from
    for _ in range(n):
        k_rank, rank, k_start, start, k_end, end, k_bytes, size = read_request(data, pos)
        if rank <= 0x7F:
            pos += _REQUEST.size
        else:
            rank, pos = _int_at(data, pos + len(_K_RANK))
            k_start, start, k_end, end, k_bytes, size = _REQUEST_REST.unpack_from(data, pos)
            pos += _REQUEST_REST.size
        if k_rank != _K_RANK or k_start != _K_START or k_end != _K_END or k_bytes != _K_BYTES:
            raise _NotCanonical
        if size > 0x7F:
            size, pos = _int_at(data, pos - 1)
        k_kind, value = read_kind(data, pos)
        if k_kind != _K_KIND:
            raise _NotCanonical
        if value == _V_WRITE and data[pos + _REQUEST_KIND.size] == 0x65:
            kinds.append("write")
            pos += _REQUEST_KIND.size + 1
        elif value == _V_READ:
            kinds.append("read")
            pos += _REQUEST_KIND.size
        else:
            raise _NotCanonical
        starts.append(start)
        ends.append(end)
        nbytes.append(size)
        ranks.append(rank)
    if pos != len(data):
        raise _NotCanonical
    return FlushColumns(
        flush_index=flush_index,
        timestamp=timestamp,
        metadata=metadata,
        starts=np.array(starts, dtype=np.float64),
        ends=np.array(ends, dtype=np.float64),
        nbytes=np.array(nbytes, dtype=np.int64),
        ranks=np.array(ranks, dtype=np.int64),
        kinds=np.array(kinds, dtype=KIND_DTYPE),
    )


def _decode_generic(payload: bytes | memoryview) -> FlushColumns:
    """The oracle: generic MessagePack walk → dict → record → columns."""
    data = unpackb(payload)
    if not isinstance(data, dict):
        raise TraceFormatError(f"frame payload must be a flush map, got {type(data).__name__}")
    return FlushColumns.from_record(FlushRecord.from_dict(data))


def decode_flush_columns(payload: bytes | memoryview) -> FlushColumns:
    """Decode one FTS1 payload (a MessagePack flush map) into columns.

    ``payload`` is read in place — ``bytes`` or a borrowed ``memoryview`` —
    and nothing in the result aliases it.  Anything but a well-formed flush
    raises :class:`~repro.exceptions.TraceFormatError`, never another
    exception; see the module docstring for how the two routes divide the work.
    """
    try:
        return _decode_canonical(payload)
    except (_NotCanonical, TraceFormatError, IndexError, KeyError, struct.error, OverflowError):
        # Not the canonical bytes, cut short, or a value out of range: the
        # oracle decides, and its error is the one the caller sees.
        return _decode_generic(payload)
