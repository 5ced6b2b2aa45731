"""Length-prefixed flush frames: the wire format of the streaming service.

The JSONL and MessagePack trace files are *per application*: one file, one
job, and the reader discovers record boundaries by parsing the payload
itself.  A multi-tenant prediction service instead receives flushes from many
concurrent jobs over a shared byte stream (an append-only spool file that is
tailed, or a socket pair), so each flush is wrapped in a small self-delimiting
frame that carries the job identity and the payload length up front — the
broker can demultiplex a frame to the right session without decoding the
payload, the way a network processor classifies a packet from its header.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic  b"FTS1"
    4       1     payload format (2 = MessagePack; 1 is retired)
    5       1     flags: high nibble = frame version, low nibble = version-
                  specific (see below)
    6       2     job-id length J
    8       4     payload length P
    12      J     job id (UTF-8)
    12+J    P     payload (one flush record, MessagePack-encoded)

Format code 1 (a JSON payload) is retired: the header byte and the layout are
unchanged, the code stays unassigned and is never reused, and a frame carrying
it is rejected as unknown at the header check, before any payload is touched.

The flags byte is versioned.  Version 0 (the original wire format) requires
the low nibble to be zero, so every frame ever written before the version
field existed still decodes.  Version 1 uses the low nibble as a **tenant /
auth token**: a 4-bit shared secret stamped by the producer and checked by
the consumer, so a misdirected or forged stream is rejected at the framing
layer before any payload is decoded.  Versions above
:data:`MAX_FRAME_VERSION` are rejected — a reader never silently mis-frames
a future format.

The payload is the :meth:`FlushRecord.to_dict` schema in MessagePack, so a
framed stream is a thin layer over a format the tracer already writes.  Its
canonical layout is one table in :mod:`repro.trace.columns`, read three ways:
encoded by :func:`~repro.trace.columns.encode_flush_payload` (the bytes of
``packb(flush.to_dict())``, a few ``struct`` packs per request — what
``trace.framing.encode_us`` prices) and decoded straight into columns, the
form the service keeps a flush in, a batch or a request at a time.  Both
readers here walk frame headers one way (``_FrameBuffer._held_frames``): every
complete frame at the front of the buffer is sliced, header by header, then
:class:`FrameSplitter` hands each frame through and :class:`FrameDecoder`
hands their payloads to :func:`~repro.trace.columns.decode_flush_payloads`
together, each consuming a frame as it yields it.  Frames are self-contained
and append-only: a reader positioned at a frame boundary never needs to
rewind, and a partially written final frame (crash, in-flight flush) simply
stays buffered until the missing bytes arrive.

A spool file is never rewritten.  It is split and bounded one way:
:class:`FrameWriter` rotation closes a generation (``<path>.<n>``) at a frame
boundary, and a consumer that has checkpointed past a closed generation
unlinks it whole (``compact_spools()`` on the prediction engines).  The live
file a producer appends to is only ever appended to.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.exceptions import TraceFormatError
from repro.trace.columns import FlushColumns, decode_flush_payloads, encode_flush_payload
from repro.trace.jsonl import FlushRecord

#: First bytes of every frame; guards against tailing a non-framed file.
FRAME_MAGIC = b"FTS1"
#: The one payload format code: a MessagePack flush map.
PAYLOAD_MSGPACK = 2
#: Highest frame version this decoder understands.
MAX_FRAME_VERSION = 1

_HEADER = struct.Struct(">4sBBHI")
#: Upper bound on one frame's payload; a corrupt length field would otherwise
#: make a tailing reader wait forever for petabytes that never arrive.
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024


def _pack_flags(token: int | None) -> int:
    if token is None:
        return 0
    token = int(token)
    if not 0 <= token <= 0xF:
        raise TraceFormatError(f"tenant token must fit the flags nibble (0..15), got {token}")
    return (1 << 4) | token


def _unpack_flags(flags: int) -> int | None:
    """Validate a flags byte; returns the tenant token (``None`` for version 0)."""
    version = flags >> 4
    if version > MAX_FRAME_VERSION:
        raise TraceFormatError(
            f"unsupported frame version {version} (this reader understands <= "
            f"{MAX_FRAME_VERSION})"
        )
    if version == 0:
        if flags & 0x0F:
            raise TraceFormatError(f"unsupported frame flags 0x{flags:02x} for version 0")
        return None
    return flags & 0x0F


@dataclass(frozen=True)
class FlushFrame:
    """One decoded frame: a flush (columnar) plus its routing header."""

    job: str
    flush: FlushColumns
    #: Tenant/auth token nibble of a version-1 frame (``None`` on version 0).
    token: int | None = None


@dataclass(frozen=True)
class RawFrame:
    """One *undecoded* frame: routing header fields plus the raw bytes.

    A demultiplexing front end (the sharded router) classifies frames from
    the header alone and forwards ``data`` verbatim — the payload is decoded
    exactly once, in the shard that owns the job.

    ``data`` is usually a borrowed ``memoryview`` into the splitter's fed
    chunk (zero-copy); consumers that outlive the chunk (keeping a copy of a
    double-routed frame across a reshard, pickling) must materialize it with
    ``bytes(data)``.
    """

    job: str
    data: bytes | memoryview
    token: int | None = None


def encode_frame(flush: FlushRecord, *, job: str, token: int | None = None) -> bytes:
    """Encode one flush record as a length-prefixed frame.

    With ``token`` (0..15) the frame is written as version 1 and carries the
    tenant/auth nibble; without it the frame is the plain version-0 format.
    A flush no :class:`FrameDecoder` would take, or that MessagePack cannot
    carry, raises :class:`TraceFormatError` here, before a byte is written.
    """
    flags = _pack_flags(token)
    try:
        job_bytes = job.encode("utf-8")
        payload = encode_flush_payload(flush)
    except (TypeError, ValueError, OverflowError) as exc:
        # A lone surrogate, an object MessagePack has no type for, an integer
        # past 64 bits: the flush has no frame.
        raise TraceFormatError(f"cannot frame this flush for job {job!r}: {exc}") from exc
    if len(job_bytes) > 0xFFFF:
        raise TraceFormatError(f"job id is {len(job_bytes)} bytes; the frame header allows 65535")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise TraceFormatError(f"flush payload of {len(payload)} bytes exceeds the frame limit")
    header = _HEADER.pack(FRAME_MAGIC, PAYLOAD_MSGPACK, flags, len(job_bytes), len(payload))
    return header + job_bytes + payload


class _FrameBuffer:
    """Shared incremental framing: buffer byte chunks, slice out complete frames.

    Subclasses decide what a "frame" materializes to: :class:`FrameDecoder`
    decodes the payload, :class:`FrameSplitter` hands the raw bytes through.

    The buffer is **zero-copy**: fed chunks are kept as-is in a deque (bytes
    objects and memoryviews are borrowed, never copied in), and a frame whose
    bytes lie within a single chunk is emitted as a ``memoryview`` slice of
    that chunk.  Only a frame that *spans* chunks is joined into a fresh
    ``bytes`` object; those join-copies are counted (:attr:`bytes_copied`),
    and :attr:`bytes_copied_per_frame` is the ingest-path copy metric the
    service exposes — the old implementation copied every byte at least once
    (``bytearray.extend`` on feed, ``bytes()`` on emit), this one averages
    well under one copy per frame for any chunk size above the frame size.

    A fed memoryview is only *borrowed*; callers whose underlying buffer gets
    reclaimed (the shared-memory ring reader) must call :meth:`detach` before
    releasing it, which materializes the not-yet-consumed tail.
    """

    def __init__(self, *, expected_token: int | None = None) -> None:
        self._chunks: deque[bytes | memoryview] = deque()
        self._offset = 0  # consumed bytes of the first chunk
        self._length = 0  # unconsumed bytes across all chunks
        self._expected_token = expected_token
        self._bytes_copied = 0
        self._frames_emitted = 0
        self._bytes_emitted = 0

    @property
    def buffered_bytes(self) -> int:
        """Number of bytes waiting for the rest of their frame."""
        return self._length

    @property
    def bytes_copied(self) -> int:
        """Bytes materialized by join-copies (frames spanning chunks, detach)."""
        return self._bytes_copied

    @property
    def frames_emitted(self) -> int:
        """Number of complete frames sliced out so far."""
        return self._frames_emitted

    @property
    def bytes_emitted(self) -> int:
        """Total size in bytes of the frames sliced out so far."""
        return self._bytes_emitted

    @property
    def bytes_copied_per_frame(self) -> float:
        """Average bytes copied per emitted frame (0.0 before any frame).

        A value at or below the average frame size means at most one copy per
        frame through this hop; 0.0 means every frame was handed through as a
        borrowed view.
        """
        if self._frames_emitted == 0:
            return 0.0
        return self._bytes_copied / self._frames_emitted

    def feed(self, data: bytes | bytearray | memoryview) -> None:
        """Append raw bytes received from the stream (borrowed, not copied).

        ``bytes`` and ``memoryview`` chunks are referenced as-is.  A
        ``bytearray`` is snapshotted (the caller may mutate or resize it,
        which would corrupt or invalidate a borrowed view).
        """
        if isinstance(data, bytearray):
            data = bytes(data)
            self._bytes_copied += len(data)
        elif isinstance(data, memoryview) and (data.format != "B" or data.ndim != 1):
            data = data.cast("B")
        if len(data) == 0:
            return
        self._chunks.append(data)
        self._length += len(data)

    def detach(self) -> None:
        """Materialize borrowed memoryview chunks into owned ``bytes``.

        After this call the buffer references no fed memoryview, so the
        caller may reclaim the underlying memory (e.g. acknowledge ring
        bytes).  Only the not-yet-consumed tail is copied, and the copy is
        counted in :attr:`bytes_copied`.
        """
        rebuilt: deque[bytes | memoryview] = deque()
        for i, chunk in enumerate(self._chunks):
            if not isinstance(chunk, memoryview):
                rebuilt.append(chunk)
                continue
            view = chunk[self._offset :] if i == 0 else chunk
            if i == 0:
                self._offset = 0
            data = bytes(view)
            self._bytes_copied += len(data)
            rebuilt.append(data)
        self._chunks = rebuilt

    def discard_buffered(self) -> int:
        """Drop the buffered partial frame (resync); returns the bytes dropped."""
        dropped = self._length
        self._chunks.clear()
        self._offset = 0
        self._length = 0
        return dropped

    def _coalesce(self, size: int) -> None:
        """Make the first ``size`` buffered bytes lie in the first chunk; the
        caller checked size.

        Nothing moves when they already do; when they span chunks, a counted
        join-copy replaces the prefix chunks in the deque, so polling for the
        same prefix again (a header re-examined on every feed of a dribbling
        stream) costs the copy only once, not once per poll.
        """
        if len(self._chunks[0]) - self._offset >= size:
            return
        out = bytearray(size)
        pos = 0
        offset = self._offset
        while pos < size:
            chunk = self._chunks.popleft()
            take = min(size - pos, len(chunk) - offset)
            out[pos : pos + take] = memoryview(chunk)[offset : offset + take]
            pos += take
            if offset + take < len(chunk):
                self._chunks.appendleft(memoryview(chunk)[offset + take :])
            offset = 0
        self._chunks.appendleft(bytes(out))
        self._offset = 0
        self._bytes_copied += size

    def _consume_frame(self, size: int) -> None:
        """Advance past one complete frame of ``size`` bytes, counting it."""
        self._length -= size
        self._offset += size
        while self._chunks and self._offset >= len(self._chunks[0]):
            self._offset -= len(self._chunks.popleft())
        self._frames_emitted += 1
        self._bytes_emitted += size

    def _check_header(self, data: bytes | memoryview, pos: int) -> tuple[int | None, int, int]:
        """Validate the header at ``data[pos:]``; returns (token, job_len, total)."""
        magic, code, flags, job_len, payload_len = _HEADER.unpack_from(data, pos)
        if magic != FRAME_MAGIC:
            raise TraceFormatError(
                f"bad frame magic {bytes(magic)!r}; the stream is not FTS1-framed or is corrupt"
            )
        token = _unpack_flags(flags)
        if code != PAYLOAD_MSGPACK:
            raise TraceFormatError(f"unknown frame payload format code {code}")
        if payload_len > MAX_PAYLOAD_BYTES:
            raise TraceFormatError(f"frame payload length {payload_len} exceeds the limit")
        if self._expected_token is not None and token != self._expected_token:
            raise TraceFormatError(
                f"frame tenant token {token!r} does not match the expected token "
                f"{self._expected_token}"
            )
        return token, job_len, _HEADER.size + job_len + payload_len

    def _held_frames(self) -> list[tuple[str | TraceFormatError, int | None, memoryview, int]]:
        """The complete frames at the front of the buffer as ``(job, token,
        frame, job_len)``, sliced, not consumed: the first, then those behind
        it in its chunk up to the first that is incomplete, spans chunks or
        has a header that raises.  A bad header in front raises here; a job id
        that is not UTF-8 comes as its error, raised when its frame is reached.
        """
        if self._length < _HEADER.size:
            return []
        self._coalesce(_HEADER.size)
        token, job_len, total = self._check_header(self._chunks[0], self._offset)
        if self._length < total:
            return []
        self._coalesce(total)
        chunk, pos = memoryview(self._chunks[0]), self._offset
        held = []
        while True:
            frame = chunk[pos : pos + total]
            try:
                job: str | TraceFormatError = str(
                    frame[_HEADER.size : _HEADER.size + job_len], "utf-8"
                )
            except UnicodeDecodeError as exc:
                job = TraceFormatError(f"frame job id is not valid UTF-8: {exc}")
            held.append((job, token, frame, job_len))
            pos += total
            if len(chunk) - pos < _HEADER.size:
                return held
            try:
                token, job_len, total = self._check_header(chunk, pos)
            except TraceFormatError:
                return held
            if len(chunk) - pos < total:
                return held


class FrameDecoder(_FrameBuffer):
    """Incremental frame decoder: ``feed()`` bytes in, iterate frames out.

    The decoder buffers arbitrary byte chunks — socket reads, tail reads of a
    growing file — and yields every complete frame.  Bytes belonging to an
    incomplete trailing frame stay buffered until more data arrives, which is
    what makes the stream append/tail-able.  With ``expected_token`` set,
    every frame must carry that version-1 tenant/auth nibble; version-0
    (unauthenticated) frames and wrong tokens raise :class:`TraceFormatError`.

    A payload that does not decode raises too, and costs that frame only: it
    is consumed, the bytes behind it stay buffered for the next call.

    The complete frames at the front of the buffer are decoded in one batch
    and consumed one by one as they are yielded, so every outcome, and what
    stays buffered, is what decoding one frame at a time gives.
    """

    def frames(self) -> Iterator[FlushFrame]:
        """Yield (and consume) every complete frame currently buffered.

        Frames yielded before a bad one raises are the caller's to keep
        (``list.extend(decoder.frames())`` does).
        """
        while held := self._held_frames():
            flushes = decode_flush_payloads(
                [frame[_HEADER.size + job_len :] for _, _, frame, job_len in held]
            )
            for (job, token, frame, _), flush in zip(held, flushes):
                self._consume_frame(len(frame))
                if type(job) is not str:  # a job id that is not UTF-8: its error
                    raise job
                if isinstance(flush, TraceFormatError):
                    raise flush
                yield FlushFrame(job=job, flush=flush, token=token)

    def drain(self) -> list[FlushFrame]:
        """All complete frames currently buffered, as a list."""
        return list(self.frames())


class FrameSplitter(_FrameBuffer):
    """Header-only frame splitter: yields :class:`RawFrame` without decoding.

    The sharded router uses this to route a shared byte stream: the header is
    validated (magic, version, format code, length bound, token), the job id
    is read, and the frame's bytes are forwarded untouched — O(header) work
    per frame on the routing hot path.
    """

    def raw_frames(self) -> Iterator[RawFrame]:
        """Yield (and consume) every complete raw frame currently buffered.

        A frame that lies within one fed chunk is yielded as a borrowed
        ``memoryview`` of that chunk — the router forwards it without a copy.
        """
        while held := self._held_frames():
            for job, token, frame, _ in held:
                self._consume_frame(len(frame))
                if type(job) is not str:  # a job id that is not UTF-8: its error
                    raise job
                yield RawFrame(job=job, data=frame, token=token)

    def drain(self) -> list[RawFrame]:
        """All complete raw frames currently buffered, as a list."""
        return list(self.raw_frames())


def inode_of(path: Path) -> int | None:
    """The inode ``path`` names now, or ``None`` if nothing is there."""
    try:
        return os.stat(path).st_ino
    except FileNotFoundError:
        return None


def spool_generations(path: Path) -> list[tuple[int, Path]]:
    """Rotated-away files ``<path>.<n>`` of a spool, oldest (smallest n) first."""
    prefix = path.name + "."
    generations = [
        (int(candidate.name[len(prefix):]), candidate)
        for candidate in path.parent.glob(prefix + "*")
        if candidate.name[len(prefix):].isdigit()
    ]
    generations.sort()
    return generations


class FrameWriter:
    """Append frames to a spool file or a binary stream (e.g. a socket file).

    Multiple jobs can share one writer — the per-frame ``job`` argument
    overrides the default given at construction — which is exactly the
    multi-tenant spool the broker tails.

    Path-backed writers support **rotation**: :meth:`rotate` renames the
    current spool to ``<path>.<n>`` and continues appending to a fresh file,
    and with ``max_bytes`` set the writer rotates automatically before the
    append that would cross the limit (rotation therefore always happens at a
    frame boundary — a frame is never split across spool generations).
    Nothing here deletes a generation; the consumer that has checkpointed
    past one does.
    """

    def __init__(
        self,
        target: str | Path | BinaryIO,
        *,
        job: str | None = None,
        token: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self._path: Path | None = None
        self._stream: BinaryIO | None = None
        if isinstance(target, (str, Path)):
            self._path = Path(target)
        else:
            self._stream = target
        if max_bytes is not None and self._path is None:
            raise TraceFormatError("max_bytes rotation requires a path-backed writer")
        self._job = job
        self._token = token
        self._max_bytes = max_bytes
        self._frames_written = 0
        self._bytes_written = 0
        self._current_file_bytes = self._path.stat().st_size if self._path and self._path.exists() else 0
        # A restarted writer must continue the generation numbering, not
        # os.replace() the live file onto a retained ``<path>.1``.
        self._rotations = (
            max((n for n, _ in spool_generations(self._path)), default=0)
            if self._path is not None
            else 0
        )

    @property
    def frames_written(self) -> int:
        """Number of frames appended so far."""
        return self._frames_written

    @property
    def bytes_written(self) -> int:
        """Number of bytes appended so far (across rotations)."""
        return self._bytes_written

    @property
    def rotations(self) -> int:
        """Highest generation number so far (counts pre-existing rotations)."""
        return self._rotations

    def rotate(self) -> Path | None:
        """Rotate the spool: rename it to ``<path>.<n>`` and start fresh.

        Returns the rotated-away path, or ``None`` when the spool does not
        exist yet (nothing to rotate).  Only valid on path-backed writers.
        """
        if self._path is None:
            raise TraceFormatError("cannot rotate a stream-backed frame writer")
        if not self._path.exists():
            return None
        self._rotations += 1
        rotated = self._path.with_name(f"{self._path.name}.{self._rotations}")
        os.replace(self._path, rotated)
        self._current_file_bytes = 0
        return rotated

    def write(self, flush: FlushRecord, *, job: str | None = None) -> int:
        """Append one flush frame; returns the encoded frame size in bytes."""
        job = job if job is not None else self._job
        if job is None:
            raise TraceFormatError("no job id: pass job= to write() or to the writer")
        frame = encode_frame(flush, job=job, token=self._token)
        if self._path is not None:
            if (
                self._max_bytes is not None
                and self._current_file_bytes > 0
                and self._current_file_bytes + len(frame) > self._max_bytes
            ):
                self.rotate()
            with self._path.open("ab") as handle:
                handle.write(frame)
            self._current_file_bytes += len(frame)
        else:
            assert self._stream is not None
            self._stream.write(frame)
            self._stream.flush()
        self._frames_written += 1
        self._bytes_written += len(frame)
        return len(frame)


class FrameReader:
    """Tail a growing framed spool file, following rotations.

    Every :meth:`poll` reads the bytes appended since the previous poll and
    returns the newly completed frames; a frame still being written is left
    buffered for the next poll.  The reader therefore never re-reads the file
    from the beginning — ingestion cost is proportional to the new data, not
    to the file size.

    The reader keeps its file handle open between polls, which is what makes
    it survive **rotation**: when the spool is renamed away and a fresh file
    appears under the same path, the next poll first drains the remainder of
    the old generation through the retained handle (so a frame completed just
    before the rotation is never lost), then *chases the generations*: the
    rotated-away files (``<path>.<n>``, the :meth:`FrameWriter.rotate`
    naming) are located by inode and every generation newer than the one just
    drained is read in order before the live file is reopened — nothing is
    skipped even when several rotations happened between two polls.  If a
    generation ends in a torn frame (a writer crash), the partial bytes are
    discarded — **resynced** — instead of being glued onto the next
    generation's bytes, which would mis-frame everything after;
    :attr:`resyncs` and :attr:`skipped_bytes` count these events.

    Parameters
    ----------
    path:
        The spool file to tail (it may not exist yet).
    position:
        Resume point from :attr:`position`: the recorded inode is looked up
        among the live file and its generations, so a snapshot taken before a
        rotation still resumes at the exact byte it was taken at.  Without
        one the reader starts at the oldest retained generation.
    sink:
        Optional callback invoked with each poll's newly completed frames
        (the broker uses this to ingest them automatically).
    expected_token:
        Require every frame to carry this version-1 tenant/auth nibble.
    raw:
        Split frames on the header only and return :class:`RawFrame` objects
        (payloads stay undecoded) — what the sharded router tails with.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        position: dict | None = None,
        sink: Callable[[list[FlushFrame]], object] | None = None,
        expected_token: int | None = None,
        raw: bool = False,
    ) -> None:
        self._path = Path(path)
        self._offset = 0
        self._start_inode: int | None = None
        if position is not None:
            self._offset = int(position["offset"])
            self._start_inode = position["inode"]
        self._decoder: FrameDecoder | FrameSplitter
        self._completed: Callable[[], Iterator[FlushFrame | RawFrame]]
        if raw:
            self._decoder = FrameSplitter(expected_token=expected_token)
            self._completed = self._decoder.raw_frames
        else:
            self._decoder = FrameDecoder(expected_token=expected_token)
            self._completed = self._decoder.frames
        self._sink = sink
        self._handle: BinaryIO | None = None
        self._inode: int | None = None
        self._resyncs = 0
        self._skipped_bytes = 0
        self._frames_read = 0

    @property
    def frames_read(self) -> int:
        """Complete frames :meth:`poll` has returned so far.

        Unlike a byte offset, a frame count holds across spool generations:
        the frames a tail read since a checkpoint are the first
        ``frames_read - frames_read_then`` frames from the checkpoint's
        :attr:`position`, however often the spool rotated in between.
        """
        return self._frames_read

    @property
    def position(self) -> dict:
        """Rotation-proof resume point: the current file's inode and offset.

        Record this alongside a snapshot and pass it back as ``position=`` to
        resume exactly here even if the spool rotated in between.  The offset
        is the last *frame boundary* consumed — bytes of a partially read
        trailing frame are excluded, so a fresh reader resumed here decodes
        that frame from its first byte.
        """
        return {
            "inode": self._inode,
            "offset": self._offset - self._decoder.buffered_bytes,
        }

    @property
    def resyncs(self) -> int:
        """How many times a torn frame was discarded at a rotation boundary."""
        return self._resyncs

    @property
    def skipped_bytes(self) -> int:
        """Total bytes discarded by resyncs."""
        return self._skipped_bytes

    # ------------------------------------------------------------------ #
    def _open(self, path: Path) -> bool:
        try:
            handle = path.open("rb")
        except FileNotFoundError:
            return False
        self._handle = handle
        self._inode = os.fstat(handle.fileno()).st_ino
        return True

    def _open_start(self) -> bool:
        """First open: resolve a recorded resume position, else the oldest data."""
        if self._handle is not None:
            return True
        if self._start_inode is not None:
            wanted = self._start_inode
            self._start_inode = None
            for candidate in [self._path] + [p for _, p in spool_generations(self._path)]:
                if inode_of(candidate) == wanted and self._open(candidate):
                    return True
            # The recorded generation is gone (deleted): the resume
            # point cannot be honoured byte-exactly — start over, counted.
            self._resync()
            self._offset = 0
        if self._offset == 0:
            # A from-the-beginning tail means *all* retained data: start at
            # the oldest rotated generation, then chase forward to the live
            # file.  (A non-zero offset refers to the live file.)
            for _, generation in spool_generations(self._path):
                if self._open(generation):
                    return True
        return self._open(self._path)

    def _next_after_current(self) -> Path:
        """The file to read after the (rotated-away) current handle."""
        generations = spool_generations(self._path)
        for position, (_, candidate) in enumerate(generations):
            if inode_of(candidate) == self._inode:
                if position + 1 < len(generations):
                    return generations[position + 1][1]
                return self._path
        # Not found among the generations (deleted): fall back to the live
        # file; anything in between is gone.
        return self._path

    def _read_new_bytes(self) -> bytes:
        assert self._handle is not None
        self._handle.seek(self._offset)
        data = self._handle.read()
        self._offset += len(data)
        return data

    def _resync(self) -> None:
        dropped = self._decoder.discard_buffered()
        if dropped:
            self._resyncs += 1
            self._skipped_bytes += dropped

    def poll(self) -> list[FlushFrame]:
        """Read newly appended bytes and return the completed frames.

        A bad frame raises, but only after the frames completed before it
        went to the sink.
        """
        frames: list[FlushFrame] = []
        try:
            self._read_generations(frames)
        finally:
            self._frames_read += len(frames)
            if frames and self._sink is not None:
                self._sink(frames)
        return frames

    def _read_generations(self, frames: list) -> None:
        # Each pass drains one spool generation; a poll crosses exactly the
        # rotations that happened since the previous poll.
        while True:
            if not self._open_start():
                break
            assert self._handle is not None
            size = os.fstat(self._handle.fileno()).st_size
            if size < self._offset:
                # The file shrank in place (copy-truncate rotation): whatever
                # was buffered belongs to the overwritten generation.
                self._resync()
                self._offset = 0
            self._decoder.feed(self._read_new_bytes())
            frames.extend(self._completed())
            if inode_of(self._path) == self._inode:
                break
            # Rotated away: the current generation was fully drained above.
            # A torn trailing frame can never be completed now — resync, then
            # chase the next generation (or the live file).
            self._resync()
            drained = self._handle
            if not self._open(self._next_after_current()):
                # The next file does not exist yet: stay at the end of the
                # drained generation, where the next poll resumes the chase.
                break
            drained.close()
            self._offset = 0


def iter_frames(path: str | Path, *, expected_token: int | None = None) -> Iterator[FlushFrame]:
    """Yield every complete frame stored in a framed spool file."""
    decoder = FrameDecoder(expected_token=expected_token)
    decoder.feed(Path(path).read_bytes())
    yield from decoder.frames()
    if decoder.buffered_bytes:
        raise TraceFormatError(
            f"{path}: {decoder.buffered_bytes} trailing bytes form an incomplete frame"
        )
