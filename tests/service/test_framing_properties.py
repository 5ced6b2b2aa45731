"""Property-based tests of the FTS1 frame codec (hypothesis).

The codec sits under every byte the streaming service ingests, so it gets
the adversarial treatment: arbitrary job ids, payloads and flag
nibbles must survive encode→decode bit-exactly through any chunking, and
corrupting or truncating a valid frame must end in a clean
:class:`TraceFormatError` (or bytes parked as incomplete) — never in a
silently mis-framed stream.

These properties caught a real bug while being written: the original decoder
hard-rejected any non-zero flags byte, so a version-1 frame carrying a
tenant/auth token nibble could never round-trip.  The decoder is now
version-aware (see ``_unpack_flags`` in :mod:`repro.trace.framing`).
"""

from __future__ import annotations

import os
import struct
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.exceptions import TraceFormatError
from repro.trace.columns import (
    FlushColumns,
    _decode_canonical,
    _encode_canonical,
    _NotCanonical,
    decode_flush_columns,
    encode_flush_payload,
)
from repro.trace.framing import (
    _HEADER,
    FrameDecoder,
    FrameSplitter,
    encode_frame,
)
from repro.trace.jsonl import FlushRecord
from repro.trace.msgpack import packb, unpackb
from repro.trace.record import IOKind, IORequest

# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
small_floats = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


@st.composite
def io_requests(draw) -> IORequest:
    start = draw(small_floats)
    duration = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    return IORequest(
        rank=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        start=start,
        end=start + duration,
        nbytes=draw(st.integers(min_value=0, max_value=2**62)),
        kind=draw(st.sampled_from(IOKind)),
    )


metadata_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    finite_floats,
    st.text(max_size=20),
)


@st.composite
def flush_records(draw) -> FlushRecord:
    return FlushRecord(
        flush_index=draw(st.integers(min_value=0, max_value=2**31)),
        timestamp=draw(small_floats),
        requests=tuple(draw(st.lists(io_requests(), max_size=5))),
        metadata=draw(st.dictionaries(st.text(max_size=10), metadata_values, max_size=4)),
    )


jobs = st.text(max_size=40)
tokens = st.one_of(st.none(), st.integers(min_value=0, max_value=15))


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(flush=flush_records(), job=jobs, token=tokens)
    def test_single_frame_round_trips_exactly(self, flush, job, token):
        data = encode_frame(flush, job=job, token=token)
        decoder = FrameDecoder()
        decoder.feed(data)
        frames = decoder.drain()
        assert len(frames) == 1
        assert frames[0].job == job
        assert frames[0].flush == flush
        assert frames[0].token == token
        assert decoder.buffered_bytes == 0

    @settings(max_examples=40, deadline=None)
    @given(
        items=st.lists(st.tuples(jobs, flush_records(), tokens), max_size=4),
        chunk_seed=st.randoms(use_true_random=False),
    )
    def test_stream_survives_arbitrary_chunking(self, items, chunk_seed):
        stream = b"".join(
            encode_frame(flush, job=job, token=token)
            for job, flush, token in items
        )
        decoder = FrameDecoder()
        received = []
        position = 0
        while position < len(stream):
            step = chunk_seed.randint(1, max(1, len(stream) // 3))
            decoder.feed(stream[position : position + step])
            position += step
            received.extend(decoder.drain())
        assert [(f.job, f.flush, f.token) for f in received] == [
            (job, flush, token) for job, flush, token in items
        ]
        assert decoder.buffered_bytes == 0

    @settings(max_examples=40, deadline=None)
    @given(flush=flush_records(), job=jobs, token=tokens)
    def test_splitter_header_routing_matches_decoder(self, flush, job, token):
        data = encode_frame(flush, job=job, token=token)
        splitter = FrameSplitter()
        splitter.feed(data)
        raw = splitter.drain()
        assert len(raw) == 1
        assert raw[0].job == job
        assert raw[0].token == token
        # Routing is transparent: the forwarded bytes decode to the original.
        decoder = FrameDecoder()
        decoder.feed(raw[0].data)
        assert decoder.drain()[0].flush == flush


class TestTruncation:
    @settings(max_examples=60, deadline=None)
    @given(
        flush=flush_records(),
        job=jobs,
        token=tokens,
        cut=st.integers(min_value=0, max_value=10**6),
    )
    def test_any_strict_prefix_stays_buffered_never_misframes(
        self, flush, job, token, cut
    ):
        data = encode_frame(flush, job=job, token=token)
        prefix = data[: cut % len(data)]
        decoder = FrameDecoder()
        decoder.feed(prefix)
        # A truncated frame is "not yet": no frame, no error, bytes parked.
        assert decoder.drain() == []
        assert decoder.buffered_bytes == len(prefix)
        # Feeding the rest completes it exactly.
        decoder.feed(data[len(prefix) :])
        frames = decoder.drain()
        assert len(frames) == 1 and frames[0].flush == flush


class TestCorruption:
    """Single-byte header corruption: a clean error or parked bytes — never a
    wrong frame, and never desynchronization of the frames that follow."""

    @settings(max_examples=100, deadline=None)
    @given(
        flush=flush_records(),
        job=jobs,
        token=tokens,
        position=st.integers(min_value=0, max_value=_HEADER.size - 1),
        new_byte=st.integers(min_value=0, max_value=255),
    )
    def test_header_corruption_never_yields_a_wrong_frame(
        self, flush, job, token, position, new_byte
    ):
        frame = encode_frame(flush, job=job, token=token)
        if frame[position] == new_byte:
            new_byte = (new_byte + 1) % 256
        corrupted = bytearray(frame)
        corrupted[position] = new_byte
        follower = encode_frame(flush, job=job, token=token)
        decoder = FrameDecoder()
        decoder.feed(bytes(corrupted) + follower)
        try:
            frames = decoder.drain()
        except TraceFormatError:
            return  # clean rejection
        if position == 5:
            # Flags corruption can land on another *valid* flags byte
            # (version 0, or version 1 with a different token); the frame
            # then legitimately decodes with that token.
            assert [(f.job, f.flush) for f in frames] == [(job, flush)] * len(frames)
            survived_token = (new_byte & 0x0F) if (new_byte >> 4) == 1 else None
            assert all(f.token == survived_token for f in frames[:1])
            return
        # Not rejected outright: the only safe alternative is an incomplete
        # frame waiting for bytes (a corrupt length field pointing past the
        # buffer).  Nothing may have decoded.
        assert frames == []
        assert decoder.buffered_bytes == len(corrupted) + len(follower)

    @settings(max_examples=60, deadline=None)
    @given(
        flush=flush_records(),
        job=jobs,
        token=st.integers(min_value=0, max_value=15),
        wrong=st.integers(min_value=0, max_value=15),
    )
    def test_expected_token_rejects_mismatch_and_unauthenticated(
        self, flush, job, token, wrong
    ):
        expected = wrong if wrong != token else (wrong + 1) % 16
        decoder = FrameDecoder(expected_token=expected)
        decoder.feed(encode_frame(flush, job=job, token=token))
        with pytest.raises(TraceFormatError):
            decoder.drain()
        # Version-0 (tokenless) frames are rejected too when auth is required.
        unauthenticated = FrameDecoder(expected_token=expected)
        unauthenticated.feed(encode_frame(flush, job=job))
        with pytest.raises(TraceFormatError):
            unauthenticated.drain()


class TestFlagVersioning:
    def test_version_0_frames_still_require_zero_low_nibble(self):
        flush = FlushRecord(flush_index=0, timestamp=1.0, requests=())
        frame = bytearray(encode_frame(flush, job="a"))
        frame[5] = 0x07  # version 0 with a non-zero nibble: reserved, reject
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(TraceFormatError):
            decoder.drain()

    def test_future_versions_rejected_not_misframed(self):
        flush = FlushRecord(flush_index=0, timestamp=1.0, requests=())
        frame = bytearray(encode_frame(flush, job="a"))
        frame[5] = 0x20  # version 2: from the future
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(TraceFormatError):
            decoder.drain()

    def test_token_out_of_nibble_range_rejected_at_encode(self):
        flush = FlushRecord(flush_index=0, timestamp=1.0, requests=())
        for bad in (-1, 16, 255):
            with pytest.raises(TraceFormatError):
                encode_frame(flush, job="a", token=bad)


# --------------------------------------------------------------------- #
# the schema-specialised payload walker against its oracle
# --------------------------------------------------------------------- #
def oracle(payload: bytes) -> FlushColumns:
    """The generic route every payload took before the walker existed."""
    data = unpackb(payload)
    if not isinstance(data, dict):
        raise TraceFormatError("payload is not a map")
    return FlushColumns.from_record(FlushRecord.from_dict(data))


def assert_same_flush(got: FlushColumns, want: FlushColumns) -> None:
    """Field by field, column by column, dtype by dtype, bit by bit (NaN-safe)."""
    assert got.flush_index == want.flush_index
    assert struct.pack(">d", got.timestamp) == struct.pack(">d", want.timestamp)
    assert repr(got.metadata) == repr(want.metadata)
    for name in ("starts", "ends", "nbytes", "ranks", "kinds"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def outcome(decode, payload):
    try:
        return decode(payload)
    except TraceFormatError:
        return None


def assert_agrees_with_oracle(payload: bytes) -> None:
    """Both reject with ``TraceFormatError``, or both accept the same flush;
    any other exception type propagates and fails the test."""
    want = outcome(oracle, payload)
    for data in (payload, memoryview(payload)):
        got = outcome(decode_flush_columns, data)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert_same_flush(got, want)


def fixstr(text: str) -> bytes:
    return bytes([0xA0 | len(text)]) + text.encode()


def str8(text: str) -> bytes:
    return bytes([0xD9, len(text)]) + text.encode()


def fixmap(*items: tuple[bytes, bytes]) -> bytes:
    """A map of already-encoded keys and values (so a key can repeat)."""
    return bytes([0x80 | len(items)]) + b"".join(key + value for key, value in items)


def encoded_request(rank=3, start=1.5, end=2.5, nbytes=4096, kind="read", *, key=fixstr):
    return fixmap(
        (key("rank"), packb(rank)),
        (key("start"), packb(start)),
        (key("end"), packb(end)),
        (key("bytes"), packb(nbytes)),
        (key("kind"), packb(kind)),
    )


def encoded_flush(*requests: bytes, key=fixstr, timestamp=packb(9.5)) -> bytes:
    return fixmap(
        (key("flush_index"), packb(7)),
        (key("timestamp"), timestamp),
        (key("metadata"), packb({"app": "x"})),
        (key("requests"), bytes([0x90 | len(requests)]) + b"".join(requests)),
    )


class TestWalkerAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(flush=flush_records())
    def test_canonical_payload_decodes_to_the_records_columns(self, flush):
        payload = packb(flush.to_dict())
        want = FlushColumns.from_record(flush)
        assert_same_flush(decode_flush_columns(payload), want)
        assert_same_flush(decode_flush_columns(memoryview(payload)), want)
        # ... and by the walker itself, not by its fallback.
        assert_same_flush(_decode_canonical(payload), want)
        assert_same_flush(oracle(payload), want)

    @settings(max_examples=400, deadline=None)
    @given(
        flush=flush_records(),
        position=st.integers(min_value=0, max_value=10**6),
        byte=st.integers(min_value=0, max_value=255),
        mutation=st.sampled_from(["flip", "truncate", "insert"]),
    )
    def test_mutated_payload_is_judged_as_the_oracle_judges_it(
        self, flush, position, byte, mutation
    ):
        payload = bytearray(packb(flush.to_dict()))
        if mutation == "flip":
            payload[position % len(payload)] = byte
        elif mutation == "truncate":
            del payload[position % len(payload) :]
        else:
            payload.insert(position % (len(payload) + 1), byte)
        assert_agrees_with_oracle(bytes(payload))

    def test_noncanonical_encodings_decode_to_the_oracles_result(self):
        canonical = encoded_flush(encoded_request(), encoded_request(rank=200, kind="write"))
        assert canonical == packb(unpackb(canonical))  # the helpers write what packb writes
        assert_same_flush(_decode_canonical(canonical), oracle(canonical))

        request = unpackb(encoded_request())
        flush = unpackb(canonical)
        variants = {
            "shuffled keys": packb(
                {
                    "requests": [dict(reversed(request.items()))],
                    "metadata": {},
                    "timestamp": 9.5,
                    "flush_index": 7,
                }
            ),
            "unknown keys": packb(
                {**flush, "host": "n01", "requests": [{**request, "offset": 512}]}
            ),
            "str8 keys": encoded_flush(encoded_request(key=str8), key=str8),
            "float32 start": encoded_flush(
                fixmap(
                    (fixstr("rank"), packb(3)),
                    (fixstr("start"), b"\xca" + struct.pack(">f", 1.5)),
                    (fixstr("end"), packb(2.5)),
                    (fixstr("bytes"), packb(4096)),
                    (fixstr("kind"), packb("read")),
                )
            ),
            "integer start and timestamp": encoded_flush(
                encoded_request(start=1, end=2), timestamp=packb(9)
            ),
            "missing kind": packb(
                {**flush, "requests": [{"rank": 0, "start": 1.0, "end": 2.0, "bytes": 8}]}
            ),
            "missing metadata": packb({k: v for k, v in flush.items() if k != "metadata"}),
            "numbers as strings": packb(
                {
                    "flush_index": "7",
                    "timestamp": "9.5",
                    "metadata": {},
                    "requests": [{"rank": "3", "start": "1.5", "end": "2.5", "bytes": "4096"}],
                }
            ),
            "duplicated key": encoded_flush(
                fixmap(
                    (fixstr("rank"), packb(3)),
                    (fixstr("start"), packb(1.5)),
                    (fixstr("end"), packb(2.5)),
                    (fixstr("bytes"), packb(1)),
                    (fixstr("bytes"), packb(4096)),
                    (fixstr("kind"), packb("read")),
                )
            ),
        }
        for name, payload in variants.items():
            want = oracle(payload)  # the oracle accepts every one of them
            assert_same_flush(decode_flush_columns(payload), want)
            assert_same_flush(decode_flush_columns(memoryview(payload)), want)
            assert want.flush_index == 7 and len(want) >= 1, name
        assert oracle(variants["missing kind"]).kinds.tolist() == ["write"]
        assert oracle(variants["missing metadata"]).metadata == {}
        assert oracle(variants["duplicated key"]).nbytes.tolist() == [4096]  # last wins
        assert oracle(variants["integer start and timestamp"]).timestamp == 9.0
        assert oracle(variants["numbers as strings"]).nbytes.tolist() == [4096]


# --------------------------------------------------------------------- #
# the schema-specialised payload encoder against its oracle
# --------------------------------------------------------------------- #
ENCODER_EXAMPLES = 200

#: The last value of each integer width and the first of the next, to int64.
WIDTH_BOUNDARIES = [0x7F, 0x80, 0xFF, 0x100, 0xFFFF, 0x10000, 2**32 - 1, 2**32, 2**63 - 1]


class _Rank(IntEnum):
    HIGH = 200


def written(encode, flush):
    """The bytes ``encode`` writes for ``flush``, or the type of what it raises."""
    try:
        return encode(flush)
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)


def with_request(**changes) -> FlushRecord:
    fields = {"rank": 3, "start": 1.5, "end": 2.5, "nbytes": 4096, "kind": IOKind.READ}
    flush = {"flush_index": 7, "timestamp": 9.5, "metadata": {"app": "x"}}
    for name in list(changes):
        if name in flush:
            flush[name] = changes.pop(name)
    return FlushRecord(requests=(IORequest(**{**fields, **changes}),), **flush)


class TestEncoderAgainstOracle:
    @settings(max_examples=ENCODER_EXAMPLES, deadline=None)
    @given(flush=flush_records())
    def test_encoder_writes_what_packb_writes(self, flush):
        assert encode_flush_payload(flush) == packb(flush.to_dict())
        assert _encode_canonical(flush) == packb(flush.to_dict())  # not by its fallback

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @settings(max_examples=50 * ENCODER_EXAMPLES, deadline=None, database=None)
    @given(flush=flush_records())
    def test_encoder_writes_what_packb_writes_soak(self, flush):
        assert encode_flush_payload(flush) == packb(flush.to_dict())
        assert _encode_canonical(flush) == packb(flush.to_dict())

    @pytest.mark.parametrize("value", WIDTH_BOUNDARIES, ids=hex)
    @pytest.mark.parametrize("field", ["flush_index", "rank", "nbytes"])
    def test_every_width_boundary(self, field, value):
        flush = with_request(**{field: value})
        payload = packb(flush.to_dict())
        assert _encode_canonical(flush) == payload
        # The decoder reads the width back through the same table.
        assert_same_flush(_decode_canonical(payload), FlushColumns.from_record(flush))

    @pytest.mark.parametrize("n", [15, 16, 65_535, 65_536])
    def test_every_array_header(self, n):
        request = IORequest(rank=130, start=1.0, end=2.0, nbytes=1 << 20, kind=IOKind.WRITE)
        flush = FlushRecord(flush_index=n, timestamp=2.0, requests=(request,) * n)
        payload = packb(flush.to_dict())
        header = payload[payload.index(b"\xa8requests") + 9]
        assert header == {15: 0x9F, 16: 0xDC, 65_535: 0xDC, 65_536: 0xDD}[n]
        assert _encode_canonical(flush) == payload

    NON_CANONICAL = {
        "int start": dict(start=1, end=2.5),
        "int end": dict(end=3),
        "int timestamp": dict(timestamp=9),
        "numpy float start and end": dict(start=np.float64(1.5), end=np.float64(2.5)),
        "numpy float timestamp": dict(timestamp=np.float64(9.5)),
        "bool rank": dict(rank=True),
        "bool bytes": dict(nbytes=False),
        "bool flush index": dict(flush_index=True),
        "numpy rank": dict(rank=np.int64(3)),
        "numpy bytes": dict(nbytes=np.uint32(4096)),
        "numpy flush index": dict(flush_index=np.int64(7)),
        "IntEnum rank": dict(rank=_Rank.HIGH),
        "IntEnum bytes": dict(nbytes=_Rank.HIGH),
        "IntEnum flush index": dict(flush_index=_Rank.HIGH),
    }

    @pytest.mark.parametrize("changes", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
    def test_non_canonical_fields_take_the_oracle_whole(self, changes):
        flush = with_request(**changes)
        with pytest.raises(_NotCanonical):
            _encode_canonical(flush)
        # Byte for byte the oracle's; a numpy integer, which packb has no type
        # for, raises the oracle's exception.
        got = written(encode_flush_payload, flush)
        assert got == written(lambda f: packb(f.to_dict()), flush)
        numpy_int = any(isinstance(value, np.integer) for value in changes.values())
        assert got is TypeError if numpy_int else isinstance(got, bytes)

    FRAMELESS = {
        "rank past int64": (dict(rank=2**63), "a"),
        "bytes past int64": (dict(nbytes=2**64 - 1), "a"),
        "lone surrogate in the job id": ({}, "job-\ud800"),
        "rank past uint64": (dict(rank=2**64), "a"),
        "bytes past uint64": (dict(nbytes=2**70), "a"),
        "metadata MessagePack cannot carry": (dict(metadata={"app": object()}), "a"),
    }

    @pytest.mark.parametrize("changes,job", FRAMELESS.values(), ids=FRAMELESS.keys())
    def test_a_flush_no_reader_takes_is_refused_at_encode(self, changes, job):
        with pytest.raises(TraceFormatError):
            encode_frame(with_request(**changes), job=job)


# --------------------------------------------------------------------- #
# the batch decode of a feed against each frame decoded alone
# --------------------------------------------------------------------- #
FEED_EXAMPLES = 60

#: Every integer width's first and last value, and the first past int64.
FEED_BOUNDARIES = [0, *WIDTH_BOUNDARIES, 2**63]


@st.composite
def width_values(draw, width: int | None = None) -> int:
    """An unsigned value, at a width boundary half of the time; ``width``
    keeps it in one width's range (0..4: fixint .. uint64)."""
    if width is None:
        if draw(st.booleans()):
            return draw(st.sampled_from(FEED_BOUNDARIES))
        return draw(st.integers(min_value=0, max_value=2**63 - 1))
    low, high = [(0, 0x7F), (0x80, 0xFF), (0x100, 0xFFFF), (0x10000, 2**32 - 1),
                 (2**32, 2**63 - 1)][width]
    edges = [value for value in FEED_BOUNDARIES if low <= value <= high]
    if draw(st.booleans()):
        return draw(st.sampled_from(edges))
    return draw(st.integers(min_value=low, max_value=high))


#: A request layout: kind, rank width, byte count width.
layouts = st.tuples(st.sampled_from(IOKind), st.integers(0, 4), st.integers(0, 4))


@st.composite
def feed_flushes(draw, palette: list[tuple[IOKind, int, int]]) -> FlushRecord:
    """A flush of one request layout of ``palette``, of mixed layouts, or of none."""
    shape = draw(st.sampled_from(["uniform", "uniform", "mixed", "empty"]))
    n = 0 if shape == "empty" else draw(st.integers(min_value=1, max_value=20))
    if shape == "uniform":
        kind, rank_w, bytes_w = draw(st.sampled_from(palette))
    requests = []
    for _ in range(n):
        start = draw(st.floats(width=64))
        end = start + draw(st.floats(min_value=0.0, max_value=1e6))
        if shape == "uniform":
            rank = draw(width_values(rank_w))
            nbytes = draw(width_values(bytes_w))
        else:
            kind = draw(st.sampled_from(IOKind))
            rank, nbytes = draw(width_values()), draw(width_values())
        requests.append(IORequest(rank=rank, start=start, end=end, nbytes=nbytes, kind=kind))
    return FlushRecord(
        flush_index=draw(st.integers(min_value=0, max_value=2**31)),
        timestamp=draw(st.floats(width=64)),
        requests=tuple(requests),
        metadata=draw(st.dictionaries(st.text(max_size=6), metadata_values, max_size=2)),
    )


def frame_bytes(job: str, token: int | None, payload: bytes) -> bytes:
    """An FTS1 frame around any payload, one ``packb`` may write past int64 too."""
    flags = 0 if token is None else 0x10 | token
    job_bytes = job.encode()
    return _HEADER.pack(b"FTS1", 2, flags, len(job_bytes), len(payload)) + job_bytes + payload


def alone(job: str, token: int | None, payload: bytes) -> tuple:
    """What one frame must come out as: the oracle's flush, or its message."""
    try:
        return ("frame", job, token, oracle(payload))
    except TraceFormatError as exc:
        return ("error", str(exc))


def drained(decoder: FrameDecoder, outcomes: list) -> None:
    """Every complete frame, each bad one as its message, the decoder going on
    behind it as ``feed_bytes`` does on the next feed."""
    while True:
        try:
            for frame in decoder.frames():
                outcomes.append(("frame", frame.job, frame.token, frame.flush))
            return
        except TraceFormatError as exc:
            outcomes.append(("error", str(exc)))


def fed(stream: bytes, cuts: list[int], *, borrowed: bool) -> list:
    """The outcomes of ``stream`` fed in chunks at ``cuts``; ``borrowed`` feeds
    each chunk as a view of a buffer that is detached and clobbered after it,
    as ``feed_borrowed`` lets the shared-memory ring reclaim it."""
    decoder = FrameDecoder()
    outcomes: list = []
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
        if not borrowed:
            decoder.feed(stream[lo:hi])
            drained(decoder, outcomes)
            continue
        buffer = bytearray(stream[lo:hi])
        decoder.feed(memoryview(buffer))
        try:
            drained(decoder, outcomes)
        finally:
            decoder.detach()
        buffer[:] = b"\xff" * len(buffer)
    assert decoder.buffered_bytes == 0
    return outcomes


def assert_same_outcomes(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[:-1] == b[:-1]
        if a[0] == "error":
            assert a[-1] == b[-1]
            continue
        assert_same_flush(a[-1], b[-1])
        for name in ("starts", "ends"):
            hexes = [float.hex(x) for x in getattr(a[-1], name).tolist()]
            assert hexes == [float.hex(x) for x in getattr(b[-1], name).tolist()]


@st.composite
def feeds(draw) -> tuple[bytes, list[int], list]:
    """Frames of random flushes, one perhaps damaged — a request ending before
    it starts, a rank or byte count past int64 or a random byte overwritten —
    the stream, a random chunking of it and what each frame decoded alone
    comes out as."""
    palette = draw(st.lists(layouts, min_size=1, max_size=3))
    items = draw(
        st.lists(st.tuples(jobs, tokens, feed_flushes(palette)), min_size=1, max_size=12)
    )
    maps = [flush.to_dict() for _, _, flush in items]
    damage = draw(st.sampled_from(["none", "byte", "end", "rank", "bytes"]))
    victim = draw(st.integers(0, len(maps) - 1))
    requests = maps[victim]["requests"]
    if damage in ("end", "rank", "bytes") and requests:
        request = requests[draw(st.integers(0, len(requests) - 1))]
        if damage == "end":
            request["end"] = request["start"] - draw(st.floats(min_value=1e-3, max_value=1e6))
        else:
            request[damage] = draw(st.sampled_from([2**63, 2**64 - 1]))
    payloads = [bytearray(packb(m)) for m in maps]
    if damage == "byte":
        position = draw(st.integers(0, len(payloads[victim]) - 1))
        payloads[victim][position] = draw(st.integers(0, 255))
    frames = [frame_bytes(job, token, bytes(p)) for (job, token, _), p in zip(items, payloads)]
    stream = b"".join(frames)
    cuts = sorted(draw(st.sets(st.integers(1, len(stream) - 1), max_size=4)))
    want = [alone(job, token, bytes(p)) for (job, token, _), p in zip(items, payloads)]
    return stream, cuts, want


def check_feed(feed: tuple[bytes, list[int], list]) -> None:
    stream, cuts, want = feed
    for borrowed in (False, True):
        assert_same_outcomes(fed(stream, cuts, borrowed=borrowed), want)
        assert_same_outcomes(fed(stream, [], borrowed=borrowed), want)


class TestBatchDecodeAgainstFramesAlone:
    @settings(max_examples=FEED_EXAMPLES, deadline=None)
    @given(feed=feeds())
    def test_a_feed_decodes_as_its_frames_alone(self, feed):
        check_feed(feed)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @settings(max_examples=50 * FEED_EXAMPLES, deadline=None, database=None)
    @given(feed=feeds())
    def test_a_feed_decodes_as_its_frames_alone_soak(self, feed):
        check_feed(feed)

    BAD_REQUESTS = {
        "kind reaD": ({}, lambda payload: payload[:-1] + b"D"),
        "end before start": ({"end": 0.5}, None),
        "fixint rank byte 0x90": ({}, lambda payload: payload.replace(b"rank\x03", b"rank\x90")),
        "uint64 rank past int64": ({"rank": 2**63}, None),
        "uint64 bytes past int64": ({"bytes": 2**64 - 1}, None),
    }

    @pytest.mark.parametrize("changes,edit", BAD_REQUESTS.values(), ids=BAD_REQUESTS.keys())
    def test_a_bad_payload_in_a_uniform_group_costs_only_its_frame(self, changes, edit):
        """Each check of the batch route, on a payload whose layout joins it to
        a group of good ones: only that frame fails, with the oracle's message."""
        wide = "rank" in changes or "bytes" in changes
        request = {"rank": 2**62 if wide else 3, "start": 1.0, "end": 2.0,
                   "bytes": 2**62 if wide else 4096, "kind": "read"}
        flush = {"flush_index": 1, "timestamp": 2.0, "metadata": {}, "requests": [request] * 16}
        good = packb(flush)
        bad = packb({**flush, "requests": [request] * 15 + [{**request, **changes}]})
        bad = bad if edit is None else edit(bad)
        assert len(bad) == len(good) and bad != good  # the same layout, to the byte count
        items = [("a", None, good), ("b", 3, bad), ("c", None, good)]
        stream = b"".join(frame_bytes(*item) for item in items)
        want = [alone(*item) for item in items]
        assert [outcome[0] for outcome in want] == ["frame", "error", "frame"]
        assert_same_outcomes(fed(stream, [], borrowed=False), want)
        assert_same_outcomes(fed(stream, [], borrowed=True), want)

    @pytest.mark.parametrize("offset,byte", [(0, 0x00), (5, 0x20), (5, 0x14)],
                             ids=["bad magic", "future version", "wrong token"])
    def test_frames_before_a_bad_header_come_out_first(self, offset, byte):
        """A header that raises stops the batch in front of it: the frames
        before it are yielded first, and it raises, unconsumed, on every call."""
        request = IORequest(rank=3, start=1.0, end=2.0, nbytes=4096, kind=IOKind.READ)
        flush = FlushRecord(flush_index=1, timestamp=2.0, requests=(request,) * 16)
        good = encode_frame(flush, job="a", token=3)
        bad = bytearray(good)
        bad[offset] = byte
        decoder = FrameDecoder(expected_token=3)
        decoder.feed(good + good + bytes(bad) + good)
        frames: list = []
        for _ in range(2):
            with pytest.raises(TraceFormatError):
                frames.extend(decoder.frames())
            assert [(f.job, f.flush) for f in frames] == [("a", flush)] * 2
            assert decoder.buffered_bytes == 2 * len(good)


# --------------------------------------------------------------------- #
# the splitter against the decoder, a feed at a time
# --------------------------------------------------------------------- #
SPLIT_EXAMPLES = 60


@st.composite
def split_feeds(draw) -> tuple[bytes, list[int]]:
    """Frames of random flushes, one perhaps with a corrupt magic, format code
    or flags byte, or a job id that is not UTF-8, and a random chunking."""
    items = draw(st.lists(st.tuples(jobs, tokens, flush_records()), min_size=1, max_size=8))
    frames = [bytearray(encode_frame(flush, job=job, token=token)) for job, token, flush in items]
    damage = draw(st.sampled_from(["none", "header", "job"]))
    victim = draw(st.integers(0, len(frames) - 1))
    if damage == "header":
        frames[victim][draw(st.integers(0, 5))] ^= draw(st.integers(1, 255))
    elif damage == "job":
        job, token, flush = items[victim]
        job_bytes = b"\xff" + job.encode()
        payload = encode_flush_payload(flush)
        flags = 0 if token is None else 0x10 | token
        header = _HEADER.pack(b"FTS1", 2, flags, len(job_bytes), len(payload))
        frames[victim] = bytearray(header + job_bytes + payload)
    stream = b"".join(frames)
    cuts = sorted(draw(st.sets(st.integers(1, len(stream) - 1), max_size=4)))
    return stream, cuts


def read_feed(reader, frames_of, stream: bytes, cuts: list[int]) -> list:
    """What ``frames_of(reader)`` yields and raises over ``stream`` fed at
    ``cuts``; a header that raises, unconsumed, stops the feed there."""
    outcomes: list = []
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
        reader.feed(stream[lo:hi])
        while True:
            emitted, got = reader.frames_emitted, []
            try:
                got.extend(frames_of(reader))
            except TraceFormatError as exc:
                outcomes += got
                outcomes.append(("error", str(exc)))
                if reader.frames_emitted == emitted + len(got):
                    return outcomes
                continue
            outcomes += got
            break
    return outcomes


def check_split_feed(feed: tuple[bytes, list[int]]) -> None:
    stream, cuts = feed
    decoder, splitter = FrameDecoder(), FrameSplitter()
    decoded = read_feed(decoder, FrameDecoder.frames, stream, cuts)
    split = read_feed(splitter, FrameSplitter.raw_frames, stream, cuts)
    assert len(split) == len(decoded)
    for raw, frame in zip(split, decoded):
        if isinstance(frame, tuple):
            assert raw == frame
            continue
        assert (raw.job, raw.token) == (frame.job, frame.token)
        alone = FrameDecoder()
        alone.feed(bytes(raw.data))
        (again,) = alone.drain()
        assert_same_flush(again.flush, frame.flush)
    assert splitter.buffered_bytes == decoder.buffered_bytes
    assert splitter.bytes_copied == decoder.bytes_copied
    assert splitter.frames_emitted == decoder.frames_emitted
    assert splitter.bytes_emitted == decoder.bytes_emitted


class TestSplitterAgainstDecoder:
    @settings(max_examples=SPLIT_EXAMPLES, deadline=None)
    @given(feed=split_feeds())
    def test_a_feed_splits_as_it_decodes(self, feed):
        check_split_feed(feed)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @settings(max_examples=50 * SPLIT_EXAMPLES, deadline=None, database=None)
    @given(feed=split_feeds())
    def test_a_feed_splits_as_it_decodes_soak(self, feed):
        check_split_feed(feed)
