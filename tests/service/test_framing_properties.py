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
