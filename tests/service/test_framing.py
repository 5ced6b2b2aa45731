"""Unit tests for the length-prefixed flush-frame codec."""

from __future__ import annotations

import socket

import pytest

from repro.exceptions import TraceFormatError
from repro.service import PredictionService
from repro.trace.framing import (
    _HEADER,
    FRAME_MAGIC,
    PAYLOAD_MSGPACK,
    FrameDecoder,
    FrameReader,
    FrameSplitter,
    FrameWriter,
    encode_frame,
    iter_frames,
)
from repro.trace.jsonl import FlushRecord
from repro.trace.msgpack import packb
from repro.trace.record import IORequest


def make_flush(index: int = 0, *, n_requests: int = 3, metadata: dict | None = None) -> FlushRecord:
    requests = tuple(
        IORequest(rank=r, start=index * 10.0 + r, end=index * 10.0 + r + 0.5, nbytes=1024)
        for r in range(n_requests)
    )
    return FlushRecord(
        flush_index=index,
        timestamp=index * 10.0 + n_requests,
        requests=requests,
        metadata=dict(metadata or {}),
    )


def frame_of(payload: dict, *, job: str = "a") -> bytes:
    """A version-0 frame around an arbitrary payload map (what no writer here emits)."""
    body = packb(payload)
    name = job.encode("utf-8")
    return _HEADER.pack(FRAME_MAGIC, PAYLOAD_MSGPACK, 0, len(name), len(body)) + name + body


def rejected_frame(index: int = 0) -> bytes:
    """Well-framed, undecodable: its first request ends before it starts."""
    payload = make_flush(index).to_dict()
    payload["requests"][0]["end"] = payload["requests"][0]["start"] - 1.0
    return frame_of(payload)


class TestFrameCodec:
    def test_round_trip(self):
        flush = make_flush(metadata={"app": "x", "ranks": 8})
        data = encode_frame(flush, job="job-a")
        decoder = FrameDecoder()
        decoder.feed(data)
        frames = list(decoder.frames())
        assert len(frames) == 1
        assert frames[0].job == "job-a"
        assert frames[0].flush == flush
        assert decoder.buffered_bytes == 0

    def test_multiple_jobs_interleaved(self):
        decoder = FrameDecoder()
        for i in range(6):
            decoder.feed(encode_frame(make_flush(i), job=f"job-{i % 3}"))
        frames = list(decoder.frames())
        assert [f.job for f in frames] == [f"job-{i % 3}" for i in range(6)]
        assert [f.flush.flush_index for f in frames] == list(range(6))

    def test_byte_by_byte_feed(self):
        flush = make_flush()
        data = encode_frame(flush, job="drip")
        decoder = FrameDecoder()
        seen = []
        for i in range(len(data)):
            decoder.feed(data[i : i + 1])
            seen.extend(decoder.frames())
            if i < len(data) - 1:
                assert not seen, "no frame may complete before its last byte"
        assert len(seen) == 1
        assert seen[0].flush == flush

    def test_partial_trailing_frame_stays_buffered(self):
        first = encode_frame(make_flush(0), job="a")
        second = encode_frame(make_flush(1), job="a")
        decoder = FrameDecoder()
        decoder.feed(first + second[: len(second) // 2])
        assert len(list(decoder.frames())) == 1
        assert decoder.buffered_bytes > 0
        decoder.feed(second[len(second) // 2 :])
        assert len(list(decoder.frames())) == 1
        assert decoder.buffered_bytes == 0

    def test_bad_magic_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            list(decoder.frames())

    def test_corrupt_format_code_rejected(self):
        # 0x7F was never assigned; 1 (a JSON payload) is retired.  Both are
        # unknown at the header check, to decoder and splitter alike, and
        # the frame that follows is not consumed.
        follower = encode_frame(make_flush(1), job="a")
        for code in (0x7F, 1):
            data = bytearray(encode_frame(make_flush(), job="a"))
            data[4] = code  # payload-format byte
            for buffer in (FrameDecoder(), FrameSplitter()):
                buffer.feed(bytes(data) + follower)
                with pytest.raises(TraceFormatError, match=f"format code {code}"):
                    buffer.drain()
                assert buffer.frames_emitted == 0
                assert buffer.buffered_bytes == len(data) + len(follower)


class TestPayloadRejection:
    """A payload the decoder refuses raises ``TraceFormatError`` — before the
    frame is counted, and at the price of that frame only."""

    @pytest.mark.parametrize("field", ["bytes", "rank"])
    def test_integer_beyond_int64_is_rejected_not_overflowed(self, field):
        payload = make_flush().to_dict()
        payload["requests"][1][field] = 2**63 - 1
        service = PredictionService()
        try:
            assert service.feed_bytes(frame_of(payload)) == 1
            payload["requests"][1][field] = 2**63  # a valid msgpack uint64
            with pytest.raises(TraceFormatError):
                service.feed_bytes(frame_of(payload))
            assert service.broker.stats.frames == 1
            assert service.broker.stats.requests == 3
        finally:
            service.close()

    @pytest.mark.parametrize("feed", ["feed_bytes", "feed_borrowed"])
    def test_rejected_payload_costs_that_frame_only(self, feed):
        good = [encode_frame(make_flush(i), job="a") for i in range(3)]
        chunk = bytearray(good[0] + good[1] + rejected_frame() + good[2])
        service = PredictionService()
        try:
            data = memoryview(chunk) if feed == "feed_borrowed" else bytes(chunk)
            with pytest.raises(TraceFormatError):
                getattr(service, feed)(data)
            # The two frames in front of the bad one were ingested ...
            assert service.broker.stats.frames == 2
            # ... and the one behind it stayed buffered (owned: the borrowed
            # chunk may be reclaimed although the feed raised).
            chunk[:] = b"\x00" * len(chunk)
            assert getattr(service, feed)(memoryview(b"")) == 1
            assert service.broker.stats.frames == 3
            assert service.session("a").ingested_requests == 9
        finally:
            service.close()

    def test_tailing_reader_delivers_the_frames_before_a_rejected_one(self, tmp_path):
        path = tmp_path / "spool.fts"
        good = [encode_frame(make_flush(i), job="a") for i in range(3)]
        path.write_bytes(good[0] + good[1] + rejected_frame() + good[2])
        delivered: list[int] = []
        reader = FrameReader(
            path, sink=lambda frames: delivered.extend(f.flush.flush_index for f in frames)
        )
        with pytest.raises(TraceFormatError):
            reader.poll()
        assert delivered == [0, 1]
        assert [f.flush.flush_index for f in reader.poll()] == [2]
        assert delivered == [0, 1, 2]


class TestSpoolFile:
    def test_writer_appends_and_iter_frames_reads_all(self, tmp_path):
        path = tmp_path / "spool.fts"
        writer = FrameWriter(path)
        for i in range(4):
            writer.write(make_flush(i), job=f"job-{i % 2}")
        assert writer.frames_written == 4
        frames = list(iter_frames(path))
        assert [f.job for f in frames] == ["job-0", "job-1", "job-0", "job-1"]

    def test_tail_growing_file(self, tmp_path):
        path = tmp_path / "spool.fts"
        writer = FrameWriter(path, job="only")
        reader = FrameReader(path)
        assert reader.poll() == []
        writer.write(make_flush(0))
        assert [f.flush.flush_index for f in reader.poll()] == [0]
        # Nothing new: the poll is cheap and empty.
        assert reader.poll() == []
        writer.write(make_flush(1))
        writer.write(make_flush(2))
        assert [f.flush.flush_index for f in reader.poll()] == [1, 2]

    def test_tail_survives_partial_frame(self, tmp_path):
        path = tmp_path / "spool.fts"
        frame = encode_frame(make_flush(0), job="torn")
        path.write_bytes(frame[: len(frame) - 5])
        reader = FrameReader(path)
        assert reader.poll() == []
        with path.open("ab") as handle:
            handle.write(frame[len(frame) - 5 :])
        assert len(reader.poll()) == 1

    def test_iter_frames_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "spool.fts"
        path.write_bytes(encode_frame(make_flush(0), job="a") + b"FTS1\x01\x00")
        with pytest.raises(TraceFormatError):
            list(iter_frames(path))

    def test_writer_requires_job(self, tmp_path):
        writer = FrameWriter(tmp_path / "spool.fts")
        with pytest.raises(TraceFormatError):
            writer.write(make_flush(0))


class TestSocketPair:
    def test_frames_cross_a_socket(self):
        left, right = socket.socketpair()
        try:
            sender = FrameWriter(left.makefile("wb"), job="sock-job")
            flushes = [make_flush(i) for i in range(3)]
            for flush in flushes:
                sender.write(flush)
            left.shutdown(socket.SHUT_WR)
            decoder = FrameDecoder()
            while True:
                chunk = right.recv(64)
                if not chunk:
                    break
                decoder.feed(chunk)
            received = list(decoder.frames())
            assert [f.flush for f in received] == flushes
            assert all(f.job == "sock-job" for f in received)
        finally:
            left.close()
            right.close()
