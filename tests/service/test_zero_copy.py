"""The ingest path must move each frame with at most one copy per hop.

Three layers are pinned here:

* the frame buffer (:mod:`repro.trace.framing`): a frame that lies within
  one fed chunk is emitted as a borrowed ``memoryview`` — zero copies — and
  only chunk-spanning frames are join-copied, so ``bytes_copied_per_frame``
  stays below one frame's worth of bytes under any chunking;
* the shared-memory ring (:mod:`repro.service.shm_ring`): bytes written by
  the router come back to the reader as borrowed views of the mapped
  segment, through wrap-around, flow control and shutdown drain, in-process
  and across a real ``fork``;
* the assembled service: a sharded deployment on the ring data plane
  reports ``bytes_copied_per_frame == 0`` for whole-frame routing while
  producing predictions identical to the socket data plane.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest

from repro.service import PredictionService, ServiceConfig, SessionConfig, ShardedService
from repro.service.broker import FlushBroker
from repro.service.shm_ring import ShmRingReader, ShmRingWriter
from repro.trace.framing import _HEADER, FrameDecoder, FrameSplitter, encode_frame
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest
from tests.service.conftest import UpdateLedger


def make_flush(index: int) -> FlushRecord:
    start = index * 8.0
    requests = tuple(
        IORequest(rank=r, start=start + r * 0.05, end=start + 0.5, nbytes=1024)
        for r in range(4)
    )
    return FlushRecord(flush_index=index, timestamp=start + 1.0, requests=requests)


def frame_stream(n: int = 12) -> tuple[bytes, int]:
    data = b""
    for i in range(n):
        data += encode_frame(make_flush(i), job=f"job-{i % 3}")
    return data, n


# --------------------------------------------------------------------- #
# frame buffer copy accounting
# --------------------------------------------------------------------- #
class TestFramingZeroCopy:
    def test_whole_chunk_feed_is_zero_copy(self):
        data, n = frame_stream()
        splitter = FrameSplitter()
        splitter.feed(data)
        frames = list(splitter.raw_frames())
        assert len(frames) == n
        assert all(isinstance(f.data, memoryview) for f in frames)
        assert splitter.bytes_copied == 0
        assert splitter.frames_emitted == n
        assert splitter.bytes_copied_per_frame == 0.0

    def test_decoder_is_zero_copy_on_whole_chunks(self):
        data, n = frame_stream()
        decoder = FrameDecoder()
        decoder.feed(data)
        assert len(decoder.drain()) == n
        assert decoder.bytes_copied == 0
        assert decoder.bytes_copied_per_frame == 0.0

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_any_chunking_costs_at_most_one_copy_per_frame(self, chunk):
        data, n = frame_stream()
        splitter = FrameSplitter()
        frames = []
        for offset in range(0, len(data), chunk):
            splitter.feed(data[offset : offset + chunk])
            frames.extend(splitter.raw_frames())
        assert len(frames) == n
        assert splitter.bytes_emitted == len(data)
        # ≤ 1 copy per frame per hop: each frame pays at most one join (its
        # own bytes) plus one header coalesce, never a copy per poll — the
        # bound is O(frame size), independent of how finely the stream
        # dribbles in.
        assert splitter.bytes_copied <= splitter.bytes_emitted + n * _HEADER.size
        assert splitter.bytes_copied_per_frame <= len(data) / n + _HEADER.size

    def test_detach_materializes_borrowed_tail(self):
        data, n = frame_stream(4)
        split = len(data) - 11
        splitter = FrameSplitter()
        splitter.feed(memoryview(data[:split]))
        consumed = list(splitter.raw_frames())
        # Simulate the ring reclaiming the borrowed chunk: detach first.
        splitter.detach()
        splitter.feed(memoryview(data[split:]))
        consumed.extend(splitter.raw_frames())
        assert len(consumed) == n
        assert [f.job for f in consumed] == [f"job-{i % 3}" for i in range(n)]


# --------------------------------------------------------------------- #
# shared-memory ring
# --------------------------------------------------------------------- #
def drain_ring(reader: ShmRingReader, out: bytearray) -> None:
    while not reader.eof:
        reader.pump_doorbell()
        for view in reader.views():
            out.extend(view)
            view.release()
        reader.ack()


class TestShmRing:
    def test_roundtrip_with_wrap_and_flow_control(self):
        """A payload many times the capacity forces wrap-around and blocking."""
        payload = bytes(range(256)) * 41  # 10496 bytes through a 64-byte ring
        writer = ShmRingWriter(capacity=64)
        a, b = socket.socketpair()
        reader = ShmRingReader(writer.handle, b)
        received = bytearray()
        consumer = threading.Thread(target=drain_ring, args=(reader, received))
        consumer.start()
        try:
            writer.bind(a)
            assert writer.write(payload) == len(payload)
        finally:
            a.close()
            consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert bytes(received) == payload
        reader.close()
        b.close()
        writer.close()

    def test_reader_views_borrow_ring_memory(self):
        writer = ShmRingWriter(capacity=1024)
        a, b = socket.socketpair()
        reader = ShmRingReader(writer.handle, b)
        writer.bind(a)
        writer.write(b"abcdef")
        reader.pump_doorbell()
        views = reader.views()
        assert len(views) == 1 and bytes(views[0]) == b"abcdef"
        assert isinstance(views[0], memoryview)
        views[0].release()
        reader.ack()
        reader.close()
        a.close()
        b.close()
        writer.close()

    def test_writer_detects_dead_reader(self):
        writer = ShmRingWriter(capacity=16)
        a, b = socket.socketpair()
        writer.bind(a)
        b.close()  # the "shard" is gone
        with pytest.raises((BrokenPipeError, ConnectionResetError, OSError)):
            # More than one ring's worth: the writer must wait for acks that
            # can never come, and observe the closed doorbell instead.
            writer.write(b"x" * 64)
        a.close()
        writer.close()

    def test_cross_process_drain(self, tmp_path):
        """A forked consumer drains everything announced before writer EOF."""
        import multiprocessing

        payload = b"hello-shm-ring" * 5000  # 70000 bytes via a 4096-byte ring

        def child(handle, doorbell, inherited_parent_end):
            # fork duplicates the parent's doorbell end into this process;
            # drop it so the parent's close is visible as EOF.
            inherited_parent_end.close()
            reader = ShmRingReader(handle, doorbell)
            received = bytearray()
            drain_ring(reader, received)
            reader.close()
            os._exit(0 if bytes(received) == payload else 1)

        ctx = multiprocessing.get_context("fork")
        writer = ShmRingWriter(capacity=4096)
        a, b = socket.socketpair()
        process = ctx.Process(target=child, args=(writer.handle, b, a))
        process.start()
        b.close()
        writer.bind(a)
        assert writer.write(payload) == len(payload)
        a.close()
        process.join(timeout=30)
        assert process.exitcode == 0
        writer.close()


# --------------------------------------------------------------------- #
# broker borrowed-feed + end-to-end copy accounting
# --------------------------------------------------------------------- #
class TestIngestCopyAccounting:
    def test_broker_feed_borrowed_decodes_in_place(self):
        data, n = frame_stream()
        broker = FlushBroker(session_config=SessionConfig())
        buffer = bytearray(data)  # mutable: proves the broker let go in time
        assert broker.feed_borrowed(memoryview(buffer)) == n
        buffer[:] = b"\x00" * len(buffer)  # reclaim, as the ring would
        stats = broker.copy_stats
        assert stats["frames_emitted"] == n
        assert stats["bytes_copied"] == 0
        assert stats["bytes_copied_per_frame"] == 0.0
        assert broker.stats.flushes == n

    def test_decoded_flushes_do_not_alias_the_borrowed_buffer(self, monkeypatch):
        """Reclaim safety past the decoder: the payload is read in place, out of
        the fed memory itself, and what is kept of it owns its bytes — a run
        whose buffer is overwritten right after the feed ends like one whose
        buffer is left alone."""
        import repro.trace.framing as framing

        data, n = frame_stream()
        payload_owners = []
        decode = framing.decode_flush_payloads

        def spy(payloads):
            payload_owners.extend(payload.obj for payload in payloads)
            return decode(payloads)

        monkeypatch.setattr(framing, "decode_flush_payloads", spy)

        def run(reclaim: bool):
            service = PredictionService(ServiceConfig(session=SessionConfig()))
            ledger = UpdateLedger(service.publisher)
            try:
                buffer = bytearray(data)
                assert service.feed_borrowed(memoryview(buffer)) == n
                # No hidden bytes(payload): the decoder was handed views of
                # the fed buffer, not of a copy.
                assert len(payload_owners) == n
                assert all(owner is buffer for owner in payload_owners)
                payload_owners.clear()
                if reclaim:
                    buffer[:] = b"\xff" * len(buffer)
                service.pump()
                periods = {job: service.publisher.latest_period(job) for job in service.jobs}
                states = [session.state_dict() for session in service.broker.sessions()]
                return periods, states, service.broker.copy_stats, ledger.entries
            finally:
                service.close()

        clobbered, untouched = run(reclaim=True), run(reclaim=False)
        assert clobbered == untouched
        assert clobbered[2]["bytes_copied_per_frame"] == 0.0
        assert clobbered[2]["bytes_copied"] == 0

    def test_broker_feed_borrowed_detaches_partial_tail(self):
        data, n = frame_stream(3)
        split = len(data) - 9
        broker = FlushBroker(session_config=SessionConfig())
        first = bytearray(data[:split])
        routed = broker.feed_borrowed(memoryview(first))
        first[:] = b"\x00" * len(first)  # overwrite the reclaimed buffer
        routed += broker.feed_borrowed(memoryview(bytearray(data[split:])))
        assert routed == n
        stats = broker.copy_stats
        # Only the split frame pays: its buffered prefix is materialized by
        # the detach, and completing it joins the frame once — bounded by two
        # frame-sized copies no matter what, while the whole-chunk frames
        # stayed at zero.
        frame_size = len(data) / n
        assert 0 < stats["bytes_copied"] <= 2 * frame_size + _HEADER.size
        assert stats["bytes_copied_per_frame"] <= frame_size

    def test_sharded_ring_plane_is_zero_copy_and_equivalent(self):
        """Whole-frame routing over the shm ring: 0 copies in the shards,
        predictions identical to the legacy socket plane."""

        def run(ring_bytes: int):
            service = ShardedService(
                2, ServiceConfig(session=SessionConfig(), ring_bytes=ring_bytes)
            )
            try:
                for i in range(4):
                    job = f"job-{i}"
                    for flush_index in range(3):
                        service.ingest_flush(job, make_flush(flush_index))
                service.drain()
                periods = {
                    job: service.publisher.latest_period(job) for job in sorted(service.jobs)
                }
                return periods, service.stats()
            finally:
                service.close()

        ring_periods, ring_stats = run(1 << 16)
        sock_periods, _ = run(0)
        assert ring_periods == sock_periods
        assert ring_stats["bytes_copied_per_frame"] == 0.0
