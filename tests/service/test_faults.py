"""Fault-injection tests: spool rotation, torn frames, dead shards, auth.

Everything here is about the service misbehaving-resistant paths: a writer
rotating the spool under a live tailer, a crash leaving a torn frame at a
rotation boundary, kill -9'd shards surfacing as :class:`ShardCrashedError`
instead of hangs, and the wire-level tenant token rejecting misdirected
streams.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import FtioConfig
from repro.exceptions import ServiceError, ShardCrashedError, TraceFormatError
from repro.service import ServiceConfig, SessionConfig, ShardedService
from repro.service import protocol as proto
from repro.service.snapshot import SNAPSHOT_VERSION
from repro.trace.framing import (
    FrameReader,
    FrameWriter,
    encode_frame,
    iter_frames,
)
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest


def make_flush(index: int) -> FlushRecord:
    start = index * 8.0
    requests = tuple(
        IORequest(rank=r, start=start + r * 0.05, end=start + 0.5, nbytes=4096) for r in range(3)
    )
    return FlushRecord(flush_index=index, timestamp=start + 1.0, requests=requests)


@pytest.fixture(scope="module")
def service_config():
    return ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        )
    )


class TestSpoolRotation:
    def test_reader_tails_across_explicit_rotation(self, tmp_path):
        spool = tmp_path / "spool.fts"
        writer = FrameWriter(spool, job="a")
        reader = FrameReader(spool)
        seen: list[int] = []
        for i in range(3):
            writer.write(make_flush(i))
        seen += [f.flush.flush_index for f in reader.poll()]
        rotated = writer.rotate()
        assert rotated is not None and rotated.exists()
        for i in range(3, 6):
            writer.write(make_flush(i))
        seen += [f.flush.flush_index for f in reader.poll()]
        # No drops, no duplicates, order preserved across the boundary.
        assert seen == list(range(6))
        assert reader.resyncs == 0

    def test_max_bytes_auto_rotation_never_splits_a_frame(self, tmp_path):
        spool = tmp_path / "spool.fts"
        frame_size = len(encode_frame(make_flush(0), job="a"))
        writer = FrameWriter(spool, job="a", max_bytes=3 * frame_size)
        reader = FrameReader(spool)
        seen: list[int] = []
        for i in range(10):
            writer.write(make_flush(i))
            seen += [f.flush.flush_index for f in reader.poll()]
        assert writer.rotations >= 2
        assert seen == list(range(10))
        assert reader.resyncs == 0
        # Every rotated generation holds only whole frames.
        for generation in sorted(tmp_path.glob("spool.fts.*")):
            assert list(iter_frames(generation))

    def test_frame_completed_just_before_rotation_is_not_lost(self, tmp_path):
        """The reader polled mid-frame; the writer completes it and rotates
        before the next poll.  The retained handle must still drain it."""
        spool = tmp_path / "spool.fts"
        frame = encode_frame(make_flush(0), job="torn")
        spool.write_bytes(frame[:10])
        reader = FrameReader(spool)
        assert reader.poll() == []  # partial frame parked
        with spool.open("ab") as handle:
            handle.write(frame[10:])
        writer = FrameWriter(spool, job="torn")
        writer.rotate()
        writer.write(make_flush(1))
        polled = reader.poll()
        assert [f.flush.flush_index for f in polled] == [0, 1]
        assert reader.resyncs == 0

    def test_torn_frame_at_rotation_boundary_resyncs(self, tmp_path):
        """A writer crash leaves a torn frame; rotation happens anyway.  The
        reader must discard the orphan bytes instead of gluing them onto the
        next generation (which would mis-frame everything after)."""
        spool = tmp_path / "spool.fts"
        good = encode_frame(make_flush(0), job="a")
        torn = encode_frame(make_flush(1), job="a")
        spool.write_bytes(good + torn[: len(torn) // 2])
        reader = FrameReader(spool)
        assert [f.flush.flush_index for f in reader.poll()] == [0]
        assert reader.skipped_bytes == 0
        writer = FrameWriter(spool, job="a")
        writer.rotate()
        writer.write(make_flush(2))
        polled = reader.poll()
        assert [f.flush.flush_index for f in polled] == [2]
        assert reader.resyncs == 1
        assert reader.skipped_bytes == len(torn) // 2

    def test_several_rotations_between_polls_chase_all_generations(self, tmp_path):
        """Many rotations can land between two polls; the reader must chase
        every intermediate generation by inode, dropping nothing."""
        spool = tmp_path / "spool.fts"
        frame_size = len(encode_frame(make_flush(0), job="a"))
        writer = FrameWriter(spool, job="a", max_bytes=2 * frame_size)
        reader = FrameReader(spool)
        for i in range(4):
            writer.write(make_flush(i))
        assert [f.flush.flush_index for f in reader.poll()] == [0, 1, 2, 3]
        # No polls while the writer rotates repeatedly.
        for i in range(4, 12):
            writer.write(make_flush(i))
        assert writer.rotations >= 4
        assert [f.flush.flush_index for f in reader.poll()] == list(range(4, 12))
        assert reader.resyncs == 0

    def test_reader_resumes_the_chase_when_the_live_file_is_late(self, tmp_path):
        """A poll that drains a rotated generation before the writer has
        created the next live file must stay there: the generations rotated
        before the next poll are chased from it, and its position still names
        the drained generation (a checkpoint taken there replays from it)."""
        spool = tmp_path / "spool.fts"
        writer = FrameWriter(spool, job="a")
        reader = FrameReader(spool)
        writer.write(make_flush(0))
        writer.rotate()
        assert [f.flush.flush_index for f in reader.poll()] == [0]
        checkpoint = reader.position
        assert checkpoint["inode"] == spool.with_name("spool.fts.1").stat().st_ino
        writer.write(make_flush(1))
        writer.rotate()
        writer.write(make_flush(2))
        assert [f.flush.flush_index for f in reader.poll()] == [1, 2]
        resumed = FrameReader(spool, position=checkpoint)
        assert [f.flush.flush_index for f in resumed.poll()] == [1, 2]

    def test_position_resume_survives_rotation(self, tmp_path):
        """A snapshot records the reader's (inode, offset); a reader resumed
        from it after rotations replays exactly the unseen frames."""
        spool = tmp_path / "spool.fts"
        frame_size = len(encode_frame(make_flush(0), job="a"))
        writer = FrameWriter(spool, job="a", max_bytes=3 * frame_size)
        reader = FrameReader(spool)
        for i in range(2):
            writer.write(make_flush(i))
        assert len(reader.poll()) == 2
        checkpoint = reader.position
        assert checkpoint["inode"] is not None and checkpoint["offset"] == 2 * frame_size
        for i in range(2, 9):  # rotates at least twice past the checkpoint
            writer.write(make_flush(i))
        assert writer.rotations >= 2
        resumed = FrameReader(spool, position=checkpoint)
        assert [f.flush.flush_index for f in resumed.poll()] == list(range(2, 9))
        assert resumed.resyncs == 0
        # A checkpoint pointing at a deleted generation cannot be honoured
        # byte-exactly: the reader restarts from the live file and counts it.
        for generation in tmp_path.glob("spool.fts.*"):
            generation.unlink()
        orphaned = FrameReader(spool, position=checkpoint)
        polled = orphaned.poll()
        assert [f.flush.flush_index for f in polled] == [
            f.flush.flush_index for f in iter_frames(spool)
        ]

    def test_copy_truncate_rotation_resyncs_to_start(self, tmp_path):
        spool = tmp_path / "spool.fts"
        writer = FrameWriter(spool, job="a")
        reader = FrameReader(spool)
        writer.write(make_flush(0))
        assert len(reader.poll()) == 1
        spool.write_bytes(b"")  # copy-truncate style restart
        # A regular poll observes the shrink (size < consumed offset) and
        # resets to the start of the restarted file.
        assert reader.poll() == []
        assert reader.position["offset"] == 0
        fresh = FrameWriter(spool, job="a")
        fresh.write(make_flush(1))
        assert [f.flush.flush_index for f in reader.poll()] == [1]

    def test_restarted_writer_continues_generation_numbering(self, tmp_path):
        """A writer restart must not os.replace the live file onto a retained
        generation — numbering continues from the highest existing suffix."""
        spool = tmp_path / "spool.fts"
        first = FrameWriter(spool, job="a")
        first.write(make_flush(0))
        first.rotate()
        first.write(make_flush(1))
        restarted = FrameWriter(spool, job="a")  # e.g. after a writer crash
        assert restarted.rotations == 1
        restarted.rotate()
        restarted.write(make_flush(2))
        # Generation .1 (flush 0) survived; the restart rotated to .2.
        assert [f.flush.flush_index for f in iter_frames(spool.with_name("spool.fts.1"))] == [0]
        assert [f.flush.flush_index for f in iter_frames(spool.with_name("spool.fts.2"))] == [1]
        reader = FrameReader(spool)
        assert [f.flush.flush_index for f in reader.poll()] == [0, 1, 2]

    def test_position_excludes_partially_read_trailing_frame(self, tmp_path):
        """A poll mid-append buffers a torn frame; the recorded position must
        point at the last frame boundary so a resumed reader re-decodes the
        torn frame from its first byte instead of mis-framing."""
        spool = tmp_path / "spool.fts"
        whole = encode_frame(make_flush(0), job="a")
        torn = encode_frame(make_flush(1), job="a")
        spool.write_bytes(whole + torn[: len(torn) // 2])
        reader = FrameReader(spool)
        assert [f.flush.flush_index for f in reader.poll()] == [0]
        checkpoint = reader.position
        assert checkpoint["offset"] == len(whole)
        with spool.open("ab") as handle:
            handle.write(torn[len(torn) // 2 :])
        resumed = FrameReader(spool, position=checkpoint)
        assert [f.flush.flush_index for f in resumed.poll()] == [1]

    def test_rotate_requires_a_path_backed_writer(self):
        import io

        writer = FrameWriter(io.BytesIO(), job="a")
        with pytest.raises(TraceFormatError):
            writer.rotate()
        with pytest.raises(TraceFormatError):
            FrameWriter(io.BytesIO(), job="a", max_bytes=100)


class TestShardFaults:
    def test_dead_shard_surfaces_as_shard_crashed_error(self, service_config):
        service = ShardedService(2, service_config)
        try:
            for job_index in range(4):
                service.ingest_flush(f"job-{job_index}", make_flush(0))
            service.pump()
            victim = service.shard_for("job-0")
            service.kill_shard(victim)
            assert victim in service.dead_shards()
            with pytest.raises(ShardCrashedError) as failure:
                for _ in range(64):  # the socket buffer may absorb a few sends
                    service.ingest_flush("job-0", make_flush(1))
            assert failure.value.shard == victim
            # The surviving shards keep serving.
            survivors = [j for j in service.jobs]
            assert all(service.shard_for(job) != victim for job in survivors)
            assert service.pump() >= 0
        finally:
            service.close()

    def test_revive_refuses_live_shard(self, service_config):
        service = ShardedService(2, service_config)
        try:
            with pytest.raises(ServiceError):
                service.revive_shard(0)
        finally:
            service.close()

    def test_shard_side_error_propagates_without_killing_the_shard(self, service_config):
        service = ShardedService(1, service_config)
        try:
            with pytest.raises(TraceFormatError):  # rejected router-side
                service.restore_state({"snapshot_version": 999, "sessions": [], "publisher": {}})
            bad = {
                "snapshot_version": SNAPSHOT_VERSION,
                "sessions": [{"job": "x"}],  # malformed session state
                "publisher": {"latest": {}, "latest_period": {}},
            }
            with pytest.raises(ServiceError):
                service.restore_state(bad)
            # The shard survived the failed op and still serves.
            service.ingest_flush("ok", make_flush(0))
            service.pump()
            assert service.dead_shards() == ()
            assert "ok" in service.jobs
        finally:
            service.close()

    def test_failed_op_on_one_shard_keeps_control_pipes_aligned(self, service_config):
        """A per-shard op failure inside a broadcast must not leave other
        shards' replies queued — the next op would read stale responses."""
        service = ShardedService(4, service_config)
        try:
            jobs = [f"job-{j}" for j in range(8)]
            for job in jobs:
                service.ingest_flush(job, make_flush(0))
            service.drain()
            victim_job = jobs[0]
            bad = service.snapshot_state()
            for session in bad["sessions"]:
                if session["job"] == victim_job:
                    session["predictor"] = {"malformed": True}  # one shard will fail
            with pytest.raises(ServiceError):
                service.restore_state(bad)
            # Every later broadcast still pairs requests with fresh replies.
            assert service.dead_shards() == ()
            stats = service.broker_stats
            assert stats.jobs == len(jobs)
            assert service.pump() == 0
            assert sorted(service.jobs) == jobs
        finally:
            service.close()

    def test_shard_rejects_a_retired_protocol_generation(self, service_config):
        service = ShardedService(2, service_config)
        try:
            shard = service._supervisor.shards[1]
            shard.control_send(proto.Hello(versions=(1,)))
            reply = shard.control_recv()
            assert isinstance(reply, proto.Error)
            assert reply.code == "unsupported-version"
            # The shard hangs up after the rejection ...
            with pytest.raises(ShardCrashedError):
                shard.control_recv()
            assert service.dead_shards() == (1,)
            # ... the router revives the slot, and the service keeps serving.
            service.revive_shard(1)
            for job_index in range(4):
                service.ingest_flush(f"job-{job_index}", make_flush(0))
            service.drain()
            assert service.dead_shards() == ()
            assert len(service.jobs) == 4
        finally:
            service.close()

    def test_close_is_idempotent_and_survives_dead_shards(self, service_config):
        service = ShardedService(2, service_config)
        service.kill_shard(0)
        service.close()
        service.close()
        assert service.dead_shards() == (0, 1)


class TestWireAuth:
    def test_router_rejects_unauthenticated_stream(self, service_config):
        service = ShardedService(1, replace(service_config, token=4))
        try:
            flush = make_flush(0)
            with pytest.raises(TraceFormatError):
                service.feed_bytes(encode_frame(flush, job="a"))  # version 0: no token
            with pytest.raises(TraceFormatError):
                service.feed_bytes(encode_frame(flush, job="a", token=11))
        finally:
            service.close()

    def test_router_stamps_and_accepts_its_token(self, service_config):
        service = ShardedService(1, replace(service_config, token=4))
        try:
            assert service.token == 4
            routed = service.feed_bytes(encode_frame(make_flush(0), job="a", token=4))
            assert routed == 1
            service.ingest_flush("b", make_flush(0))
            service.drain()
            assert sorted(service.jobs) == ["a", "b"]
        finally:
            service.close()
