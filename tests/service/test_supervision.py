"""Supervision features: spool retirement and shard revive.

A spool is bounded one way: ``FrameWriter(max_bytes=)`` rotation closes
generations, and ``compact_spools()`` unlinks the whole ones behind the last
checkpoint — never the live file a producer appends to.  A revive restores
the checkpoint and replays, by frame count, exactly the frames the tail
routed since.  Every test holds a run to one without compaction or without
a crash: every published update and the final state bit-identical.
"""

from __future__ import annotations

import os

import pytest

from repro.core import FtioConfig
from repro.exceptions import ShardCrashedError
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
)
from repro.trace.framing import FrameWriter, encode_frame, spool_generations
from repro.workloads import synthetic_flush_streams
from tests.service.conftest import UpdateLedger, sessions_by_job


@pytest.fixture(scope="module")
def session_config():
    return SessionConfig(
        config=FtioConfig(
            sampling_frequency=10.0,
            use_autocorrelation=False,
            compute_characterization=False,
        )
    )


def frame_bytes(streams: dict) -> int:
    """The largest frame any flush of ``streams`` encodes to."""
    return max(
        len(encode_frame(flush, job=job)) for job, flushes in streams.items() for flush in flushes
    )


class TestSpoolRetirement:
    def _run(self, tmp_path, session_config, *, compact: bool) -> dict:
        streams = synthetic_flush_streams(4, flushes_per_job=8, seed=3)
        spool = tmp_path / f"spool-{compact}.fts"
        writer = FrameWriter(spool, max_bytes=4 * frame_bytes(streams))
        service = PredictionService(ServiceConfig(session=session_config))
        ledger = UpdateLedger(service.publisher)
        tail = service.tail_file(spool)
        retired: list = []
        for round_index in range(8):
            for job, flushes in streams.items():
                writer.write(flushes[round_index], job=job)
            tail.poll()
            service.pump()
            if compact and round_index == 2:
                assert service.compact_spools() == {}, "no snapshot yet: nothing goes"
            if round_index == 4:
                service.snapshot_state()
                checkpoint = tail.position
                if compact:
                    live = spool.read_bytes()
                    retired = service.compact_spools().get(str(spool), [])
                    assert spool.read_bytes() == live, "the live file is never rewritten"
                    kept = [os.stat(path).st_ino for _, path in spool_generations(spool)]
                    assert checkpoint["inode"] in kept + [os.stat(spool).st_ino]
        service.drain()
        state = service.snapshot_state()
        service.close()
        return {"state": state, "ledger": ledger, "retired": retired}

    def test_retires_whole_generations_behind_the_checkpoint(self, tmp_path, session_config):
        compacted = self._run(tmp_path, session_config, compact=True)
        control = self._run(tmp_path, session_config, compact=False)
        assert compacted["retired"], "20 frames in 4-frame generations leave some behind"
        assert not any(path.exists() for path in compacted["retired"])
        assert sessions_by_job(compacted["state"]) == sessions_by_job(control["state"])
        assert compacted["state"]["publisher"] == control["state"]["publisher"]
        compacted["ledger"].assert_matches(control["ledger"])

    @pytest.mark.parametrize("producer", ["reopens", "keeps-handle"])
    def test_compaction_under_a_live_producer_loses_nothing(
        self, tmp_path, session_config, monkeypatch, producer
    ):
        """A producer appends while ``compact_spools()`` runs (``reopens``:
        inside the call's ``os.replace``, if it makes one) or after it
        through a handle it opened before (``keeps-handle``); the tail must
        still read every frame."""
        streams = synthetic_flush_streams(1, flushes_per_job=6, seed=7)
        (job, flushes), = streams.items()
        spool = tmp_path / "live.fts"
        handle = spool.open("ab")

        def write(index: int) -> None:
            if producer == "keeps-handle":
                handle.write(encode_frame(flushes[index], job=job))
                handle.flush()
            else:
                FrameWriter(spool).write(flushes[index], job=job)

        service = PredictionService(ServiceConfig(session=session_config))
        tail = service.tail_file(spool)
        read = []
        for index in range(3):
            write(index)
        read += [frame.flush.flush_index for frame in tail.poll()]
        service.snapshot_state()
        write(3)  # appended, not yet polled

        raced = []
        real_replace = os.replace

        def racing_replace(source, target):
            if not raced:
                raced.append(write(4))
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", racing_replace)
        service.compact_spools()
        monkeypatch.undo()
        if not raced:
            write(4)
        write(5)
        read += [frame.flush.flush_index for frame in tail.poll()]
        handle.close()
        service.close()
        assert read == [flush.flush_index for flush in flushes]


class TestAutoRevive:
    def _config(self, session_config, **overrides) -> ServiceConfig:
        return ServiceConfig(session=session_config, **overrides)

    def _stream(self, service, writer, tail, streams, rounds) -> None:
        for round_index in rounds:
            for job, flushes in streams.items():
                if round_index < len(flushes):
                    writer.write(flushes[round_index], job=job)
            tail.poll()
            service.pump()

    def test_pump_revives_crashed_shard_transparently(self, tmp_path, session_config):
        streams = synthetic_flush_streams(8, flushes_per_job=9, seed=11)
        n_rounds = max(len(flushes) for flushes in streams.values())
        third = n_rounds // 3

        def run(*, kill: bool) -> dict:
            spool = tmp_path / f"spool-kill-{kill}.fts"
            writer = FrameWriter(spool)
            service = ShardedService(
                2, self._config(session_config, auto_revive=True, revive_budget=2)
            )
            ledger = UpdateLedger(service.publisher)
            try:
                tail = service.tail_file(spool)
                self._stream(service, writer, tail, streams, range(third))
                service.snapshot_state()  # the auto-revive recovery point
                self._stream(service, writer, tail, streams, range(third, 2 * third))
                if kill:
                    victim = service.shard_for(next(iter(streams)))
                    service.kill_shard(victim)
                    assert service.dead_shards() == (victim,)
                # The crash surfaces inside pump() and is healed in place:
                # no exception reaches the streaming loop.
                self._stream(service, writer, tail, streams, range(2 * third, n_rounds))
                service.drain()
                stats = service.stats()
                assert service.dead_shards() == ()
                return {
                    "state": service.snapshot_state(),
                    "periods": {
                        job: service.publisher.latest_period(job) for job in streams
                    },
                    "revives": service.auto_revives,
                    "ledger": ledger,
                    "stats": stats,
                }
            finally:
                service.close()

        crashed = run(kill=True)
        clean = run(kill=False)

        assert crashed["revives"] == 1
        assert crashed["stats"]["revived_shards"] == 1
        assert clean["revives"] == 0
        assert crashed["periods"] == clean["periods"]
        crashed["ledger"].assert_matches(clean["ledger"])
        ours, theirs = sessions_by_job(crashed["state"]), sessions_by_job(clean["state"])
        for job in streams:
            assert ours[job]["predictor"] == theirs[job]["predictor"], job
            assert ours[job]["buffer"] == theirs[job]["buffer"], job

    def test_auto_revive_respects_budget(self, tmp_path, session_config):
        streams = synthetic_flush_streams(4, flushes_per_job=4, seed=2)
        spool = tmp_path / "budget.fts"
        writer = FrameWriter(spool)
        service = ShardedService(
            2, self._config(session_config, auto_revive=True, revive_budget=1)
        )
        try:
            tail = service.tail_file(spool)
            self._stream(service, writer, tail, streams, range(1))
            victim = service.shard_for(next(iter(streams)))

            service.kill_shard(victim)
            service.pump()  # first crash: healed within budget
            assert service.auto_revives == 1
            assert service.dead_shards() == ()

            service.kill_shard(victim)
            # Budget exhausted: the crash surfaces loudly instead of the
            # dead shard being silently skipped.
            with pytest.raises(ShardCrashedError, match="budget"):
                service.pump()
            assert service.auto_revives == 1
            assert service.dead_shards() == (victim,)
            with pytest.raises(ShardCrashedError):  # traffic to it fails too
                self._stream(service, writer, tail, streams, range(1, 2))
        finally:
            service.close()

    def test_replay_stops_at_parent_consumed_position(self, tmp_path, session_config):
        """Frames appended after the parent's last poll must not be ingested
        twice (once by the revival replay, again by the next poll)."""
        streams = synthetic_flush_streams(6, flushes_per_job=6, seed=13)

        def run(*, kill: bool) -> dict:
            spool = tmp_path / f"pending-{kill}.fts"
            writer = FrameWriter(spool)
            service = ShardedService(
                2, self._config(session_config, auto_revive=True, revive_budget=2)
            )
            ledger = UpdateLedger(service.publisher)
            try:
                tail = service.tail_file(spool)
                self._stream(service, writer, tail, streams, range(3))
                service.snapshot_state()
                self._stream(service, writer, tail, streams, range(3, 4))
                # A concurrent writer races ahead: round 4 is already in the
                # spool but the router has not polled it yet.
                for job, flushes in streams.items():
                    writer.write(flushes[4], job=job)
                if kill:
                    service.kill_shard(service.shard_for(next(iter(streams))))
                    service.pump()  # auto-revive; replay must NOT eat round 4
                # Round 4 now arrives through the normal poll path.
                tail.poll()
                service.pump()
                self._stream(service, writer, tail, streams, range(5, 6))
                service.drain()
                return {
                    "state": service.snapshot_state(),
                    "revives": service.auto_revives,
                    "ledger": ledger,
                }
            finally:
                service.close()

        crashed = run(kill=True)
        clean = run(kill=False)
        assert crashed["revives"] == 1
        crashed["ledger"].assert_matches(clean["ledger"])
        ours, theirs = sessions_by_job(crashed["state"]), sessions_by_job(clean["state"])
        for job in streams:
            assert ours[job]["ingested_flushes"] == theirs[job]["ingested_flushes"], job
            assert ours[job]["predictor"] == theirs[job]["predictor"], job
            assert ours[job]["buffer"] == theirs[job]["buffer"], job

    @pytest.mark.parametrize(
        "rotate, compact",
        [(True, False), (False, True), (True, True)],
        ids=["rotation", "compaction", "rotation+compaction"],
    )
    def test_revive_delivers_each_frame_once(self, tmp_path, session_config, rotate, compact):
        """Checkpoint at flush 5, poll up to flush 8, write 9-11 unpolled,
        then revive the owner of the first job: the replay carries the victim's
        frames of flushes 6-8 and nothing else, however the spool rotated or
        was compacted since the checkpoint."""
        streams = synthetic_flush_streams(4, flushes_per_job=12, seed=23)
        max_bytes = 4 * frame_bytes(streams) if rotate else None

        def run(*, kill: bool) -> dict:
            spool = tmp_path / f"once-{rotate}-{compact}-{kill}.fts"
            writer = FrameWriter(spool, max_bytes=max_bytes)
            service = ShardedService(2, self._config(session_config))
            ledger = UpdateLedger(service.publisher)
            try:
                tail = service.tail_file(spool)
                self._stream(service, writer, tail, streams, range(6))
                service.snapshot_state()
                self._stream(service, writer, tail, streams, range(6, 9))
                for job, flushes in streams.items():
                    for flush in flushes[9:]:
                        writer.write(flush, job=job)
                retired = service.compact_spools() if compact else {}
                victim = service.shard_for(next(iter(streams)))
                replayed = None
                if kill:
                    service.kill_shard(victim)
                    replayed = service.revive_shard(victim)
                tail.poll()
                service.drain()
                owned = sum(service.shard_for(job) == victim for job in streams)
                return {
                    "state": service.snapshot_state(),
                    "ledger": ledger,
                    "replayed": replayed,
                    "expected_replay": 3 * owned,
                    "retired": retired,
                }
            finally:
                service.close()

        crashed = run(kill=True)
        clean = run(kill=False)
        ours, theirs = sessions_by_job(crashed["state"]), sessions_by_job(clean["state"])
        for job in streams:
            assert ours[job]["ingested_flushes"] == theirs[job]["ingested_flushes"] == 12, job
            assert ours[job]["predictor"] == theirs[job]["predictor"], job
            assert ours[job]["buffer"] == theirs[job]["buffer"], job
        crashed["ledger"].assert_matches(clean["ledger"])
        assert crashed["replayed"] == crashed["expected_replay"]
        # Only whole generations behind the checkpoint go; without rotation
        # there are none, and the live file stays as it was.
        assert bool(crashed["retired"]) == (rotate and compact)

    def test_revival_replays_every_tailed_spool(self, tmp_path, session_config):
        """Post-snapshot frames from *all* tailed spools must be replayed."""
        streams = synthetic_flush_streams(6, flushes_per_job=6, seed=17)
        jobs = list(streams)

        def run(*, kill: bool) -> dict:
            spools = [tmp_path / f"multi-{kill}-{i}.fts" for i in range(2)]
            writers = [FrameWriter(s) for s in spools]
            service = ShardedService(
                2, self._config(session_config, auto_revive=True, revive_budget=2)
            )
            ledger = UpdateLedger(service.publisher)
            try:
                tails = [service.tail_file(s) for s in spools]

                def stream(rounds) -> None:
                    for round_index in rounds:
                        # Half the jobs flush into each spool.
                        for j, job in enumerate(jobs):
                            writers[j % 2].write(streams[job][round_index], job=job)
                        for tail in tails:
                            tail.poll()
                        service.pump()

                stream(range(2))
                service.snapshot_state()
                stream(range(2, 4))
                if kill:
                    service.kill_shard(service.shard_for(jobs[0]))
                    service.pump()
                stream(range(4, 6))
                service.drain()
                return {
                    "state": service.snapshot_state(),
                    "revives": service.auto_revives,
                    "ledger": ledger,
                }
            finally:
                service.close()

        crashed = run(kill=True)
        clean = run(kill=False)
        assert crashed["revives"] == 1
        crashed["ledger"].assert_matches(clean["ledger"])
        ours, theirs = sessions_by_job(crashed["state"]), sessions_by_job(clean["state"])
        for job in jobs:
            assert ours[job]["predictor"] == theirs[job]["predictor"], job
            assert ours[job]["buffer"] == theirs[job]["buffer"], job

    def test_all_crashed_shards_revive_in_one_pump(self, tmp_path, session_config):
        streams = synthetic_flush_streams(8, flushes_per_job=4, seed=19)
        spool = tmp_path / "double.fts"
        writer = FrameWriter(spool)
        service = ShardedService(
            3, self._config(session_config, auto_revive=True, revive_budget=3)
        )
        try:
            tail = service.tail_file(spool)
            self._stream(service, writer, tail, streams, range(2))
            service.snapshot_state()
            service.kill_shard(0)
            service.kill_shard(1)
            assert set(service.dead_shards()) == {0, 1}
            service.pump()  # both crashes healed, none silently skipped
            assert service.dead_shards() == ()
            assert service.auto_revives == 2
            self._stream(service, writer, tail, streams, range(2, 4))
            service.drain()
            assert all(
                service.publisher.latest_period(job) is not None for job in streams
            )
        finally:
            service.close()

    def test_crashes_surface_without_auto_revive(self, session_config):
        streams = synthetic_flush_streams(4, flushes_per_job=2, seed=2)
        service = ShardedService(2, self._config(session_config))
        try:
            victim = service.shard_for(next(iter(streams)))
            service.kill_shard(victim)
            with pytest.raises(ShardCrashedError):
                for job, flushes in streams.items():
                    service.ingest_flush(job, flushes[0])
            assert service.auto_revives == 0
            assert victim in service.dead_shards()
        finally:
            service.close()
