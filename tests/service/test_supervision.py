"""Supervision features: snapshot-driven spool compaction and shard auto-revive.

Both features are pure composition of proven pieces — ``compact_spool`` +
reader rebasing, and ``revive_shard`` + snapshot/spool replay — so the tests
assert the same end state as the manual paths: every published update and the
final state bit-identical to a run without compaction / without a crash.
"""

from __future__ import annotations

import pytest

from repro.core import FtioConfig
from repro.exceptions import ShardCrashedError
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
)
from repro.trace.framing import FrameWriter
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


class TestAutoCompaction:
    def _run(self, tmp_path, session_config, *, auto_compact: bool) -> dict:
        streams = synthetic_flush_streams(4, flushes_per_job=8, seed=3)
        n_rounds = max(len(flushes) for flushes in streams.values())
        spool = tmp_path / f"spool-{auto_compact}.fts"
        writer = FrameWriter(spool)
        service = PredictionService(
            ServiceConfig(session=session_config, auto_compact=auto_compact)
        )
        ledger = UpdateLedger(service.publisher)
        reader = service.tail_file(spool)
        compactions = []
        for round_index in range(n_rounds):
            for job, flushes in streams.items():
                writer.write(flushes[round_index], job=job)
            reader.poll()
            service.pump()
            if round_index == n_rounds // 2:
                size_before = spool.stat().st_size
                service.snapshot_state()
                compactions.append((size_before, spool.stat().st_size))
        service.drain()
        state = service.snapshot_state()
        stats = service.stats()
        service.close()
        return {
            "state": state,
            "stats": stats,
            "compactions": compactions,
            "spool_size": spool.stat().st_size,
            "ledger": ledger,
        }

    def test_snapshot_compacts_spool_and_changes_nothing_else(self, tmp_path, session_config):
        compacted = self._run(tmp_path, session_config, auto_compact=True)
        control = self._run(tmp_path, session_config, auto_compact=False)

        # The mid-run snapshot dropped the fully consumed prefix...
        (before, after), = compacted["compactions"]
        assert before > 0 and after == 0, "a fully consumed spool compacts to empty"
        # ... the final snapshot compacted again, so the spool holds only the
        # bytes appended after it (nothing, since we snapshot post-drain) ...
        assert compacted["spool_size"] == 0
        assert control["spool_size"] > 0
        # ... and every prediction and counter is untouched by compaction.
        # (The latency percentiles are wall-clock measurements — identical in
        # shape, never in value, across two runs — so compare around them.)
        def counters(stats: dict) -> dict:
            return {k: v for k, v in stats.items() if not k.endswith("_seconds")}

        assert counters(compacted["stats"]) == counters(control["stats"])
        assert sessions_by_job(compacted["state"]) == sessions_by_job(control["state"])
        assert compacted["state"]["publisher"] == control["state"]["publisher"]
        compacted["ledger"].assert_matches(control["ledger"])

    def test_compaction_keeps_unconsumed_tail(self, tmp_path, session_config):
        streams = synthetic_flush_streams(2, flushes_per_job=4, seed=5)
        spool = tmp_path / "tail.fts"
        writer = FrameWriter(spool)
        service = PredictionService(
            ServiceConfig(session=session_config, auto_compact=True)
        )
        reader = service.tail_file(spool)
        for job, flushes in streams.items():
            writer.write(flushes[0], job=job)
        reader.poll()
        service.pump()
        # Frames appended but not yet polled must survive the compaction.
        pending = sum(
            writer.write(flushes[1], job=job) for job, flushes in streams.items()
        )
        service.snapshot_state()
        assert spool.stat().st_size == pending
        assert reader.poll(), "the retained tail is still ingestible"
        service.pump()
        assert service.stats()["flushes"] == 4
        service.close()


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
