"""Acceptance tests of the sharded multi-process prediction service.

The contract of sharding is *transparency*: because sessions are independent
and lock-isolated, distributing them over worker subprocesses must change no
prediction.  The tests here drive 32 concurrent jobs through a 4-shard
service and a single-process service on identical framed input and assert
every published update (one per evaluation, keyed by job and index) and the
full per-session state — predictor adaptive state, resident buffers,
counters — are **bit-identical**, then do the same across a kill -9 of a
shard followed by snapshot restore and spool-tail replay.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.core import FtioConfig
from repro.service import (
    HashRing,
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
    restore_state,
)
from repro.trace.framing import FrameWriter, encode_frame
from repro.workloads import synthetic_flush_streams
from tests.conftest import make_jittered_flushes
from tests.service.conftest import UpdateLedger, sessions_by_job

N_JOBS = 32
N_SHARDS = 4


@pytest.fixture(scope="module")
def service_config():
    return ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        ),
    )


@pytest.fixture(scope="module")
def streams():
    """32 heterogeneous periodic jobs, 6 flushes each."""
    return synthetic_flush_streams(N_JOBS, flushes_per_job=6, requests_per_flush=16, seed=42)


def frame_for(job: str, flush, token: int | None) -> bytes:
    return encode_frame(flush, job=job, token=token)


def run_single(streams, config, *, token: int | None = None) -> dict:
    service = PredictionService(config)
    ledger = UpdateLedger(service.publisher)
    n_rounds = max(len(flushes) for flushes in streams.values())
    for round_index in range(n_rounds):
        for job, flushes in streams.items():
            if round_index < len(flushes):
                service.feed_bytes(frame_for(job, flushes[round_index], token))
        service.pump()
    service.drain()
    from repro.service import snapshot_state

    state = snapshot_state(service)
    periods = {job: service.publisher.latest_period(job) for job in streams}
    service.close()
    return {"state": state, "periods": periods, "ledger": ledger}


def assert_sharded_matches_single(
    streams, config, n_shards, *, token, start_method: str | None = None
) -> set[int]:
    """Drive ``streams`` through ``n_shards`` shards and one process; every
    published update and the full per-session state must be bit-identical.
    Returns the set of shards that owned a job."""
    reference = run_single(streams, config, token=token)

    sharded = ShardedService(
        n_shards, replace(config, token=token), start_method=start_method
    )
    ledger = UpdateLedger(sharded.publisher)
    try:
        n_rounds = max(len(flushes) for flushes in streams.values())
        for round_index in range(n_rounds):
            for job, flushes in streams.items():
                if round_index < len(flushes):
                    sharded.feed_bytes(frame_for(job, flushes[round_index], token))
            sharded.pump()
        sharded.drain()

        # Published periods match exactly, and so does every evaluation's
        # update (time, frequency, period, confidence) on the way there.
        for job in streams:
            assert sharded.publisher.latest_period(job) == reference["periods"][job], job
        ledger.assert_matches(reference["ledger"])

        # Full per-session state is bit-identical: predictor adaptive state,
        # resident buffers, metadata and counters.
        merged = sharded.snapshot_state()
        ours = sessions_by_job(merged)
        theirs = sessions_by_job(reference["state"])
        assert set(ours) == set(theirs) == set(streams)
        for job in streams:
            assert ours[job] == theirs[job], job
        assert merged["publisher"] == reference["state"]["publisher"]

        # Aggregated stats add up across shards.
        broker = sharded.broker_stats
        total_flushes = sum(len(f) for f in streams.values())
        assert broker.jobs == len(streams)
        assert broker.frames == broker.flushes == total_flushes
        dispatch = sharded.dispatcher_stats
        assert dispatch.completed == dispatch.submitted > 0
        assert dispatch.failures == 0
        return {sharded.shard_for(job) for job in streams}
    finally:
        sharded.close()


class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(N_SHARDS)
        again = HashRing(N_SHARDS)
        for j in range(500):
            job = f"job-{j:03d}"
            assert ring.shard_for(job) == again.shard_for(job)
            assert 0 <= ring.shard_for(job) < N_SHARDS

    def test_balanced_across_shards(self):
        ring = HashRing(N_SHARDS)
        counts = [0] * N_SHARDS
        for j in range(2000):
            counts[ring.shard_for(f"job-{j}")] += 1
        # 64 virtual nodes keep the imbalance moderate.
        assert min(counts) > 0
        assert max(counts) < 2.5 * (2000 / N_SHARDS)

    def test_consistency_under_shard_count_change(self):
        before = HashRing(4)
        after = HashRing(5)
        jobs = [f"job-{j}" for j in range(2000)]
        moved = sum(before.shard_for(j) != after.shard_for(j) for j in jobs)
        # Consistent hashing: growing 4 -> 5 shards should move roughly 1/5
        # of the keys, nowhere near the ~4/5 a modulo re-hash would move.
        assert moved / len(jobs) < 0.45

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


class TestShardedEquivalence:
    def test_32_jobs_bit_identical_to_single_process(self, streams, service_config):
        # What crosses Process(args=...) is three sockets and a ring handle:
        # inherited under fork, pickled under spawn.
        for start_method in ("fork", "spawn"):
            owners = assert_sharded_matches_single(
                streams, service_config, N_SHARDS, token=9, start_method=start_method
            )
            # Every shard served some jobs.
            assert owners == set(range(N_SHARDS)), start_method

    def test_long_acf_windows_bit_identical_to_single_process(self):
        """Three jobs with > 8 192-sample ACF windows: alone on one shard or
        batched with the others in one process, the bits are the same."""
        config = ServiceConfig(
            session=SessionConfig(
                config=FtioConfig(
                    sampling_frequency=100.0,
                    use_autocorrelation=True,
                    compute_characterization=False,
                ),
                adaptive_window=False,
            )
        )
        long_streams = {
            f"long-{j}": make_jittered_flushes(13 + j, 12) for j in range(3)
        }
        owners = assert_sharded_matches_single(long_streams, config, 2, token=None)
        assert owners == {0, 1}

    def test_merged_snapshot_restores_into_single_process(self, streams, service_config):
        token = 2
        sharded = ShardedService(N_SHARDS, replace(service_config, token=token))
        try:
            for job, flushes in streams.items():
                for flush in flushes[:3]:
                    sharded.feed_bytes(frame_for(job, flush, token))
                sharded.pump()
            sharded.drain()
            merged = sharded.snapshot_state()
            periods = {job: sharded.publisher.latest_period(job) for job in streams}
        finally:
            sharded.close()

        single = restore_state(merged, config=service_config)
        try:
            assert set(single.jobs) == set(streams)
            for job in streams:
                assert single.publisher.latest_period(job) == periods[job], job
        finally:
            single.close()

    def test_merged_snapshot_restores_onto_other_shard_count(self, streams, service_config):
        jobs = dict(list(streams.items())[:8])
        sharded = ShardedService(N_SHARDS, service_config)
        try:
            for job, flushes in jobs.items():
                for flush in flushes[:3]:
                    sharded.ingest_flush(job, flush)
            sharded.drain()
            merged = sharded.snapshot_state()
            periods = {job: sharded.publisher.latest_period(job) for job in jobs}
        finally:
            sharded.close()

        smaller = ShardedService(2, service_config)
        try:
            smaller.restore_state(merged)
            assert set(smaller.jobs) == set(jobs)
            for job in jobs:
                assert smaller.publisher.latest_period(job) == periods[job], job
        finally:
            smaller.close()


class TestConcurrentReads:
    def test_stats_scraper_never_takes_a_pump_reply(self, service_config):
        """``stats()`` looping on its own thread (what the autoscaler does)
        beside ingest + pump: neither side ever sees the other's reply, and
        the prediction stream is the one an unobserved run publishes."""
        rounds = 24
        streams = synthetic_flush_streams(
            8, flushes_per_job=rounds, requests_per_flush=16, seed=7
        )

        def run(*, scrape: bool) -> set[tuple]:
            published: list[tuple] = []
            scrapes: list[int] = []
            errors: list[BaseException] = []
            stop = threading.Event()
            with ShardedService(2, service_config) as service:
                service.publisher.subscribe(
                    lambda u: published.append((u.job, u.time, u.period, u.confidence))
                )

                def scraper() -> None:
                    while not stop.is_set():
                        try:
                            scrapes.append(service.stats()["flushes"])
                        except Exception as exc:  # the assertion below reports it
                            errors.append(exc)
                            return

                thread = threading.Thread(target=scraper)
                if scrape:
                    thread.start()
                try:
                    for round_index in range(rounds):
                        for job, flushes in streams.items():
                            service.ingest_flush(job, flushes[round_index])
                        service.pump()
                    service.drain()
                finally:
                    stop.set()
                    if scrape:
                        thread.join(timeout=60.0)
                assert not thread.is_alive()
                assert errors == []
                assert bool(scrapes) == scrape
                assert service.stats()["flushes"] == rounds * len(streams)
            return set(published)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # hand the GIL over often: more interleavings
        try:
            observed = run(scrape=True)
        finally:
            sys.setswitchinterval(interval)
        assert observed == run(scrape=False)
        assert len(observed) >= rounds


class TestCrashRecovery:
    def test_kill9_restore_replay_converges(self, service_config, tmp_path):
        """Kill -9 a shard mid-stream; snapshot + spool replay must converge
        to the exact predictions of a run that never crashed."""
        token = 5
        streams = synthetic_flush_streams(8, flushes_per_job=9, seed=11)
        n_rounds = max(len(flushes) for flushes in streams.values())
        spool = tmp_path / "spool.fts"
        writer = FrameWriter(spool, token=token)

        sharded = ShardedService(N_SHARDS, replace(service_config, token=token))
        ledger = UpdateLedger(sharded.publisher)
        try:
            tail = sharded.tail_file(spool)

            def stream_round(round_index: int) -> None:
                for job, flushes in streams.items():
                    if round_index < len(flushes):
                        writer.write(flushes[round_index], job=job)
                tail.poll()
                sharded.pump()

            third = n_rounds // 3
            for round_index in range(third):
                stream_round(round_index)
            sharded.snapshot_state()

            # Keep streaming past the snapshot, then pull the plug: the
            # victim's post-snapshot in-memory state is gone for good.
            for round_index in range(third, 2 * third):
                stream_round(round_index)
            victim = sharded.shard_for(next(iter(streams)))
            sharded.kill_shard(victim)
            assert sharded.dead_shards() == (victim,)

            replayed = sharded.revive_shard(victim)
            assert replayed > 0, "frames written since the snapshot must be replayed"
            assert sharded.dead_shards() == ()

            for round_index in range(2 * third, n_rounds):
                stream_round(round_index)
            sharded.drain()

            merged = sharded.snapshot_state()
            periods = {job: sharded.publisher.latest_period(job) for job in streams}
        finally:
            sharded.close()

        reference = run_single(streams, service_config, token=token)
        assert periods == reference["periods"]
        # The victim's post-snapshot updates were published twice — before the
        # kill and again by the replay — with the same values each time.
        ledger.assert_matches(reference["ledger"])
        ours = sessions_by_job(merged)
        theirs = sessions_by_job(reference["state"])
        for job in streams:
            assert ours[job]["predictor"] == theirs[job]["predictor"], job
            assert ours[job]["buffer"] == theirs[job]["buffer"], job

    def _crash_and_revive(self, service_config, tmp_path, *, torn: bool) -> None:
        """Stream 9 rounds of 8 jobs through a tailed spool, checkpoint after
        round 3 and kill -9 the owner of the first job after round 7; revive
        it with ``revive_shard`` alone, before round 8 is polled.

        Round 8 is already in the spool when the shard dies (the writer raced
        ahead of the router's poll).  With ``torn``, the checkpoint is taken
        while the tail holds the first half of the victim job's round-3 frame.
        """
        token = 5
        streams = synthetic_flush_streams(8, flushes_per_job=9, seed=11)
        spool = tmp_path / f"spool-{torn}.fts"

        def append(data: bytes) -> None:
            with spool.open("ab") as handle:
                handle.write(data)

        def write_round(round_index: int) -> None:
            for job, flushes in streams.items():
                append(frame_for(job, flushes[round_index], token))

        sharded = ShardedService(N_SHARDS, replace(service_config, token=token))
        ledger = UpdateLedger(sharded.publisher)
        victim_job = next(iter(streams))
        try:
            tail = sharded.tail_file(spool)
            for round_index in range(3):
                write_round(round_index)
                tail.poll()
                sharded.pump()
            if torn:
                torn_frame = frame_for(victim_job, streams[victim_job][3], token)
                for job, flushes in streams.items():
                    if job != victim_job:
                        append(frame_for(job, flushes[3], token))
                append(torn_frame[: len(torn_frame) // 2])
                tail.poll()
                sharded.pump()
                sharded.snapshot_state()
                append(torn_frame[len(torn_frame) // 2 :])
            else:
                sharded.snapshot_state()
                write_round(3)
            tail.poll()
            sharded.pump()
            for round_index in range(4, 8):
                write_round(round_index)
                tail.poll()
                sharded.pump()
            write_round(8)  # in the spool, not yet polled
            victim = sharded.shard_for(victim_job)
            sharded.kill_shard(victim)
            replayed = sharded.revive_shard(victim)
            assert sharded.dead_shards() == ()
            tail.poll()
            sharded.pump()
            sharded.drain()
            merged = sharded.snapshot_state()
            periods = {job: sharded.publisher.latest_period(job) for job in streams}
        finally:
            sharded.close()
        victim_jobs = [job for job in streams if sharded.shard_for(job) == victim]
        assert len(victim_jobs) > 1
        # Rounds 4..7 of the victim's jobs and their round-3 frames written
        # after the checkpoint (all of them, or the torn one), each once.
        assert replayed == 4 * len(victim_jobs) + (1 if torn else len(victim_jobs))
        reference = run_single(streams, service_config, token=token)
        ours = sessions_by_job(merged)
        for job, flushes in streams.items():
            assert ours[job]["ingested_flushes"] == len(flushes), job
        assert periods == reference["periods"]
        ledger.assert_matches(reference["ledger"])
        theirs = sessions_by_job(reference["state"])
        for job in streams:
            assert ours[job]["predictor"] == theirs[job]["predictor"], job
            assert ours[job]["buffer"] == theirs[job]["buffer"], job

    def test_revive_leaves_unpolled_frames_to_the_next_poll(self, service_config, tmp_path):
        """Frames written after the tail's last poll are not replayed: the
        next poll delivers them, so every job ingests exactly what was written
        and the updates equal a run that never crashed."""
        self._crash_and_revive(service_config, tmp_path, torn=False)

    def test_revive_replays_a_frame_torn_at_the_checkpoint_once(
        self, service_config, tmp_path
    ):
        """The checkpoint records the tail's last frame boundary, so a frame
        half-read when it was taken is replayed from its first byte, once."""
        self._crash_and_revive(service_config, tmp_path, torn=True)


class TestRestoreIntoRunningService:
    """A restore rolls the carried jobs back to the snapshot and leaves every
    other job's session and prediction alone; it is the new checkpoint."""

    def test_older_snapshot_keeps_a_live_job(self, streams, service_config):
        a, b = sorted(streams)[:2]
        with ShardedService(2, service_config) as sharded:
            for flush in streams[a][:3]:
                sharded.ingest_flush(a, flush)
                sharded.pump()
            older = sharded.snapshot_state()
            for flush in streams[b]:
                sharded.ingest_flush(b, flush)
                sharded.pump()
            for flush in streams[a][3:]:
                sharded.ingest_flush(a, flush)
                sharded.pump()
            before = sharded.snapshot_state()
            period_b = sharded.publisher.latest_period(b)
            assert period_b is not None

            sharded.restore_state(older)
            after = sharded.snapshot_state()
            assert sharded.publisher.latest_period(b) == period_b
            assert sessions_by_job(after)[b] == sessions_by_job(before)[b]
            assert sessions_by_job(after)[a] == sessions_by_job(older)[a]
            assert after["publisher"]["latest"][a] == older["publisher"]["latest"][a]

    def test_a_shard_lost_after_a_restore_revives_with_it(self, streams, service_config):
        jobs = dict(list(streams.items())[:8])
        with ShardedService(2, service_config) as source:
            for job, flushes in jobs.items():
                for flush in flushes[:3]:
                    source.ingest_flush(job, flush)
            source.drain()
            saved = source.snapshot_state()

        with ShardedService(2, replace(service_config, auto_revive=True)) as sharded:
            sharded.restore_state(saved)
            victim = sharded.shard_for(next(iter(jobs)))
            sharded.kill_shard(victim)
            sharded.pump()
            assert sharded.auto_revives == 1
            restored = sharded.snapshot_state()
        assert sessions_by_job(restored) == sessions_by_job(saved)
        assert restored["publisher"] == saved["publisher"]
