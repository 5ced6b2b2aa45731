"""Chaos/property harness of elastic live resharding.

The contract of :meth:`~repro.service.sharding.ShardedService.reshard` is the
strongest the service can offer: however the shard count changes mid-stream —
grow, shrink, repeatedly, with frames arriving during the migration, with a
target shard kill-9'd halfway through the handover — the end state and every
update published on the way must be **bit-identical** to a crash-free run
that ingested the same stream at a fixed topology with the same pump cadence.

The hypothesis test drives randomized interleavings of
{submit frames, pump, reshard up, reshard down, kill -9 mid-migration,
snapshot/restore} against a single-process reference run; the deterministic
test pins the issue's acceptance path (2 → 4 → 1 shards, 32 jobs, one
kill -9 injected during migration).  ``REPRO_SOAK=1`` unlocks a seeded
randomized soak variant on the same machinery.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FtioConfig
from repro.exceptions import ServiceError
from repro.service import (
    HashRing,
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
    snapshot_state,
    split_state,
)
from repro.trace.framing import encode_frame
from repro.workloads import synthetic_flush_streams
from tests.service.conftest import UpdateLedger, sessions_by_job

TOKEN = 7


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
        token=TOKEN,
    )


def frame_for(job: str, flush) -> bytes:
    return encode_frame(flush, job=job, token=TOKEN)


# --------------------------------------------------------------------- #
# the op machinery: one op list drives the elastic run and the reference
# --------------------------------------------------------------------- #
def submit_round(service, streams, round_index: int) -> None:
    for job, flushes in streams.items():
        if round_index < len(flushes):
            service.feed_bytes(frame_for(job, flushes[round_index]))


def pump_service(service) -> None:
    service.pump()


def kill_victim(streams, old_count: int, target_count: int) -> int | None:
    """A freshly spawned shard that will receive migrated sessions.

    Killing it mid-migration exercises the respawn-and-resend path; the
    rings are deterministic, so the victim can be computed up front.
    """
    if target_count <= old_count:
        return None
    old_ring = HashRing(old_count)
    new_ring = HashRing(target_count)
    for job in streams:
        owner = new_ring.shard_for(job)
        if owner >= old_count and old_ring.shard_for(job) != owner:
            return owner
    return None


def run_elastic(streams, config, ops, *, start_shards: int = 2) -> dict:
    """Apply ``ops`` to an elastic sharded run; return its final state.

    Ops: ``("submit",)`` next round, ``("pump",)``, ``("reshard", n, kill,
    traffic)`` — ``kill`` injects a kill -9 of a migration target at the
    ring switch, ``traffic`` submits the next round *during* the migration
    (those frames are double-routed) — and ``("snapshot",)``, a
    snapshot + restore round trip through the live service.
    """
    n_rounds = max(len(flushes) for flushes in streams.values())
    sharded = ShardedService(start_shards, config)
    ledger = UpdateLedger(sharded.publisher)
    submitted = 0
    killed_mid_migration = 0
    try:
        for op in ops:
            if op[0] == "submit" and submitted < n_rounds:
                submit_round(sharded, streams, submitted)
                submitted += 1
            elif op[0] == "pump":
                pump_service(sharded)
            elif op[0] == "reshard":
                _, target, kill, traffic = op
                old_count = sharded.n_shards
                if target == old_count:
                    # A no-op resize never enters migration — its traffic
                    # round is ingested the ordinary way (as in the
                    # reference run).
                    if traffic and submitted < n_rounds:
                        submit_round(sharded, streams, submitted)
                        submitted += 1
                    continue
                victim = kill_victim(streams, old_count, target) if kill else None
                mid_round = submitted if traffic and submitted < n_rounds else None

                def chaos(phase, victim=victim, mid_round=mid_round):
                    if phase == "parked" and mid_round is not None:
                        assert sharded.resharding
                        assert sharded.stats()["resharding_in_progress"]
                        submit_round(sharded, streams, mid_round)
                    if phase == "switched" and victim is not None:
                        sharded.kill_shard(victim)

                summary = sharded.reshard(target, on_phase=chaos)
                assert summary["to_shards"] == sharded.n_shards == target
                assert sharded.dead_shards() == ()
                if victim is not None:
                    killed_mid_migration += 1
                if mid_round is not None:
                    submitted += 1
            elif op[0] == "snapshot":
                sharded.restore_state(sharded.snapshot_state())
        while submitted < n_rounds:
            submit_round(sharded, streams, submitted)
            submitted += 1
            pump_service(sharded)
        sharded.drain()
        state = sharded.snapshot_state()
        stats = sharded.stats()
        periods = {job: sharded.publisher.latest_period(job) for job in streams}
    finally:
        sharded.close()
    return {
        "state": state,
        "stats": stats,
        "periods": periods,
        "killed": killed_mid_migration,
        "ledger": ledger,
    }


def run_reference(streams, config, ops) -> dict:
    """The same op cadence on a fixed-topology single-process service."""
    n_rounds = max(len(flushes) for flushes in streams.values())
    service = PredictionService(config)
    ledger = UpdateLedger(service.publisher)
    submitted = 0
    try:
        for op in ops:
            if op[0] == "submit" and submitted < n_rounds:
                submit_round(service, streams, submitted)
                submitted += 1
            elif op[0] == "pump":
                pump_service(service)
            elif op[0] == "reshard":
                # Topology changes do not exist for the reference — but the
                # in-migration traffic round does.
                traffic = op[3]
                if traffic and submitted < n_rounds:
                    submit_round(service, streams, submitted)
                    submitted += 1
        while submitted < n_rounds:
            submit_round(service, streams, submitted)
            submitted += 1
            pump_service(service)
        service.drain()
        state = snapshot_state(service)
        periods = {job: service.publisher.latest_period(job) for job in streams}
    finally:
        service.close()
    return {"state": state, "periods": periods, "ledger": ledger}


def assert_bit_identical(elastic: dict, reference: dict, streams) -> None:
    ours = sessions_by_job(elastic["state"])
    theirs = sessions_by_job(reference["state"])
    assert set(ours) == set(theirs) == set(streams)
    for job in streams:
        assert ours[job] == theirs[job], job
    assert elastic["state"]["publisher"] == reference["state"]["publisher"]
    assert elastic["periods"] == reference["periods"]
    elastic["ledger"].assert_matches(reference["ledger"])


# --------------------------------------------------------------------- #
# deterministic acceptance: 2 -> 4 -> 1 mid-stream, kill -9 included
# --------------------------------------------------------------------- #
class TestReshardAcceptance:
    @pytest.fixture(scope="class")
    def streams(self):
        return synthetic_flush_streams(
            32, flushes_per_job=6, requests_per_flush=16, seed=42
        )

    def test_2_to_4_to_1_mid_stream_bit_identical(self, streams, service_config):
        ops = [
            ("submit",), ("pump",),
            ("submit",), ("pump",),
            ("reshard", 4, True, True),   # grow, kill a target mid-migration,
            ("pump",),                    # with traffic fed during the move
            ("submit",), ("pump",),
            ("reshard", 1, False, True),  # shrink to one shard, again live
            ("pump",),
        ]
        elastic = run_elastic(streams, service_config, ops, start_shards=2)
        reference = run_reference(streams, service_config, ops)
        assert elastic["killed"] == 1, "the kill -9 must actually have happened"
        assert_bit_identical(elastic, reference, streams)
        assert elastic["stats"]["reshards"] == 2
        assert elastic["stats"]["sessions_moved"] > 0
        assert elastic["stats"]["resharding_in_progress"] is False

    def test_reshard_moves_only_the_minimal_set(self, streams, service_config):
        # Consistent hashing: growing 2 -> 4 must not move jobs whose owner
        # did not change, and every moved job must land on a new shard.
        old_ring, new_ring = HashRing(2), HashRing(4)
        expected = sorted(
            job for job in streams if old_ring.shard_for(job) != new_ring.shard_for(job)
        )
        sharded = ShardedService(2, service_config)
        try:
            for job, flushes in streams.items():
                sharded.feed_bytes(frame_for(job, flushes[0]))
            sharded.pump()

            def feed_next_round(phase):
                if phase == "parked":
                    for job, flushes in streams.items():
                        sharded.feed_bytes(frame_for(job, flushes[1]))

            summary = sharded.reshard(4, on_phase=feed_next_round)
            assert sorted(summary["moved_jobs"]) == expected
            assert 0 < len(expected) < len(streams)
            # A frame fed mid-handover is double-routed exactly when its job
            # moves — one router copy each, and every one of them delivered.
            assert summary["double_routed_frames"] == len(expected)
            assert sharded.double_routed_frames == len(expected)
            sharded.drain()
            assert sharded.stats()["flushes"] == 2 * len(streams)
            for job in summary["moved_jobs"]:
                assert new_ring.shard_for(job) >= 2
        finally:
            sharded.close()

    def test_extract_jobs_splits_a_merged_state(self, streams, service_config):
        # The pure per-job split: with a job-set owner, split_state's two
        # halves must partition the state exactly — the extracted half is
        # what a migration carries for those jobs.
        sharded = ShardedService(2, service_config)
        try:
            for job, flushes in streams.items():
                sharded.feed_bytes(frame_for(job, flushes[0]))
            sharded.drain()
            merged = sharded.snapshot_state()
        finally:
            sharded.close()
        wanted = sorted(streams)[:5]
        extracted, remaining = split_state(merged, lambda job: 0 if job in wanted else 1, 2)
        assert {s["job"] for s in extracted["sessions"]} == set(wanted)
        assert {s["job"] for s in remaining["sessions"]} == set(streams) - set(wanted)
        assert set(extracted["publisher"]["latest"]) == set(wanted)
        assert not set(remaining["publisher"]["latest"]) & set(wanted)
        # Partition, not copy: every session lands in exactly one half.
        both = sessions_by_job(extracted) | sessions_by_job(remaining)
        assert both == sessions_by_job(merged)

    def test_reshard_guards(self, service_config):
        sharded = ShardedService(2, service_config)
        try:
            with pytest.raises(ValueError):
                sharded.reshard(0)
            assert sharded.reshard(2)["moved_sessions"] == 0  # no-op resize
            with pytest.raises(ServiceError, match="already in progress"):
                sharded.reshard(3, on_phase=lambda phase: sharded.reshard(4))
        finally:
            sharded.close()
        with pytest.raises(ServiceError, match="closed"):
            sharded.reshard(3)

    def test_failed_reshard_leaves_a_consistent_retryable_topology(
        self, streams, service_config
    ):
        # A reshard that dies mid-flight (here: the fault-injection hook
        # raising after extraction, before the ring switch) must roll the
        # shard list back to what the ring routes to — so n_shards never
        # lies, and retrying the same resize really reshards instead of
        # short-circuiting as a same-count no-op.
        sharded = ShardedService(2, service_config)
        ledger = UpdateLedger(sharded.publisher)
        try:
            for job, flushes in streams.items():
                sharded.feed_bytes(frame_for(job, flushes[0]))
            sharded.pump()

            class Boom(RuntimeError):
                pass

            def explode(phase):
                if phase == "extracted":
                    raise Boom(phase)

            with pytest.raises(Boom):
                sharded.reshard(4, on_phase=explode)
            assert sharded.n_shards == sharded.ring.n_shards == 2
            assert sharded.dead_shards() == ()
            assert not sharded.resharding
            # The retry is a real reshard this time.
            summary = sharded.reshard(4)
            assert summary["to_shards"] == sharded.n_shards == 4
            assert summary["moved_sessions"] > 0
            # ... and nothing was lost along the way: the already-extracted
            # sessions were pushed back, so finishing the stream converges
            # to the crash-free fixed-topology state bit-exactly.
            sharded.pump()
            n_rounds = max(len(flushes) for flushes in streams.values())
            for round_index in range(1, n_rounds):
                submit_round(sharded, streams, round_index)
                pump_service(sharded)
            sharded.drain()
            merged = sharded.snapshot_state()
            periods = {job: sharded.publisher.latest_period(job) for job in streams}
        finally:
            sharded.close()
        ops = [("submit",), ("pump",)]
        reference = run_reference(streams, service_config, ops)
        assert sessions_by_job(merged) == sessions_by_job(reference["state"])
        assert periods == reference["periods"]
        ledger.assert_matches(reference["ledger"])


# --------------------------------------------------------------------- #
# property: random interleavings are always bit-identical
# --------------------------------------------------------------------- #
op_st = st.one_of(
    st.tuples(st.just("submit")),
    st.tuples(st.just("pump")),
    st.tuples(st.just("reshard"), st.integers(1, 5), st.booleans(), st.booleans()),
    st.tuples(st.just("snapshot")),
)


class TestReshardProperties:
    @pytest.fixture(scope="class")
    def streams(self):
        return synthetic_flush_streams(6, flushes_per_job=4, requests_per_flush=8, seed=9)

    @given(ops=st.lists(op_st, min_size=3, max_size=8))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_chaotic_interleavings_bit_identical(self, ops, streams, service_config):
        elastic = run_elastic(streams, service_config, ops, start_shards=2)
        reference = run_reference(streams, service_config, ops)
        assert_bit_identical(elastic, reference, streams)


# --------------------------------------------------------------------- #
# hash-seed determinism regression (the HashRing satellite)
# --------------------------------------------------------------------- #
_RING_SCRIPT = """
import json
from repro.service import HashRing

jobs = [f"job-{i:03d}" for i in range(200)]
rings = {n: HashRing(n) for n in (1, 2, 4, 5)}
out = {
    "owners": {str(n): [ring.shard_for(j) for j in jobs] for n, ring in rings.items()},
    # the moved sets of 2->1, 1->4 and 4->5 reshards, exactly as reshard()
    # computes them (sorted, so set-iteration order cannot leak in)
    "moves": {
        f"{a}->{b}": sorted(
            j for j in jobs if rings[a].shard_for(j) != rings[b].shard_for(j)
        )
        for a, b in ((2, 1), (1, 4), (4, 5))
    },
}
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeedDeterminism:
    def test_ring_and_move_sets_identical_across_hash_seeds(self):
        """Resizing to 1 shard and back must behave identically no matter the
        interpreter's hash randomization (PYTHONHASHSEED)."""
        results = []
        for seed in ("0", "1", "271828"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _RING_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                check=True,
            )
            results.append(json.loads(proc.stdout))
        assert results[0] == results[1] == results[2]
        # ... and they match this process's rings, seed notwithstanding.
        jobs = [f"job-{i:03d}" for i in range(200)]
        for n in (1, 2, 4, 5):
            ring = HashRing(n)
            assert results[0]["owners"][str(n)] == [ring.shard_for(j) for j in jobs]

    def test_to_one_shard_and_back_restores_the_exact_ring(self, service_config):
        # reshard(1) followed by reshard(4) must route exactly like a fresh
        # 4-shard service — the ring is rebuilt from the count alone, never
        # from accumulated state.
        streams = synthetic_flush_streams(8, flushes_per_job=2, seed=5)
        sharded = ShardedService(4, service_config)
        try:
            for job, flushes in streams.items():
                sharded.feed_bytes(frame_for(job, flushes[0]))
            sharded.pump()
            sharded.reshard(1)
            sharded.reshard(4)
            fresh = HashRing(4)
            for job in streams:
                assert sharded.shard_for(job) == fresh.shard_for(job)
        finally:
            sharded.close()


# --------------------------------------------------------------------- #
# REPRO_SOAK=1: seeded randomized soak on the same machinery
# --------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SOAK"),
    reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
)
class TestReshardSoak:
    def test_randomized_reshard_soak(self, service_config):
        """Seeded random op soup until the wall-clock budget runs out.

        Each round of the soak draws a fresh random op list (reshards with
        and without kill -9 / in-migration traffic included) and asserts the
        bit-identical property; the seed makes any failure reproducible from
        the round number alone.
        """
        budget = float(os.environ.get("REPRO_SOAK_SECONDS", "60"))
        streams = synthetic_flush_streams(
            16, flushes_per_job=8, requests_per_flush=8, seed=13
        )
        deadline = time.monotonic() + budget
        rounds = 0
        total_reshards = 0
        while time.monotonic() < deadline:
            rng = np.random.default_rng(20_260_729 + rounds)
            ops: list[tuple] = []
            for _ in range(int(rng.integers(6, 16))):
                roll = rng.random()
                if roll < 0.40:
                    ops.append(("submit",))
                elif roll < 0.70:
                    ops.append(("pump",))
                elif roll < 0.92:
                    ops.append(
                        (
                            "reshard",
                            int(rng.integers(1, 6)),
                            bool(rng.random() < 0.5),
                            bool(rng.random() < 0.5),
                        )
                    )
                else:
                    ops.append(("snapshot",))
            elastic = run_elastic(streams, service_config, ops, start_shards=2)
            reference = run_reference(streams, service_config, ops)
            assert_bit_identical(elastic, reference, streams)
            total_reshards += elastic["stats"]["reshards"]
            rounds += 1
        assert rounds >= 1
        assert total_reshards >= 1, "the soak must actually have resharded"
