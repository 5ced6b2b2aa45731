"""Chaos/load-ramp harness of the autoscaler and zero-pause migration.

Extends the resharding chaos machinery (``test_resharding.py``) with an
*active autoscaler*: topology changes are no longer scripted calls to
``reshard()`` but decisions of the :class:`~repro.service.autoscaler.
Autoscaler` control loop reacting to the service's own load signals — and
the same contract must hold, strengthened:

* chaotic submit/pump/load-ramp/kill -9 interleavings under an active
  autoscaler end **bit-identical** to a fixed-topology reference run —
  including a kill -9 landing inside an *autoscaler-initiated* reshard;
* a deterministic load ramp (jobs arriving, then finishing) provokes
  grow-then-shrink through the hysteresis policy, with the cooldown and
  both clamps respected under a scripted fake clock;
* the hysteresis state machine itself is pinned in isolation with
  table-driven canned-stats tests (flap suppression at band edges).

``REPRO_SOAK=1`` unlocks a seeded randomized soak variant on the same
machinery (``REPRO_SOAK_SEED`` shifts the seed for the CI matrix).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.service import (
    AutoscaleConfig,
    AutoscaleSignals,
    Autoscaler,
    HysteresisPolicy,
    ShardedService,
)
from repro.workloads import synthetic_flush_streams
from test_resharding import (
    assert_bit_identical,
    frame_for,
    kill_victim,
    pump_service,
    run_reference,
    service_config,  # noqa: F401  (module-scoped fixture, used by name)
    submit_round,
)
from tests.service.conftest import UpdateLedger

# --------------------------------------------------------------------- #
# table-driven hysteresis state machine (satellite: policy in isolation)
# --------------------------------------------------------------------- #
POLICY_CONFIG = AutoscaleConfig(
    min_shards=1,
    max_shards=4,
    cooldown_seconds=10.0,
    high_sessions_per_shard=20.0,
    low_sessions_per_shard=5.0,
    high_p99_latency_seconds=0.5,
    low_p99_latency_seconds=0.05,
    up_consecutive=2,
    down_consecutive=2,
    step_shards=1,
)


def sig(shards=2, sessions=0, p99=None, dead=0):
    return AutoscaleSignals(
        shards=shards,
        dead_shards=dead,
        sessions=sessions,
        p99_latency_seconds=p99,
    )


HIGH = sig(sessions=100)        # 50 sessions/shard: breaches the high band
LOW = sig(sessions=4, p99=0.01)  # 2/shard, everything under the low bands
MID = sig(sessions=20, p99=0.1)  # 10/shard: inside the dead band


class TestHysteresisPolicy:
    """One canned (signals, time) script per behavior; actions pinned."""

    @pytest.mark.parametrize(
        "script",
        [
            # Streaks: one high tick is noise, the second acts.
            [(HIGH, 0.0, "hold"), (HIGH, 1.0, "grow")],
            # Flap suppression: a dead-band tick resets the up streak, so
            # load hovering at the band edge never scales.
            [(HIGH, 0.0, "hold"), (MID, 1.0, "hold"), (HIGH, 2.0, "hold"),
             (HIGH, 3.0, "grow")],
            # Down pressure needs *all* low bands clear for the full streak.
            [(LOW, 0.0, "hold"), (LOW, 1.0, "shrink")],
            # A single non-low signal (p99 above its low band) blocks shrink.
            [(LOW, 0.0, "hold"), (sig(sessions=4, p99=0.2), 1.0, "hold"),
             (LOW, 2.0, "hold"), (LOW, 3.0, "shrink")],
            # Dead shards preempt scaling entirely.
            [(HIGH, 0.0, "hold"), (sig(sessions=100, dead=1), 1.0, "revive")],
        ],
        ids=["up-streak", "flap-suppression", "down-streak", "partial-low",
             "revive-first"],
    )
    def test_scripted_decisions(self, script):
        policy = HysteresisPolicy(POLICY_CONFIG)
        for signals, now, expected in script:
            decision = policy.decide(signals, now)
            assert decision.action == expected, decision

    def test_cooldown_blocks_but_streaks_accumulate(self):
        policy = HysteresisPolicy(POLICY_CONFIG)
        assert policy.decide(HIGH, 0.0).action == "hold"
        grown = policy.decide(HIGH, 1.0)
        assert (grown.action, grown.to_shards) == ("grow", 3)
        # Still high: the resize reset the streak (tick 1 rebuilds it), and
        # every later tick inside the 10 s cooldown holds on the cooldown.
        rebuilt = policy.decide(sig(shards=3, sessions=100), 2.0)
        assert rebuilt.action == "hold" and "streak" in rebuilt.reason
        for now in (5.0, 10.9):
            held = policy.decide(sig(shards=3, sessions=100), now)
            assert held.action == "hold" and "cooldown" in held.reason
        # ... and the first tick past it acts immediately (streak is long).
        assert policy.decide(sig(shards=3, sessions=100), 11.1).action == "grow"

    def test_clamps(self):
        policy = HysteresisPolicy(POLICY_CONFIG)
        at_max = sig(shards=4, sessions=400)
        assert policy.decide(at_max, 0.0).action == "hold"
        pinned = policy.decide(at_max, 1.0)
        assert pinned.action == "hold" and "max_shards" in pinned.reason
        policy = HysteresisPolicy(POLICY_CONFIG)
        at_min = sig(shards=1, sessions=1, p99=0.01)
        assert policy.decide(at_min, 0.0).action == "hold"
        floored = policy.decide(at_min, 1.0)
        assert floored.action == "hold" and "min_shards" in floored.reason

    def test_grow_then_shrink_round_trip_with_cooldown(self):
        policy = HysteresisPolicy(POLICY_CONFIG)
        timeline = []
        script = [
            (HIGH, 0.0), (HIGH, 1.0),                      # grow 2 -> 3
            (sig(shards=3, sessions=100), 2.0),            # cooldown
            (sig(shards=3, sessions=100), 12.0),           # grow 3 -> 4
            (sig(shards=4, sessions=4, p99=0.01), 13.0),   # low, streak 1
            (sig(shards=4, sessions=4, p99=0.01), 14.0),   # low, cooldown
            (sig(shards=4, sessions=4, p99=0.01), 23.0),   # shrink 4 -> 3
        ]
        for signals, now in script:
            decision = policy.decide(signals, now)
            if decision.action != "hold":
                timeline.append((decision.action, decision.to_shards))
        assert timeline == [("grow", 3), ("grow", 4), ("shrink", 3)]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_shards"):
            AutoscaleConfig(min_shards=0)
        with pytest.raises(ValueError, match="max_shards"):
            AutoscaleConfig(min_shards=4, max_shards=2)
        with pytest.raises(ValueError, match="inverted"):
            AutoscaleConfig(low_sessions_per_shard=50.0, high_sessions_per_shard=10.0)
        with pytest.raises(ValueError, match="step_shards"):
            AutoscaleConfig(step_shards=0)


# --------------------------------------------------------------------- #
# the Autoscaler loop against a scripted engine (no subprocesses)
# --------------------------------------------------------------------- #
class ScriptedEngine:
    """Stats-on-demand stand-in for a ShardedService."""

    def __init__(self, stats_script):
        self._script = list(stats_script)
        self.resizes: list[int] = []
        self.revived: list[int] = []
        self.dead: tuple[int, ...] = ()
        self.metrics = None

    def stats(self) -> dict:
        return self._script.pop(0) if len(self._script) > 1 else self._script[0]

    def dead_shards(self):
        return self.dead

    def reshard(self, n_shards, *, on_phase=None):
        self.resizes.append(n_shards)
        return {"to_shards": n_shards}

    def revive_shard(self, index):
        self.revived.append(index)
        self.dead = tuple(i for i in self.dead if i != index)


class TestAutoscalerLoop:
    def test_tick_applies_grow_and_records_timeline(self):
        engine = ScriptedEngine([{"shards": 2, "jobs": 100}])
        scaler = Autoscaler(
            engine,
            AutoscaleConfig(max_shards=4, up_consecutive=2, cooldown_seconds=0.0),
            clock=lambda: 0.0,
        )
        assert scaler.tick(0.0).action == "hold"
        decision = scaler.tick(1.0)
        assert (decision.action, decision.to_shards) == ("grow", 3)
        assert engine.resizes == [3]
        assert scaler.decision_counts == {"grow": 1, "shrink": 0, "revive": 0, "hold": 1}
        timeline = scaler.timeline()
        assert [entry["action"] for entry in timeline] == ["grow"]
        status = scaler.status()
        assert status["decisions"]["grow"] == 1
        assert status["timeline"][-1]["to_shards"] == 3

    def test_tick_revives_every_dead_shard(self):
        engine = ScriptedEngine([{"shards": 3, "dead_shards": 2, "jobs": 10}])
        engine.dead = (0, 2)
        scaler = Autoscaler(engine, AutoscaleConfig(), clock=lambda: 0.0)
        assert scaler.tick().action == "revive"
        assert engine.revived == [0, 2]
        assert engine.resizes == []

    def test_injected_resize_callable_is_used(self):
        engine = ScriptedEngine([{"shards": 1, "jobs": 100}])
        routed: list[int] = []
        scaler = Autoscaler(
            engine,
            AutoscaleConfig(up_consecutive=1, cooldown_seconds=0.0),
            clock=lambda: 0.0,
            resize=routed.append,
        )
        assert scaler.tick().action == "grow"
        assert routed == [2] and engine.resizes == []

    def test_supervision_thread_start_stop(self):
        engine = ScriptedEngine([{"shards": 1, "jobs": 0}])
        scaler = Autoscaler(
            engine, AutoscaleConfig(interval_seconds=0.01, up_consecutive=1)
        )
        scaler.start()
        assert scaler.running
        deadline = time.monotonic() + 5.0
        while scaler.decision_counts["hold"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        scaler.stop()
        assert not scaler.running
        assert scaler.decision_counts["hold"] >= 1
        assert scaler.status()["errors"] == 0

    def test_supervision_thread_beside_live_traffic(self, service_config):  # noqa: F811
        """The thread's heartbeat + ``stats()`` scrapes share no channel with
        the pumps of the thread driving the service: no tick ever fails."""
        rounds = 24
        streams = synthetic_flush_streams(
            8, flushes_per_job=rounds, requests_per_flush=16, seed=7
        )
        with ShardedService(2, service_config) as sharded:
            # Clamped to the current size: every tick scrapes, none resizes.
            scaler = Autoscaler(
                sharded,
                AutoscaleConfig(min_shards=2, max_shards=2, interval_seconds=0.005),
            )
            scaler.start()
            try:
                for round_index in range(rounds):
                    submit_round(sharded, streams, round_index)
                    sharded.pump()
                sharded.drain()
            finally:
                scaler.stop()
            status = scaler.status()
            assert status["decisions"]["hold"] >= 1
            assert status["errors"] == 0
            assert sharded.stats()["flushes"] == rounds * len(streams)


# --------------------------------------------------------------------- #
# chaos: autoscaler-initiated reshards, kill -9 included, bit-identical
# --------------------------------------------------------------------- #
GROW_CONFIG = AutoscaleConfig(
    min_shards=1,
    max_shards=4,
    cooldown_seconds=0.0,
    high_sessions_per_shard=10.0,   # 32 jobs / 2 shards = 16 > 10
    low_sessions_per_shard=0.1,
    up_consecutive=1,
    down_consecutive=1,
    step_shards=2,
)
SHRINK_CONFIG = AutoscaleConfig(
    min_shards=1,
    max_shards=4,
    cooldown_seconds=0.0,
    high_sessions_per_shard=1000.0,
    low_sessions_per_shard=100.0,   # 32 jobs / 4 shards = 8 < 100
    high_p99_latency_seconds=2000.0,
    low_p99_latency_seconds=1000.0,
    up_consecutive=1,
    down_consecutive=1,
    step_shards=2,
)


def autoscale_step(sharded, config, streams, *, kill: bool, mid_round: int | None):
    """One autoscaler decision against the live service, chaos injected.

    The reshard is *initiated by the autoscaler* (its default resize path),
    and the ``on_phase`` hook rides along: traffic double-routed while the
    migration runs, a fresh migration target kill -9'd right after the ring
    switch.  Returns the decision.
    """
    old_count = sharded.n_shards
    chaos_state = {"killed": 0}

    def chaos(phase):
        if phase == "parked" and mid_round is not None:
            assert sharded.resharding
            submit_round(sharded, streams, mid_round)
        if phase == "switched" and kill:
            victim = kill_victim(streams, old_count, sharded.ring.n_shards)
            if victim is not None:
                sharded.kill_shard(victim)
                chaos_state["killed"] += 1

    scaler = Autoscaler(sharded, config, clock=lambda: 0.0, on_phase=chaos)
    decision = scaler.tick(0.0)
    return decision, chaos_state["killed"]


class TestAutoscalerChaos:
    @pytest.fixture(scope="class")
    def streams(self):
        return synthetic_flush_streams(
            32, flushes_per_job=6, requests_per_flush=16, seed=42
        )

    def test_autoscaled_run_bit_identical_with_kill9(self, streams, service_config):  # noqa: F811
        """The acceptance path: load-driven 2 -> 4 -> 2 with a kill -9 landing
        inside the autoscaler-initiated grow, bit-identical to the fixed-
        topology reference run ingesting the same stream."""
        n_rounds = max(len(flushes) for flushes in streams.values())
        sharded = ShardedService(2, service_config)
        ledger = UpdateLedger(sharded.publisher)
        submitted = 0
        try:
            for _ in range(2):
                submit_round(sharded, streams, submitted)
                submitted += 1
                pump_service(sharded)
            # Load breaches the high band -> the autoscaler grows 2 -> 4,
            # with traffic double-routed mid-migration and a fresh target
            # kill -9'd at the ring switch.
            decision, killed = autoscale_step(
                sharded, GROW_CONFIG, streams, kill=True, mid_round=submitted
            )
            assert (decision.action, decision.to_shards) == ("grow", 4)
            assert killed == 1, "the kill -9 must actually have happened"
            assert sharded.n_shards == 4 and sharded.dead_shards() == ()
            submitted += 1
            pump_service(sharded)
            submit_round(sharded, streams, submitted)
            submitted += 1
            pump_service(sharded)
            # Load per shard now sits under the low bands -> shrink 4 -> 2,
            # again with live traffic riding the migration.
            decision, _ = autoscale_step(
                sharded, SHRINK_CONFIG, streams, kill=False, mid_round=submitted
            )
            assert (decision.action, decision.to_shards) == ("shrink", 2)
            assert sharded.n_shards == 2
            submitted += 1
            pump_service(sharded)
            while submitted < n_rounds:
                submit_round(sharded, streams, submitted)
                submitted += 1
                pump_service(sharded)
            sharded.drain()
            stats = sharded.stats()
            elastic = {
                "state": sharded.snapshot_state(),
                "periods": {
                    job: sharded.publisher.latest_period(job) for job in streams
                },
                "ledger": ledger,
            }
        finally:
            sharded.close()
        # The reference ingests the same rounds at the same cadence, the two
        # mid-migration rounds included, on a fixed topology.
        ops = [
            ("submit",), ("pump",), ("submit",), ("pump",),
            ("reshard", 4, True, True), ("pump",),
            ("submit",), ("pump",),
            ("reshard", 2, False, True), ("pump",),
        ]
        reference = run_reference(streams, service_config, ops)
        assert_bit_identical(elastic, reference, streams)
        assert stats["reshards"] == 2
        assert stats["double_routed_frames"] > 0, "migrations must double-route"
        assert stats["resharding_in_progress"] is False


# --------------------------------------------------------------------- #
# deterministic load ramp: grow-then-shrink through one live autoscaler
# --------------------------------------------------------------------- #
class TestLoadRamp:
    def test_ramp_provokes_grow_then_shrink(self, service_config):  # noqa: F811
        """Jobs arrive (sessions/shard breaches the high band -> grow), jobs
        finish (everything clears the low bands -> shrink): one autoscaler,
        one config, a scripted clock, and the exact decision sequence and
        shard-count trajectory are pinned."""
        streams = synthetic_flush_streams(
            12, flushes_per_job=2, requests_per_flush=8, seed=7
        )
        config = AutoscaleConfig(
            min_shards=1,
            max_shards=3,
            cooldown_seconds=5.0,
            high_sessions_per_shard=5.0,
            low_sessions_per_shard=2.0,
            high_p99_latency_seconds=2000.0,
            low_p99_latency_seconds=1000.0,  # latency is not ramped here
            up_consecutive=1,
            down_consecutive=2,
            step_shards=1,
        )
        sharded = ShardedService(1, service_config)
        shard_counts = [sharded.n_shards]
        try:
            scaler = Autoscaler(sharded, config, clock=lambda: 0.0)
            for job, flushes in streams.items():
                sharded.feed_bytes(frame_for(job, flushes[0]))
            sharded.pump()
            # Ramp up: 12 sessions on 1 shard, then 2 -- the cooldown spaces
            # the grows out, a mid-cooldown tick must hold.
            assert scaler.tick(0.0).action == "grow"
            shard_counts.append(sharded.n_shards)
            assert scaler.tick(2.0).action == "hold"  # in cooldown
            assert scaler.tick(6.0).action == "grow"
            shard_counts.append(sharded.n_shards)
            pinned = scaler.tick(12.0)  # 12/3 = 4 -> inside the dead band
            assert pinned.action == "hold"
            # Ramp down: most jobs finish and are reaped; 2 sessions across
            # 3 shards clears the low bands for down_consecutive ticks.
            for job in sorted(streams)[:-2]:
                sharded.finish_job(job)
            sharded.drain()
            reaped = sharded.reap_finished()
            assert set(reaped) == set(sorted(streams)[:-2])
            assert scaler.tick(18.0).action == "hold"  # streak 1 of 2
            assert scaler.tick(20.0).action == "shrink"
            shard_counts.append(sharded.n_shards)
            assert scaler.tick(22.0).action == "hold"  # cooldown again
            assert scaler.tick(26.0).action == "shrink"
            shard_counts.append(sharded.n_shards)
            # 2 sessions on 1 shard sits in the dead band: the trajectory is
            # stable at the floor, no further decisions.
            assert scaler.tick(32.0).action == "hold"
            assert scaler.tick(34.0).action == "hold"
            assert sharded.n_shards == 1
            assert shard_counts == [1, 2, 3, 2, 1]
            assert [d["action"] for d in scaler.timeline()] == [
                "grow", "grow", "shrink", "shrink"
            ]
            # The survivors kept their sessions across the whole ramp.
            remaining = {s["job"] for s in sharded.snapshot_state()["sessions"]}
            assert remaining == set(sorted(streams)[-2:])
        finally:
            sharded.close()


# --------------------------------------------------------------------- #
# REPRO_SOAK=1: seeded randomized autoscaled soak (CI nightly matrix)
# --------------------------------------------------------------------- #
@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SOAK"),
    reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
)
class TestAutoscalerSoak:
    def test_randomized_autoscaled_soak(self, service_config):  # noqa: F811
        """Random op soup with autoscaler-driven topology changes.

        ``REPRO_SOAK_SEED`` shifts the base seed (the CI job fans a small
        matrix over it); each round draws submit/pump/autoscale(kill?)
        ops and asserts the bit-identical property against the reference.
        """
        budget = float(os.environ.get("REPRO_SOAK_SECONDS", "60"))
        base_seed = int(os.environ.get("REPRO_SOAK_SEED", "0"))
        streams = synthetic_flush_streams(
            16, flushes_per_job=8, requests_per_flush=8, seed=13
        )
        n_rounds = max(len(flushes) for flushes in streams.values())
        deadline = time.monotonic() + budget
        rounds = 0
        total_reshards = 0
        while time.monotonic() < deadline:
            rng = np.random.default_rng(20_260_808 + 1_000_003 * base_seed + rounds)
            sharded = ShardedService(2, service_config)
            ledger = UpdateLedger(sharded.publisher)
            submitted = 0
            reference_ops: list[tuple] = []
            try:
                for _ in range(int(rng.integers(6, 14))):
                    roll = rng.random()
                    if roll < 0.45 and submitted < n_rounds:
                        submit_round(sharded, streams, submitted)
                        submitted += 1
                        reference_ops.append(("submit",))
                    elif roll < 0.75:
                        pump_service(sharded)
                        reference_ops.append(("pump",))
                    else:
                        grow = sharded.n_shards < 3
                        config = GROW_CONFIG if grow else SHRINK_CONFIG
                        kill = bool(rng.random() < 0.5) and grow
                        traffic = bool(rng.random() < 0.5) and submitted < n_rounds
                        decision, _ = autoscale_step(
                            sharded,
                            config,
                            streams,
                            kill=kill,
                            mid_round=submitted if traffic else None,
                        )
                        if decision.action in ("grow", "shrink"):
                            total_reshards += 1
                            reference_ops.append(("reshard", 0, False, traffic))
                            if traffic:
                                submitted += 1
                while submitted < n_rounds:
                    submit_round(sharded, streams, submitted)
                    submitted += 1
                    pump_service(sharded)
                sharded.drain()
                elastic = {
                    "state": sharded.snapshot_state(),
                    "periods": {
                        job: sharded.publisher.latest_period(job) for job in streams
                    },
                    "ledger": ledger,
                }
            finally:
                sharded.close()
            reference = run_reference(streams, service_config, reference_ops)
            assert_bit_identical(elastic, reference, streams)
            rounds += 1
        assert rounds >= 1
        assert total_reshards >= 1, "the soak must actually have autoscaled"
