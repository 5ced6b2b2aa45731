"""Property tests of the weighted consistent-hash ring.

``HashRing(n, weights=[...])`` gives heterogeneous shards proportional
keyspace by scaling each shard's virtual-node count.  Three contracts:

* **share ∝ weight** — each shard's exact keyspace arc fraction
  (:meth:`~repro.service.ring.HashRing.arc_shares`, no sampling noise)
  tracks its weight share, within the variance a finite virtual-node count
  allows;
* **minimal movement** — changing only one shard's weight moves keys only
  into (grown) or out of (shrunk) that shard, never between bystanders,
  because weights only append/remove tail replica points;
* **hash-seed determinism** — weighted routing is identical under any
  ``PYTHONHASHSEED`` (the ring hashes with blake2b, never ``hash()``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import HashRing
from test_resharding import service_config  # noqa: F401  (fixture, used by name)
from tests.service.conftest import UpdateLedger

JOBS = [f"job-{i:04d}" for i in range(400)]

weights_list_st = st.lists(
    st.floats(min_value=0.25, max_value=4.0, allow_nan=False), min_size=1, max_size=6
)


class TestWeightedConstruction:
    def test_uniform_ring_is_the_weightless_ring(self):
        # weights=None and equal weights route identically (same point set).
        plain = HashRing(4, replicas=32)
        uniform = HashRing(4, replicas=32, weights=[1.0, 1.0, 1.0, 1.0])
        assert plain.weights is None and uniform.weights == (1.0, 1.0, 1.0, 1.0)
        for job in JOBS:
            assert plain.shard_for(job) == uniform.shard_for(job)

    def test_replica_counts_scale_with_weight(self):
        ring = HashRing(4, replicas=64, weights=[1.0, 2.0, 0.5, 4.0])
        assert ring.replica_counts == (64, 128, 32, 256)

    def test_tiny_weight_keeps_at_least_one_point(self):
        ring = HashRing(2, replicas=8, weights=[1.0, 0.001])
        assert ring.replica_counts == (8, 1)
        assert {ring.shard_for(job) for job in JOBS} == {0, 1}

    @pytest.mark.parametrize(
        "weights,match",
        [
            ([1.0], "one entry per shard"),
            ([1.0, 0.0, 1.0], "> 0"),
            ([1.0, -2.0, 1.0], "> 0"),
        ],
    )
    def test_invalid_weights_rejected(self, weights, match):
        with pytest.raises(ValueError, match=match):
            HashRing(3, weights=weights)

    @given(weights=weights_list_st)
    @settings(max_examples=50, deadline=None)
    def test_routing_total_and_deterministic(self, weights):
        ring = HashRing(len(weights), replicas=16, weights=weights)
        again = HashRing(len(weights), replicas=16, weights=weights)
        for job in JOBS[:50]:
            owner = ring.shard_for(job)
            assert 0 <= owner < len(weights)
            assert owner == again.shard_for(job)


class TestArcShares:
    def test_shares_sum_to_one(self):
        ring = HashRing(5, replicas=64, weights=[1.0, 2.0, 3.0, 0.5, 1.5])
        assert sum(ring.arc_shares()) == pytest.approx(1.0)

    def test_share_tracks_weight(self):
        # 128 points per unit weight keeps the per-shard arc variance small
        # enough for a loose relative tolerance — this is a statistical
        # property of the hash, pinned deterministically (blake2b, no seed).
        weights = [1.0, 2.0, 3.0, 4.0]
        ring = HashRing(4, replicas=128, weights=weights)
        total = sum(weights)
        for shard, share in enumerate(ring.arc_shares()):
            expected = weights[shard] / total
            assert share == pytest.approx(expected, rel=0.35), (shard, share, expected)

    def test_heavier_shard_owns_more_jobs(self):
        ring = HashRing(2, replicas=96, weights=[1.0, 3.0])
        owned = sum(1 for job in JOBS if ring.shard_for(job) == 1)
        assert owned > len(JOBS) / 2


class TestMinimalMovementOnWeightChange:
    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
            min_size=2,
            max_size=5,
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_growing_one_weight_only_pulls_keys_into_it(self, weights, data):
        grown = data.draw(st.integers(0, len(weights) - 1))
        before = HashRing(len(weights), replicas=16, weights=weights)
        heavier = list(weights)
        heavier[grown] = heavier[grown] * 2.0 + 1.0
        after = HashRing(len(weights), replicas=16, weights=heavier)
        for job in JOBS[:120]:
            old, new = before.shard_for(job), after.shard_for(job)
            if old != new:
                # Every moved key moves *to* the grown shard; bystanders
                # never exchange keys among themselves.
                assert new == grown, (job, old, new, grown)

    def test_shrinking_one_weight_only_pushes_keys_out_of_it(self):
        before = HashRing(3, replicas=32, weights=[2.0, 2.0, 2.0])
        after = HashRing(3, replicas=32, weights=[2.0, 0.5, 2.0])
        moved = 0
        for job in JOBS:
            old, new = before.shard_for(job), after.shard_for(job)
            if old != new:
                assert old == 1, (job, old, new)
                moved += 1
        assert 0 < moved < len(JOBS)


# --------------------------------------------------------------------- #
# end to end: a live weighted reshard routes like the weighted ring
# --------------------------------------------------------------------- #
class TestWeightedReshard:
    def test_live_reshard_onto_weighted_ring_bit_identical(self, service_config):
        from repro.workloads import synthetic_flush_streams
        from repro.service import ShardedService
        from test_resharding import (
            assert_bit_identical,
            frame_for,
            pump_service,
            run_reference,
            submit_round,
        )

        streams = synthetic_flush_streams(
            16, flushes_per_job=3, requests_per_flush=8, seed=21
        )
        weights = [1.0, 3.0, 1.0]
        sharded = ShardedService(2, service_config)
        ledger = UpdateLedger(sharded.publisher)
        try:
            submit_round(sharded, streams, 0)
            pump_service(sharded)
            summary = sharded.reshard(3, weights=weights)
            assert summary["to_shards"] == 3
            assert sharded.ring.weights == tuple(weights)
            expected_ring = HashRing(3, weights=weights)
            for job in streams:
                assert sharded.shard_for(job) == expected_ring.shard_for(job)
            # A same-count, same-weights resize is a no-op; same count with
            # different weights is a real (weight-rebalancing) reshard.
            assert sharded.reshard(3, weights=weights)["moved_sessions"] == 0
            rebalance = sharded.reshard(3, weights=[1.0, 1.0, 1.0])
            assert sharded.ring.weights == (1.0, 1.0, 1.0)
            moved = set(rebalance["moved_jobs"])
            uniform = HashRing(3)
            assert moved == {
                job
                for job in streams
                if expected_ring.shard_for(job) != uniform.shard_for(job)
            }
            for round_index in range(1, 3):
                submit_round(sharded, streams, round_index)
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
        reference = run_reference(streams, service_config, [("submit",), ("pump",)])
        assert_bit_identical(elastic, reference, streams)


# --------------------------------------------------------------------- #
# hash-seed determinism (subprocess matrix, as for the unweighted ring)
# --------------------------------------------------------------------- #
_WEIGHTED_RING_SCRIPT = """
import json
from repro.service import HashRing

jobs = [f"job-{i:04d}" for i in range(300)]
rings = {
    "uniform": HashRing(4, replicas=32),
    "weighted": HashRing(4, replicas=32, weights=[1.0, 2.0, 0.5, 4.0]),
    "grown": HashRing(4, replicas=32, weights=[1.0, 2.0, 0.5, 8.0]),
}
out = {
    "owners": {name: [ring.shard_for(j) for j in jobs] for name, ring in rings.items()},
    "shares": {name: list(ring.arc_shares()) for name, ring in rings.items()},
    "moves": sorted(
        j for j in jobs
        if rings["weighted"].shard_for(j) != rings["grown"].shard_for(j)
    ),
}
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeedDeterminism:
    def test_weighted_routing_identical_across_hash_seeds(self):
        results = []
        for seed in ("0", "1", "314159"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _WEIGHTED_RING_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                check=True,
                timeout=60,
            )
            results.append(json.loads(proc.stdout))
        assert results[0] == results[1] == results[2]
        # ... and the weight-only change still moved keys only into shard 3.
        weighted = HashRing(4, replicas=32, weights=[1.0, 2.0, 0.5, 4.0])
        grown = HashRing(4, replicas=32, weights=[1.0, 2.0, 0.5, 8.0])
        for job in results[0]["moves"]:
            assert weighted.shard_for(job) != 3
            assert grown.shard_for(job) == 3
