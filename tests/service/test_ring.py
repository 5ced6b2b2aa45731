"""Property tests of the consistent-hash ring.

``HashRing(n, replicas=r)`` places ``r`` points per shard on a 64-bit ring,
each the blake2b hash of ``shard-{s}-replica-{i}``.  Four contracts:

* **the point set** — exactly ``r`` points per shard, each the documented
  hash, so a ring is a function of ``(n, r)`` alone;
* **balance** — each shard's exact keyspace arc fraction (computed from the
  point set, no sampling noise) tracks ``1 / n`` within the variance a
  finite virtual-node count allows;
* **minimal movement** — growing the shard count moves keys only onto the
  new shards, shrinking it only off the removed ones, because a shard's
  points do not depend on how many shards there are;
* **hash-seed determinism** — routing at any replica count is identical
  under any ``PYTHONHASHSEED`` (the ring hashes with blake2b, never
  ``hash()``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from hashlib import blake2b
from struct import unpack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import HashRing
from test_resharding import service_config  # noqa: F401  (fixture, used by name)
from tests.service.conftest import UpdateLedger

JOBS = [f"job-{i:04d}" for i in range(400)]

RING_SPACE = 2**64


def arc_shares(ring: HashRing) -> list[float]:
    """Fraction of the 64-bit keyspace each shard owns.

    A key hashing into ``(previous point, point]`` belongs to the later
    point's shard (``bisect_right``: a key equal to a point goes past it, so
    the arc is ``[previous, point)``; the measure is the same), and the
    wrap-around arc belongs to the first point's shard.
    """
    hashes, owners = ring._hashes, ring._owners
    shares = [0] * ring.n_shards
    for i, (point, owner) in enumerate(zip(hashes, owners)):
        previous = hashes[i - 1] - RING_SPACE if i == 0 else hashes[i - 1]
        shares[owner] += point - previous
    return [share / RING_SPACE for share in shares]


class TestConstruction:
    @pytest.mark.parametrize("n_shards,replicas", [(1, 1), (3, 8), (4, 64), (7, 33)])
    def test_every_shard_places_replicas_points(self, n_shards, replicas):
        ring = HashRing(n_shards, replicas=replicas)
        assert len(ring._hashes) == len(ring._owners) == n_shards * replicas
        assert Counter(ring._owners) == {shard: replicas for shard in range(n_shards)}
        assert ring._hashes == sorted(ring._hashes)

    def test_points_are_the_documented_hashes(self):
        ring = HashRing(3, replicas=16)

        def digest(key):
            return unpack(">Q", blake2b(key.encode(), digest_size=8).digest())[0]

        expected = sorted(
            (digest(f"shard-{shard}-replica-{replica}"), shard)
            for shard in range(3)
            for replica in range(16)
        )
        assert list(zip(ring._hashes, ring._owners)) == expected

    def test_one_point_per_shard_still_reaches_every_shard(self):
        ring = HashRing(2, replicas=1)
        assert {ring.shard_for(job) for job in JOBS} == {0, 1}

    def test_one_shard_owns_every_job(self):
        ring = HashRing(1, replicas=4)
        assert {ring.shard_for(job) for job in JOBS} == {0}

    @pytest.mark.parametrize(
        "n_shards,replicas,match",
        [
            (0, 64, "n_shards must be >= 1"),
            (-3, 64, "n_shards must be >= 1"),
            (2, 0, "replicas must be >= 1"),
            (2, -1, "replicas must be >= 1"),
        ],
    )
    def test_invalid_arguments_rejected(self, n_shards, replicas, match):
        with pytest.raises(ValueError, match=match):
            HashRing(n_shards, replicas=replicas)

    @given(n_shards=st.integers(1, 8), replicas=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_routing_total_and_deterministic(self, n_shards, replicas):
        ring = HashRing(n_shards, replicas=replicas)
        again = HashRing(n_shards, replicas=replicas)
        for job in JOBS[:50]:
            owner = ring.shard_for(job)
            assert 0 <= owner < n_shards
            assert owner == again.shard_for(job)


class TestArcShares:
    def test_shares_sum_to_one(self):
        assert sum(arc_shares(HashRing(5, replicas=64))) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 6])
    def test_share_tracks_one_over_n(self, n_shards):
        # 128 points per shard keep the per-shard arc variance small enough
        # for a loose relative tolerance — a statistical property of the
        # hash, pinned deterministically (blake2b, no seed).
        for shard, share in enumerate(arc_shares(HashRing(n_shards, replicas=128))):
            assert share == pytest.approx(1 / n_shards, rel=0.35), (shard, share)

    def test_job_counts_follow_the_arcs(self):
        ring = HashRing(3, replicas=64)
        owned = Counter(ring.shard_for(f"job-{j}") for j in range(6000))
        for shard, share in enumerate(arc_shares(ring)):
            assert owned[shard] / 6000 == pytest.approx(share, abs=0.03)


class TestMinimalMovement:
    @given(n_shards=st.integers(1, 6), added=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_growing_only_pulls_keys_onto_new_shards(self, n_shards, added):
        before = HashRing(n_shards, replicas=16)
        after = HashRing(n_shards + added, replicas=16)
        for job in JOBS[:120]:
            old, new = before.shard_for(job), after.shard_for(job)
            if old != new:
                # Every moved key moves *to* a new shard; the old shards
                # never exchange keys among themselves.
                assert new >= n_shards, (job, old, new)

    def test_shrinking_only_pushes_keys_off_removed_shards(self):
        before = HashRing(5, replicas=32)
        after = HashRing(3, replicas=32)
        moved = 0
        for job in JOBS:
            old, new = before.shard_for(job), after.shard_for(job)
            if old != new:
                assert old >= 3, (job, old, new)
                moved += 1
        assert moved == sum(1 for job in JOBS if before.shard_for(job) >= 3)
        assert 0 < moved < len(JOBS)


# --------------------------------------------------------------------- #
# end to end: a live reshard routes like the ring; a same-count one is a no-op
# --------------------------------------------------------------------- #
class TestLiveReshard:
    def test_same_count_reshard_mid_stream_is_a_no_op(self, service_config):
        from repro.service import ShardedService
        from repro.workloads import synthetic_flush_streams
        from test_resharding import (
            assert_bit_identical,
            pump_service,
            run_reference,
            submit_round,
        )

        streams = synthetic_flush_streams(
            16, flushes_per_job=3, requests_per_flush=8, seed=21
        )
        sharded = ShardedService(2, service_config)
        ledger = UpdateLedger(sharded.publisher)
        try:
            submit_round(sharded, streams, 0)
            pump_service(sharded)
            summary = sharded.reshard(3)
            assert summary["to_shards"] == 3
            ring = sharded.ring
            expected_ring = HashRing(3)
            for job in streams:
                assert sharded.shard_for(job) == expected_ring.shard_for(job)
            again = sharded.reshard(3)
            assert again["from_shards"] == again["to_shards"] == 3
            assert again["moved_sessions"] == 0 and len(again["moved_jobs"]) == 0
            assert sharded.ring is ring
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
# hash-seed determinism (subprocess matrix) at a non-default replica count
# --------------------------------------------------------------------- #
_RING_SCRIPT = """
import json
from repro.service import HashRing

jobs = [f"job-{i:04d}" for i in range(300)]
rings = {n: HashRing(n, replicas=32) for n in (3, 4)}
out = {
    "owners": {str(n): [ring.shard_for(j) for j in jobs] for n, ring in rings.items()},
    "moves": sorted(j for j in jobs if rings[3].shard_for(j) != rings[4].shard_for(j)),
}
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeedDeterminism:
    def test_routing_at_32_replicas_identical_across_hash_seeds(self):
        results = []
        for seed in ("0", "1", "314159"):
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
                timeout=60,
            )
            results.append(json.loads(proc.stdout))
        assert results[0] == results[1] == results[2]
        # ... and the 3 -> 4 growth moved keys only onto shard 3.
        before, after = HashRing(3, replicas=32), HashRing(4, replicas=32)
        assert results[0]["moves"]
        for job in results[0]["moves"]:
            assert before.shard_for(job) != 3
            assert after.shard_for(job) == 3
