"""Consistent-hash ring: which shard owns which job.

The router routes every frame with it, a migration diffs two rings to find
the jobs that move, and a shard worker rebuilds both rings of a handover
locally — all three agree on ownership without exchanging a job list.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from struct import unpack


class HashRing:
    """Consistent hashing of job ids onto shard indices.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring; a job
    hashes to the first point at or after it.  The mapping is deterministic
    across processes and Python runs (``blake2b``, not ``hash()``), balanced
    to a few percent at 64 replicas, and *consistent*: changing the shard
    count moves only the jobs whose arc changed owner — the property that
    lets a snapshot taken at one shard count restore onto another with
    minimal data movement.
    """

    def __init__(self, n_shards: int, *, replicas: int = 64) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        # (hash, shard) tuples sort lexicographically: equal hash points
        # (rare but possible) tie-break on the shard index, so the ring
        # layout — and therefore every reshard's moved-job set — is
        # identical across processes, Python hash seeds (PYTHONHASHSEED),
        # and grow -> shrink -> grow cycles
        # (tests/service/test_resharding.py pins this in subprocesses).
        points = sorted(
            (self._hash(f"shard-{shard}-replica-{replica}"), shard)
            for shard in range(self.n_shards)
            for replica in range(self.replicas)
        )
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        return unpack(">Q", blake2b(key.encode("utf-8"), digest_size=8).digest())[0]

    def shard_for(self, job: str) -> int:
        """Shard index owning ``job``."""
        position = bisect_right(self._hashes, self._hash(job))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]
