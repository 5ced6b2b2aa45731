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

    ``weights`` makes the ring heterogeneous: shard ``i`` places
    ``round(replicas * weights[i])`` points (at least one), so its expected
    arc share is proportional to its weight — a shard on a host with
    twice the cores can take a double arc.  Replica keys are a per-shard prefix
    (``shard-i-replica-0..k``), so changing *only* the weights adds or
    removes points at each shard's tail: jobs move only into a shard whose
    weight grew or out of one whose weight shrank — minimal movement holds
    for weight changes exactly as it does for count changes
    (``tests/service/test_weighted_ring.py`` pins both properties).
    """

    def __init__(
        self,
        n_shards: int,
        *,
        replicas: int = 64,
        weights: tuple[float, ...] | list[float] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        if weights is None:
            self.weights: tuple[float, ...] | None = None
            counts = [self.replicas] * self.n_shards
        else:
            if len(weights) != self.n_shards:
                raise ValueError(
                    f"weights must have one entry per shard "
                    f"({self.n_shards}), got {len(weights)}"
                )
            if any(w <= 0 for w in weights):
                raise ValueError(f"weights must be > 0, got {tuple(weights)}")
            self.weights = tuple(float(w) for w in weights)
            counts = [max(1, round(self.replicas * w)) for w in self.weights]
        self.replica_counts: tuple[int, ...] = tuple(counts)
        points: list[tuple[int, int]] = []
        for shard, count in enumerate(counts):
            for replica in range(count):
                points.append((self._hash(f"shard-{shard}-replica-{replica}"), shard))
        # (hash, shard) tuples sort lexicographically: equal hash points
        # (rare but possible) tie-break on the shard index, so the ring
        # layout — and therefore every reshard's moved-job set — is
        # identical across processes, Python hash seeds (PYTHONHASHSEED),
        # and grow -> shrink -> grow cycles
        # (tests/service/test_resharding.py pins this in subprocesses).
        points.sort()
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

    def arc_shares(self) -> tuple[float, ...]:
        """Exact fraction of the 64-bit keyspace each shard owns.

        A point at hash ``h`` owns the arc ``(previous_h, h]`` (plus the
        wraparound arc for the first point), which is precisely the keyspace
        :meth:`shard_for` sends to it — the measure the weighted-arc property
        tests assert against, with no sampling noise.
        """
        span = 1 << 64
        shares = [0.0] * self.n_shards
        previous = self._hashes[-1] - span  # wraparound arc of the first point
        for point, owner in zip(self._hashes, self._owners):
            shares[owner] += (point - previous) / span
            previous = point
        return tuple(shares)
