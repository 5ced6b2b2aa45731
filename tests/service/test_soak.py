"""Seeded-random soak test of the sharded service (nightly CI job).

64 jobs of mixed JSONL/MessagePack traffic stream through a 4-shard service
for a wall-clock budget (default 60 s, ``REPRO_SOAK_SECONDS`` overrides).
The assertion is the bounded-memory contract scaled out: aggregate resident
samples must stay O(window) — flat over time — exactly as the single-session
tests assert, no matter how long the run or how many tenants.

Opt-in: set ``REPRO_SOAK=1`` (the CI soak job does).  The test is also
marked ``slow`` so explicit deselection works locally (``-m "not slow"``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import FtioConfig
from repro.service import ServiceConfig, SessionConfig, ShardedService
from repro.trace.framing import encode_frame
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest

N_JOBS = 64
N_SHARDS = 4
MAX_SAMPLES = 2_048

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    ),
]


def soak_seconds() -> float:
    return float(os.environ.get("REPRO_SOAK_SECONDS", "60"))


def make_flush(rng: np.random.Generator, index: int, period: float) -> FlushRecord:
    start = index * period
    n = int(rng.integers(4, 12))
    starts = start + rng.uniform(0.0, period / 8.0, size=n)
    starts.sort()
    requests = tuple(
        IORequest(
            rank=int(rng.integers(0, 8)),
            start=float(s),
            end=float(s + rng.uniform(0.01, period / 16.0)),
            nbytes=int(rng.integers(1 << 10, 1 << 22)),
        )
        for s in starts
    )
    return FlushRecord(flush_index=index, timestamp=float(start + period / 4.0), requests=requests)


def test_sharded_soak_memory_stays_bounded():
    rng = np.random.default_rng(2026)
    periods = {f"job-{j:03d}": float(rng.uniform(4.0, 16.0)) for j in range(N_JOBS)}
    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            ),
            max_samples=MAX_SAMPLES,
        ),
        token=6,
    )
    service = ShardedService(N_SHARDS, config)
    resident_over_time: list[int] = []
    deadline = time.monotonic() + soak_seconds()
    round_index = 0
    try:
        while time.monotonic() < deadline:
            for job, period in periods.items():
                service.feed_bytes(
                    encode_frame(make_flush(rng, round_index, period), job=job, token=6)
                )
            service.pump()
            stats = service.stats()
            resident_over_time.append(int(stats["resident_samples"]))
            round_index += 1
        service.drain()
        final = service.stats()
        assert final["jobs"] == N_JOBS
        assert final["detections"] > 0
        assert final["dead_shards"] == 0
    finally:
        service.close()

    assert round_index >= 8, "the soak must complete a meaningful number of rounds"
    # Hard cap: aggregate residency can never exceed N_JOBS * max_samples.
    assert max(resident_over_time) <= N_JOBS * MAX_SAMPLES
    # No growth: once warmed up (first half), the high-water mark of the
    # second half must not exceed the first half's by more than 10 % — the
    # adaptive windows and eviction keep per-session memory O(window) even
    # as total ingested data grows without bound.
    half = len(resident_over_time) // 2
    warm = max(resident_over_time[:half])
    late = max(resident_over_time[half:])
    assert late <= 1.10 * warm, (
        f"resident samples grew from {warm} (first half) to {late} (second half)"
    )
