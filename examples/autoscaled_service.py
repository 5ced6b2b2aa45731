#!/usr/bin/env python3
"""Autoscaling and zero-pause migration, end to end.

Two acts:

1. **Zero-pause migration** — a local :class:`ShardedService` grows 2 → 4
   while fresh flushes for the *moving* jobs are submitted inside the
   migration window.  Each frame is double-routed: ingested immediately by
   its old owner, with a twin staged at the new owner for deduplicated
   replay, so the submit pause is one route call.  The example prints the
   pause distribution.

2. **Autoscaling** — ``api.serve(config.with_(autoscale=AutoscaleConfig(...)))``
   fronts a 1-shard service with a supervision thread that watches
   sessions/shard and p99 detection latency.  A burst of 24 jobs drives the shard count to the ceiling; finishing and
   reaping the jobs drains it back to the floor.  The live shard-count
   timeline and the autoscaler's decision log are read from ``GET /status``
   the whole way.

Run with::

    python examples/autoscaled_service.py
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro import api
from repro.core import FtioConfig
from repro.service import (
    AutoscaleConfig,
    HashRing,
    ServiceConfig,
    SessionConfig,
    ShardedService,
)
from repro.workloads import synthetic_flush_streams

SERVICE_CONFIG = ServiceConfig(
    session=SessionConfig(
        config=FtioConfig(
            sampling_frequency=10.0,
            use_autocorrelation=False,
            compute_characterization=False,
        )
    ),
)


def migration_pause_demo() -> None:
    """Grow 2 -> 4 live, submitting for the moving jobs mid-migration."""
    streams = synthetic_flush_streams(16, flushes_per_job=2, requests_per_flush=8, seed=3)
    moving = [
        job for job in streams if HashRing(2).shard_for(job) != HashRing(4).shard_for(job)
    ]
    print(f"16 warm jobs on 2 shards; growing to 4 moves {len(moving)} of them.\n")

    service = ShardedService(2, SERVICE_CONFIG)
    pauses: list[float] = []

    def on_phase(phase: str) -> None:
        if phase != "parked":
            return
        for job in moving:
            started = time.perf_counter()
            service.ingest_flush(job, streams[job][1])
            pauses.append(time.perf_counter() - started)

    try:
        for job, flushes in streams.items():
            service.ingest_flush(job, flushes[0])
        service.pump()
        service.reshard(4, on_phase=on_phase)
        service.pump()
        service.drain()
        routed = service.stats()["double_routed_frames"]
        print(f"  double-routed frames counted by the router: {routed}")
    finally:
        service.close()

    pauses.sort()
    p50 = pauses[len(pauses) // 2]
    print(
        f"  pause for a mid-migration submit: "
        f"p50 {p50 * 1e3:7.3f} ms, worst {pauses[-1] * 1e3:7.3f} ms"
    )
    print()


def status_of(base: str) -> dict:
    with urllib.request.urlopen(base + "/status") as response:
        return json.loads(response.read())


def autoscaled_ramp_demo() -> None:
    """Serve with an autoscaler and watch /status while the load ramps."""
    autoscale = AutoscaleConfig(
        min_shards=1,
        max_shards=3,
        interval_seconds=0.1,
        cooldown_seconds=0.5,
        high_sessions_per_shard=8.0,
        low_sessions_per_shard=3.0,
        high_p99_latency_seconds=10.0,
        low_p99_latency_seconds=5.0,
    )
    streams = synthetic_flush_streams(24, flushes_per_job=3, requests_per_flush=8, seed=4)
    config = api.ReproConfig(
        analysis=FtioConfig(
            sampling_frequency=10.0,
            use_autocorrelation=False,
            compute_characterization=False,
        ),
        shards=1,
        port=0,
    )
    started = time.perf_counter()
    with api.serve(config.with_(ops_port=0, autoscale=autoscale)) as gateway:
        base = f"http://127.0.0.1:{gateway.ops_port}"
        client = api.connect(gateway.address)

        def watch(until_shards: int, deadline: float = 20.0) -> None:
            last = None
            give_up = time.perf_counter() + deadline
            while time.perf_counter() < give_up:
                document = status_of(base)
                shards = document["shards"]
                decisions = document["autoscale"]["decisions"]
                if shards != last:
                    elapsed = time.perf_counter() - started
                    print(
                        f"  t={elapsed:5.2f}s  shards={shards}  "
                        f"decisions={{grow: {decisions['grow']}, "
                        f"shrink: {decisions['shrink']}, hold: {decisions['hold']}}}"
                    )
                    last = shards
                if shards == until_shards:
                    return
                time.sleep(0.05)
            print(f"  (gave up waiting for shards={until_shards})")

        print("24 jobs burst onto 1 shard (high band: 8 sessions/shard):")
        for job, flushes in streams.items():
            client.submit_flush(job, flushes[0])
        client.pump()
        watch(until_shards=autoscale.max_shards)

        print("finishing 22 of 24 jobs, reaping their sessions:")
        for job in sorted(streams)[:-2]:
            client.finish_job(job)
        client.drain()
        reaped = gateway.engine.reap_finished()
        print(f"  reaped {len(reaped)} sessions; remaining load is 2 jobs")
        watch(until_shards=autoscale.min_shards)

        document = status_of(base)
        print("\nautoscaler decision log (from GET /status):")
        for entry in document["autoscale"]["timeline"]:
            print(
                f"  {entry['action']:6} {entry['from_shards']} -> {entry['to_shards']}"
                f"  ({entry['reason']})"
            )
        client.close()
    print("\ngateway and autoscaler shut down cleanly.")


def main() -> None:
    print("=== Act 1: zero-pause migration ===\n")
    migration_pause_demo()
    print("=== Act 2: autoscaled service ===\n")
    autoscaled_ramp_demo()


if __name__ == "__main__":
    main()
