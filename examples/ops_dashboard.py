#!/usr/bin/env python3
"""A live terminal ops dashboard over the gateway's HTTP status surface.

A 4-shard :class:`ShardedService` runs behind a :class:`ThreadedGateway`
with ``ops_port`` enabled, and twelve simulated applications stream flushes
at it round by round.  Meanwhile this script does exactly what an external
dashboard (or a ``curl`` loop) would do: poll ``GET /status`` over plain
HTTP and render the merged tree — jobs/sec, failed detections, the
cross-shard p99 detection latency (read from the merged
``repro_dispatcher_detect_seconds`` histogram), and per-shard session
counts.  No client library, no repro imports on the "dashboard" side of
the HTTP boundary: the observer only speaks JSON.

Run with::

    python examples/ops_dashboard.py
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro.core import FtioConfig
from repro.obs import Histogram
from repro.service import ServiceConfig, SessionConfig, ShardedService, ThreadedGateway
from repro.trace.framing import encode_frame
from repro.trace.jsonl import trace_to_flushes
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace

N_JOBS = 12
N_SHARDS = 4


def poll_status(ops_port: int) -> dict:
    """What any external dashboard does: one HTTP GET, one JSON document."""
    with urllib.request.urlopen(f"http://127.0.0.1:{ops_port}/status", timeout=30) as resp:
        return json.loads(resp.read())


def detect_p99_ms(status: dict) -> float | None:
    """Cross-shard p99 from the merged detect-latency histogram."""
    entry = status["metrics"].get("repro_dispatcher_detect_seconds")
    if not entry or not entry["series"]:
        return None
    hist = Histogram.from_dict(entry["series"][0]["hist"])
    if hist.count == 0:
        return None
    return hist.quantile(0.99) * 1e3


def render(status: dict, jobs_per_second: float) -> str:
    stats = status["stats"]
    p99 = detect_p99_ms(status)
    lines = [
        f"[{status['server']}] shards={status['shards']} "
        f"jobs={stats['jobs']} detections={stats['detections']} "
        f"published={stats['published']}",
        f"  throughput {jobs_per_second:7.1f} jobs/s   failures {stats['failures']:3d}   "
        f"p99 detect {'n/a' if p99 is None else f'{p99:.2f} ms'}",
    ]
    shard_line = "   ".join(
        f"shard {entry['shard']}: {entry['jobs']} jobs"
        + ("" if entry["alive"] else " (DEAD)")
        for entry in status["shards_detail"]
    )
    lines.append(f"  {shard_line}")
    return "\n".join(lines)


def main() -> None:
    jobs = {}
    for j in range(N_JOBS):
        trace = hacc_io_trace(
            ranks=2, loops=10, period=4.0 + 1.1 * j, first_phase_delay=3.0, seed=700 + j
        )
        jobs[f"app-{j}"] = trace_to_flushes(trace, hacc_flush_times(trace))
    n_rounds = min(len(flushes) for flushes in jobs.values())

    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        ),
    )
    service = ShardedService(N_SHARDS, config)
    try:
        # ops_port=0 picks a free port; a deployment would pin one (e.g. 9901).
        with ThreadedGateway(service, ops_port=0) as gateway:
            print(f"ops surface: http://127.0.0.1:{gateway.ops_port}/status\n")
            for round_index in range(n_rounds):
                round_started = time.perf_counter()
                for job, flushes in jobs.items():
                    service.feed_bytes(encode_frame(flushes[round_index], job=job))
                service.pump()
                elapsed = time.perf_counter() - round_started
                status = poll_status(gateway.ops_port)
                print(f"round {round_index + 1}/{n_rounds}")
                print(render(status, N_JOBS / elapsed if elapsed > 0 else 0.0))
            service.drain()

            status = poll_status(gateway.ops_port)
            print("\nfinal state")
            print(render(status, 0.0))
            with urllib.request.urlopen(
                f"http://127.0.0.1:{gateway.ops_port}/metrics", timeout=30
            ) as resp:
                exposition = resp.read().decode()
            interesting = [
                line
                for line in exposition.splitlines()
                if line.startswith(("repro_broker_frames_total",
                                    "repro_dispatcher_detect_seconds_count",
                                    "repro_ring_stalls_total"))
            ]
            print("\nselected /metrics lines (Prometheus exposition):")
            for line in interesting:
                print(f"  {line}")
    finally:
        service.close()


if __name__ == "__main__":
    main()
