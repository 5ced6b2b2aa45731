#!/usr/bin/env python3
"""The TCP gateway and the unified ``repro.api`` surface, end to end.

One :func:`repro.api.serve` call stands up the whole stack — a 2-shard
prediction service behind the TCP gateway — and two
:class:`~repro.client.ServiceClient` connections drive it over loopback: a
*producer* streams four applications' flushes as FTS1 frames and pumps, and
a *monitor* subscribes and watches the live predictions arrive as push
events.  Everything on the wire is the typed, versioned control-plane
protocol of ``repro.service.protocol`` (spec: ``docs/protocol.md``).

Run with::

    python examples/gateway_client.py
"""

from __future__ import annotations

import repro.api as api
from repro.trace.jsonl import trace_to_flushes
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace

TOKEN = 0xA  # tenant/auth nibble: required in the handshake and on every frame


def main() -> None:
    # --- 1. four applications with different true periods ------------------ #
    jobs = {}
    for j in range(4):
        trace = hacc_io_trace(
            ranks=8, loops=10, period=6.0 + 2.0 * j, first_phase_delay=4.0, seed=70 + j
        )
        jobs[f"app-{j}"] = (trace, trace_to_flushes(trace, hacc_flush_times(trace)))
    print("4 applications, true mean periods: "
          + ", ".join(f"{job}={t.ground_truth.average_period():.2f}s"
                      for job, (t, _) in jobs.items()))

    # --- 2. one config, one serve() ---------------------------------------- #
    config = (
        api.ReproConfig(shards=2, token=TOKEN, max_samples=50_000)
        .with_analysis(sampling_frequency=10.0, use_autocorrelation=False,
                       compute_characterization=False)
    )
    with api.serve(config) as gateway:
        # --- 3. a monitor subscribes, a producer streams ------------------- #
        monitor = api.connect(gateway.address, token=TOKEN, name="monitor")
        monitor.subscribe()
        print(f"gateway listening on {gateway.address} "
              f"(protocol v{monitor.protocol_version}, {monitor.shards} shards)")

        with api.connect(gateway.address, token=TOKEN, name="producer") as producer:
            n_rounds = max(len(flushes) for _, flushes in jobs.values())
            for round_index in range(n_rounds):
                for job, (_, flushes) in jobs.items():
                    if round_index < len(flushes):
                        producer.submit_flush(job, flushes[round_index])
                producer.pump()
            producer.drain()
            stats = producer.stats()

        events = monitor.poll_predictions(timeout=5.0, min_events=stats["detections"])
        print(f"\n{stats['shards']} shards, {stats['flushes']} flushes, "
              f"{stats['detections']} detections; monitor received "
              f"{len(events)} push events\n")

        print("job     latest period [s]  (true)")
        latest = {}
        for event in events:
            latest[event.job] = event
        for job, (trace, _) in jobs.items():
            update = latest[job]
            print(f"{job:7} {update.period:17.2f}  "
                  f"({trace.ground_truth.average_period():.2f})")

        monitor.close()
    print("\ngateway and shards shut down cleanly.")


if __name__ == "__main__":
    main()
