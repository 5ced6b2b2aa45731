#!/usr/bin/env python3
"""The streaming prediction service end to end.

Four concurrent (simulated) applications flush their I/O measurements as
length-prefixed frames into one shared spool file — the multi-tenant analogue
of the single-job online mode of ``examples/online_prediction.py``.  The
prediction service tails the spool, demultiplexes the frames into per-job
bounded-memory sessions, evaluates FTIO after every flush, and publishes the
per-job period predictions live.  The example then snapshots the service,
restores it (simulating a crash + recovery), and shows the restored instance
answering identically.

Run with::

    python examples/streaming_service.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import FtioConfig
from repro.service import PredictionService, ServiceConfig, SessionConfig
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.trace.framing import FrameWriter
from repro.trace.jsonl import trace_to_flushes
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        run(Path(directory))


def run(directory: Path) -> None:
    # --- 1. four applications write framed flushes into one spool ---------- #
    spool = directory / "flushes.fts"
    writer = FrameWriter(spool)

    jobs = {}
    for j in range(4):
        trace = hacc_io_trace(
            ranks=16, loops=10, period=6.0 + 2.0 * j, first_phase_delay=4.0, seed=70 + j
        )
        jobs[f"app-{j}"] = (trace, trace_to_flushes(trace, hacc_flush_times(trace)))

    print(f"4 applications, true mean periods: "
          + ", ".join(f"{job}={t.ground_truth.average_period():.2f}s"
                      for job, (t, _) in jobs.items()))

    # --- 2. the service tails the spool and predicts live ------------------ #
    service = PredictionService(
        ServiceConfig(
            session=SessionConfig(
                config=FtioConfig(sampling_frequency=10.0, use_autocorrelation=False,
                                  compute_characterization=False),
                max_samples=50_000,
            ),
        )
    )
    updates: list = []
    service.publisher.subscribe(updates.append)
    reader = service.tail_file(spool)

    n_rounds = max(len(flushes) for _, flushes in jobs.values())
    for round_index in range(n_rounds):
        # Applications flush concurrently (interleaved appends)...
        for job, (_, flushes) in jobs.items():
            if round_index < len(flushes):
                writer.write(flushes[round_index], job=job)
        # ... the service picks the new frames up and evaluates what is due.
        reader.poll()
        service.pump()

    print(f"\nspool: {writer.frames_written} frames, {writer.bytes_written / 1e6:.1f} MB; "
          f"{len(updates)} predictions published\n")
    print("job     flushes  resident  evicted  latest period [s]")
    for job, (trace, _) in jobs.items():
        session = service.session(job)
        period = service.publisher.latest_period(job)
        print(f"{job:7}  {session.ingested_flushes:6d}  {session.resident_samples:8d}"
              f"  {session.evicted_samples:7d}  {period:12.2f}"
              f"   (true {trace.ground_truth.average_period():.2f})")

    # --- 3. crash recovery: snapshot, restore, same answers ---------------- #
    snapshot_path = save_snapshot(service, directory / "service.snapshot")
    restored = load_snapshot(snapshot_path, config=service.config)
    print(f"\nsnapshot: {snapshot_path.stat().st_size / 1e6:.2f} MB -> restored "
          f"{len(restored.jobs)} sessions")
    for job in jobs:
        assert restored.publisher.latest_period(job) == service.publisher.latest_period(job)
    print("restored service answers identically — ready to keep ingesting.")
    service.close()
    restored.close()


if __name__ == "__main__":
    main()
