#!/usr/bin/env python3
"""The sharded multi-process prediction service end to end.

Eight concurrent (simulated) applications write authenticated FTS1 frames
into one rotating spool file.  A 4-shard :class:`ShardedService` tails the
spool: the parent router classifies each frame from its header alone and
forwards the raw bytes to the subprocess shard that owns the job
(consistent hashing), where a full prediction service evaluates it.  The
example then murders one shard with SIGKILL mid-stream and shows the
recovery path — ``revive_shard`` restores the lost sessions from the last
checkpoint (the last merged snapshot), replays the spool tail written since,
and the service keeps serving — ending with the same predictions a
crash-free run produces.  After the checkpoint, ``compact_spools`` unlinks
the rotated spool generations it covers; the live spool is never rewritten.

Run with::

    python examples/sharded_service.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import FtioConfig
from repro.service import ServiceConfig, SessionConfig, ShardedService
from repro.trace.framing import FrameWriter
from repro.trace.jsonl import trace_to_flushes
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace

TOKEN = 0xA  # wire-level tenant/auth nibble, stamped on every frame


def main() -> None:
    # --- 1. eight applications share one authenticated, rotating spool ----- #
    directory = Path(tempfile.mkdtemp())
    spool = directory / "flushes.fts"
    writer = FrameWriter(spool, token=TOKEN, max_bytes=2_000_000)

    jobs = {}
    for j in range(8):
        trace = hacc_io_trace(
            ranks=2, loops=8, period=5.0 + 1.5 * j, first_phase_delay=4.0, seed=70 + j
        )
        jobs[f"app-{j}"] = (trace, trace_to_flushes(trace, hacc_flush_times(trace)))

    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(sampling_frequency=10.0, use_autocorrelation=False,
                              compute_characterization=False),
            max_samples=50_000,
        ),
        token=TOKEN,
    )

    # --- 2. a 4-shard service tails the spool ------------------------------ #
    service = ShardedService(4, config)
    tail = service.tail_file(spool)
    owners = {job: service.shard_for(job) for job in jobs}
    print("job -> shard:", ", ".join(f"{job}:{shard}" for job, shard in owners.items()))

    n_rounds = max(len(flushes) for _, flushes in jobs.values())

    def stream_round(round_index: int) -> None:
        for job, (_, flushes) in jobs.items():
            if round_index < len(flushes):
                writer.write(flushes[round_index], job=job)
        tail.poll()
        service.pump()

    third = n_rounds // 3
    for round_index in range(third):
        stream_round(round_index)

    # --- 3. checkpoint, then kill -9 a shard mid-stream -------------------- #
    service.snapshot_state()  # also records the tail's rotation-proof position
    retired = service.compact_spools()  # whole generations behind the checkpoint
    print(f"\ncheckpoint taken; retired {sum(map(len, retired.values()))} rotated spool "
          f"generations it covers")
    for round_index in range(third, 2 * third):
        stream_round(round_index)

    victim = owners["app-0"]
    service.kill_shard(victim)
    print(f"\nshard {victim} kill -9'd mid-stream; dead shards: {service.dead_shards()}")

    replayed = service.revive_shard(victim)
    print(f"revived shard {victim}: sessions restored from snapshot, "
          f"{replayed} spool-tail frames replayed")

    for round_index in range(2 * third, n_rounds):
        stream_round(round_index)
    service.drain()

    # --- 4. aggregated state ----------------------------------------------- #
    broker = service.broker_stats
    dispatch = service.dispatcher_stats
    print(f"\nspool: {writer.frames_written} frames, {writer.rotations} rotations; "
          f"{broker.jobs} jobs, {broker.flushes} flushes, "
          f"{dispatch.completed} detections, {dispatch.failures} failures\n")
    print("job     shard  latest period [s]  (true)")
    for job, (trace, _) in jobs.items():
        period = service.publisher.latest_period(job)
        true = trace.ground_truth.average_period()
        shown = f"{period:17.2f}" if period is not None else f"{'-':>17}"
        print(f"{job:7} {owners[job]:5d}  {shown}  ({true:.2f})")

    service.close()
    print("\nall shards shut down cleanly.")


if __name__ == "__main__":
    main()
