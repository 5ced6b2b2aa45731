#!/usr/bin/env python3
"""Smoke check of multi-host federation over loopback.

Two real ``python -m repro.shard`` processes dial home over TCP, both shard
slots are placed ``"remote"``, traffic flows, heartbeats answer, and a
``kill -9`` of one worker is convicted and revived (local-fork fallback).
Leaving the service block must really close the dial-home listener — not a
join that times out.  CI runs this file; ``tests/test_smoke_examples.py``
runs its :func:`main`.

Run with::

    PYTHONPATH=src python examples/smoke_federation.py
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
import warnings
from pathlib import Path

import repro
from repro.core import FtioConfig
from repro.exceptions import ShardCrashedError
from repro.service import ServiceConfig, SessionConfig, ShardedService
from repro.workloads import synthetic_flush_streams


def main() -> None:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    # The workers import the same ``repro`` this process did, wherever the
    # caller's PYTHONPATH pointed (and whatever its working directory is).
    source_root = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=source_root + (os.pathsep + inherited if inherited else ""),
    )
    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.shard",
                "--connect", f"127.0.0.1:{port}",
                "--token", "9", "--name", f"ci-w{i}",
            ],
            env=env,
        )
        for i in range(2)
    ]
    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        ),
        token=9,
        shard_port=port,
    )
    streams = synthetic_flush_streams(8, flushes_per_job=4, requests_per_flush=16, seed=3)
    try:
        with ShardedService(2, config, placement=["remote", "remote"]) as service:
            details = service.shard_details()
            assert all(d["remote"] for d in details), details
            for job, flushes in streams.items():
                for flush in flushes[:2]:
                    service.ingest_flush(job, flush)
                service.pump()
            rtts = service.heartbeat()
            assert all(rtt is not None for rtt in rtts.values()), rtts
            stats = service.stats()
            assert stats["flushes"] == 16, stats["flushes"]
            service.snapshot_state()  # the checkpoint revive_shard restores
            service.kill_shard(0)
            try:
                for job, flushes in streams.items():
                    service.ingest_flush(job, flushes[2])
                    service.pump()
                raise AssertionError("kill -9 went undetected")
            except ShardCrashedError:
                pass
            service._supervisor.remote_timeout = 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                service.revive_shard(0)
            for job, flushes in streams.items():
                for flush in flushes[2:]:
                    service.ingest_flush(job, flush)
            service.drain()
            for job in streams:
                assert service.publisher.latest_period(job) is not None
            closing = time.monotonic()
        # Leaving the block is service.close(): shards retired, the
        # dial-home listener really closed — not a join that times out.
        closed_in = time.monotonic() - closing
        assert closed_in < 2.0, closed_in
        print("federation smoke OK:", rtts, f"closed in {closed_in:.2f}s")
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()


if __name__ == "__main__":
    main()
