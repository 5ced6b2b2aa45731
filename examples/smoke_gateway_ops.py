#!/usr/bin/env python3
"""Smoke check of the gateway's HTTP ops surface and of its shutdown.

Boots a real 2-shard service behind a gateway with ``ops_port`` on, ingests a
little traffic while a second thread scrapes ``/status`` the whole time (reads
never share a channel with a pump: every response is a 200), and validates the
HTTP surface end to end with a stock ``urllib`` client — exposition lines
included.  The gateway is then closed under a subscribed client and a raw
socket that never said ``Hello``: the exit is prompt and leaves no gateway
thread.  CI runs this file; ``tests/test_smoke_examples.py`` runs its
:func:`main`.

Run with::

    PYTHONPATH=src python examples/smoke_gateway_ops.py
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

from repro.client import ServiceClient
from repro.core import FtioConfig
from repro.service import ServiceConfig, SessionConfig, ShardedService, ThreadedGateway
from repro.trace.framing import encode_frame
from repro.workloads import synthetic_flush_streams


def main() -> None:
    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        )
    )
    rounds = 12
    streams = synthetic_flush_streams(4, flushes_per_job=rounds, requests_per_flush=16, seed=1)
    service = ShardedService(2, config)
    try:
        with ThreadedGateway(service, ops_port=0) as gateway:
            base = f"http://127.0.0.1:{gateway.ops_port}"
            scraped: list = []
            done = threading.Event()

            def scrape() -> None:
                while not done.is_set():
                    try:
                        with urllib.request.urlopen(base + "/status") as response:
                            scraped.append(response.status)
                    except Exception as exc:  # a 500 raises HTTPError
                        scraped.append(exc)

            scraper = threading.Thread(target=scrape)
            scraper.start()
            try:
                for round_index in range(rounds):
                    for job, flushes in streams.items():
                        service.feed_bytes(encode_frame(flushes[round_index], job=job))
                    service.pump()
                service.drain()
            finally:
                done.set()
                scraper.join(timeout=60)
            assert not scraper.is_alive()
            assert scraped and all(code == 200 for code in scraped), scraped
            assert urllib.request.urlopen(base + "/healthz").read() == b"ok\n"
            status = json.loads(urllib.request.urlopen(base + "/status").read())
            assert status["healthy"] and status["shards"] == 2
            text = urllib.request.urlopen(base + "/metrics").read().decode()
            assert "# TYPE repro_dispatcher_detect_seconds histogram" in text
            assert "repro_dispatcher_detect_seconds_bucket{le=" in text
            assert "repro_broker_frames_total" in text
            assert "repro_gateway_dropped_subscribers_total 0" in text
            print("ops surface smoke OK")
            monitor = ServiceClient(gateway.host, gateway.port, name="monitor")
            monitor.subscribe()
            silent = socket.create_connection((gateway.host, gateway.port))
            closing = time.monotonic()
        closed_in = time.monotonic() - closing
        left = [t.name for t in threading.enumerate() if t.name.startswith("repro-gateway")]
        assert closed_in < 2.0, f"gateway close took {closed_in:.1f}s"
        assert not left, left
        silent.settimeout(10.0)
        try:
            assert silent.recv(1024) == b""
        except ConnectionResetError:  # still in the backlog at close()
            pass
        silent.close()
        monitor._closed = True
        monitor._sock.close()
        print(f"gateway closed in {closed_in * 1e3:.0f} ms, no thread left")
    finally:
        service.close()


if __name__ == "__main__":
    main()
