"""Smoke tests of the gateway's HTTP ops surface.

A plain ``urllib`` client (what a health checker or Prometheus scraper is,
at heart) hits ``/healthz``, ``/status`` and ``/metrics`` on a live sharded
deployment and asserts the responses are well-formed: valid JSON with the
full stats tree, and text exposition carrying the merged cross-shard
histograms the tentpole promises (dispatcher latency, kernel stage time,
ring occupancy).
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import FtioConfig
from repro.service import ServiceConfig, SessionConfig, ShardedService, ThreadedGateway
from repro.service.transport import HANDSHAKE_TIMEOUT
from repro.trace.framing import encode_frame
from repro.workloads import synthetic_flush_streams

N_SHARDS = 4


@pytest.fixture(scope="module")
def live_gateway():
    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        )
    )
    streams = synthetic_flush_streams(8, flushes_per_job=3, requests_per_flush=16, seed=3)
    service = ShardedService(N_SHARDS, config)
    try:
        with ThreadedGateway(service, ops_port=0) as gateway:
            for round_index in range(3):
                for job, flushes in streams.items():
                    if round_index < len(flushes):
                        service.feed_bytes(encode_frame(flushes[round_index], job=job))
                service.pump()
            service.drain()
            yield gateway
    finally:
        service.close()


def fetch(gateway, path: str) -> tuple[int, str, str]:
    url = f"http://127.0.0.1:{gateway.ops_port}{path}"
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def test_healthz_is_a_cheap_liveness_probe(live_gateway):
    status, content_type, body = fetch(live_gateway, "/healthz")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert body == "ok\n"


def test_status_returns_the_full_json_tree(live_gateway):
    status, content_type, body = fetch(live_gateway, "/status")
    assert status == 200
    assert content_type.startswith("application/json")
    document = json.loads(body)
    assert document["healthy"] is True
    assert document["shards"] == N_SHARDS
    assert document["stats"]["jobs"] == 8
    assert document["stats"]["detections"] > 0
    # The merged metric tree rides along, as does the per-shard breakdown.
    assert "repro_dispatcher_detect_seconds" in document["metrics"]
    assert [entry["shard"] for entry in document["shards_detail"]] == list(range(N_SHARDS))
    assert all(entry["alive"] for entry in document["shards_detail"])
    assert sum(entry["jobs"] for entry in document["shards_detail"]) == 8
    assert document["spans"] == []  # spans are off by default


def test_metrics_returns_prometheus_exposition(live_gateway):
    status, content_type, body = fetch(live_gateway, "/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    assert body.endswith("\n")
    # Merged cross-shard histograms: dispatcher latency, kernel stage time.
    assert "# TYPE repro_dispatcher_detect_seconds histogram" in body
    assert "repro_dispatcher_detect_seconds_bucket{le=" in body
    assert 'repro_batch_kernel_stage_seconds_bucket{stage="rfft",le=' in body
    # Router-side ring instrumentation, one series per shard.
    assert 'repro_ring_occupancy_bytes{shard="0"}' in body
    assert 'repro_ring_doorbell_sends_total{shard="3"}' in body
    # Counters summed over shards agree with the stats tree.
    frames_line = next(
        line for line in body.splitlines() if line.startswith("repro_broker_frames_total")
    )
    assert int(frames_line.rsplit(" ", 1)[1]) == 24  # 8 jobs x 3 flushes
    # Every exposition line is "name{labels} value" or a comment.
    for line in body.splitlines():
        assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2


def test_unknown_path_is_a_404_and_leaves_the_listener_alive(live_gateway):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch(live_gateway, "/nope")
    assert excinfo.value.code == 404
    status, _, _ = fetch(live_gateway, "/healthz")
    assert status == 200


def test_ops_port_is_none_until_the_listener_binds():
    # With ops_port=0 (pick a free port) the property must never echo the
    # requested placeholder back: before start it is None, after start it is
    # the real bound port, and with the surface off it stays None.
    from repro.service import PredictionService

    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        )
    )
    engine = PredictionService(config)
    unbound = ThreadedGateway(engine, ops_port=0)
    assert unbound.ops_port is None
    with unbound as gateway:
        port = gateway.ops_port
        assert port is not None and port > 0
        status, _, _ = fetch(gateway, "/healthz")
        assert status == 200
    engine.close()


def test_ops_port_is_none_when_the_surface_is_off():
    from repro.service import PredictionService

    config = ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        )
    )
    with ThreadedGateway(PredictionService(config), own_engine=True) as gateway:
        assert gateway.ops_port is None


def _handler_threads() -> int:
    # socketserver.ThreadingMixIn runs each connection in a thread whose
    # target is ``process_request_thread``; Python puts that in the name.
    return sum("process_request_thread" in thread.name for thread in threading.enumerate())


def test_a_peer_that_never_finishes_its_request_is_hung_up_on(monkeypatch):
    """Each ops connection holds a thread; a silent or half-spoken peer gets
    the read timeout, not the thread for as long as TCP keeps the socket."""
    from repro.service import PredictionService
    from repro.service import gateway as gateway_module

    # What production runs with, then the same mechanism with a wait a test
    # can afford: the stdlib handler reads the class attribute per connection.
    assert gateway_module._OpsHandler.timeout == HANDSHAKE_TIMEOUT
    monkeypatch.setattr(gateway_module._OpsHandler, "timeout", 0.3)
    baseline = _handler_threads()
    with ThreadedGateway(PredictionService(ServiceConfig()), ops_port=0, own_engine=True) as gateway:
        address = ("127.0.0.1", gateway.ops_port)
        with socket.create_connection(address) as silent, socket.create_connection(
            address
        ) as half:
            half.sendall(b"GET /hea")
            # Both are being waited on; the surface still answers others.
            status, _, body = fetch(gateway, "/healthz")
            assert (status, body) == (200, "ok\n")
            assert _handler_threads() >= baseline + 2
            for peer in (silent, half):
                peer.settimeout(10.0)
                assert peer.recv(1024) == b""  # hung up on, nothing sent
        deadline = time.monotonic() + 10.0
        while _handler_threads() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _handler_threads() == baseline
        status, _, _ = fetch(gateway, "/healthz")
        assert status == 200
