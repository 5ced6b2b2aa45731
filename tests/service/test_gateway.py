"""End-to-end tests of the TCP gateway and the blocking client.

The acceptance criterion of the API redesign: streaming N concurrent jobs
through the TCP gateway via :class:`~repro.client.ServiceClient` must
produce **bit-identical** session state and predictions to direct in-process
ingestion — for the single-process engine and for a 2-shard deployment
alike.  On top, the protocol-versioning guarantees are exercised against a
live server: an unknown-version hello is rejected cleanly, and corrupt or
truncated control bytes never deadlock the gateway.
"""

from __future__ import annotations

import socket

import pytest

from repro.client import ServiceClient
from repro.core import FtioConfig
from repro.exceptions import ProtocolError, ServiceError
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
    ThreadedGateway,
)
from repro.service import protocol as proto
from repro.service.transport import Channel
from repro.trace.jsonl import trace_to_flushes
from repro.trace.msgpack import packb, unpackb
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace

N_JOBS = 16


@pytest.fixture(scope="module")
def online_config():
    return FtioConfig(
        sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
    )


@pytest.fixture(scope="module")
def service_config(online_config):
    return ServiceConfig(session=SessionConfig(config=online_config, max_samples=200_000))


@pytest.fixture(scope="module")
def job_streams(online_config):
    """16 concurrent periodic jobs with different periods, phases and sizes."""
    streams = {}
    for j in range(N_JOBS):
        trace = hacc_io_trace(
            ranks=2,
            loops=5,
            period=6.0 + 0.5 * j,
            first_phase_delay=3.0 + 0.25 * j,
            seed=100 + j,
        )
        streams[f"job-{j:02d}"] = trace_to_flushes(trace, hacc_flush_times(trace))
    return streams


def _stream_direct(service, streams) -> dict:
    """Reference run: in-process ingestion, one pump per interleaved round."""
    n_rounds = max(len(flushes) for flushes in streams.values())
    for round_index in range(n_rounds):
        for job, flushes in streams.items():
            if round_index < len(flushes):
                service.ingest_flush(job, flushes[round_index])
        service.pump()
    state = service.snapshot_state()
    service.close()
    return state


def _stream_through_gateway(engine, streams) -> tuple[dict, list]:
    """The same workload, but every byte crosses the TCP gateway."""
    n_rounds = max(len(flushes) for flushes in streams.values())
    with ThreadedGateway(engine, own_engine=True) as gateway:
        with ServiceClient(gateway.host, gateway.port) as client:
            for round_index in range(n_rounds):
                for job, flushes in streams.items():
                    if round_index < len(flushes):
                        assert client.submit_flush(job, flushes[round_index]) == 1
                client.pump()
            state = client.snapshot()
            predictions = client.predictions()
    return state, predictions


def _comparable(state: dict) -> dict:
    """Canonical snapshot form: msgpack-normalized, sessions sorted by job."""
    state = unpackb(packb({k: v for k, v in state.items() if k != "sharding"}))
    state["sessions"] = sorted(state["sessions"], key=lambda s: s["job"])
    return state


class TestGatewayEquivalence:
    def test_single_process_bit_identical(self, service_config, job_streams):
        direct = _stream_direct(PredictionService(service_config), job_streams)
        via_gateway, predictions = _stream_through_gateway(
            PredictionService(service_config), job_streams
        )
        assert _comparable(via_gateway) == _comparable(direct)
        # Every job produced live predictions through the wire.
        assert {p.job for p in predictions} == set(job_streams)
        by_job = {}
        for p in predictions:
            by_job[p.job] = p
        for job, update in by_job.items():
            assert update.period == direct["publisher"]["latest"][job]["period"]

    def test_sharded_bit_identical(self, service_config, job_streams):
        direct = _stream_direct(ShardedService(2, service_config), job_streams)
        via_gateway, predictions = _stream_through_gateway(
            ShardedService(2, service_config), job_streams
        )
        assert _comparable(via_gateway) == _comparable(direct)
        assert {p.job for p in predictions} == set(job_streams)

    def test_sharded_matches_single_process(self, service_config, job_streams):
        # The transitive closure: gateway == direct (above) and shards == 1
        # process, so every surface serves the same predictions.
        single = _stream_direct(PredictionService(service_config), job_streams)
        sharded = _stream_direct(ShardedService(2, service_config), job_streams)
        assert _comparable(sharded) == _comparable(single)


class TestGatewayProtocol:
    @pytest.fixture()
    def gateway(self, service_config):
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gw:
            yield gw

    def test_handshake_reports_version_and_shards(self, gateway):
        with ServiceClient(gateway.host, gateway.port) as client:
            assert client.protocol_version == proto.PROTOCOL_VERSION
            assert client.server == "repro-gateway"
            assert client.shards == 0

    def test_unknown_version_hello_rejected_cleanly(self, gateway):
        # A future generation and the retired v1 and v2 are refused alike.
        for version in (99, 1, 2):
            with socket.create_connection((gateway.host, gateway.port), timeout=10.0) as sock:
                sock.sendall(proto.encode_message(proto.Hello(versions=(version,))))
                reply = self._read_one(sock)
                assert isinstance(reply, proto.Error)
                assert reply.code == "unsupported-version"
                assert str(version) in reply.message
                # The server closes the connection after the rejection.
                assert sock.recv(1024) == b""
            # ... and keeps serving other clients.
            with ServiceClient(gateway.host, gateway.port) as client:
                assert client.stats()["jobs"] == 0

    def test_first_message_must_be_hello(self, gateway):
        with socket.create_connection((gateway.host, gateway.port), timeout=10.0) as sock:
            sock.sendall(proto.encode_message(proto.Pump()))
            reply = self._read_one(sock)
            assert isinstance(reply, proto.Error)
            assert reply.code == "protocol"
            assert sock.recv(1024) == b""

    def test_corrupt_bytes_never_deadlock_the_gateway(self, gateway):
        # A peer spraying garbage gets a typed rejection and a closed socket.
        with socket.create_connection((gateway.host, gateway.port), timeout=10.0) as sock:
            sock.sendall(b"GARBAGE-NOT-A-MESSAGE" * 10)
            reply = self._read_one(sock)
            assert isinstance(reply, proto.Error)
            assert reply.code == "protocol"
            assert sock.recv(1024) == b""
        # A peer sending a truncated message simply stays pending (until the
        # handshake timeout) — and holds up nobody else.
        with socket.create_connection((gateway.host, gateway.port), timeout=10.0) as idle:
            idle.sendall(proto.encode_message(proto.Hello())[:7])
            with ServiceClient(gateway.host, gateway.port) as client:
                assert client.pump() == 0
                assert client.stats()["jobs"] == 0

    def test_engine_errors_keep_the_connection_usable(self, gateway):
        with ServiceClient(gateway.host, gateway.port) as client:
            with pytest.raises(ServiceError, match="snapshot version"):
                client.restore({"snapshot_version": 999, "sessions": []})
            # The failure was scoped to that request, not the connection.
            assert client.stats()["jobs"] == 0

    def test_failed_handshake_closes_the_socket(self, service_config, monkeypatch):
        created = []
        real_connect = socket.create_connection

        def spying_connect(*args, **kwargs):
            sock = real_connect(*args, **kwargs)
            created.append(sock)
            return sock

        monkeypatch.setattr(socket, "create_connection", spying_connect)
        engine = PredictionService(service_config)
        with ThreadedGateway(engine, own_engine=True, token=5) as gw:
            with pytest.raises(ServiceError, match="unauthorized"):
                ServiceClient(gw.host, gw.port, token=9)
        assert len(created) == 1
        # A closed socket reports fileno -1; anything else is a leaked fd.
        assert created[0].fileno() == -1

    def test_resize_to_zero_is_refused_before_it_is_sent(self, gateway):
        with ServiceClient(gateway.host, gateway.port) as client:
            with pytest.raises(ProtocolError, match="n_shards must be >= 1"):
                client.resize(0)
            # Nothing went out, so nobody hung up: the same connection answers.
            assert client.stats()["jobs"] == 0
            assert client.reconnects == 0

    def test_submit_rejects_malformed_frames(self, gateway):
        with ServiceClient(gateway.host, gateway.port) as client:
            with pytest.raises(ServiceError):
                client.submit_bytes(b"NOTFTS1-data-plane-garbage")
            assert client.stats()["jobs"] == 0

    @staticmethod
    def _read_one(sock) -> proto.Message:
        # The channel takes exactly one envelope off the socket, so the
        # caller's next raw read sees what follows it.
        return Channel(sock).recv(10.0)


class TestGatewayFeatures:
    def test_subscription_streams_filtered_predictions(self, service_config, job_streams):
        job, flushes = next(iter(job_streams.items()))
        other_job = list(job_streams)[1]
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            monitor = ServiceClient(gateway.host, gateway.port, name="monitor")
            monitor.subscribe([job])
            with ServiceClient(gateway.host, gateway.port) as driver:
                for flush in flushes[:4]:
                    driver.submit_flush(job, flush)
                    driver.submit_flush(other_job, job_streams[other_job][0])
                    driver.pump()
            events = monitor.poll_predictions(timeout=5.0, min_events=4)
            assert len(events) >= 4
            assert {e.job for e in events} == {job}
            monitor.close()

    def test_snapshot_restore_round_trip_over_the_wire(self, service_config, job_streams):
        job, flushes = next(iter(job_streams.items()))
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                for flush in flushes:
                    client.submit_flush(job, flush)
                    client.pump()
                state = client.snapshot()
                latest = client.stats()
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                assert client.restore(state) == 1
                restored = client.stats()
                assert restored["jobs"] == latest["jobs"] == 1
                # The restored engine answers with the exact same state: the
                # snapshot → wire → restore → snapshot loop is lossless.
                assert client.snapshot() == unpackb(packb(state))

    def test_finish_job_over_the_wire(self, service_config, job_streams):
        job, flushes = next(iter(job_streams.items()))
        engine = PredictionService(service_config)
        with ThreadedGateway(engine, own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                client.submit_flush(job, flushes[0])
                client.finish_job(job)
                client.drain()
                assert engine.session(job).finished

    def test_chunked_snapshot_and_restore_over_the_wire(
        self, service_config, job_streams, monkeypatch
    ):
        job, flushes = next(iter(job_streams.items()))
        streams: list[tuple[str, int]] = []  # (kind, chunks) of every state sent
        slice_state = proto.iter_state_chunks

        def counting(state, *, kind):
            chunks = list(slice_state(state, kind=kind))
            streams.append((kind, len(chunks)))
            return chunks

        # Gateway and client run in this process and read both names off the
        # module at call time.
        monkeypatch.setattr(proto, "iter_state_chunks", counting)
        default_bound = proto.DEFAULT_CHUNK_BYTES
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                # A state that fits the bound is one chunk with last=True ...
                empty = client.snapshot()
                assert streams == [("snapshot", 1)]
                for flush in flushes:
                    client.submit_flush(job, flush)
                    client.pump()
                plain = client.snapshot()
                # ... and a tiny bound forces a genuinely multi-chunk stream.
                assert len(packb(plain)) > 512
                monkeypatch.setattr(proto, "DEFAULT_CHUNK_BYTES", 512)
                chunked = client.snapshot()
                assert streams[-1][1] > len(packb(plain)) // 512
                assert chunked == plain == unpackb(packb(plain))
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                assert client.restore(chunked) == 1
                assert streams[-1][0] == "restore" and streams[-1][1] > 1
                assert client.snapshot() == chunked
                monkeypatch.setattr(proto, "DEFAULT_CHUNK_BYTES", default_bound)
                assert client.restore(empty) == 0
                assert streams[-1] == ("restore", 1)

    def test_resize_over_the_wire(self, service_config, job_streams):
        jobs = list(job_streams)[:8]
        engine = ShardedService(2, service_config)
        with ThreadedGateway(engine, own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                assert client.shards == 2
                for job in jobs:
                    client.submit_flush(job, job_streams[job][0])
                client.pump()
                summary = client.resize(4)
                assert summary["n_shards"] == client.shards == engine.n_shards == 4
                # Retrying the same resize is a no-op (the idempotence the
                # reconnect path relies on).
                assert client.resize(4)["moved_sessions"] == 0
                for job in jobs:
                    client.submit_flush(job, job_streams[job][1])
                client.drain()
                stats = client.stats()
                assert stats["jobs"] == len(jobs)
                assert stats["shards"] == 4
                assert stats["reshards"] == 1
                summary = client.resize(1)
                assert client.shards == 1
                assert summary["moved_sessions"] > 0

    def test_resize_single_process_engine_is_a_typed_error(self, service_config):
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                with pytest.raises(ServiceError, match="single-process"):
                    client.resize(2)
                # The failure was scoped to that request.
                assert client.stats()["jobs"] == 0

    def test_threaded_gateway_resize_from_the_serving_side(
        self, service_config, job_streams
    ):
        jobs = list(job_streams)[:4]
        engine = ShardedService(2, service_config)
        with ThreadedGateway(engine, own_engine=True) as gateway:
            with ServiceClient(gateway.host, gateway.port) as client:
                for job in jobs:
                    client.submit_flush(job, job_streams[job][0])
                client.pump()
                summary = gateway.resize(3)
                assert summary["to_shards"] == engine.n_shards == 3
                # Clients keep working across the topology change.
                for job in jobs:
                    client.submit_flush(job, job_streams[job][1])
                client.drain()
                assert client.stats()["jobs"] == len(jobs)

    def test_multiple_clients_share_one_engine(self, service_config, job_streams):
        jobs = list(job_streams)[:4]
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            clients = [
                ServiceClient(gateway.host, gateway.port, name=f"client-{i}")
                for i in range(4)
            ]
            try:
                for client, job in zip(clients, jobs):
                    client.submit_flush(job, job_streams[job][0])
                clients[0].drain()
                stats = clients[-1].stats()
                assert stats["jobs"] == 4
                assert stats["detections"] == 4
            finally:
                for client in clients:
                    client.close()
