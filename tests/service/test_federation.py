"""Multi-host federation: remote shards over TCP, liveness, fault paths.

A ``repro-shard`` worker launched as a *separate process* dials home to the
router's :class:`~repro.service.transport.ShardListener` over 127.0.0.1 —
the same wire topology a worker on another machine uses — and must be
indistinguishable from a forked local shard: bit-identical predictions, the
same stats schema, the same chaos-survival guarantees (kill -9 detected as
connection loss, hung-but-connected workers convicted by heartbeat timeout,
bad-token dials rejected without wedging the router).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import FtioConfig
from repro.exceptions import ShardCrashedError
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
    ThreadedGateway,
)
from repro.service import protocol as proto
from repro.service.transport import (
    Channel,
    ShardListener,
    config_from_wire,
    config_to_wire,
)
from repro.workloads import synthetic_flush_streams

N_JOBS = 8
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_config(**overrides) -> ServiceConfig:
    return ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        ),
        **overrides,
    )


@pytest.fixture(scope="module")
def streams():
    return synthetic_flush_streams(
        N_JOBS, flushes_per_job=6, requests_per_flush=16, seed=11
    )


def single_process_periods(streams) -> dict:
    service = PredictionService(make_config())
    try:
        for job, flushes in streams.items():
            for flush in flushes:
                service.ingest_flush(job, flush)
                service.pump()
        service.drain()
        return {job: service.publisher.latest_period(job) for job in streams}
    finally:
        service.close()


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def launch_worker(port: int, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.shard", "--connect", f"127.0.0.1:{port}", *extra],
        env=env,
        stderr=subprocess.PIPE,
    )


def reap(worker: subprocess.Popen) -> None:
    if worker.poll() is None:
        worker.kill()
    worker.wait()


def feed_and_drain(service: ShardedService, streams) -> dict:
    for job, flushes in streams.items():
        for flush in flushes:
            service.ingest_flush(job, flush)
            service.pump()
    service.drain()
    return {job: service.publisher.latest_period(job) for job in streams}


class TestRemoteShardParity:
    """A dial-home worker serves traffic bit-identical to local topologies."""

    def test_remote_topology_matches_local_and_single_process(self, streams):
        expected = single_process_periods(streams)

        with ShardedService(2, make_config()) as local:
            local_periods = feed_and_drain(local, streams)

        port = free_port()
        worker = launch_worker(port, "--token", "7", "--name", "parity-w0")
        try:
            with ShardedService(
                2,
                make_config(shard_port=port, token=7),
                placement=["remote", "local"],
            ) as fed:
                details = fed.shard_details()
                assert details[0]["remote"] is True
                assert details[0]["worker"]["name"] == "parity-w0"
                assert details[1]["remote"] is False
                remote_periods = feed_and_drain(fed, streams)
            worker.wait(timeout=10)
        finally:
            reap(worker)

        for job in streams:
            assert local_periods[job] == expected[job], job
            assert remote_periods[job] == expected[job], job

    def test_remote_shard_serves_reads_and_heartbeats(self, streams):
        port = free_port()
        worker = launch_worker(port, "--name", "reads-w0")
        try:
            with ShardedService(
                2,
                make_config(shard_port=port, metrics=True),
                placement=["remote", "local"],
            ) as fed:
                for job, flushes in streams.items():
                    for flush in flushes[:2]:
                        fed.ingest_flush(job, flush)
                fed.pump()
                rtts = fed.heartbeat()
                assert set(rtts) == {0, 1}
                assert all(rtt is not None and rtt >= 0.0 for rtt in rtts.values())
                stats = fed.stats()
                assert stats["flushes"] == 2 * N_JOBS
                assert stats["shards"] == 2
                metrics = fed.metrics_snapshot()
                assert "repro_shard_alive" in metrics
                assert "repro_heartbeat_rtt_seconds" in metrics
                # Nothing kept the listener's handshake deadline: an adopted
                # worker's sockets block like a forked shard's.
                remote = fed._supervisor.shards[0]
                for sock in (remote.data_sock, remote.control._sock, remote.read._sock):
                    assert sock.gettimeout() is None
        finally:
            reap(worker)


class TestRemoteFaults:
    def test_kill9_remote_is_detected_and_revived(self, streams):
        """SIGKILL on the remote worker surfaces as connection loss; the
        revive falls back to a local fork when no replacement dials home."""
        port = free_port()
        worker = launch_worker(port, "--name", "victim")
        try:
            with ShardedService(
                2,
                make_config(shard_port=port),
                placement=["remote", "local"],
            ) as fed:
                for job, flushes in streams.items():
                    for flush in flushes[:3]:
                        fed.ingest_flush(job, flush)
                fed.pump()
                fed.snapshot_state()
                fed.kill_shard(0)
                worker.wait(timeout=10)
                with pytest.raises(ShardCrashedError):
                    for job, flushes in streams.items():
                        fed.ingest_flush(job, flushes[3])
                        fed.pump()
                assert 0 in fed.dead_shards()
                # Nothing re-dials, so the slot degrades to a local fork.
                fed._supervisor.remote_timeout = 0.2
                with pytest.warns(RuntimeWarning, match="spawning it locally"):
                    fed.revive_shard(0)
                assert fed.dead_shards() == ()
                assert fed.shard_details()[0]["remote"] is False
                for job, flushes in streams.items():
                    for flush in flushes[3:]:
                        fed.ingest_flush(job, flush)
                fed.drain()
                for job in streams:
                    assert fed.publisher.latest_period(job) is not None
        finally:
            reap(worker)

    def test_kill9_remote_revives_onto_replacement_worker(self, streams):
        """With a second worker already parked on the listener, the revive
        adopts it — the 'revive on another host' path."""
        port = free_port()
        first = launch_worker(port, "--name", "gen-1")
        second = None
        try:
            with ShardedService(
                2,
                make_config(shard_port=port),
                placement=["remote", "local"],
            ) as fed:
                assert fed.shard_details()[0]["worker"]["name"] == "gen-1"
                for job, flushes in streams.items():
                    fed.ingest_flush(job, flushes[0])
                fed.pump()
                fed.snapshot_state()
                # The replacement parks in the pending queue before the kill.
                second = launch_worker(port, "--name", "gen-2")
                deadline = time.monotonic() + 30.0
                while (
                    fed._supervisor.listener._pending.qsize() == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                fed.kill_shard(0)
                first.wait(timeout=10)
                with pytest.raises(ShardCrashedError):
                    for job, flushes in streams.items():
                        fed.ingest_flush(job, flushes[1])
                        fed.pump()
                fed.revive_shard(0)
                detail = fed.shard_details()[0]
                assert detail["remote"] is True
                assert detail["worker"]["name"] == "gen-2"
                for job, flushes in streams.items():
                    for flush in flushes[1:]:
                        fed.ingest_flush(job, flush)
                fed.drain()
                for job in streams:
                    assert fed.publisher.latest_period(job) is not None
        finally:
            reap(first)
            if second is not None:
                reap(second)

    def test_kill9_remote_mid_reshard_recovers(self, streams):
        """A remote worker SIGKILL'd *during* a reshard must not wedge the
        migration: the reshard aborts cleanly, the shard is convicted, and a
        revive restores service."""
        port = free_port()
        worker = launch_worker(port, "--name", "mid-reshard")
        try:
            with ShardedService(
                2,
                make_config(shard_port=port),
                placement=["remote", "local"],
            ) as fed:
                for job, flushes in streams.items():
                    fed.ingest_flush(job, flushes[0])
                fed.pump()
                fed.snapshot_state()

                def kill_at_parked(phase: str) -> None:
                    if phase == "parked":
                        os.kill(worker.pid, signal.SIGKILL)
                        worker.wait(timeout=10)

                with pytest.raises(ShardCrashedError):
                    fed.reshard(3, on_phase=kill_at_parked)
                assert 0 in fed.dead_shards()
                fed._supervisor.remote_timeout = 0.2
                with pytest.warns(RuntimeWarning, match="spawning it locally"):
                    fed.revive_shard(0)
                for job, flushes in streams.items():
                    for flush in flushes[1:]:
                        fed.ingest_flush(job, flush)
                fed.drain()
                for job in streams:
                    assert fed.publisher.latest_period(job) is not None
        finally:
            reap(worker)

    def test_heartbeat_convicts_hung_but_connected_worker(self, streams):
        """SIGSTOP freezes the worker without dropping its sockets: only the
        heartbeat timeout can tell it from a healthy-but-idle shard."""
        port = free_port()
        worker = launch_worker(port, "--name", "wedged")
        try:
            with ShardedService(
                2,
                # Wide enough that a loaded CI box cannot convict a merely
                # slow shard; the stopped worker never answers regardless.
                make_config(shard_port=port, heartbeat_timeout=5.0),
                placement=["remote", "local"],
            ) as fed:
                healthy = fed.heartbeat(timeout=30.0)
                assert set(healthy) == {0, 1}
                assert healthy[0] is not None
                os.kill(worker.pid, signal.SIGSTOP)
                try:
                    # The signal is delivered asynchronously: probe only once
                    # the worker is reported stopped.
                    _, status = os.waitpid(worker.pid, os.WUNTRACED)
                    assert os.WIFSTOPPED(status)
                    rtts = fed.heartbeat()
                    assert rtts[0] is None  # convicted by timeout...
                    assert rtts[1] is not None  # ...alone
                    assert 0 in fed.dead_shards()
                finally:
                    os.kill(worker.pid, signal.SIGCONT)
        finally:
            reap(worker)

    def test_worker_parked_past_its_dial_timeout_is_still_adopted(self, monkeypatch):
        """A hot spare waits for adoption as long as it takes: the dial's
        deadline ends with the dial."""
        from repro.service.shard_worker import ShardWorker

        dial = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection", lambda address, timeout=None: dial(address, 0.3)
        )
        port = free_port()
        with ShardedService(1, make_config(shard_port=port), placement=["local"]) as fed:
            spare = threading.Thread(
                target=ShardWorker("127.0.0.1", port, name="patient").run, daemon=True
            )
            spare.start()
            deadline = time.monotonic() + 30.0
            while (
                fed._supervisor.listener._pending.qsize() == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            time.sleep(1.0)  # parked for three dial timeouts
            assert spare.is_alive()
            fed._supervisor.remote_timeout = 5.0
            fed.reshard(2, placement=["local", "remote"])
            detail = fed.shard_details()[1]
            assert detail["remote"] is True
            assert detail["worker"]["name"] == "patient"
            assert fed.heartbeat()[1] is not None
        spare.join(timeout=30.0)
        assert not spare.is_alive()

    def test_late_heartbeat_reply_is_not_taken_for_the_next_probes(self):
        """A probe times out, its reply arrives late, a fresh round runs: the
        stale ``seq`` is skipped and the fresh probe's own reply measured."""
        with ShardedService(1, make_config()) as service:
            shard = service._supervisor.shards[0]
            # Play the shard's read thread by hand on a channel of our own.
            real_read = shard.read
            shard.read, worker_end = map(Channel, socket.socketpair())
            try:
                assert service.heartbeat(timeout=0.2) == {0: None}
                assert service.dead_shards() == (0,)
                stale = worker_end.recv(30.0)
                # The late reply; its forged sent_at would read as a huge RTT.
                worker_end.send(
                    proto.HeartbeatReply(seq=stale.seq, sent_at=stale.sent_at - 1e4)
                )
                shard.dead = shard.unresponsive = False

                def answer_fresh_probe() -> None:
                    probe = worker_end.recv(30.0)
                    assert probe.seq > stale.seq
                    worker_end.send(
                        proto.HeartbeatReply(seq=probe.seq, sent_at=probe.sent_at)
                    )

                answering = threading.Thread(target=answer_fresh_probe)
                answering.start()
                rtts = service.heartbeat(timeout=30.0)
                answering.join(timeout=30.0)
                assert not answering.is_alive()
                assert rtts[0] is not None and rtts[0] < 1e3
                assert service.dead_shards() == ()
            finally:
                shard.read.close()
                worker_end.close()
                shard.read = real_read

    def test_bad_token_dial_home_is_rejected_without_wedging(self, streams):
        port = free_port()
        bad = launch_worker(port, "--token", "3", "--name", "intruder")
        try:
            with ShardedService(
                2,
                make_config(shard_port=port, token=7),
                placement=["local", "local"],
            ) as fed:
                # The intruder is rejected at the listener's Hello...
                assert bad.wait(timeout=30) == 1
                stderr = bad.stderr.read().decode()
                assert "unauthorized" in stderr
                deadline = time.monotonic() + 10.0
                while fed._supervisor.listener.rejected == 0 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert fed._supervisor.listener.rejected >= 1
                # ...and the router keeps serving as if nothing happened.
                for job, flushes in streams.items():
                    fed.ingest_flush(job, flushes[0])
                fed.pump()
                assert fed.stats()["flushes"] == N_JOBS
                assert fed.heartbeat()[0] is not None
        finally:
            reap(bad)

    def test_worker_cli_rejects_malformed_connect(self):
        from repro.shard import main

        with pytest.raises(SystemExit):
            main(["--connect", "no-port-here"])

    def test_worker_gives_up_after_retries(self):
        from repro.shard import main

        port = free_port()  # nothing listens on it
        rc = main(
            ["--connect", f"127.0.0.1:{port}", "--retries", "2", "--retry-delay", "0.05"]
        )
        assert rc == 1


class TestReshardPlacement:
    @staticmethod
    def _grow_mid_stream(streams, config, placement) -> dict:
        with ShardedService(1, config, placement=["local"]) as fed:
            for job, flushes in streams.items():
                for flush in flushes[:3]:
                    fed.ingest_flush(job, flush)
            fed.pump()
            summary = fed.reshard(2, placement=placement)
            assert summary["to_shards"] == 2
            for job, flushes in streams.items():
                for flush in flushes[3:]:
                    fed.ingest_flush(job, flush)
            fed.drain()
            details = fed.shard_details()
            periods = {job: fed.publisher.latest_period(job) for job in streams}
            return {"details": details, "periods": periods}

    def test_grow_onto_remote_worker_mid_stream(self, streams):
        """Growing onto a dial-home worker is bit-identical to growing onto
        a local fork at the same point of the same stream."""
        local = self._grow_mid_stream(
            streams, make_config(), ["local", "local"]
        )
        port = free_port()
        worker = launch_worker(port, "--name", "grown")
        try:
            remote = self._grow_mid_stream(
                streams, make_config(shard_port=port), ["local", "remote"]
            )
        finally:
            reap(worker)
        assert remote["details"][1]["remote"] is True
        assert remote["details"][1]["worker"]["name"] == "grown"
        assert local["details"][1]["remote"] is False
        for job in streams:
            assert remote["periods"][job] == local["periods"][job], job
            assert remote["periods"][job] is not None

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="shard_port"):
            ShardedService(1, make_config(), placement=["remote"])
        with pytest.raises(ValueError, match="one entry per shard"):
            ShardedService(2, make_config(), placement=["local"])
        with pytest.raises(ValueError, match="'local' or 'remote'"):
            ShardedService(1, make_config(), placement=["cloud"])
        # A constructor that raises leaves nothing behind: the dial-home
        # port can be bound again at once.
        port = free_port()
        with pytest.raises(ValueError, match="one entry per shard"):
            ShardedService(2, make_config(shard_port=port), placement=["remote"])
        socket.create_server(("0.0.0.0", port)).close()


class TestConfigWire:
    def test_round_trip_strips_host_local_fields(self):
        config = make_config(ring_bytes=1 << 20, shard_port=9400, token=5, revive_budget=7)
        wire = config_to_wire(config)
        assert "shard_port" not in wire
        rebuilt = config_from_wire(wire)
        assert rebuilt.ring_bytes == 0  # remote = framed TCP, never a ring
        assert rebuilt.shard_port is None
        assert rebuilt.token == 5
        assert rebuilt.session.config.sampling_frequency == 10.0
        assert rebuilt.revive_budget == 7

    def test_unknown_wire_keys_are_ignored(self):
        wire = config_to_wire(make_config())
        wire["from_the_future"] = True
        # Knobs a pre-PR-15 router still sends; this worker no longer has them.
        wire.update(backend="process", backend_workers=2, batching=False)
        wire["latency_window"] = 4096  # ... nor, since PR 16, this one
        # ... nor these two, now constants at their one reader.
        wire["span_capacity"] = 4096
        wire["session"]["eviction_margin_periods"] = 3.0
        wire["session"]["also_new"] = 1
        rebuilt = config_from_wire(wire)
        assert rebuilt.session.config.sampling_frequency == 10.0

    def test_listener_rejects_non_handshake_first_message(self):
        # Not a Hello at all, a Hello from the future, a Hello from the
        # retired v1 or v2: each gets a typed error and a closed connection.
        rejections = [
            (proto.Stats(), "protocol"),
            (proto.Hello(versions=(99,)), "unsupported-version"),
            (proto.Hello(versions=(1,)), "unsupported-version"),
            (proto.Hello(versions=(2,)), "unsupported-version"),
        ]
        with ShardListener() as listener:
            for count, (first, code) in enumerate(rejections, start=1):
                sock = socket.create_connection((listener.host, listener.port), timeout=10.0)
                try:
                    sock.sendall(proto.encode_message(first))
                    reply = Channel(sock).recv(10.0)
                    assert isinstance(reply, proto.Error)
                    assert reply.code == code
                    # The listener counts the rejection, then hangs up.
                    assert sock.recv(1024) == b""
                    assert listener.rejected == count
                finally:
                    sock.close()


class TestListenerClose:
    def test_close_stops_the_accept_loop_and_refuses_further_dials(self):
        listener = ShardListener()
        address = (listener.host, listener.port)
        # close() has begun but the listening socket still accepts: a dial
        # that slips in is dropped, not answered and parked in a dead queue.
        listener._closed = True
        with socket.create_connection(address, timeout=10.0) as late:
            late.sendall(proto.encode_message(proto.Hello()))
            try:
                answer = late.recv(1024)
            except ConnectionResetError:  # dropped with the Hello unread
                answer = b""
            assert answer == b""
        listener._closed = False
        started = time.monotonic()
        listener.close()
        assert time.monotonic() - started < 1.0
        assert not listener._thread.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=10.0)


class TestGatewayOverFederation:
    def test_gateway_reads_and_events_come_from_shards(self, streams):
        from repro.client import ServiceClient

        port = free_port()
        worker = launch_worker(port, "--name", "gw-w0")
        try:
            engine = ShardedService(
                2,
                make_config(shard_port=port, metrics=True),
                placement=["remote", "local"],
            )
            with ThreadedGateway(engine, own_engine=True) as gw:
                with ServiceClient(gw.host, gw.port, name="fed-client") as client:
                    client.subscribe()
                    for job, flushes in streams.items():
                        client.submit_flush(job, flushes[0])
                    client.pump()
                    stats = client.stats()
                    assert stats["flushes"] == N_JOBS
                    assert stats["shards"] == 2
                    events = client.poll_predictions(timeout=10.0, min_events=1)
                    assert events
                    assert all(event.job in streams for event in events)
        finally:
            reap(worker)
