"""The gateway's thread model: what a thread per connection must not cost.

The gateway serves each client on a thread of its own and calls the engine
directly under a lock.  The cases here are the faults that shape invites —
an autoscaler revive running beside a client's pump, a subscriber that stops
reading, a peer that never finishes its ``Hello``, a body whose fault is not
the kind the connection thread catches, a ``close()`` that leaves threads
behind — each driven against a live gateway over real sockets.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import urllib.request

import pytest
from test_protocol import envelope

from repro.client import ServiceClient
from repro.core import FtioConfig
from repro.service import (
    AutoscaleConfig,
    PredictionPublisher,
    PredictionService,
    PredictionUpdate,
    ServiceConfig,
    SessionConfig,
    ThreadedGateway,
)
from repro.service import gateway as gateway_module
from repro.service import protocol as proto
from repro.service.transport import Channel


@pytest.fixture()
def service_config():
    return ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        ),
    )


class BlockingEngine:
    """Recording stand-in for a sharded engine whose ``pump`` waits to be released."""

    def __init__(self) -> None:
        self.publisher = PredictionPublisher()
        self.metrics = None
        self.n_shards = 2
        self.dead: tuple[int, ...] = ()
        self.log: list[str] = []
        self.in_pump = threading.Event()
        self.release = threading.Event()
        self.probed = threading.Event()

    def pump(self) -> int:
        self.log.append("pump-enter")
        self.in_pump.set()
        assert self.release.wait(30.0)
        self.in_pump.clear()
        self.log.append("pump-exit")
        return 0

    def stats(self) -> dict:
        return {"shards": self.n_shards, "dead_shards": len(self.dead), "jobs": 0}

    def dead_shards(self) -> tuple[int, ...]:
        self.probed.set()
        return self.dead

    def reshard(self, n_shards, *, on_phase=None) -> dict:  # makes it "sharded"
        raise AssertionError("no resize is scripted")

    def revive_shard(self, index) -> None:
        self.log.append("revive-beside-pump" if self.in_pump.is_set() else "revive")
        self.dead = tuple(i for i in self.dead if i != index)

    def close(self) -> None:
        self.log.append("close")


def connect_raw(gateway) -> socket.socket:
    sock = socket.create_connection((gateway.host, gateway.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def handshake(sock: socket.socket) -> Channel:
    channel = Channel(sock)
    assert isinstance(channel.hello(timeout=10.0), proto.HelloReply)
    return channel


def read_to_eof(sock: socket.socket) -> None:
    """Consume what the gateway had sent; returns once it has hung up."""
    while sock.recv(1 << 16):
        pass


def gateway_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-gateway")]


def eventually(condition, timeout: float = 10.0) -> bool:
    """Poll ``condition`` — for what a thread does *after* its peer saw the effect."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)
    return condition()


def test_autoscaler_revive_takes_the_engine_lock():
    engine = BlockingEngine()
    # An hour between ticks: the supervision thread never runs one itself.
    with ThreadedGateway(engine, autoscale=AutoscaleConfig(interval_seconds=3600.0)) as gateway:
        with ServiceClient(gateway.host, gateway.port) as client:
            pumping = threading.Thread(target=client.pump)
            pumping.start()
            assert engine.in_pump.wait(10.0)
            engine.dead = (1,)
            ticking = threading.Thread(target=gateway.autoscaler.tick)
            ticking.start()
            # dead_shards() is the last thing a tick does before it revives;
            # the pause after it is what lets an unlocked revive show itself.
            assert engine.probed.wait(10.0)
            time.sleep(0.2)
            assert engine.log == ["pump-enter"]
            engine.release.set()
            pumping.join(timeout=10.0)
            ticking.join(timeout=10.0)
            assert not pumping.is_alive() and not ticking.is_alive()
    assert engine.log == ["pump-enter", "pump-exit", "revive"]


def test_subscriber_that_stops_reading_is_dropped_at_the_bound(service_config, monkeypatch):
    bound = 64
    monkeypatch.setattr(gateway_module, "MAX_QUEUED_EVENTS", bound)
    connections, depths = [], []
    offer = ThreadedGateway._offer

    def watched_offer(self, connection, update):
        offer(self, connection, update)
        connections.append(connection)
        depths.append(connection.events.qsize())

    monkeypatch.setattr(ThreadedGateway, "_offer", watched_offer)
    engine = PredictionService(service_config)

    def dropped() -> bool:
        url = f"http://127.0.0.1:{gateway.ops_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            text = response.read().decode()
        (line,) = [
            line
            for line in text.splitlines()
            if line.startswith("repro_gateway_dropped_subscribers_total")
        ]
        return int(line.rsplit(" ", 1)[1]) == 1

    with ThreadedGateway(engine, own_engine=True, ops_port=0) as gateway:
        stalled = socket.socket()
        # A small fixed receive window, so the stall comes after kilobytes.
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.settimeout(10.0)
        stalled.connect((gateway.host, gateway.port))
        channel = handshake(stalled)
        channel.send(proto.Subscribe())
        assert isinstance(channel.recv(10.0), proto.SubscribeReply)
        assert not dropped()
        with ServiceClient(gateway.host, gateway.port, name="bystander") as bystander:
            published = 0
            while not dropped():
                assert published < 500_000, "the stalled subscriber was never dropped"
                # Half a queue at a time, then room for the sender to drain
                # it: the queue fills only once the socket stops taking bytes.
                for _ in range(bound // 2):
                    engine.publisher.publish(
                        PredictionUpdate(
                            job="stalled-job",
                            index=published,
                            time=float(published),
                            frequency=0.25,
                            period=4.0,
                            confidence=0.9,
                        )
                    )
                    published += 1
                eventually(connections[0].events.empty, timeout=0.2)
                # Other clients are served throughout.
                assert bystander.stats()["jobs"] == 0
            assert bystander.pump() == 0
        assert max(depths) == bound
        # The peer was hung up on — once it reads, it finds that out — and
        # the engine's publisher no longer holds its queue.
        read_to_eof(stalled)
        stalled.close()
        before = len(depths)
        engine.publisher.publish(
            PredictionUpdate(
                job="stalled-job", index=0, time=0.0, frequency=None, period=None, confidence=0.0
            )
        )
        assert len(depths) == before


def test_unfinished_hello_is_dropped_at_the_handshake_timeout(service_config, monkeypatch):
    monkeypatch.setattr(gateway_module, "HANDSHAKE_TIMEOUT", 0.2)
    with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
        silent = connect_raw(gateway)
        partial = connect_raw(gateway)
        partial.sendall(proto.encode_message(proto.Hello())[:7])
        started = time.monotonic()
        with ServiceClient(gateway.host, gateway.port) as client:
            assert client.stats()["jobs"] == 0
        # Dropped unanswered: nothing to read but the end of the stream.
        assert silent.recv(1024) == b""
        assert partial.recv(1024) == b""
        assert time.monotonic() - started < 5.0
        silent.close()
        partial.close()
        assert eventually(lambda: gateway._listener.rejected == 2)
        # Their threads went with them: the accept thread alone is left.
        assert eventually(lambda: gateway_threads() == ["repro-gateway"])


class TestBodyFaultsAreTyped:
    """``int(inf)`` raises ``OverflowError``, which no connection thread
    catches: a body carrying it used to take the thread down unanswered."""

    @pytest.fixture()
    def uncaught(self, monkeypatch):
        """What reached ``threading.excepthook`` — a thread dying of an exception."""
        caught: list = []
        monkeypatch.setattr(threading, "excepthook", caught.append)
        return caught

    def test_unauthenticated_hello_with_an_infinite_version(self, service_config, uncaught):
        engine = PredictionService(service_config)
        with ThreadedGateway(engine, own_engine=True, token=5) as gateway:
            sock = connect_raw(gateway)
            sock.sendall(envelope(1, {"versions": [float("inf")]}))
            reply = Channel(sock).recv(10.0)
            assert isinstance(reply, proto.Error) and reply.code == "protocol"
            assert "Hello.versions" in reply.message
            assert sock.recv(1024) == b""
            sock.close()
            assert eventually(lambda: gateway._listener.rejected == 1)
            assert eventually(lambda: gateway_threads() == ["repro-gateway"])
        assert uncaught == []

    def test_infinite_resize_after_a_valid_hello(self, service_config, uncaught):
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            sock = connect_raw(gateway)
            channel = handshake(sock)
            with ServiceClient(gateway.host, gateway.port, name="bystander") as bystander:
                sock.sendall(envelope(24, {"n_shards": float("inf")}))
                reply = channel.recv(10.0)
                assert isinstance(reply, proto.Error) and reply.code == "protocol"
                assert "ResizeShards.n_shards" in reply.message
                assert sock.recv(1024) == b""
                sock.close()
                # It cost that connection only.
                assert bystander.stats()["jobs"] == 0
                assert bystander.reconnects == 0
            assert eventually(lambda: gateway_threads() == ["repro-gateway"])
            assert gateway._listener.rejected == 0
        assert uncaught == []


class TestClose:
    def test_close_is_prompt_and_leaves_nothing(self, service_config):
        gateway = ThreadedGateway(
            PredictionService(service_config), own_engine=True, ops_port=0
        ).start()
        silent = connect_raw(gateway)  # never says Hello
        idle = connect_raw(gateway)
        handshake(idle)
        subscribed = connect_raw(gateway)
        channel = handshake(subscribed)
        channel.send(proto.Subscribe())
        assert isinstance(channel.recv(10.0), proto.SubscribeReply)
        ops_url = f"http://127.0.0.1:{gateway.ops_port}/healthz"
        assert urllib.request.urlopen(ops_url, timeout=30).read() == b"ok\n"
        names = gateway_threads()
        assert names.count("repro-gateway-connection") == 3
        assert {"repro-gateway", "repro-gateway-sender", "repro-gateway-ops"} <= set(names)

        started = time.monotonic()
        gateway.close()
        assert time.monotonic() - started < 2.0
        assert gateway_threads() == []
        for sock in (silent, idle, subscribed):
            assert sock.recv(1024) == b""
            sock.close()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", gateway.ops_port), timeout=10.0)
        closes = []
        gateway.engine.close = lambda: closes.append("again")
        gateway.close()  # a no-op: nothing left to stop, the engine not closed twice
        assert closes == []

    def test_owned_engine_closes_after_the_last_request_left_it(self):
        engine = BlockingEngine()
        gateway = ThreadedGateway(engine, own_engine=True).start()
        client = ServiceClient(gateway.host, gateway.port)
        outcome = []

        def pump():
            try:
                outcome.append(client.pump())
            except Exception as exc:  # the reply has nowhere to go: that is fine
                outcome.append(exc)

        pumping = threading.Thread(target=pump)
        pumping.start()
        assert engine.in_pump.wait(10.0)
        closing = threading.Thread(target=gateway.close)
        closing.start()
        closing.join(timeout=0.3)
        # close() waits for the request inside the engine; the engine stays open.
        assert closing.is_alive()
        assert engine.log == ["pump-enter"]
        engine.release.set()
        closing.join(timeout=10.0)
        pumping.join(timeout=10.0)
        assert not closing.is_alive() and not pumping.is_alive()
        assert engine.log == ["pump-enter", "pump-exit", "close"]
        assert gateway_threads() == []
        client._closed = True
        client._sock.close()


def test_connection_churn_under_a_short_switch_interval(service_config):
    """More client threads than cores, each connecting, calling and leaving:
    every request gets its own reply, and the listener's books balance."""
    cycles, workers = 15, 8
    failures: list[BaseException] = []

    def churn(worker: int) -> None:
        try:
            for cycle in range(cycles):
                with ServiceClient(gateway.host, gateway.port, name=f"w{worker}") as client:
                    assert client.stats()["jobs"] == 0
                    assert client.pump() == 0
                    if cycle % 3 == 0:
                        client.subscribe([f"job-{worker}"])
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadedGateway(PredictionService(service_config), own_engine=True) as gateway:
            threads = [threading.Thread(target=churn, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert eventually(lambda: gateway_threads() == ["repro-gateway"])
            assert gateway._listener._serving == {}
            assert gateway._listener.rejected == 0
            assert gateway.engine.publisher._subscribers == {}
    finally:
        sys.setswitchinterval(interval)
