"""The one FTC1 endpoint, and the guard that it stays the only one.

:class:`~repro.service.transport.Channel` carries router↔shard control and
read traffic, the dial-home handshake, the gateway and its client.  Its two rules
are tested here against a raw socket peer: a deadline is an argument of the
``recv`` that has one, and a ``recv`` that times out loses no bytes.
"""

from __future__ import annotations

import ast
import socket
import threading
import time
from pathlib import Path

import pytest
from test_protocol import envelope as raw_envelope

from repro.client import ServiceClient
from repro.exceptions import ProtocolError, ServiceError
from repro.service import protocol as proto
from repro.service.publisher import PredictionUpdate
from repro.service.transport import Channel, ShardListener

PACKAGE_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"
SERVICE_DIR = PACKAGE_DIR / "service"


@pytest.fixture()
def pair():
    """A channel and the raw socket at its other end."""
    ours, theirs = socket.socketpair()
    channel = Channel(ours)
    try:
        yield channel, theirs
    finally:
        channel.close()
        theirs.close()


class TestRecvTimeouts:
    def test_timeout_mid_envelope_loses_nothing(self, pair):
        channel, peer = pair
        stats = proto.StatsReply(stats={"flushes": 3, "jobs": ["a", "b"]})
        envelope = proto.encode_message(stats)
        assert len(envelope) > 20
        peer.sendall(envelope[:5])  # not even a whole header
        with pytest.raises(TimeoutError):
            channel.recv(0.05)
        peer.sendall(envelope[5:20])  # the header and some of the body
        with pytest.raises(TimeoutError):
            channel.recv(0.05)
        peer.sendall(envelope[20:])
        assert channel.recv(0.05) == stats
        # The deadline was the calls', not the socket's.
        assert channel._sock.gettimeout() is None

    def test_never_reads_past_the_current_envelope(self, pair):
        channel, peer = pair
        first, second = proto.Heartbeat(seq=1, sent_at=0.5), proto.Heartbeat(seq=2, sent_at=1.5)
        peer.sendall(proto.encode_message(first) + proto.encode_message(second))
        assert channel.recv(5.0) == first
        # The second envelope is still the socket's: readiness describes it.
        assert len(channel._sock.recv(1 << 16, socket.MSG_PEEK)) == len(
            proto.encode_message(second)
        )
        assert channel.recv(5.0) == second

    def test_header_fault_condemns_the_stream_before_any_body_is_awaited(self, pair):
        channel, peer = pair
        peer.sendall(b"\x00\x00\x00\x17" + b"\x00" * 5)
        with pytest.raises(ProtocolError, match="magic"):
            channel.recv(5.0)
        with pytest.raises(ProtocolError, match="magic"):
            channel.recv(5.0)

    def test_peer_hanging_up_is_eof(self, pair):
        channel, peer = pair
        peer.sendall(proto.encode_message(proto.Stats())[:4])
        peer.close()
        with pytest.raises(EOFError):
            channel.recv(5.0)


def answer_hello(peer: socket.socket, token: int | None) -> None:
    """The serving side of one handshake, on a raw socket."""
    serving = Channel(peer)
    hello = serving.recv(10.0)
    assert isinstance(hello, proto.Hello)
    serving.send(proto.answer_hello(hello, token=token, server="test"))


class TestHello:
    def test_offer_and_refusal(self, pair):
        channel, peer = pair
        for token, accepted in ((None, True), (5, True), (6, False)):
            answering = threading.Thread(target=answer_hello, args=(peer, token))
            answering.start()
            try:
                if accepted:
                    reply = channel.hello(token=5, client="t", timeout=10.0)
                    assert (reply.version, reply.server) == (proto.PROTOCOL_VERSION, "test")
                else:
                    with pytest.raises(ServiceError, match="unauthorized"):
                        channel.hello(token=5, client="t", timeout=10.0)
            finally:
                answering.join(timeout=10.0)
            assert not answering.is_alive()


def test_shard_listener_hangs_up_on_a_hello_it_cannot_coerce(monkeypatch):
    """``int(inf)`` is an ``OverflowError``: the listener's thread used to die
    of it before ``reject`` ran, leaving the socket open and unanswered."""
    uncaught: list = []
    monkeypatch.setattr(threading, "excepthook", uncaught.append)
    with ShardListener(token=5) as listener:
        with socket.create_connection((listener.host, listener.port), timeout=10.0) as sock:
            sock.sendall(raw_envelope(1, {"versions": [float("inf")]}))
            sock.settimeout(1.0)
            assert sock.recv(1024) == b""  # refused unanswered, like any bad first body
        deadline = time.monotonic() + 10.0
        while listener._serving and time.monotonic() < deadline:
            time.sleep(0.001)
        assert listener._serving == {}
        assert listener.rejected == 1
        assert listener.take_pending(timeout=0) is None
    assert uncaught == []


def test_poll_predictions_timeout_mid_event_loses_nothing():
    """The client shares the channel's read path: a poll that times out with
    half a ``PredictionEvent`` in hand returns nothing, the next returns it."""
    update = PredictionUpdate(
        job="dribbled", index=3, time=12.5, frequency=0.25, period=4.0, confidence=0.9
    )
    event = proto.encode_message(proto.PredictionEvent(update=update.to_dict()))
    accepted: list[socket.socket] = []

    def greet() -> None:
        conn, _ = server.accept()
        accepted.append(conn)
        answer_hello(conn, None)

    with socket.create_server(("127.0.0.1", 0)) as server:
        greeting = threading.Thread(target=greet)
        greeting.start()
        client = ServiceClient(*server.getsockname()[:2])
        greeting.join(timeout=10.0)
        assert not greeting.is_alive()
        gateway = accepted[0]
        try:
            gateway.sendall(event[:5])
            assert client.poll_predictions(timeout=0.05) == []
            gateway.sendall(event[5:20])
            assert client.poll_predictions(timeout=0.05) == []
            gateway.sendall(event[20:])
            assert client.poll_predictions(timeout=10.0) == [update]
        finally:
            client._closed = True
            client._sock.close()
            gateway.close()


class TestOneTransport:
    """``src/repro/service`` keeps one way to move an envelope, and the
    sharded form keeps the one-way import order its docstring promises."""

    #: Each may import only the ones before it; ``transport`` none of them.
    ORDER = ("ring", "shard_worker", "supervisor", "migration", "sharding")

    @staticmethod
    def _trees() -> dict[str, ast.Module]:
        return {
            path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(SERVICE_DIR.glob("*.py"))
        }

    @staticmethod
    def _imports(tree: ast.Module) -> set[str]:
        """Every dotted name a module imports, function-level imports included."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
        return names

    @staticmethod
    def _callee(call: ast.Call) -> str:
        """The bare name a call goes to: ``f`` of ``f()`` and of ``x.f()``."""
        return getattr(call.func, "attr", getattr(call.func, "id", ""))

    def test_no_pipe_transport(self):
        for name, tree in self._trees().items():
            assert not any(
                imported.startswith("multiprocessing.connection")
                for imported in self._imports(tree)
            ), f"{name}.py imports multiprocessing.connection"
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    assert self._callee(node) != "Pipe", f"{name}.py:{node.lineno} calls Pipe()"

    def test_one_concurrency_model_and_one_stream_reader(self):
        """Threads everywhere: no event loop and no executor anywhere in the
        package (a detection runs in the thread that pumps), and
        :meth:`Channel.recv` the only code outside ``protocol.py`` that takes
        an envelope apart."""
        for path in sorted(PACKAGE_DIR.rglob("*.py")):
            where = str(path.relative_to(PACKAGE_DIR))
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            imports = self._imports(tree)
            assert not any(
                imported.split(".")[0] == "asyncio" for imported in imports
            ), f"{where} imports asyncio"
            assert not any(
                imported.split(".")[0] == "concurrent" for imported in imports
            ), f"{where} imports an executor"
            if where == "service/protocol.py":
                continue
            calls = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and self._callee(node) in ("decode_header", "decode_body")
            ]
            if where == "service/transport.py":
                (channel,) = [
                    node
                    for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "Channel"
                ]
                assert calls and all(
                    channel.lineno <= call.lineno <= channel.end_lineno for call in calls
                )
            else:
                assert not calls, f"{where}:{calls[0].lineno} decodes an envelope itself"

    def test_sharded_modules_import_one_way(self):
        trees = self._trees()
        for position, name in enumerate(self.ORDER):
            later = {f"repro.service.{other}" for other in self.ORDER[position:]}
            assert not later & self._imports(trees[name]), name
        everything = {f"repro.service.{name}" for name in self.ORDER}
        assert not everything & self._imports(trees["transport"])
