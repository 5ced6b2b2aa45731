"""TCP shard transport: channels, the dial-home listener, config wire form.

This module is what promotes a :class:`~repro.service.sharding.ShardedService`
shard from a forked subprocess to a *federated* worker that may live on
another machine.  Three pieces compose it:

* :class:`SocketChannel` — a TCP control/read channel speaking the exact
  ``send_bytes``/``recv_bytes``/``fileno``/``close`` surface of a
  ``multiprocessing`` pipe connection, so every router- and worker-side code
  path that drives a local pipe drives a remote socket unchanged.  FTC1
  envelopes are self-framing (magic + type + length prefix,
  :mod:`repro.service.protocol`), so ``send_bytes`` is a plain ``sendall``
  and ``recv_bytes`` reads exactly one envelope — never a byte more, which
  keeps selector readiness truthful for the next message.
* :class:`ShardListener` — the router-side accept loop of the dial-home
  topology (DARC-style: workers connect *to* the master, so only the router
  needs a routable address).  A connecting ``repro-shard`` completes the
  FTC1 :class:`~repro.service.protocol.Hello` handshake (token checked,
  version negotiated), registers its identity
  (:class:`~repro.service.protocol.RegisterShard`) and parks in a pending
  queue until the router adopts it into a shard slot; its data-plane and
  read-plane connections pair up by echoing the adoption's one-time
  ``data_key`` (:class:`~repro.service.protocol.AttachChannel`).
* :func:`config_to_wire` / :func:`config_from_wire` — the
  :class:`~repro.service.service.ServiceConfig` as a MessagePack-friendly
  map, so a remote worker builds sessions from exactly the same knobs the
  local forks inherit by memory.  Host-local concerns (ops listener,
  autoscaler, the shard listener itself) are stripped: they belong to the
  router's process, not to every worker.
"""

from __future__ import annotations

import dataclasses
import queue
import secrets
import socket
import threading
from typing import Any

from repro.exceptions import ProtocolError, ServiceError

from repro.service import protocol as proto
from repro.service.service import ServiceConfig
from repro.service.session import SessionConfig

#: Envelope header size: magic (4) + type code (1) + body length (4).
_HEADER_BYTES = 9

#: How long a not-yet-adopted connection may take to produce its next
#: handshake message before the listener gives up on it.
HANDSHAKE_TIMEOUT = 30.0


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; EOFError on a clean close mid-message."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError(f"connection closed {remaining} bytes short of a message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class SocketChannel:
    """A TCP socket with the message surface of a ``multiprocessing`` pipe.

    One ``send_bytes`` writes one FTC1 envelope; one ``recv_bytes`` returns
    exactly one.  The read path never buffers past the current envelope, so
    a wait that reported readability is always describing the *next*
    message — the invariant the shard worker loop and the router's timed
    read requests both rely on.  Sends are serialized by an internal lock, so
    two threads' envelopes can never interleave on the wire.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    def send_bytes(self, data: bytes) -> None:
        with self._send_lock:
            self._sock.sendall(data)

    def recv_bytes(self) -> bytes:
        header = _recv_exact(self._sock, _HEADER_BYTES)
        magic, _code, length = proto._ENVELOPE.unpack(header)
        if magic != proto.PROTOCOL_MAGIC:
            raise ProtocolError(f"bad envelope magic {magic!r} on shard channel")
        if length > proto.MAX_MESSAGE_BYTES:
            raise ProtocolError(f"message body of {length} bytes exceeds the protocol limit")
        return header + (_recv_exact(self._sock, length) if length else b"")

    def fileno(self) -> int:
        return self._sock.fileno()

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


def send_message(channel: SocketChannel, message: proto.Message) -> None:
    """Encode and send one control message on a channel."""
    channel.send_bytes(proto.encode_message(message))


def recv_message(channel: SocketChannel) -> proto.Message:
    """Receive and decode exactly one control message from a channel."""
    return proto.decode_message(channel.recv_bytes())


# --------------------------------------------------------------------- #
# ServiceConfig wire form
# --------------------------------------------------------------------- #
#: Router-process-only knobs a remote worker must not inherit: the worker
#: neither serves the ops surface nor runs an autoscaler nor listens for
#: further shards, and a ring segment cannot span hosts.
_HOST_LOCAL_FIELDS = ("ops_port", "autoscale", "shard_port", "ring_bytes")


def config_to_wire(config: ServiceConfig) -> dict:
    """The config as a MessagePack-friendly map for ``RegisterShardReply``."""
    wire = dataclasses.asdict(config)
    for name in _HOST_LOCAL_FIELDS:
        wire.pop(name, None)
    return wire


def config_from_wire(wire: dict) -> ServiceConfig:
    """Rebuild a worker-side :class:`ServiceConfig` from its wire map.

    Unknown keys are ignored (an older worker adopted by a newer router must
    not crash on a knob it does not know), and the host-local fields keep
    their worker-side defaults.
    """
    from repro.core import FtioConfig

    session_wire = dict(wire.get("session", {}))
    ftio_wire = dict(session_wire.pop("config", {}))
    known_ftio = {f.name for f in dataclasses.fields(FtioConfig)}
    window = ftio_wire.get("window")
    if window is not None:
        ftio_wire["window"] = tuple(float(edge) for edge in window)
    ftio = FtioConfig(**{k: v for k, v in ftio_wire.items() if k in known_ftio})
    known_session = {f.name for f in dataclasses.fields(SessionConfig)}
    session = SessionConfig(
        config=ftio,
        **{k: v for k, v in session_wire.items() if k in known_session and k != "config"},
    )
    known_service = {f.name for f in dataclasses.fields(ServiceConfig)}
    service_wire = {
        k: v
        for k, v in wire.items()
        if k in known_service and k != "session" and k not in _HOST_LOCAL_FIELDS
    }
    # Remote shards always use the framed-TCP data plane; a shared-memory
    # ring cannot span hosts.
    return ServiceConfig(session=session, ring_bytes=0, **service_wire)


# --------------------------------------------------------------------- #
# dial-home listener (router side)
# --------------------------------------------------------------------- #
class PendingWorker:
    """A dialed-home worker that passed the handshake and awaits adoption."""

    def __init__(self, channel: SocketChannel, registration: proto.RegisterShard) -> None:
        self.channel = channel
        self.registration = registration

    def close(self) -> None:
        self.channel.close()


class ShardListener:
    """Accepts dial-home shard workers and pairs their channels by key.

    The accept thread serves every new connection's first envelope:

    * :class:`~repro.service.protocol.Hello` — token and version are checked
      exactly like the gateway checks a client's (wrong token and
      no-common-version are answered with a typed
      :class:`~repro.service.protocol.Error` and the connection dropped,
      never wedging the router); the following
      :class:`~repro.service.protocol.RegisterShard` parks the worker in the
      pending queue for :meth:`take_pending`.
    * :class:`~repro.service.protocol.AttachChannel` — a secondary
      connection (data or read plane) of an already-adopted worker; it is
      handed to whoever :meth:`wait_attachment` is blocking on its one-time
      key.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, token: int | None = None) -> None:
        self._token = token
        self._server = socket.create_server((host, int(port)))
        self._pending: queue.Queue[PendingWorker] = queue.Queue()
        self._attachments: dict[tuple[str, str], socket.socket] = {}
        self._attach_ready = threading.Condition()
        self._closed = False
        self._rejected = 0
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-shard-listener", daemon=True
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return str(self._server.getsockname()[0])

    @property
    def port(self) -> int:
        return int(self._server.getsockname()[1])

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def rejected(self) -> int:
        """Dial-home attempts rejected at the handshake (bad token/version)."""
        return self._rejected

    @staticmethod
    def new_key() -> str:
        """A fresh one-time adoption key for :class:`AttachChannel` pairing."""
        return secrets.token_hex(16)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(sock,), daemon=True
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        channel = SocketChannel(sock)
        try:
            channel.settimeout(HANDSHAKE_TIMEOUT)
            first = recv_message(channel)
            if isinstance(first, proto.AttachChannel):
                self._attach(first, sock, channel)
                return
            if not isinstance(first, proto.Hello):
                send_message(
                    channel,
                    proto.Error(
                        message=f"expected Hello or AttachChannel, got {type(first).__name__}",
                        code="protocol",
                    ),
                )
                self._rejected += 1
                channel.close()
                return
            answer = proto.answer_hello(
                first, token=self._token, server="repro-shard-router"
            )
            send_message(channel, answer)
            if isinstance(answer, proto.Error):
                self._rejected += 1
                channel.close()
                return
            registration = recv_message(channel)
            if not isinstance(registration, proto.RegisterShard):
                send_message(
                    channel,
                    proto.Error(
                        message=(
                            f"expected RegisterShard after the handshake, "
                            f"got {type(registration).__name__}"
                        ),
                        code="protocol",
                    ),
                )
                self._rejected += 1
                channel.close()
                return
            channel.settimeout(None)
            self._pending.put(PendingWorker(channel, registration))
        except (OSError, EOFError, TimeoutError, ProtocolError):
            self._rejected += 1
            channel.close()

    def _attach(
        self, attach: proto.AttachChannel, sock: socket.socket, channel: SocketChannel
    ) -> None:
        with self._attach_ready:
            self._attachments[(attach.key, attach.channel)] = sock
            self._attach_ready.notify_all()

    def take_pending(self, timeout: float | None = None) -> PendingWorker | None:
        """Next registered-but-unadopted worker, or ``None`` on timeout."""
        try:
            return self._pending.get(timeout=timeout)
        except queue.Empty:
            return None

    def wait_attachment(
        self, key: str, channel: str, timeout: float | None = None
    ) -> socket.socket:
        """Block until the ``channel`` connection echoing ``key`` arrives."""
        with self._attach_ready:
            if not self._attach_ready.wait_for(
                lambda: (key, channel) in self._attachments, timeout=timeout
            ):
                raise ServiceError(
                    f"shard worker never attached its {channel!r} channel "
                    f"(key {key[:8]}..., waited {timeout}s)"
                )
            return self._attachments.pop((key, channel))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server.close()
        self._thread.join(timeout=5.0)
        while True:
            pending = self.take_pending(timeout=0)
            if pending is None:
                break
            pending.close()
        with self._attach_ready:
            for sock in self._attachments.values():
                sock.close()
            self._attachments.clear()

    def __enter__(self) -> "ShardListener":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
