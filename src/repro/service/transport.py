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
import selectors
import socket
import threading
import time
from typing import Any, Callable

from repro.exceptions import ProtocolError, ServiceError, ShardCrashedError

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
    a selector that reported readability is always describing the *next*
    message — the invariant the shard worker loop and the router's read
    plane both rely on.  Sends are serialized by an internal lock (publisher
    callbacks may push events from worker threads).
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
            version = proto.negotiate_version(first.versions)
            if version is None:
                send_message(
                    channel,
                    proto.Error(
                        message=(
                            f"no common protocol version (router speaks "
                            f"{proto.SUPPORTED_VERSIONS}, worker offered {first.versions})"
                        ),
                        code="unsupported-version",
                    ),
                )
                self._rejected += 1
                channel.close()
                return
            if self._token is not None and first.token != self._token:
                send_message(
                    channel, proto.Error(message="tenant token mismatch", code="unauthorized")
                )
                self._rejected += 1
                channel.close()
                return
            send_message(
                channel, proto.HelloReply(version=version, server="repro-shard-router")
            )
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


# --------------------------------------------------------------------- #
# read plane (router side)
# --------------------------------------------------------------------- #
#: Queue sentinel: the shard's read channel is gone, stop waiting on it.
_CHANNEL_CLOSED = object()


class ReadPlane:
    """Router-side multiplexer for the per-shard read channels.

    One daemon thread drains every attached channel through a selector.
    Replies land in a per-shard queue for the matching :meth:`collect`;
    unsolicited :class:`~repro.service.protocol.PredictionEvent` pushes fan
    out to the registered event callbacks.  Requests to one shard are
    serialized by a per-shard mutex so concurrent readers (gateway stats,
    autoscaler heartbeats) can never steal each other's replies; requests to
    *different* shards run fully in parallel.

    The plane owns the lifecycle of a channel once attached: :meth:`detach`
    asks the drain thread to unregister *and close* it, which keeps the
    selector from ever polling a dead file descriptor.
    """

    def __init__(self) -> None:
        self._channels: dict[int, Any] = {}
        self._queues: dict[int, queue.Queue] = {}
        self._request_locks: dict[int, threading.Lock] = {}
        self._callbacks: list[Callable[[int, dict], None]] = []
        self._heartbeat_seq = 0
        self._lock = threading.Lock()
        self._pending_attach: list[tuple[int, Any]] = []
        self._pending_detach: list[tuple[Any, queue.Queue | None]] = []
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-read-plane", daemon=True
        )
        self._thread.start()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass

    def attach(self, index: int, channel: Any) -> None:
        """Register a shard's read channel (pipe connection or socket channel)."""
        with self._lock:
            self._channels[index] = channel
            self._queues[index] = queue.Queue()
            self._request_locks.setdefault(index, threading.Lock())
            self._pending_attach.append((index, channel))
        self._wake()

    def detach(self, index: int) -> None:
        """Unregister and close a shard's read channel (drain-thread side).

        The mapping is dropped immediately (so an :meth:`attach` replacing the
        slot can proceed), but the channel itself is unregistered and closed
        by the drain thread — closing a registered descriptor out from under
        the selector is never safe.
        """
        with self._lock:
            channel = self._channels.pop(index, None)
            if channel is None:
                return
            replies = self._queues.pop(index, None)
            self._pending_detach.append((channel, replies))
        self._wake()

    def subscribe(self, callback: Callable[[int, dict], None]) -> None:
        """Register a callback for unsolicited prediction events.

        Called as ``callback(shard_index, update_dict)`` on the drain thread.
        """
        with self._lock:
            self._callbacks.append(callback)

    def send(self, index: int, message: proto.Message) -> None:
        """Fire one message at a shard without waiting for the reply."""
        with self._lock:
            channel = self._channels.get(index)
        if channel is None:
            raise ShardCrashedError(index, "shard has no read channel")
        try:
            channel.send_bytes(proto.encode_message(message))
        except (OSError, BrokenPipeError, ValueError) as exc:
            raise ShardCrashedError(index, f"read channel lost: {exc}") from exc

    def collect(self, index: int, timeout: float | None = None) -> proto.Message:
        """Next reply from a shard; raises on timeout or channel loss."""
        with self._lock:
            replies = self._queues.get(index)
        if replies is None:
            raise ShardCrashedError(index, "shard has no read channel")
        try:
            reply = replies.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"shard {index} did not answer on the read plane within {timeout}s"
            ) from None
        if reply is _CHANNEL_CLOSED:
            raise ShardCrashedError(index, "read channel closed mid-request")
        return reply

    def request(
        self, index: int, message: proto.Message, timeout: float | None = None
    ) -> proto.Message:
        """One serialized request/reply round-trip with a shard."""
        with self._lock:
            lock = self._request_locks.get(index)
        if lock is None:
            raise ShardCrashedError(index, "shard has no read channel")
        with lock:
            self.send(index, message)
            reply = self.collect(index, timeout=timeout)
        if isinstance(reply, proto.Error):
            raise ServiceError(f"shard {index} read plane: {reply.message}")
        return reply

    def heartbeat(self, indices: list[int], timeout: float) -> dict[int, float | None]:
        """One heartbeat round: RTT seconds by shard, ``None`` = no answer.

        All probes are launched before any reply is awaited, so the round
        costs one ``timeout``, not one per shard.
        """
        rtts: dict[int, float | None] = dict.fromkeys(indices)
        probes: list[tuple[int, int]] = []
        acquired: list[threading.Lock] = []
        try:
            for index in indices:
                with self._lock:
                    lock = self._request_locks.get(index)
                if lock is None:  # never attached: as silent as a lost channel
                    continue
                # Hold the per-shard request mutex from send to collect so a
                # concurrent request() can never steal the reply.  Locks are
                # taken in index order; every other path holds only one.
                lock.acquire()
                acquired.append(lock)
                self._heartbeat_seq += 1
                try:
                    self.send(
                        index,
                        proto.Heartbeat(seq=self._heartbeat_seq, sent_at=time.monotonic()),
                    )
                except ShardCrashedError:
                    continue
                probes.append((index, self._heartbeat_seq))
            deadline = time.monotonic() + timeout
            for index, seq in probes:
                while True:
                    remaining = deadline - time.monotonic()
                    try:
                        reply = self.collect(index, timeout=max(0.0, remaining))
                    except (TimeoutError, ShardCrashedError):
                        break
                    if isinstance(reply, proto.HeartbeatReply) and reply.seq == seq:
                        # The echoed sent_at is this process's own monotonic
                        # clock: RTT needs no cross-host clock agreement.
                        rtts[index] = time.monotonic() - reply.sent_at
                        break
                    # A stale reply from an earlier timed-out probe: skip it.
        finally:
            for lock in acquired:
                lock.release()
        return rtts

    def _unregister(self, channel: Any) -> None:
        try:
            self._selector.unregister(channel)
            return
        except (KeyError, ValueError):
            return
        except OSError:
            pass
        # The fileobj is already closed, so the selector cannot look its fd
        # up any more — evict the stale key by fd instead, or a later channel
        # reusing the fd number would fail to register.
        for key in list(self._selector.get_map().values()):
            if key.fileobj is channel:
                try:
                    self._selector.unregister(key.fd)
                except (KeyError, ValueError, OSError):
                    pass
                return

    def _apply_pending(self) -> None:
        with self._lock:
            attach = self._pending_attach
            detach = self._pending_detach
            self._pending_attach = []
            self._pending_detach = []
        for channel, replies in detach:
            self._unregister(channel)
            try:
                channel.close()
            except OSError:
                pass
            if replies is not None:
                replies.put(_CHANNEL_CLOSED)
        for index, channel in attach:
            with self._lock:
                if self._channels.get(index) is not channel:
                    continue  # already detached again
            try:
                self._selector.register(channel, selectors.EVENT_READ, index)
            except (KeyError, ValueError, OSError):
                pass

    def _drop_channel(self, index: int, channel: Any) -> None:
        with self._lock:
            if self._channels.get(index) is channel:
                self._channels.pop(index, None)
                replies = self._queues.pop(index, None)
            else:
                replies = None
        self._unregister(channel)
        try:
            channel.close()
        except OSError:
            pass
        if replies is not None:
            replies.put(_CHANNEL_CLOSED)

    def _drain_loop(self) -> None:
        while True:
            self._apply_pending()
            if self._closed:
                with self._lock:
                    channels = dict(self._channels)
                    self._channels.clear()
                    queues = dict(self._queues)
                    self._queues.clear()
                for channel in channels.values():
                    try:
                        channel.close()
                    except OSError:
                        pass
                for replies in queues.values():
                    replies.put(_CHANNEL_CLOSED)
                return
            try:
                events = self._selector.select(timeout=1.0)
            except OSError:
                continue
            for key, _mask in events:
                if key.fileobj is self._wake_recv:
                    try:
                        while self._wake_recv.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                    continue
                index = key.data
                channel = key.fileobj
                try:
                    payload = channel.recv_bytes()
                    message = proto.decode_message(payload)
                except (EOFError, OSError, ValueError, ProtocolError):
                    self._drop_channel(index, channel)
                    continue
                if isinstance(message, proto.PredictionEvent):
                    with self._lock:
                        callbacks = list(self._callbacks)
                    for callback in callbacks:
                        try:
                            callback(index, message.update)
                        except Exception:  # noqa: BLE001 - fan-out must not die
                            pass
                    continue
                with self._lock:
                    replies = self._queues.get(index)
                if replies is not None:
                    replies.put(message)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wake()
        self._thread.join(timeout=5.0)
        self._selector.close()
        self._wake_recv.close()
        self._wake_send.close()

    def __enter__(self) -> "ReadPlane":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
