"""Service transport: the FTC1 channel, the TCP listener, config wire form.

Four pieces compose it:

* :class:`Channel` — the one FTC1 endpoint, over any connected stream
  socket: router↔shard control and read channels (a ``socketpair`` for a
  forked shard, TCP for a dialed-home one), the dial-home handshake, the
  client gateway and the :class:`~repro.client.ServiceClient` at its other
  end all send and receive through it.  FTC1 envelopes are self-framing (magic + type + length
  prefix, :mod:`repro.service.protocol`): :meth:`Channel.recv` takes the
  header, then exactly the body it announces — never a byte more, which
  keeps selector readiness truthful for the next message.  A deadline is an
  argument of the ``recv`` that has one, never socket state, and a ``recv``
  that times out loses nothing: the next call continues the same envelope.
* :class:`Listener` — the one TCP server shape: an accept thread, a thread
  per connection, the answer to a peer's :class:`~repro.service.protocol.
  Hello`, and a ``close()`` that wakes and joins all of it.  The client
  gateway (:mod:`repro.service.gateway`) and the dial-home listener are both
  this.
* :class:`ShardListener` — the router-side :class:`Listener` of the dial-home
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
import errno
import queue
import secrets
import selectors
import socket
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

from repro.exceptions import ProtocolError, ServiceError

from repro.service import protocol as proto
from repro.service.service import ServiceConfig
from repro.service.session import SessionConfig

#: How long a connection that has not finished its handshake (a gateway
#: client's Hello, a worker's Hello and registration) may take to produce its
#: next message before the listener gives up on it.
HANDSHAKE_TIMEOUT = 30.0

#: ``poll`` where the platform has it: a wait then costs one system call and
#: no kernel object, and neither form has ``select``'s ``FD_SETSIZE`` ceiling.
_Selector = getattr(selectors, "PollSelector", selectors.DefaultSelector)


def wait_readable(channels: Iterable[Channel], timeout: float) -> list[Channel]:
    """Those of ``channels`` that become readable within ``timeout`` seconds."""
    with _Selector() as selector:
        for channel in channels:
            selector.register(channel, selectors.EVENT_READ)
        return [key.fileobj for key, _ in selector.select(max(0.0, timeout))]  # type: ignore[misc]


class Channel:
    """One blocking FTC1 endpoint over a connected stream socket.

    :meth:`send` writes one envelope, :meth:`recv` returns exactly one.  The
    read path never takes a byte past the current envelope, so a wait that
    reported readability is always describing the *next* message — the
    invariant the shard worker loop and the router's timed read requests both
    rely on.  Sends are serialized by an internal lock, so two threads'
    envelopes can never interleave on the wire; receiving is for one thread
    at a time.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._partial = bytearray()  # the envelope being received, so far

    def send(self, message: proto.Message) -> None:
        data = proto.encode_message(message)
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self, timeout: float | None = None) -> proto.Message:
        """The next message; blocks until it is whole, or ``timeout`` seconds.

        :class:`TimeoutError` leaves what has arrived of the envelope in
        place for the next call.  :class:`EOFError` is the peer hanging up.
        :class:`~repro.exceptions.ProtocolError` from a header (bad magic,
        unknown type code, oversized length) condemns the stream — nothing
        is consumed past the fault, every later ``recv`` raises it again;
        from an undecodable body it costs that one envelope only.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        self._fill(proto.HEADER_BYTES, deadline)
        code, length = proto.decode_header(self._partial)
        self._fill(proto.HEADER_BYTES + length, deadline)
        envelope, self._partial = self._partial, bytearray()
        return proto.decode_body(code, memoryview(envelope)[proto.HEADER_BYTES :])

    def _fill(self, size: int, deadline: float | None) -> None:
        """Read until ``size`` bytes of the current envelope are held."""
        partial = self._partial
        while len(partial) < size:
            if deadline is not None and not wait_readable(
                [self], deadline - time.monotonic()
            ):
                raise TimeoutError(
                    f"no complete message in time ({len(partial)} of {size} bytes so far)"
                )
            chunk = self._sock.recv(size - len(partial))
            if not chunk:
                raise EOFError(
                    f"connection closed {size - len(partial)} bytes short of a message"
                )
            partial += chunk

    def hello(
        self, *, token: int | None = None, client: str = "", timeout: float | None = None
    ) -> proto.HelloReply:
        """Offer the handshake and return the peer's acceptance.

        The mirror of :func:`~repro.service.protocol.answer_hello`: a typed
        refusal (wrong token, no common version) raises
        :class:`~repro.exceptions.ServiceError`.
        """
        self.send(proto.Hello(token=token, client=client))
        reply = self.recv(timeout)
        if isinstance(reply, proto.Error):
            raise ServiceError(f"Hello refused ({reply.code}): {reply.message}")
        if not isinstance(reply, proto.HelloReply):
            raise ProtocolError(
                f"expected HelloReply in reply to Hello, got {type(reply).__name__}"
            )
        return reply

    def fileno(self) -> int:
        fd = self._sock.fileno()
        if fd < 0:
            # What recv() on the closed socket raises: a timed wait on it
            # fails the same way, not with the selector's ValueError.
            raise OSError(errno.EBADF, "channel is closed")
        return fd

    def close(self) -> None:
        try:
            # Not close() alone: this wakes a thread of this process blocked
            # in recv(), and the peer sees EOF even while a forked sibling
            # still holds a copy of the descriptor.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # already closed, or never connected
            pass
        self._sock.close()


# --------------------------------------------------------------------- #
# ServiceConfig wire form
# --------------------------------------------------------------------- #
#: Router-process-only knobs a remote worker must not inherit: the worker
#: does not listen for further shards, and a ring segment cannot span hosts.
_HOST_LOCAL_FIELDS = ("shard_port", "ring_bytes")


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
# the one TCP server shape
# --------------------------------------------------------------------- #
class Listener:
    """A bound TCP port that serves every connection on a thread of its own.

    The accept thread hands each accepted socket (``TCP_NODELAY`` set: FTC1
    traffic is small request/reply envelopes) to ``serve(sock)`` on a daemon
    thread; ``serve`` owns the socket from then on and may park it somewhere
    that outlives its thread.  What every FTC1 server does with a peer's
    first message is here too: :meth:`greet` answers a
    :class:`~repro.service.protocol.Hello` against the token, :meth:`reject`
    hangs up on a peer and counts it.  ``name`` is the server name a
    :class:`~repro.service.protocol.HelloReply` reports, and what the threads
    are named after.

    :meth:`close` stops accepting, then shuts down the socket of every
    connection still being served — which wakes a thread blocked reading or
    writing it — and joins those threads, so it returns promptly and leaves
    no thread behind, while a connection in the middle of a request finishes
    that request first.
    """

    def __init__(
        self,
        host: str,
        port: int,
        serve: Callable[[socket.socket], None],
        *,
        token: int | None,
        name: str,
    ) -> None:
        self._serve = serve
        self._token = token
        self._name = name
        self._server = socket.create_server((host, int(port)))
        self._closed = False
        self._rejected = 0
        self._lock = threading.Lock()
        self._serving: dict[threading.Thread, socket.socket] = {}
        self._thread = threading.Thread(target=self._accept_loop, name=name, daemon=True)
        self._thread.start()

    @property
    def host(self) -> str:
        return str(self._server.getsockname()[0])

    @property
    def port(self) -> int:
        return int(self._server.getsockname()[1])

    @property
    def rejected(self) -> int:
        """Connections refused or dropped at the handshake (bad token or
        version, a first message that was not a handshake or never came)."""
        return self._rejected

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # listener closed
            if self._closed:
                # close() shut the listening socket down to wake this loop; a
                # dial that slipped in first is dropped unanswered.
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._run, args=(sock,), name=f"{self._name}-connection", daemon=True
            )
            # Registered here, not by the thread itself: close() joins this
            # loop first, so it then sees every connection ever accepted.
            with self._lock:
                self._serving[thread] = sock
            thread.start()

    def _run(self, sock: socket.socket) -> None:
        try:
            self._serve(sock)
        finally:
            with self._lock:
                del self._serving[threading.current_thread()]

    def greet(
        self, channel: Channel, first: proto.Message, *, shards: int = 0, expected: str = "Hello"
    ) -> bool:
        """Answer a connection's first message as the handshake offer.

        ``False`` means the peer was refused — no
        :class:`~repro.service.protocol.Hello`, no common version, wrong
        token — told so with a typed :class:`~repro.service.protocol.Error`
        and hung up on.
        """
        answer: proto.Message
        if isinstance(first, proto.Hello):
            answer = proto.answer_hello(
                first, token=self._token, server=self._name, shards=shards
            )
        else:
            answer = proto.Error(
                message=f"expected {expected}, got {type(first).__name__}", code="protocol"
            )
        if isinstance(answer, proto.Error):
            self.reject(channel, answer)
            return False
        channel.send(answer)
        return True

    def reject(self, channel: Channel, error: proto.Error | None = None) -> None:
        """Count one refused peer and hang up on it, ``error`` sent first if given."""
        with self._lock:
            self._rejected += 1
        try:
            if error is not None:
                channel.send(error)
        except OSError:  # it hung up first
            pass
        finally:
            channel.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # close() alone does not wake a thread blocked in accept(); shutting
        # the listening socket down does, and queued dials are refused.
        self._server.shutdown(socket.SHUT_RDWR)
        self._thread.join()
        self._server.close()
        with self._lock:
            serving = dict(self._serving)
        for sock in serving.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # its own thread, or the peer, hung up first
                pass
        for thread in serving:
            thread.join()


# --------------------------------------------------------------------- #
# dial-home listener (router side)
# --------------------------------------------------------------------- #
class PendingWorker:
    """A dialed-home worker that passed the handshake and awaits adoption."""

    def __init__(self, channel: Channel, registration: proto.RegisterShard) -> None:
        self.channel = channel
        self.registration = registration

    def close(self) -> None:
        self.channel.close()


class ShardListener(Listener):
    """Accepts dial-home shard workers and pairs their channels by key.

    Every new connection's first envelope, due within
    :data:`HANDSHAKE_TIMEOUT`, decides what it is:

    * :class:`~repro.service.protocol.Hello` — token and version are checked
      exactly like the gateway checks a client's (:meth:`Listener.greet`:
      wrong token and no-common-version are answered with a typed
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
        self._pending: queue.Queue[PendingWorker] = queue.Queue()
        self._attachments: dict[tuple[str, str], socket.socket] = {}
        self._attach_ready = threading.Condition()
        super().__init__(
            host, port, self._serve_connection, token=token, name="repro-shard-router"
        )

    @staticmethod
    def new_key() -> str:
        """A fresh one-time adoption key for :class:`AttachChannel` pairing."""
        return secrets.token_hex(16)

    def _serve_connection(self, sock: socket.socket) -> None:
        channel = Channel(sock)
        try:
            first = channel.recv(HANDSHAKE_TIMEOUT)
            if isinstance(first, proto.AttachChannel):
                # A secondary connection of an adopted worker: the raw socket
                # goes to whoever waits on its one-time key.
                with self._attach_ready:
                    self._attachments[(first.key, first.channel)] = sock
                    self._attach_ready.notify_all()
                if self._closed:
                    self._drop_parked()
                return
            if not self.greet(channel, first, expected="Hello or AttachChannel"):
                return
            registration = channel.recv(HANDSHAKE_TIMEOUT)
            if not isinstance(registration, proto.RegisterShard):
                self.reject(
                    channel,
                    proto.Error(
                        message=(
                            f"expected RegisterShard after the handshake, "
                            f"got {type(registration).__name__}"
                        ),
                        code="protocol",
                    ),
                )
                return
            self._pending.put(PendingWorker(channel, registration))
            if self._closed:
                self._drop_parked()
        except (OSError, EOFError, ProtocolError):
            self.reject(channel)

    def _drop_parked(self) -> None:
        """Close every parked worker and unclaimed attachment of a closed listener.

        Run by :meth:`close`, and by a handshake thread that finds the
        listener closed *after* parking something: whichever of the two comes
        second sees the other's write, so nothing is left in a queue nobody
        will read.
        """
        while (pending := self.take_pending(timeout=0)) is not None:
            pending.close()
        with self._attach_ready:
            for sock in self._attachments.values():
                sock.close()
            self._attachments.clear()

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
        super().close()
        self._drop_parked()

    def __enter__(self) -> "ShardListener":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
