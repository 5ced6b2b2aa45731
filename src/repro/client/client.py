"""Blocking TCP client of the prediction-service gateway.

:class:`ServiceClient` connects to a :class:`~repro.service.gateway.
ThreadedGateway`, performs the :class:`~repro.service.protocol.Hello` version
negotiation, and then exposes the service's whole control surface as plain
method calls: stream flushes in, pump, read stats, snapshot/restore, resize
the shard topology, and subscribe to the live prediction stream.

The conversation is strictly typed (:mod:`repro.service.protocol`) and runs
over the same endpoint the gateway, the router and its shards use
(:class:`~repro.service.transport.Channel`: one envelope per ``recv``, a
deadline per call, nothing lost when one strikes mid-message); flush
payloads travel as ordinary FTS1 frames inside
:class:`~repro.service.protocol.SubmitFrames`, so the client is wire-format
compatible with every other producer (spool writers, socket feeds).

Asynchronous :class:`~repro.service.protocol.PredictionEvent` messages may
interleave with request/response pairs once :meth:`ServiceClient.subscribe`
ran; the client transparently queues them, and :meth:`ServiceClient.
predictions` / :meth:`ServiceClient.poll_predictions` hand them out in
arrival order.

Connection loss is handled per request: *idempotent* control calls
(``stats``, ``snapshot``, ``subscribe``, ``finish_job``, ``resize``)
transparently reconnect — a fresh socket, a fresh handshake, the
subscription re-established — and retry once; calls whose effect on the
server is unknowable after a drop (``submit``, ``pump``, ``drain``,
``restore``) raise the typed
:class:`~repro.exceptions.ConnectionLostError` instead of hanging or
silently double-applying.
"""

from __future__ import annotations

import contextlib
import socket
import time
from collections import deque
from collections.abc import Iterator, Sequence
from typing import TypeVar

from repro.exceptions import ConnectionLostError, ProtocolError, ServiceError
from repro.service import protocol as proto
from repro.service.publisher import PredictionUpdate
from repro.service.transport import Channel
from repro.trace.framing import encode_frame
from repro.trace.jsonl import FlushRecord

#: Requests that are safe to repeat after a reconnect: re-running them
#: against a server that already served the lost first attempt changes
#: nothing (``ResizeShards`` to the same count is a no-op; ``Subscribe`` and
#: ``FinishJob`` are naturally idempotent).
_IDEMPOTENT: tuple[type[proto.Message], ...] = (
    proto.Stats,
    proto.Snapshot,
    proto.Subscribe,
    proto.FinishJob,
    proto.ResizeShards,
)

R = TypeVar("R", bound=proto.Message)


@contextlib.contextmanager
def _typed_connection_loss() -> Iterator[None]:
    """A connection that died under a read is ``ConnectionLostError``; a
    timeout passes through."""
    try:
        yield
    except TimeoutError:
        raise
    except EOFError as exc:
        raise ConnectionLostError("server closed the connection") from exc
    except OSError as exc:
        raise ConnectionLostError(f"connection lost: {exc}") from exc


class ServiceClient:
    """Blocking client of a prediction-service TCP gateway.

    Parameters
    ----------
    host, port:
        Gateway address (see :attr:`~repro.service.gateway.ThreadedGateway.
        host` / ``port``).
    token:
        Tenant/auth nibble presented in the handshake and stamped on every
        frame this client encodes (must match the server's token, if any).
    timeout:
        Seconds allowed for connecting, for a send to drain and for every
        reply.
    name:
        Client name reported in the handshake (diagnostics).
    reconnect:
        Transparently reconnect and retry idempotent calls after a dropped
        connection (one retry per call).  ``False`` makes every drop raise
        :class:`~repro.exceptions.ConnectionLostError`.

    The client is a context manager; leaving the ``with`` block sends
    :class:`~repro.service.protocol.Close` and disconnects.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: int | None = None,
        timeout: float = 30.0,
        name: str = "repro-client",
        reconnect: bool = True,
    ) -> None:
        self._host = host
        self._port = int(port)
        self._token = token
        self._timeout = float(timeout)
        self._name = name
        self._reconnect_enabled = bool(reconnect)
        self._events: deque[PredictionUpdate] = deque()
        self._closed = False
        self._subscribed = False
        self._subscription_jobs: tuple[str, ...] | None = None
        #: Number of transparent reconnects performed so far.
        self.reconnects = 0
        #: Negotiated control-plane protocol version.
        self.protocol_version: int = 0
        #: Server name from the handshake.
        self.server: str = ""
        #: Shard count of the engine behind the gateway (0 = single process).
        self.shards: int = 0
        self._sock = self._connect()

    # ------------------------------------------------------------------ #
    # connection management
    # ------------------------------------------------------------------ #
    def _connect(self) -> socket.socket:
        # The handshake runs on a channel of its own so that a rejected
        # Hello (wrong token, no common version) never replaces
        # self._sock/self._channel with a closed socket — the previous
        # connection state stays intact until the new one is fully
        # negotiated.
        sock = socket.create_connection((self._host, self._port), timeout=self._timeout)
        channel = Channel(sock)
        try:
            with _typed_connection_loss():
                reply = channel.hello(
                    token=self._token, client=self._name, timeout=self._timeout
                )
        except BaseException:
            # A rejected handshake must not leak the connected socket —
            # __exit__/close are unreachable when __init__ raises.
            sock.close()
            raise
        self.protocol_version = reply.version
        self.server = reply.server
        self.shards = reply.shards
        self._channel = channel
        self._sock = sock
        return sock

    def _reconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            self._connect()
        except ConnectionLostError:
            raise
        except (OSError, ServiceError, ProtocolError) as exc:
            # The retry contract is typed end to end: a server that is gone,
            # still restarting, or rejecting the fresh handshake surfaces as
            # ConnectionLostError, never as a raw socket/handshake error from
            # inside the transparent retry.
            raise ConnectionLostError(
                f"reconnect to {self._host}:{self._port} failed: {exc}"
            ) from exc
        self.reconnects += 1
        if self._subscribed:
            # The push stream does not survive the old connection; restore
            # it before the retried request so no gap goes unnoticed.
            self._rpc_once(
                proto.Subscribe(jobs=self._subscription_jobs), proto.SubscribeReply
            )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _send(self, message: proto.Message) -> None:
        if self._closed:
            raise ServiceError("client is closed")
        try:
            self._channel.send(message)
        except OSError as exc:
            raise ConnectionLostError(
                f"connection lost while sending {type(message).__name__}: {exc}"
            ) from exc

    def _read_message(self, timeout: float) -> proto.Message:
        """Next message from the stream; ``TimeoutError`` after ``timeout`` seconds.

        A timeout loses nothing: the next call continues the same envelope.
        """
        with _typed_connection_loss():
            return self._channel.recv(timeout)

    def _await_reply(self, reply_type: type[R], *, request_name: str) -> R:
        """Read messages until the typed reply (queueing prediction events).

        An :class:`~repro.service.protocol.Error` reply raises
        :class:`~repro.exceptions.ServiceError`; any other message type is a
        protocol violation.
        """
        while True:
            message = self._read_message(self._timeout)
            if isinstance(message, proto.PredictionEvent):
                self._events.append(PredictionUpdate.from_dict(message.update))
                continue
            if isinstance(message, proto.Error):
                raise ServiceError(
                    f"{request_name} failed ({message.code}): {message.message}"
                )
            if isinstance(message, reply_type):
                return message
            raise ProtocolError(
                f"expected {reply_type.__name__} in reply to {request_name}, "
                f"got {type(message).__name__}"
            )

    def _rpc_once(self, request: proto.Message, reply_type: type[R]) -> R:
        self._send(request)
        return self._await_reply(reply_type, request_name=type(request).__name__)

    def _rpc(self, request: proto.Message, reply_type: type[R]) -> R:
        """Send one request and return its typed reply.

        A connection drop mid-call reconnects and retries once when the
        request is idempotent; otherwise the typed
        :class:`~repro.exceptions.ConnectionLostError` propagates.
        """
        try:
            return self._rpc_once(request, reply_type)
        except ConnectionLostError:
            if (
                self._closed
                or not self._reconnect_enabled
                or not isinstance(request, _IDEMPOTENT)
            ):
                raise
            self._reconnect()
            return self._rpc_once(request, reply_type)

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #
    def submit_flush(self, job: str, flush: FlushRecord) -> int:
        """Encode one flush as an FTS1 frame and submit it; returns frames routed."""
        return self.submit_bytes(encode_frame(flush, job=job, token=self._token))

    def submit_bytes(self, data: bytes) -> int:
        """Submit raw FTS1-framed bytes; returns the frames completed by them."""
        return self._rpc(proto.SubmitFrames(data=data), proto.SubmitReply).frames

    # ------------------------------------------------------------------ #
    # evaluation and results
    # ------------------------------------------------------------------ #
    def pump(self) -> int:
        """Evaluate every due session; returns the number of evaluations.

        The updates published during the pump are queued as predictions
        (available via :meth:`predictions`).
        """
        reply = self._rpc(proto.Pump(), proto.PumpReply)
        self._queue_updates(reply.updates)
        return reply.submitted

    def drain(self) -> None:
        """Pump until nothing is due and nothing is in flight."""
        reply = self._rpc(proto.Drain(), proto.DrainReply)
        self._queue_updates(reply.updates)

    def finish_job(self, job: str) -> None:
        """Mark ``job`` finished (pending data is still evaluated, then idle)."""
        self._rpc(proto.FinishJob(job=job), proto.FinishJobReply)

    def stats(self) -> dict:
        """Service-wide counters of the engine behind the gateway."""
        return self._rpc(proto.Stats(), proto.StatsReply).stats

    def resize(self, n_shards: int) -> dict:
        """Live-reshard the engine to ``n_shards`` worker shards.

        Returns a summary dict (``n_shards``, ``moved_sessions``,
        ``moved_jobs``) and refreshes :attr:`shards`.  Safe to retry — and
        therefore transparently retried after a connection drop: resizing to
        a count the engine already has is a no-op.
        """
        reply = self._rpc(proto.ResizeShards(n_shards=n_shards), proto.ResizeShardsReply)
        self.shards = reply.n_shards
        return {
            "n_shards": reply.n_shards,
            "moved_sessions": reply.moved_sessions,
            "moved_jobs": reply.moved_jobs,
        }

    # ------------------------------------------------------------------ #
    # snapshot transfer
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Full service snapshot state (see :mod:`repro.service.snapshot`).

        The state travels as a :class:`~repro.service.protocol.SnapshotChunk`
        stream of at most :data:`~repro.service.protocol.DEFAULT_CHUNK_BYTES`
        payload bytes a chunk (a state that fits is one chunk).
        """
        try:
            return self._collect_state()
        except ConnectionLostError:
            if self._closed or not self._reconnect_enabled:
                raise
            self._reconnect()
            return self._collect_state()

    def _collect_state(self) -> dict:
        self._send(proto.Snapshot())
        assembler = proto.ChunkAssembler(expected_kind="snapshot")
        while True:
            chunk = self._await_reply(proto.SnapshotChunk, request_name="Snapshot")
            state = assembler.feed(chunk)
            if state is not None:
                return state

    def restore(self, state: dict) -> int:
        """Load a snapshot into the engine; returns the sessions restored.

        The state streams as ``kind="restore"`` chunks; the final chunk
        triggers the apply and is answered with a single
        :class:`~repro.service.protocol.RestoreReply`.  Not retried after a
        connection drop (whether the server applied the state is unknowable)
        — :class:`~repro.exceptions.ConnectionLostError` surfaces instead.
        """
        for chunk in proto.iter_state_chunks(state, kind="restore"):
            self._send(chunk)
        return self._await_reply(proto.RestoreReply, request_name="Restore").restored

    # ------------------------------------------------------------------ #
    # prediction stream
    # ------------------------------------------------------------------ #
    def subscribe(self, jobs: Sequence[str] | None = None) -> int:
        """Stream every published prediction to this connection.

        ``jobs`` restricts the stream to the given job ids.  Events are
        queued as they arrive and handed out by :meth:`predictions` /
        :meth:`poll_predictions`.  A client that both subscribes and pumps
        sees each update twice (once pushed, once in the pump reply) — use
        one mode or the other per connection.  The subscription is
        re-established automatically after a transparent reconnect.
        """
        job_filter = None if jobs is None else tuple(jobs)
        reply = self._rpc(proto.Subscribe(jobs=job_filter), proto.SubscribeReply)
        self._subscribed = True
        self._subscription_jobs = job_filter
        return reply.subscription

    def _queue_updates(self, updates: tuple[dict, ...]) -> None:
        for entry in updates:
            self._events.append(PredictionUpdate.from_dict(entry))

    def predictions(self) -> list[PredictionUpdate]:
        """Drain the already-received predictions (never blocks)."""
        drained = list(self._events)
        self._events.clear()
        return drained

    def poll_predictions(
        self, *, timeout: float = 0.5, min_events: int = 1
    ) -> list[PredictionUpdate]:
        """Wait up to ``timeout`` seconds for ``min_events`` predictions.

        Returns everything received (possibly more than ``min_events``, or
        fewer when the timeout strikes first).  Only useful on a subscribed
        connection — without a subscription nothing ever arrives unasked.  A
        connection drop mid-poll reconnects (the subscription is restored)
        and keeps waiting out the deadline.
        """
        deadline = time.monotonic() + timeout
        while len(self._events) < min_events:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                message = self._read_message(remaining)
            except TimeoutError:
                break
            except ConnectionLostError:
                if self._closed or not (self._reconnect_enabled and self._subscribed):
                    raise
                self._reconnect()
                continue
            if isinstance(message, proto.PredictionEvent):
                self._events.append(PredictionUpdate.from_dict(message.update))
            elif isinstance(message, proto.Error):
                raise ServiceError(f"server error ({message.code}): {message.message}")
            else:
                raise ProtocolError(
                    f"unexpected {type(message).__name__} outside a request"
                )
        return self.predictions()

    def iter_predictions(self, *, timeout: float = 0.5) -> Iterator[PredictionUpdate]:
        """Yield predictions as they arrive until ``timeout`` passes silently."""
        while True:
            batch = self.poll_predictions(timeout=timeout, min_events=1)
            if not batch:
                return
            yield from batch

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Say goodbye (best effort) and disconnect."""
        if self._closed:
            return
        try:
            self._rpc_once(proto.Close(), proto.CloseReply)
        except (OSError, ServiceError, ProtocolError):  # pragma: no cover - best effort
            pass
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
