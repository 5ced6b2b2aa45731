"""Multi-client TCP gateway in front of the prediction service.

The gateway is the network front door of the service: any number of clients
connect over TCP, negotiate a protocol version (:class:`~repro.service.
protocol.Hello`), and then drive one shared engine — a single-process
:class:`~repro.service.service.PredictionService` or a multi-process
:class:`~repro.service.sharding.ShardedService` — through the same typed
message layer (:mod:`repro.service.protocol`) and the same endpoint
(:class:`~repro.service.transport.Channel`) the shard control channels use.

It is a :class:`~repro.service.transport.Listener` like the dial-home one: an
accept thread, and a thread per connection that receives a request, calls
the engine and sends the reply.  Design notes:

* **one engine, many clients** — mutating engine calls are serialized behind
  one lock, so a slow ``drain`` from one client holds up that client's thread
  and whoever queues behind the lock, nobody else: other clients keep
  connecting, reading stats and subscribing meanwhile.
* **data plane stays FTS1** — flush frames travel verbatim inside
  :class:`~repro.service.protocol.SubmitFrames`; the engine classifies them
  header-only exactly as it does for spool files and socketpairs.
* **push and pull results** — :class:`~repro.service.protocol.Pump` /
  ``Drain`` replies carry the updates published during that call (pull),
  and a :class:`~repro.service.protocol.Subscribe` turns the connection into
  a live :class:`~repro.service.protocol.PredictionEvent` stream (push).
  Both read the engine's one ``publisher``; behind a sharded engine that is
  the router's merged publisher, fed by the shards' pump replies, so a
  pushed event is as fresh as the pump that evaluated it — it gets ahead of
  the pull reply only during a multi-round ``Drain``.  The publisher's
  callback only queues, and a sender thread per subscriber writes: a
  subscriber that stops reading fills its queue (:data:`MAX_QUEUED_EVENTS`)
  and is hung up on, never waited for.
* **reads beside writes** — ``Stats`` and the ops surface call
  ``engine.stats()`` / ``engine.metrics_snapshot()`` behind their own lock,
  never the engine lock: a sharded engine answers them from its shards'
  read threads, a single-process one from its own locked counters, and
  neither waits for a pump or snapshot in flight.
* **fail clean, never hang** — a corrupt or oversized control message, a
  version mismatch or a wrong tenant token produce a typed
  :class:`~repro.service.protocol.Error` reply and a closed connection, a
  ``Hello`` not finished within :data:`~repro.service.transport.
  HANDSHAKE_TIMEOUT` a closed connection; engine-side failures are reported
  per request and leave the connection usable.
"""

from __future__ import annotations

import functools
import json
import queue
import socket
import threading
import time
from collections.abc import Callable, Sequence
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.exceptions import ProtocolError, ServiceError
from repro.obs import MetricRegistry, merge_snapshots, render_prometheus
from repro.service import protocol as proto
from repro.service.publisher import PredictionUpdate
from repro.service.transport import HANDSHAKE_TIMEOUT, Channel, Listener

#: Published updates a subscribed connection may hold unsent before the
#: gateway hangs up on it.  A pump publishes one update per due job in a tight
#: loop, so this is a burst no deployment here comes near; a subscriber
#: further behind than that is not reading.
MAX_QUEUED_EVENTS = 16384


class _Connection:
    """Per-client state: the channel, an inbound restore, the push stream."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        #: Reassembles an inbound chunked state transfer (restores).
        self.assembler = proto.ChunkAssembler()
        #: The push stream, live once ``sender`` is: the publisher subscription
        #: that fills ``events`` and the thread that empties it onto the
        #: channel (``None`` in the queue tells it to stop).
        self.subscription: int | None = None
        self.events: queue.Queue[PredictionUpdate | None] = queue.Queue(MAX_QUEUED_EVENTS)
        self.sender: threading.Thread | None = None
        #: Set (by a publishing thread) when ``events`` overflowed.
        self.stalled = False

    def send_events(self) -> None:
        while (update := self.events.get()) is not None:
            try:
                self.channel.send(proto.PredictionEvent(update=update.to_dict()))
            except OSError:  # hung up; the connection thread cleans up
                return


class _OpsHandler(BaseHTTPRequestHandler):
    """``GET /healthz | /status | /metrics`` for scrapers and health checks.

    One request per connection (``Connection: close``) — ops traffic is a
    poll every few seconds, not a hot path.  A peer that connects and does
    not finish its request line and headers within
    :data:`~repro.service.transport.HANDSHAKE_TIMEOUT` is hung up on, like a
    client that never finishes its ``Hello``: each connection holds a thread.
    """

    protocol_version = "HTTP/1.1"
    #: Socket timeout ``StreamRequestHandler.setup`` applies to the connection;
    #: ``handle_one_request`` drops the connection on the ``TimeoutError``.
    timeout = HANDSHAKE_TIMEOUT

    def __init__(self, gateway: ThreadedGateway, *args: Any) -> None:
        self._gateway = gateway
        super().__init__(*args)  # serves the request

    def do_GET(self) -> None:  # noqa: N802 - the name http.server dispatches to
        try:
            status, content_type, body = self._gateway._ops_body(self.path.split("?", 1)[0])
        except Exception as exc:  # engine trouble must not kill the listener
            status, content_type = 500, "text/plain; charset=utf-8"
            body = f"{type(exc).__name__}: {exc}\n"
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # http.server's default writes an access log to stderr


class ThreadedGateway:
    """TCP server speaking the versioned control-plane protocol.

    Blocking callers (tests, :func:`repro.api.serve`) start it, read
    :attr:`host`/:attr:`port`, connect :class:`~repro.client.ServiceClient`
    instances against it, and :meth:`close` it when done::

        with ThreadedGateway(service).start() as gateway:
            client = ServiceClient(gateway.host, gateway.port)

    Parameters
    ----------
    engine:
        The service every client drives: a :class:`PredictionService` or a
        :class:`~repro.service.sharding.ShardedService`.
    host, port:
        Listen address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    token:
        Require every client's :class:`~repro.service.protocol.Hello` to
        present this tenant/auth nibble (defaults to the engine's configured
        token).
    name:
        Server name reported in the :class:`~repro.service.protocol.
        HelloReply`.
    ops_port:
        When not ``None``, serve the HTTP ops surface on this port (``0``
        picks a free one; read :attr:`ops_port` after :meth:`start`):
        ``GET /healthz`` (liveness), ``GET /status`` (the merged
        stats/metrics tree as JSON) and ``GET /metrics`` (Prometheus text
        exposition).
    own_engine:
        Closing the gateway also closes the engine.
    autoscale:
        An :class:`~repro.service.autoscaler.AutoscaleConfig` (sharded
        engines only): the gateway owns an
        :class:`~repro.service.autoscaler.Autoscaler` whose resizes and
        revives take the same engine lock every client request takes, and
        whose decision timeline shows up in the ``/status`` document under
        ``"autoscale"``.
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: int | None = None,
        name: str = "repro-gateway",
        ops_port: int | None = None,
        own_engine: bool = False,
        autoscale=None,
    ) -> None:
        self._engine = engine
        self._address = (host, port)
        config = getattr(engine, "config", None)
        if token is None:
            token = getattr(engine, "token", None)
            if token is None:
                token = getattr(config, "token", None)
        self._token = token
        self._name = name
        self._requested_ops_port = ops_port
        self._own_engine = own_engine
        self._autoscale = autoscale
        self._autoscaler = None
        # The gateway's own registry (request RTT by message type, dropped
        # subscribers) follows the engine's metrics switch so "metrics off"
        # means off everywhere.
        self._metrics = MetricRegistry() if getattr(config, "metrics", True) else None
        self._dropped_subscribers = (
            None
            if self._metrics is None
            else self._metrics.counter(
                "repro_gateway_dropped_subscribers_total",
                help="Subscribed connections closed because they stopped reading events",
            )
        )
        #: Serializes every engine call that mutates, or must not run beside
        #: one that does: client requests, resizes, revives.
        self._engine_lock = threading.Lock()
        #: Serializes the read-only calls among themselves; see :meth:`_ops_body`.
        self._read_lock = threading.Lock()
        self._listener: Listener | None = None
        self._ops: ThreadingHTTPServer | None = None
        self._ops_thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The service this gateway fronts."""
        return self._engine

    @property
    def host(self) -> str:
        """Bound listen host."""
        assert self._listener is not None, "gateway not started"
        return self._listener.host

    @property
    def port(self) -> int:
        """Bound listen port (the actual one when 0 was requested)."""
        assert self._listener is not None, "gateway not started"
        return self._listener.port

    @property
    def address(self) -> str:
        """``host:port`` of the listening socket."""
        return f"{self.host}:{self.port}"

    @property
    def ops_port(self) -> int | None:
        """Bound ops-listener port.

        ``None`` when the ops surface is off *or not yet bound* — returning
        the requested port before the listener exists would hand callers a
        ``0`` placeholder (with ``ops_port=0`` pick-a-free-port) or a port
        nothing is listening on yet.
        """
        return None if self._ops is None else int(self._ops.server_address[1])

    @property
    def autoscaler(self):
        """The gateway-owned autoscaler (``None`` unless serving with one)."""
        return self._autoscaler

    def start(self) -> "ThreadedGateway":
        """Bind the listening sockets and start serving; a failure closes
        whatever had started."""
        if self._listener is not None:
            return self
        try:
            if self._autoscale is not None and getattr(self._engine, "reshard", None) is None:
                raise ServiceError(
                    "autoscaling requires a sharded engine; serve with "
                    "shards >= 1 to make the topology mutable"
                )
            self._listener = Listener(
                *self._address, self._serve_client, token=self._token, name=self._name
            )
            if self._requested_ops_port is not None:
                self._ops = ThreadingHTTPServer(
                    (self._address[0], self._requested_ops_port),
                    functools.partial(_OpsHandler, self),
                )
                # The short poll bounds how long close() waits for the loop.
                self._ops_thread = threading.Thread(
                    target=self._ops.serve_forever, args=(0.05,),
                    name=f"{self._name}-ops", daemon=True,
                )
                self._ops_thread.start()
            if self._autoscale is not None:
                from repro.service.autoscaler import Autoscaler

                # Resizes and revives go through the gateway so they take
                # the engine lock — neither interleaves with an in-flight
                # client pump/snapshot on the shards' control channels.
                self._autoscaler = Autoscaler(
                    self._engine, self._autoscale, resize=self.resize, revive=self._revive
                )
                self._autoscaler.start()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop serving, hang up on every client, join every thread.

        A request already inside the engine finishes first; an owned engine
        is closed after the last connection thread has left it.
        """
        if self._closed:
            return
        self._closed = True
        if self._autoscaler is not None:
            self._autoscaler.stop()
            self._autoscaler = None
        if self._listener is not None:
            self._listener.close()
        if self._ops is not None:
            if self._ops_thread is not None:  # else start() failed before it
                self._ops.shutdown()
                self._ops_thread.join()
            self._ops.server_close()
        if self._own_engine:
            self._engine.close()

    def __enter__(self) -> "ThreadedGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # per-connection protocol loop (a thread each)
    # ------------------------------------------------------------------ #
    def _serve_client(self, sock: socket.socket) -> None:
        connection = _Connection(Channel(sock))
        channel = connection.channel
        try:
            if not self._handshake(channel):
                return
            while True:
                try:
                    request = channel.recv()
                    reply = self._answer(connection, request)
                except ProtocolError as exc:
                    # Neither a stream that stopped parsing nor a torn chunk
                    # run can be resynchronized: typed rejection, then hang up.
                    channel.send(proto.Error(message=str(exc), code="protocol"))
                    return
                for item in reply if isinstance(reply, list) else [reply]:
                    channel.send(item)
                if isinstance(request, proto.Close):
                    return
        except (OSError, EOFError):  # the client went away, or close() hung up
            pass
        finally:
            if connection.subscription is not None:
                self._engine.publisher.unsubscribe(connection.subscription)
            channel.close()
            if connection.stalled and self._dropped_subscribers is not None:
                self._dropped_subscribers.inc()
            if connection.sender is not None:
                try:
                    connection.events.put_nowait(None)
                except queue.Full:  # then the sender is not waiting on it
                    pass
                connection.sender.join()

    def _handshake(self, channel: Channel) -> bool:
        assert self._listener is not None
        try:
            first = channel.recv(HANDSHAKE_TIMEOUT)
        except ProtocolError as exc:
            self._listener.reject(channel, proto.Error(message=str(exc), code="protocol"))
            return False
        except (OSError, EOFError):  # gone, or no whole message in time
            self._listener.reject(channel)
            return False
        return self._listener.greet(
            channel, first, shards=int(getattr(self._engine, "n_shards", 0))
        )

    def _answer(
        self, connection: _Connection, request: proto.Message
    ) -> proto.Message | list[proto.Message]:
        started = time.perf_counter()
        try:
            return self._dispatch(connection, request)
        except ProtocolError:
            raise
        except ServiceError as exc:
            return proto.Error(message=str(exc), code="service-error")
        except Exception as exc:  # engine-side failure: report, keep serving
            return proto.Error(message=f"{type(exc).__name__}: {exc}", code="internal")
        finally:
            if self._metrics is not None:
                self._metrics.histogram(
                    "repro_gateway_request_seconds",
                    {"type": type(request).__name__},
                    help="Gateway request handling time by control-message type",
                ).observe(time.perf_counter() - started)

    def _dispatch(
        self, connection: _Connection, message: proto.Message
    ) -> proto.Message | list[proto.Message]:
        if isinstance(message, proto.SubmitFrames):
            with self._engine_lock:
                return proto.SubmitReply(frames=self._engine.feed_bytes(message.data))
        if isinstance(message, proto.Pump):
            with self._engine_lock:
                submitted, updates = self._with_updates(self._engine.pump)
            return proto.PumpReply(submitted=submitted, updates=updates)
        if isinstance(message, proto.Drain):
            with self._engine_lock:
                _, updates = self._with_updates(self._engine.drain)
            return proto.DrainReply(updates=updates)
        if isinstance(message, proto.Stats):
            with self._read_lock:
                return proto.StatsReply(stats=self._engine.stats())
        if isinstance(message, proto.Snapshot):
            with self._engine_lock:
                state = self._engine.snapshot_state()
            # Encoded outside the lock: the state is already captured.
            return list(proto.iter_state_chunks(state, kind="snapshot"))
        if isinstance(message, proto.SnapshotChunk):
            if not connection.assembler.receiving and message.kind != "restore":
                return proto.Error(
                    message=f"the gateway only accepts 'restore' chunk streams, "
                    f"got {message.kind!r}",
                    code="unsupported",
                )
            state = connection.assembler.feed(message)
            if state is None:
                return []
            with self._engine_lock:
                self._engine.restore_state(state)
            return proto.RestoreReply(restored=len(state.get("sessions", ())))
        if isinstance(message, proto.ResizeShards):
            summary = self.resize(message.n_shards)
            return proto.ResizeShardsReply(
                n_shards=int(getattr(self._engine, "n_shards", 0)),
                moved_sessions=int(summary["moved_sessions"]),
                moved_jobs=tuple(summary["moved_jobs"]),
            )
        if isinstance(message, proto.FinishJob):
            with self._engine_lock:
                self._engine.finish_job(message.job)
            return proto.FinishJobReply(job=message.job)
        if isinstance(message, proto.Subscribe):
            return proto.SubscribeReply(subscription=self._subscribe(connection, message.jobs))
        if isinstance(message, proto.Close):
            return proto.CloseReply()
        if isinstance(message, proto.Hello):
            return proto.Error(message="conversation already established", code="protocol")
        return proto.Error(
            message=f"unsupported gateway message {type(message).__name__}", code="unsupported"
        )

    # ------------------------------------------------------------------ #
    # prediction push (publisher thread -> queue -> sender thread -> socket)
    # ------------------------------------------------------------------ #
    def _subscribe(self, connection: _Connection, jobs: Sequence[str] | None) -> int:
        if connection.sender is None:
            connection.sender = threading.Thread(
                target=connection.send_events, name=f"{self._name}-sender", daemon=True
            )
            connection.sender.start()
        publisher, previous = self._engine.publisher, connection.subscription
        connection.subscription = publisher.subscribe(
            functools.partial(self._offer, connection), jobs=jobs
        )
        if previous is not None:  # a new filter replaces the old, without a gap
            publisher.unsubscribe(previous)
        return connection.subscription

    def _offer(self, connection: _Connection, update: PredictionUpdate) -> None:
        """Publisher callback: queue, never block on the client's socket."""
        try:
            connection.events.put_nowait(update)
        except queue.Full:
            # The peer stopped reading its events.  Hanging up wakes the
            # connection's threads, which clean up (and count the drop, once);
            # a ServiceClient at the other end reconnects and re-subscribes.
            connection.stalled = True
            connection.channel.close()

    # ------------------------------------------------------------------ #
    # engine access
    # ------------------------------------------------------------------ #
    def resize(self, n_shards: int) -> dict:
        """Live-reshard the served engine to ``n_shards`` worker shards.

        The reshard takes the same engine lock every client request takes,
        so it never interleaves with an in-flight ``pump``/``snapshot`` —
        in-progress client calls finish, then the topology changes, then
        traffic resumes.  Returns the
        :meth:`~repro.service.sharding.ShardedService.reshard` summary.
        Raises :class:`~repro.exceptions.ServiceError` for a single-process
        engine (serve with ``shards >= 1`` to make the topology mutable).
        """
        reshard = getattr(self._engine, "reshard", None)
        if reshard is None:
            raise ServiceError(
                "the engine is single-process; live resharding requires a "
                "sharded deployment (serve with shards >= 1)"
            )
        with self._engine_lock:
            return reshard(n_shards)

    def _revive(self, index: int) -> None:
        """The autoscaler's revive, engine-locked: respawn, restore and spool
        replay run on the control channels a client's pump uses."""
        with self._engine_lock:
            self._engine.revive_shard(index)

    def _with_updates(self, fn: Callable[[], Any]) -> tuple[Any, tuple[dict, ...]]:
        """Capture the updates published while ``fn`` runs (for pull replies)."""
        captured: list[dict] = []
        subscription = self._engine.publisher.subscribe(
            lambda update: captured.append(update.to_dict())
        )
        try:
            result = fn()
        finally:
            self._engine.publisher.unsubscribe(subscription)
        return result, tuple(captured)

    # ------------------------------------------------------------------ #
    # ops HTTP surface (/healthz, /status, /metrics)
    # ------------------------------------------------------------------ #
    def _merged_metrics(self) -> dict:
        """Engine metrics (cross-shard merged) + the gateway's own registry."""
        snapshots = [self._engine.metrics_snapshot()]
        if self._metrics is not None:
            snapshots.append(self._metrics.collect())
        return merge_snapshots(snapshots)

    def _status_document(self) -> dict:
        """The ``/status`` body: full stats tree, merged metrics, spans."""
        document: dict[str, Any] = {
            "server": self._name,
            "healthy": True,
            "shards": int(getattr(self._engine, "n_shards", 0)),
            "stats": self._engine.stats(),
            "metrics": self._merged_metrics(),
        }
        details = getattr(self._engine, "shard_details", None)
        if details is not None:
            document["shards_detail"] = details()
        spans = getattr(self._engine, "spans_snapshot", None)
        if spans is not None:
            document["spans"] = spans()
        if self._autoscaler is not None:
            document["autoscale"] = self._autoscaler.status()
        return document

    def _ops_body(self, path: str) -> tuple[int, str, str]:
        """Resolve an ops route to ``(http_status, content_type, body)``.

        Reads take :attr:`_read_lock`, never the engine lock — that one
        serializes *mutating* traffic, and ``engine.stats()`` /
        ``engine.metrics_snapshot()`` must not queue behind a pump or
        snapshot holding it.  Both engines answer reads beside a pump: a
        sharded one from its shards' read threads, a single-process one from
        counters it guards with its own locks.
        """
        if path == "/healthz":
            return 200, "text/plain; charset=utf-8", "ok\n"
        if path == "/status":
            with self._read_lock:
                document = self._status_document()
            return 200, "application/json", json.dumps(document) + "\n"
        if path == "/metrics":
            with self._read_lock:
                snapshot = self._merged_metrics()
            exposition = render_prometheus(snapshot)
            return 200, "text/plain; version=0.0.4; charset=utf-8", exposition
        return 404, "text/plain; charset=utf-8", f"unknown ops path {path!r}\n"
