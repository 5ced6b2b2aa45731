"""Asyncio multi-client TCP gateway in front of the prediction service.

The gateway is the network front door of the service: any number of clients
connect over TCP, negotiate a protocol version (:class:`~repro.service.
protocol.Hello`), and then drive one shared engine — a single-process
:class:`~repro.service.service.PredictionService` or a multi-process
:class:`~repro.service.sharding.ShardedService` — through the same typed
message layer the shard control channels speak (:mod:`repro.service.protocol`).

Design notes:

* **one engine, many clients** — engine calls are serialized behind one
  asyncio lock and executed on a worker thread
  (``loop.run_in_executor``), so a slow ``drain`` from one client never
  stalls the event loop: other clients keep connecting, submitting and
  subscribing meanwhile.
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
  the pull reply only during a multi-round ``Drain``.
* **reads beside writes** — ``Stats`` and the ops surface call
  ``engine.stats()`` / ``engine.metrics_snapshot()`` behind their own lock,
  never the engine lock: a sharded engine answers them from its shards'
  read threads, a single-process one from its own locked counters, and
  neither waits for a pump or snapshot in flight.
* **fail clean, never hang** — a corrupt or oversized control message, a
  version mismatch or a wrong tenant token produce a typed
  :class:`~repro.service.protocol.Error` reply and a closed connection;
  engine-side failures are reported per request and leave the connection
  usable.

:class:`ThreadedGateway` wraps the asyncio server in a background thread for
blocking callers (tests, :func:`repro.api.serve`).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections.abc import Callable
from typing import Any

from repro.exceptions import ProtocolError, ServiceError
from repro.obs import Histogram, MetricRegistry, merge_snapshots, render_prometheus
from repro.service import protocol as proto
from repro.service.publisher import PredictionUpdate
from repro.service.service import PredictionService

#: Socket read size of the gateway's per-connection loop.
_READ_CHUNK = 1 << 16


class _CloseConnection(Exception):
    """Internal flow control: the connection should be closed (not an error)."""


class _Connection:
    """Per-client state: serialized writes plus the subscription stream."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.subscribed = False
        self.jobs: frozenset[str] | None = None
        self.events: asyncio.Queue[PredictionUpdate] = asyncio.Queue()
        self.sender: asyncio.Task | None = None
        #: Reassembles an inbound chunked state transfer (restores).
        self.assembler = proto.ChunkAssembler()

    async def send(self, message: proto.Message) -> None:
        async with self.write_lock:
            self.writer.write(proto.encode_message(message))
            await self.writer.drain()

    def wants(self, update: PredictionUpdate) -> bool:
        return self.subscribed and (self.jobs is None or update.job in self.jobs)


class ServiceGateway:
    """Asyncio TCP server speaking the versioned control-plane protocol.

    Parameters
    ----------
    engine:
        The service every client drives: a :class:`PredictionService` or a
        :class:`~repro.service.sharding.ShardedService`.  The gateway does
        **not** own it — closing the gateway leaves the engine running.
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
        exposition).  Defaults to the engine's ``ServiceConfig.ops_port``.
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
    ) -> None:
        self._engine = engine
        self._requested_host = host
        self._requested_port = port
        if token is None:
            token = getattr(engine, "token", None)
            if token is None:
                token = getattr(getattr(engine, "config", None), "token", None)
        self._token = token
        self._name = name
        if ops_port is None:
            ops_port = getattr(getattr(engine, "config", None), "ops_port", None)
        self._requested_ops_port = ops_port
        # The gateway's own registry (request RTT by message type) follows
        # the engine's metrics switch so "metrics off" means off everywhere.
        metrics_on = getattr(getattr(engine, "config", None), "metrics", True)
        self._metrics: MetricRegistry | None = MetricRegistry() if metrics_on else None
        self._rtt_hists: dict[str, Histogram] = {}
        #: Optional :class:`~repro.service.autoscaler.Autoscaler` attached by
        #: the serving wrapper (:class:`ThreadedGateway`); surfaced on
        #: ``/status`` when present.  The gateway does not own its lifecycle.
        self.autoscaler = None
        self._server: asyncio.Server | None = None
        self._ops_server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._engine_lock: asyncio.Lock | None = None
        self._read_lock: asyncio.Lock | None = None
        self._connections: set[_Connection] = set()
        self._subscription: int | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """Bound listen host."""
        if self._server is None or not self._server.sockets:
            return self._requested_host
        return str(self._server.sockets[0].getsockname()[0])

    @property
    def port(self) -> int:
        """Bound listen port (the actual one when 0 was requested)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return int(self._server.sockets[0].getsockname()[1])

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
        if self._ops_server is None or not self._ops_server.sockets:
            return None
        return int(self._ops_server.sockets[0].getsockname()[1])

    async def start(self) -> "ServiceGateway":
        """Bind the listening socket and start accepting clients."""
        self._loop = asyncio.get_running_loop()
        self._engine_lock = asyncio.Lock()
        self._read_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._serve_client, self._requested_host, self._requested_port
        )
        if self._requested_ops_port is not None:
            self._ops_server = await asyncio.start_server(
                self._serve_ops, self._requested_host, self._requested_ops_port
            )
        # One engine-side subscription fans published predictions out to every
        # subscribed connection; publisher callbacks may fire on worker
        # threads, so the hop onto the loop is thread-safe.
        self._subscription = self._engine.publisher.subscribe(self._on_update)
        return self

    async def stop(self) -> None:
        """Stop accepting, drop every connection, detach from the engine."""
        if self._subscription is not None:
            self._engine.publisher.unsubscribe(self._subscription)
            self._subscription = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._ops_server is not None:
            self._ops_server.close()
            await self._ops_server.wait_closed()
            self._ops_server = None
        for connection in list(self._connections):
            if connection.sender is not None:
                connection.sender.cancel()
            connection.writer.close()
        self._connections.clear()

    # ------------------------------------------------------------------ #
    # prediction fan-out (publisher thread -> event loop -> sockets)
    # ------------------------------------------------------------------ #
    def _on_update(self, update: PredictionUpdate) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._fanout, update)

    def _fanout(self, update: PredictionUpdate) -> None:
        for connection in self._connections:
            if connection.wants(update):
                connection.events.put_nowait(update)

    async def _send_events(self, connection: _Connection) -> None:
        while True:
            update = await connection.events.get()
            await connection.send(proto.PredictionEvent(update=update.to_dict()))

    # ------------------------------------------------------------------ #
    # per-connection protocol loop
    # ------------------------------------------------------------------ #
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        connection.sender = asyncio.ensure_future(self._send_events(connection))
        decoder = proto.MessageDecoder()
        handshaken = False
        try:
            while True:
                try:
                    messages = list(decoder.messages())
                except ProtocolError as exc:
                    # Corrupt framing is unrecoverable on this connection (the
                    # byte stream cannot be resynchronized); reject and close.
                    await connection.send(proto.Error(message=str(exc), code="protocol"))
                    return
                for message in messages:
                    if not handshaken:
                        await self._handle_hello(connection, message)
                        handshaken = True
                    else:
                        await self._handle(connection, message)
                data = await reader.read(_READ_CHUNK)
                if not data:
                    return
                decoder.feed(data)
        except _CloseConnection:
            pass
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        finally:
            self._connections.discard(connection)
            if connection.sender is not None:
                connection.sender.cancel()
            writer.close()

    async def _handle_hello(self, connection: _Connection, message: proto.Message) -> None:
        answer: proto.Message
        if isinstance(message, proto.Hello):
            answer = proto.answer_hello(
                message,
                token=self._token,
                server=self._name,
                shards=int(getattr(self._engine, "n_shards", 0)),
            )
        else:
            answer = proto.Error(
                message=f"expected Hello, got {type(message).__name__}", code="protocol"
            )
        await connection.send(answer)
        if isinstance(answer, proto.Error):
            raise _CloseConnection

    async def _handle(self, connection: _Connection, message: proto.Message) -> None:
        started = time.perf_counter()
        try:
            reply = await self._dispatch(connection, message)
        except _CloseConnection:
            raise
        except ProtocolError as exc:
            # A torn chunk stream cannot be resynchronized mid-connection.
            await connection.send(proto.Error(message=str(exc), code="protocol"))
            raise _CloseConnection from exc
        except ServiceError as exc:
            reply = proto.Error(message=str(exc), code="service-error")
        except Exception as exc:  # engine-side failure: report, keep serving
            reply = proto.Error(message=f"{type(exc).__name__}: {exc}", code="internal")
        finally:
            self._observe_rtt(type(message).__name__, time.perf_counter() - started)
        for item in reply if isinstance(reply, list) else [reply]:
            await connection.send(item)

    def _observe_rtt(self, message_type: str, seconds: float) -> None:
        if self._metrics is None:
            return
        hist = self._rtt_hists.get(message_type)
        if hist is None:
            hist = self._metrics.histogram(
                "repro_gateway_request_seconds",
                {"type": message_type},
                help="Gateway request handling time by control-message type",
            )
            self._rtt_hists[message_type] = hist
        hist.observe(seconds)

    async def _dispatch(
        self, connection: _Connection, message: proto.Message
    ) -> proto.Message | list[proto.Message]:
        if isinstance(message, proto.SubmitFrames):
            data = message.data
            frames = await self._run_engine(lambda: self._engine.feed_bytes(data))
            return proto.SubmitReply(frames=frames)
        if isinstance(message, proto.Pump):
            submitted, updates = await self._run_engine(
                lambda: self._with_updates(self._pump_engine)
            )
            return proto.PumpReply(submitted=submitted, updates=updates)
        if isinstance(message, proto.Drain):
            _, updates = await self._run_engine(lambda: self._with_updates(self._engine.drain))
            return proto.DrainReply(updates=updates)
        if isinstance(message, proto.Stats):
            return proto.StatsReply(stats=await self._read_engine(self._engine.stats))
        if isinstance(message, proto.Snapshot):
            state = await self._run_engine(self._engine.snapshot_state)
            # Encoding a large state is exactly the work chunking exists for
            # — keep it off the event loop (no engine lock needed; the state
            # is already captured).
            assert self._loop is not None
            return await self._loop.run_in_executor(
                None, lambda: list(proto.iter_state_chunks(state, kind="snapshot"))
            )
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
            await self._run_engine(lambda: self._engine.restore_state(state))
            return proto.RestoreReply(restored=len(state.get("sessions", ())))
        if isinstance(message, proto.ResizeShards):
            n_shards = message.n_shards
            summary = await self._run_engine(lambda: self._reshard_engine(n_shards))
            return proto.ResizeShardsReply(
                n_shards=int(getattr(self._engine, "n_shards", 0)),
                moved_sessions=int(summary["moved_sessions"]),
                moved_jobs=tuple(summary["moved_jobs"]),
            )
        if isinstance(message, proto.FinishJob):
            job = message.job
            await self._run_engine(lambda: self._engine.finish_job(job))
            return proto.FinishJobReply(job=job)
        if isinstance(message, proto.Subscribe):
            connection.jobs = None if message.jobs is None else frozenset(message.jobs)
            connection.subscribed = True
            return proto.SubscribeReply(subscription=id(connection) & 0x7FFFFFFF)
        if isinstance(message, proto.Close):
            await connection.send(proto.CloseReply())
            raise _CloseConnection
        if isinstance(message, proto.Hello):
            return proto.Error(message="conversation already established", code="protocol")
        return proto.Error(
            message=f"unsupported gateway message {type(message).__name__}", code="unsupported"
        )

    # ------------------------------------------------------------------ #
    # engine access
    # ------------------------------------------------------------------ #
    async def _run_engine(self, fn: Callable[[], Any]) -> Any:
        """Run one blocking engine call off-loop, serialized across clients."""
        assert self._loop is not None and self._engine_lock is not None
        async with self._engine_lock:
            return await self._loop.run_in_executor(None, fn)

    async def _read_engine(self, fn: Callable[[], Any]) -> Any:
        """Run a read-only engine call off-loop, behind its own lock.

        ``engine.stats()`` / ``engine.metrics_snapshot()`` must not queue
        behind a pump or snapshot holding :attr:`_engine_lock` — that lock
        exists to serialize *mutating* traffic.  Both engines answer reads
        beside a pump: a sharded one from its shards' read threads, a
        single-process one from counters it guards with its own locks.
        """
        assert self._loop is not None and self._read_lock is not None
        async with self._read_lock:
            return await self._loop.run_in_executor(None, fn)

    def _reshard_engine(self, n_shards: int) -> dict:
        reshard = getattr(self._engine, "reshard", None)
        if reshard is None:
            raise ServiceError(
                "the engine is single-process; live resharding requires a "
                "sharded deployment (serve with shards >= 1)"
            )
        return reshard(n_shards)

    async def resize(self, n_shards: int) -> dict:
        """Live-reshard the engine to ``n_shards`` (serialized like any call)."""
        return await self._run_engine(lambda: self._reshard_engine(n_shards))

    def _pump_engine(self) -> int:
        if isinstance(self._engine, PredictionService):
            submitted = self._engine.pump(wait_for_batch=True)
            self._engine.dispatcher.join()
            return submitted
        return self._engine.pump()

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
        if self.autoscaler is not None:
            document["autoscale"] = self.autoscaler.status()
        return document

    async def _ops_body(self, path: str) -> tuple[int, str, str]:
        """Resolve an ops route to ``(http_status, content_type, body)``."""
        if path == "/healthz":
            return 200, "text/plain; charset=utf-8", "ok\n"
        if path == "/status":
            document = await self._read_engine(self._status_document)
            return 200, "application/json", json.dumps(document) + "\n"
        if path == "/metrics":
            snapshot = await self._read_engine(self._merged_metrics)
            exposition = render_prometheus(snapshot)
            return 200, "text/plain; version=0.0.4; charset=utf-8", exposition
        return 404, "text/plain; charset=utf-8", f"unknown ops path {path!r}\n"

    async def _serve_ops(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1 responder for scrapers and health checks.

        One request per connection (``Connection: close``) — ops traffic is a
        poll every few seconds, not a hot path, and closing keeps the parser
        trivial and stdlib-only.
        """
        try:
            request_line = await reader.readline()
            while True:  # drain headers up to the blank line
                header = await reader.readline()
                if header in (b"", b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2 or parts[0] != "GET":
                status, content_type, body = (
                    405,
                    "text/plain; charset=utf-8",
                    "only GET is supported\n",
                )
            else:
                path = parts[1].split("?", 1)[0]
                try:
                    status, content_type, body = await self._ops_body(path)
                except Exception as exc:  # engine trouble must not kill the listener
                    status, content_type, body = (
                        500,
                        "text/plain; charset=utf-8",
                        f"{type(exc).__name__}: {exc}\n",
                    )
            reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}.get(
                status, "Internal Server Error"
            )
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()


class ThreadedGateway:
    """A :class:`ServiceGateway` running its own event loop in a thread.

    Blocking callers (tests, :func:`repro.api.serve`) start it, read
    :attr:`host`/:attr:`port`, connect :class:`~repro.client.ServiceClient`
    instances against it, and :meth:`close` it when done::

        with ThreadedGateway(service).start() as gateway:
            client = ServiceClient(gateway.host, gateway.port)

    With ``own_engine=True`` closing the gateway also closes the engine.
    With ``autoscale=AutoscaleConfig(...)`` (sharded engines only) the
    gateway owns an :class:`~repro.service.autoscaler.Autoscaler` whose
    resizes go through :meth:`resize` — i.e. behind the same engine lock
    every client request takes — and whose decision timeline shows up in
    the ``/status`` document under ``"autoscale"``.
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
        self._kwargs: dict[str, Any] = {
            "host": host,
            "port": port,
            "token": token,
            "name": name,
            "ops_port": ops_port,
        }
        self._own_engine = own_engine
        self._autoscale = autoscale
        self._autoscaler = None
        self._gateway: ServiceGateway | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    @property
    def engine(self):
        """The service this gateway fronts."""
        return self._engine

    @property
    def host(self) -> str:
        """Bound listen host."""
        assert self._gateway is not None, "gateway not started"
        return self._gateway.host

    @property
    def port(self) -> int:
        """Bound listen port."""
        assert self._gateway is not None, "gateway not started"
        return self._gateway.port

    @property
    def address(self) -> str:
        """``host:port`` of the listening socket."""
        assert self._gateway is not None, "gateway not started"
        return self._gateway.address

    @property
    def ops_port(self) -> int | None:
        """Bound ops-listener port (``None`` when off or not yet bound)."""
        assert self._gateway is not None, "gateway not started"
        return self._gateway.ops_port

    def start(self) -> "ThreadedGateway":
        """Start the server thread; returns once the socket is bound."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            error, self._error = self._error, None
            self._thread.join()
            self._thread = None
            raise error
        if self._autoscale is not None:
            if getattr(self._engine, "reshard", None) is None:
                raise ServiceError(
                    "autoscaling requires a sharded engine; serve with "
                    "shards >= 1 to make the topology mutable"
                )
            from repro.service.autoscaler import Autoscaler

            # Resizes go through the gateway so they take the engine lock —
            # an autoscaler-initiated reshard never interleaves with an
            # in-flight client pump/snapshot.
            self._autoscaler = Autoscaler(
                self._engine, self._autoscale, resize=self.resize
            )
            assert self._gateway is not None
            self._gateway.autoscaler = self._autoscaler
            self._autoscaler.start()
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            gateway = ServiceGateway(self._engine, **self._kwargs)
            await gateway.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._gateway = gateway
        self._ready.set()
        await self._stop.wait()
        await gateway.stop()

    def resize(self, n_shards: int) -> dict:
        """Live-reshard the served engine to ``n_shards`` worker shards.

        The reshard runs on the gateway's event loop behind the same engine
        lock every client request takes, so it never interleaves with an
        in-flight ``pump``/``snapshot`` — in-progress client calls finish,
        then the topology changes, then traffic resumes.  Returns the
        :meth:`~repro.service.sharding.ShardedService.reshard` summary.
        Raises :class:`~repro.exceptions.ServiceError` for a single-process
        engine (serve with ``shards >= 1`` to make the topology mutable).
        """
        assert self._gateway is not None and self._loop is not None, "gateway not started"
        future = asyncio.run_coroutine_threadsafe(
            self._gateway.resize(n_shards), self._loop
        )
        return future.result()

    @property
    def autoscaler(self):
        """The gateway-owned autoscaler (``None`` unless serving with one)."""
        return self._autoscaler

    def close(self) -> None:
        """Stop the server, join the thread, optionally close the engine."""
        if self._autoscaler is not None:
            # Stop the control loop before the event loop it resizes through.
            self._autoscaler.stop()
            self._autoscaler = None
        thread = self._thread
        if thread is not None and thread.is_alive():
            assert self._loop is not None and self._stop is not None
            self._loop.call_soon_threadsafe(self._stop.set)
            thread.join(timeout=10.0)
        self._thread = None
        if self._own_engine:
            self._engine.close()

    def __enter__(self) -> "ThreadedGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
