"""Shard worker: the loop every shard runs, and the dial-home way into it.

:func:`shard_main` is one shard — a full
:class:`~repro.service.service.PredictionService` driven over three sockets:
a data plane, and a control and a read
:class:`~repro.service.transport.Channel` (see
:mod:`repro.service.supervisor`, which forks it over three ``socketpair``s
for a *local* shard); a *remote* shard is the same function entered through
:class:`ShardWorker` over three TCP connections.

A :class:`~repro.service.sharding.ShardedService` configured with
``placement=["remote", ...]`` does not fork those slots — it adopts workers
that *dial home* to its :class:`~repro.service.transport.ShardListener`
(only the router needs a routable address; workers can sit behind NAT).
:class:`ShardWorker` is the worker side of that adoption:

1. **Dial + handshake** — connect to ``host:port`` (with retry/backoff: the
   worker may come up before the router) and offer the standard FTC1
   handshake (:meth:`~repro.service.transport.Channel.hello`: token,
   versions).  The dial's deadline ends with the dial: the sockets block.
2. **Register** — announce identity and capacity with
   :class:`~repro.service.protocol.RegisterShard` (name, hostname, pid,
   cpu count), then block — for as long as it takes, a parked worker is a
   hot spare — until the router adopts this worker into a shard
   slot (:class:`~repro.service.protocol.RegisterShardReply` carrying the
   slot index, the wire-form :class:`~repro.service.service.ServiceConfig`
   and a one-time pairing key).
3. **Attach** — open two more TCP connections to the same listener, each
   introducing itself with :class:`~repro.service.protocol.AttachChannel`
   (the pairing key + ``"data"`` / ``"read"``): the framed-TCP data plane
   and the read plane.
4. **Serve** — run :func:`shard_main` with the dial connection as the
   control channel.  From here on the router cannot tell this worker from a
   local fork except by looking at ``shard_details()``.
"""

from __future__ import annotations

import os
import select
import selectors
import socket
import threading
import time
from collections.abc import Callable

from repro.exceptions import ProtocolError, ServiceError
from repro.service import protocol as proto
from repro.service.ring import HashRing
from repro.service.service import PredictionService, ServiceConfig
from repro.service.shm_ring import RingHandle, ShmRingReader
from repro.service.snapshot import apply_state, extract_service_jobs, snapshot_state
from repro.service.transport import HANDSHAKE_TIMEOUT, Channel, config_from_wire

#: Socket read size of the shard ingestion loop.
_RECV_CHUNK = 1 << 16


def _stats_reply(service: PredictionService, bytes_received: int) -> proto.StatsReply:
    """This shard's stats as one :class:`~repro.service.protocol.StatsReply`.

    Whatever has been ingested so far: the read thread answers immediately,
    with no ``expected_bytes`` barrier — like a scrape of a single-process
    service racing its ingest loop.
    """
    broker = service.broker.stats
    dispatch = service.dispatcher.stats
    return proto.StatsReply(
        stats={
            "service": service.stats(),
            "broker": vars(broker),
            "dispatcher": vars(dispatch),
            "jobs": list(service.jobs),
            # The full mergeable latency distribution: the router merges
            # these bucket-wise, so the aggregated p99 weighs every detection
            # of every shard by volume.
            "detect_hist": service.dispatcher.detect_histogram.to_dict(),
            "bytes_received": bytes_received,
        }
    )


def _serve_read_plane(
    channel: Channel,
    service: PredictionService,
    bytes_received: Callable[[], int],
) -> None:
    """Serve read-only requests on a shard's second channel, in its own thread.

    Answers Heartbeat / Stats / MetricsReport — the only place a shard does —
    without touching the control plane, so the router (and through it the
    gateway's ops surface) reads liveness and counters even while the worker
    loop is deep inside a pump — and a worker whose *process* is wedged
    (SIGSTOP, runaway C extension) stops answering heartbeats here, which is
    exactly the signal the router's liveness timeout keys on.  Strictly one
    reply per request: nothing unsolicited ever travels on this channel.
    """
    while True:
        try:
            request = channel.recv()
        except (EOFError, OSError, ProtocolError):
            return
        try:
            reply: proto.Message
            if isinstance(request, proto.Heartbeat):
                # Echo the sender's clock so the router computes RTT without
                # any cross-host clock agreement.
                reply = proto.HeartbeatReply(seq=request.seq, sent_at=request.sent_at)
            elif isinstance(request, proto.Stats):
                reply = _stats_reply(service, bytes_received())
            elif isinstance(request, proto.MetricsReport):
                # An (empty) report is the poll; the reply carries this
                # shard's registry snapshot for the router to merge.
                reply = proto.MetricsReport(metrics=service.metrics_snapshot())
            else:
                reply = proto.Error(
                    message=f"unsupported read-plane message {type(request).__name__}",
                    code="unsupported",
                )
        except Exception as exc:  # surface shard-side errors, keep serving
            reply = proto.Error(message=f"{type(exc).__name__}: {exc}", code="internal")
        try:
            channel.send(reply)
        except OSError:
            return


def shard_main(
    index: int,
    config: ServiceConfig,
    data_sock: socket.socket,
    control_sock: socket.socket,
    ring_handle: RingHandle | None,
    read_sock: socket.socket,
) -> None:
    """Control loop of one shard: select over the data and control channels.

    The three sockets are one end of a ``socketpair`` each (a forked shard:
    sockets are what crosses ``Process(args=...)`` under fork, spawn and
    forkserver alike) or of a TCP connection (a dialed-home one).  With a
    ``ring_handle``, frame bytes arrive through the shared-memory ring and
    ``data_sock`` is its doorbell (byte totals only); with ``None``
    (``ring_bytes=0``, and every remote worker) ``data_sock`` carries the
    frame bytes itself.  ``control_sock`` and ``read_sock`` each become a
    :class:`~repro.service.transport.Channel` carrying the typed envelopes of
    :mod:`repro.service.protocol`; a daemon thread serves the read-only
    requests of the second — see :func:`_serve_read_plane`.
    """
    control = Channel(control_sock)
    read_channel = Channel(read_sock)
    service = PredictionService(config)
    updates: list[dict] = []
    service.publisher.subscribe(lambda update: updates.append(update.to_dict()))
    bytes_received = 0
    data_eof = False
    threading.Thread(
        target=_serve_read_plane,
        args=(read_channel, service, lambda: bytes_received),
        name=f"shard-{index}-read-plane",
        daemon=True,
    ).start()
    # Non-blocking: a control handler may drain the socket ahead of the
    # selector loop, leaving the loop's readiness event stale — a blocking
    # recv on a stale event would deadlock the shard.
    data_sock.setblocking(False)
    ring = ShmRingReader(ring_handle, data_sock) if ring_handle is not None else None

    def drain_updates() -> tuple[dict, ...]:
        drained = tuple(updates)
        del updates[: len(drained)]
        return drained

    def read_available() -> None:
        # Ingest whatever the data channel holds right now (never blocks).
        nonlocal bytes_received, data_eof
        if ring is not None:
            while not data_eof:
                ring.pump_doorbell()
                views = ring.views()
                if not views:
                    if ring.eof:
                        data_eof = True
                    return
                for view in views:
                    # The view borrows ring memory: the broker decodes frames
                    # straight out of it and materializes only an undecoded
                    # tail, so the memory can be released and acknowledged
                    # (= reused by the router) immediately after.
                    bytes_received += len(view)
                    service.feed_borrowed(view)
                    view.release()
                ring.ack()
            return
        while not data_eof:
            try:
                chunk = data_sock.recv(_RECV_CHUNK)
            except BlockingIOError:
                return
            if not chunk:
                data_eof = True
                return
            bytes_received += len(chunk)
            service.feed_bytes(chunk)

    def sync_to(expected: int | None) -> None:
        # The router counted its sends; catch the data plane up to that mark
        # before acting on a control message that depends on it.
        read_available()
        if expected is None:
            return
        while bytes_received < expected and not data_eof:
            select.select([data_sock], [], [])
            read_available()

    assembler = proto.ChunkAssembler()

    done = False  # set by the two handlers that hang up after their reply

    def handle(request: proto.Message) -> list[proto.Message]:
        nonlocal done
        if isinstance(request, proto.Hello):
            # No token to check: the peer is the router that forked this
            # shard, or the one it dialed and presented its own token to.
            answer = proto.answer_hello(
                request, token=None, server=f"prediction-shard-{index}"
            )
            # A router of another protocol generation cannot drive this
            # shard: typed rejection, then hang up.
            done = isinstance(answer, proto.Error)
            return [answer]
        if isinstance(request, proto.Pump):
            sync_to(request.expected_bytes)
            submitted = service.pump()
            return [proto.PumpReply(submitted=submitted, updates=drain_updates())]
        if isinstance(request, proto.Drain):
            sync_to(request.expected_bytes)
            service.drain()
            return [proto.DrainReply(updates=drain_updates())]
        if isinstance(request, proto.Snapshot):
            sync_to(request.expected_bytes)
            return list(proto.iter_state_chunks(snapshot_state(service), kind="snapshot"))
        if isinstance(request, proto.ExtractJobs):
            # The migration source: drain the data plane up to the router's
            # mark, then capture-and-remove the moving jobs in one step.
            sync_to(request.expected_bytes)
            state = extract_service_jobs(service, request.jobs)
            return list(proto.iter_state_chunks(state, kind="extract"))
        if isinstance(request, proto.SnapshotChunk):
            kind = request.kind
            state = assembler.feed(request)
            if state is None:
                # Mid-transfer chunks ride the ordered channel unacknowledged;
                # only the completed transfer gets a reply.
                return []
            if kind not in ("restore", "merge"):
                return [
                    proto.Error(
                        message=f"cannot apply a {kind!r} chunk stream to a shard",
                        code="protocol",
                    )
                ]
            apply_state(service, state)
            return [proto.RestoreReply(restored=len(state["sessions"]))]
        if isinstance(request, proto.BeginHandover):
            # Rebuild both rings locally and stage exactly the frames whose
            # job is moving *to this shard* — correct even for job ids first
            # seen mid-migration, and independent of how data-plane bytes
            # interleave with this control message (frames already buffered
            # for jobs this shard owned under the old ring never match).
            old_ring = HashRing(request.old_shards, replicas=request.replicas)
            new_ring = HashRing(request.new_shards, replicas=request.replicas)
            me = request.shard

            def moving_here(job: str) -> bool:
                owner = new_ring.shard_for(job)
                return owner == me and old_ring.shard_for(job) != owner

            service.broker.begin_staging(moving_here)
            return [proto.BeginHandoverReply(shard=index)]
        if isinstance(request, proto.CompleteHandover):
            sync_to(request.expected_bytes)
            replayed, dropped = service.broker.end_staging(request.drop_counts)
            return [proto.CompleteHandoverReply(replayed=replayed, dropped=dropped)]
        if isinstance(request, proto.AbortHandover):
            sync_to(request.expected_bytes)
            discarded = service.broker.abort_staging()
            return [proto.AbortHandoverReply(discarded=discarded)]
        if isinstance(request, proto.FinishJob):
            service.finish_job(request.job)
            return [proto.FinishJobReply(job=request.job)]
        if isinstance(request, proto.ReapFinished):
            reaped = service.reap_finished(
                forget_predictions=request.forget_predictions
            )
            return [proto.ReapFinishedReply(jobs=reaped)]
        if isinstance(request, proto.Close):
            service.close()
            done = True
            return [proto.CloseReply()]
        return [
            proto.Error(
                message=f"unsupported shard control message {type(request).__name__}",
                code="unsupported",
            )
        ]

    selector = selectors.DefaultSelector()
    selector.register(data_sock, selectors.EVENT_READ, "data")
    selector.register(control, selectors.EVENT_READ, "control")
    try:
        while not done:
            for key, _ in selector.select():
                if key.data == "data":
                    read_available()
                    if data_eof:
                        selector.unregister(data_sock)
                    continue
                try:
                    request = control.recv()
                except EOFError:
                    # The router went away; there is nobody to serve.
                    done = True
                    break
                except ProtocolError as exc:
                    # A control stream that stopped parsing cannot be trusted
                    # to resynchronize: typed rejection, then hang up — the
                    # router sees the slot die and revives it.
                    control.send(proto.Error(message=str(exc), code="protocol"))
                    done = True
                    break
                try:
                    for response in handle(request):
                        control.send(response)
                except Exception as exc:  # surface shard-side errors to the router
                    control.send(
                        proto.Error(message=f"{type(exc).__name__}: {exc}", code="internal")
                    )
                if done:
                    break
    finally:
        selector.close()
        if ring is not None:
            ring.close()
        data_sock.close()
        control.close()
        read_channel.close()


class ShardWorker:
    """One dial-home worker: connect, register, await adoption, serve.

    Parameters
    ----------
    host, port:
        The router's shard listener (``ServiceConfig.shard_port``).
    token:
        Tenant token; must match the router's or the dial is rejected.
    name:
        Worker identity shown in ``shard_details()`` (default
        ``<hostname>:<pid>``).
    retries, retry_delay:
        Dial attempts and the (linear) backoff between them — the worker may
        start before the router listens.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: int | None = None,
        name: str | None = None,
        retries: int = 30,
        retry_delay: float = 0.5,
    ) -> None:
        self._host = host
        self._port = int(port)
        self._token = token
        self._name = name or f"{socket.gethostname()}:{os.getpid()}"
        self._retries = max(1, int(retries))
        self._retry_delay = float(retry_delay)

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self._host, self._port), timeout=HANDSHAKE_TIMEOUT)
        # The deadline was the dial's: a parked worker, and every later read,
        # waits as long as it takes.
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _dial(self) -> socket.socket:
        last: OSError | None = None
        for attempt in range(self._retries):
            try:
                return self._connect()
            except OSError as exc:
                last = exc
                if attempt + 1 < self._retries:
                    time.sleep(self._retry_delay)
        raise ServiceError(
            f"could not reach the shard router at {self._host}:{self._port} "
            f"after {self._retries} attempts: {last}"
        )

    def _open_channel(self, key: str, kind: str) -> socket.socket:
        sock = self._connect()
        Channel(sock).send(proto.AttachChannel(key=key, channel=kind))
        return sock

    def run(self) -> None:
        """Dial home, complete adoption, and serve until the router closes us.

        Raises :class:`~repro.exceptions.ServiceError` on a rejected
        handshake (bad token, no common version) and
        :class:`~repro.exceptions.ProtocolError` on a peer that does not
        speak the adoption sequence.
        """
        control_sock = self._dial()
        control = Channel(control_sock)
        try:
            control.hello(token=self._token, client=self._name, timeout=HANDSHAKE_TIMEOUT)
            control.send(
                proto.RegisterShard(
                    name=self._name,
                    host=socket.gethostname(),
                    pid=os.getpid(),
                    cpu_count=os.cpu_count() or 0,
                )
            )
            # Blocks until the router adopts us into a slot — possibly long
            # after the dial (the router may be waiting for a reshard).
            adoption = control.recv()
            if isinstance(adoption, proto.Error):
                raise ServiceError(
                    f"router refused adoption ({adoption.code}): {adoption.message}"
                )
            if not isinstance(adoption, proto.RegisterShardReply):
                raise ProtocolError(
                    f"expected RegisterShardReply, got {type(adoption).__name__}"
                )
            config = config_from_wire(adoption.config)
            data_sock = self._open_channel(adoption.data_key, "data")
            read_sock = self._open_channel(adoption.data_key, "read")
        except BaseException:
            control.close()
            raise
        # The worker loop owns (and closes) every socket from here; a ring
        # segment cannot span hosts, so the data socket carries the frames.
        shard_main(adoption.shard, config, data_sock, control_sock, None, read_sock)
