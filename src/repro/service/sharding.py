"""Sharded multi-process prediction service.

One :class:`~repro.service.service.PredictionService` scales to hundreds of
jobs in a single process, but its detections all share one GIL and one crash
domain.  :class:`ShardedService` scales the service *out*: job ids are
consistent-hashed onto N worker shards, each shard runs a full service
(broker + dispatcher + publisher) in its own subprocess, and the parent acts
as a thin router:

* **data plane** — every shard is fed through a shared-memory ring
  (:mod:`repro.service.shm_ring`) carrying ordinary FTS1 frames
  (:mod:`repro.trace.framing`): the router copies each frame into the ring
  once, the shard decodes it straight out of the mapped memory as a borrowed
  ``memoryview``, and the ``socketpair`` between them is demoted to a
  doorbell carrying byte totals.  The router classifies frames from the
  header alone (:class:`~repro.trace.framing.FrameSplitter`) and forwards
  the raw bytes; a payload is decoded exactly once, inside the shard that
  owns the job — the same header-only property the single-process broker
  has, preserved across the process boundary at ≤1 copy per frame per hop
  (``ServiceConfig.ring_bytes = 0`` restores the two-copy socket data
  plane).
* **control plane** — a ``multiprocessing`` pipe per shard carries the typed,
  versioned messages of :mod:`repro.service.protocol` (the same protocol the
  TCP gateway speaks): :class:`~repro.service.protocol.Hello` negotiation at
  spawn, then Pump/Drain/Stats/Snapshot/Restore/Close request/response
  pairs.  Because data and control travel on different channels, every
  control request that depends on the data stream carries the router's byte
  count (``expected_bytes``) and the shard drains its socket up to that mark
  first — the two planes are re-ordered deterministically.

Sessions are already independent and lock-isolated, so sharding changes no
prediction: the ``shards=N`` service is bit-identical to the single-process
one on the same input (asserted by ``tests/service/test_sharding.py``).

Crash recovery composes out of existing pieces: shard death is detected on
the control channel (:class:`~repro.exceptions.ShardCrashedError`), the lost
shard's sessions are restored from the last merged snapshot
(:func:`~repro.service.snapshot.split_state`), and the spool tail written
since the snapshot is replayed through the router.  With
``ServiceConfig.auto_revive`` the router does this by itself: a crash
surfacing during :meth:`ShardedService.pump` or :meth:`~ShardedService.
drain` triggers :meth:`~ShardedService.revive_shard` from the last snapshot
taken through :meth:`~ShardedService.snapshot_state` (bounded by
``ServiceConfig.revive_budget``), and the pump is retried.

The topology itself is elastic: :meth:`ShardedService.reshard` grows or
shrinks the shard count *live*.  Because the hash ring is consistent, only
the jobs whose arc changed owner move; their sessions are extracted from the
source shards (:class:`~repro.service.protocol.ExtractJobs` — capture and
remove in one drained step), carried over the chunked snapshot
transfer (:class:`~repro.service.protocol.SnapshotChunk`), and merged into
their new owners, while any frame arriving for a moving job is *double-routed*
— ingested by the old owner at once and staged at the new owner, which
deduplicates and ingests its staged frames when the handover completes.  The
end state is bit-identical to having ingested the same stream
at the target shard count from scratch (``tests/service/test_resharding.py``
asserts this under chaotic interleavings, kill -9 included).
"""

from __future__ import annotations

import multiprocessing
import os
import select
import selectors
import signal
import socket
import threading
import time
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from struct import unpack
from typing import Callable

import numpy as np

from repro.exceptions import ProtocolError, ServiceError, ShardCrashedError
from repro.obs import Histogram, MetricRegistry, SpanJournal, merge_snapshots
from repro.trace.framing import FrameReader, FrameSplitter, RawFrame, encode_frame
from repro.trace.jsonl import FlushRecord
from repro.trace.msgpack import packb

from repro.service import protocol as proto
from repro.service.broker import BrokerStats
from repro.service.shm_ring import RingHandle, ShmRingReader, ShmRingWriter
from repro.service.dispatcher import DispatcherStats
from repro.service.publisher import PredictionPublisher, PredictionUpdate
from repro.service.service import (
    PredictionService,
    ServiceConfig,
    compact_tails,
    tail_positions,
)
from repro.service.snapshot import (
    apply_state,
    check_snapshot_version,
    extract_service_jobs,
    merge_into,
    merge_states,
    snapshot_state,
    split_state,
)
from repro.service.transport import (
    ReadPlane,
    ShardListener,
    SocketChannel,
    config_to_wire,
    send_message,
)

#: Socket read size of the shard ingestion loop.
_RECV_CHUNK = 1 << 16


class HashRing:
    """Consistent hashing of job ids onto shard indices.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring; a job
    hashes to the first point at or after it.  The mapping is deterministic
    across processes and Python runs (``blake2b``, not ``hash()``), balanced
    to a few percent at 64 replicas, and *consistent*: changing the shard
    count moves only the jobs whose arc changed owner — the property that
    lets a snapshot taken at one shard count restore onto another with
    minimal data movement.

    ``weights`` makes the ring heterogeneous: shard ``i`` places
    ``round(replicas * weights[i])`` points (at least one), so its expected
    arc share is proportional to its weight — a shard on a host with
    twice the cores can take a double arc.  Replica keys are a per-shard prefix
    (``shard-i-replica-0..k``), so changing *only* the weights adds or
    removes points at each shard's tail: jobs move only into a shard whose
    weight grew or out of one whose weight shrank — minimal movement holds
    for weight changes exactly as it does for count changes
    (``tests/service/test_weighted_ring.py`` pins both properties).
    """

    def __init__(
        self,
        n_shards: int,
        *,
        replicas: int = 64,
        weights: tuple[float, ...] | list[float] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        if weights is None:
            self.weights: tuple[float, ...] | None = None
            counts = [self.replicas] * self.n_shards
        else:
            if len(weights) != self.n_shards:
                raise ValueError(
                    f"weights must have one entry per shard "
                    f"({self.n_shards}), got {len(weights)}"
                )
            if any(w <= 0 for w in weights):
                raise ValueError(f"weights must be > 0, got {tuple(weights)}")
            self.weights = tuple(float(w) for w in weights)
            counts = [max(1, round(self.replicas * w)) for w in self.weights]
        self.replica_counts: tuple[int, ...] = tuple(counts)
        points: list[tuple[int, int]] = []
        for shard, count in enumerate(counts):
            for replica in range(count):
                points.append((self._hash(f"shard-{shard}-replica-{replica}"), shard))
        # (hash, shard) tuples sort lexicographically: equal hash points
        # (rare but possible) tie-break on the shard index, so the ring
        # layout — and therefore every reshard's moved-job set — is
        # identical across processes, Python hash seeds (PYTHONHASHSEED),
        # and grow -> shrink -> grow cycles
        # (tests/service/test_resharding.py pins this in subprocesses).
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        return unpack(">Q", blake2b(key.encode("utf-8"), digest_size=8).digest())[0]

    def shard_for(self, job: str) -> int:
        """Shard index owning ``job``."""
        position = bisect_right(self._hashes, self._hash(job))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]

    def arc_shares(self) -> tuple[float, ...]:
        """Exact fraction of the 64-bit keyspace each shard owns.

        A point at hash ``h`` owns the arc ``(previous_h, h]`` (plus the
        wraparound arc for the first point), which is precisely the keyspace
        :meth:`shard_for` sends to it — the measure the weighted-arc property
        tests assert against, with no sampling noise.
        """
        span = 1 << 64
        shares = [0.0] * self.n_shards
        previous = self._hashes[-1] - span  # wraparound arc of the first point
        for point, owner in zip(self._hashes, self._owners):
            shares[owner] += (point - previous) / span
            previous = point
        return tuple(shares)


# --------------------------------------------------------------------- #
# shard worker (runs in the subprocess)
# --------------------------------------------------------------------- #
def _stats_reply(service: PredictionService, bytes_received: int) -> proto.StatsReply:
    """This shard's stats as one :class:`~repro.service.protocol.StatsReply`.

    Shared by the control-plane Stats handler (which syncs the data plane to
    the router's byte mark first) and the read-plane server (which answers
    immediately with whatever has been ingested so far).
    """
    broker = service.broker.stats
    dispatch = service.dispatcher.stats
    detect_hist = service.dispatcher.detect_histogram
    return proto.StatsReply(
        stats={
            "service": service.stats(),
            "broker": vars(broker),
            "dispatcher": vars(dispatch),
            "jobs": list(service.jobs),
            "latencies": list(service.dispatcher.latencies()),
            # Full mergeable latency distribution (None with metrics off):
            # the router merges these bucket-wise instead of pooling the
            # bounded windows, so the aggregated p99 weighs every detection,
            # not just each shard's last `latency_window` of them.
            "detect_hist": (None if detect_hist is None else detect_hist.to_dict()),
            "bytes_received": bytes_received,
        }
    )


def _serve_read_plane(
    channel,
    service: PredictionService,
    bytes_received: Callable[[], int],
) -> None:
    """Serve read-only requests on a shard's second channel, in its own thread.

    Handles Heartbeat / Stats / MetricsReport / Subscribe without touching the
    control plane, so the router (and through it the gateway's ops surface)
    reads liveness and counters even while the worker loop is deep inside a
    pump — and a worker whose *process* is wedged (SIGSTOP, runaway C
    extension) stops answering heartbeats here, which is exactly the signal
    the router's liveness timeout keys on.  Subscribed prediction events are
    pushed from publisher threads; a lock serializes them against replies so
    envelopes never interleave on the wire.
    """
    send_lock = threading.Lock()

    def send(message: proto.Message) -> bool:
        try:
            with send_lock:
                channel.send_bytes(proto.encode_message(message))
        except (OSError, EOFError, ValueError, BrokenPipeError):
            return False
        return True

    def push(update) -> None:
        send(proto.PredictionEvent(update=update.to_dict()))

    subscribed = False
    while True:
        try:
            request = proto.decode_message(channel.recv_bytes())
        except (EOFError, OSError, ValueError, ProtocolError):
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
                reply = proto.MetricsReport(metrics=service.metrics_snapshot())
            elif isinstance(request, proto.Subscribe):
                if not subscribed:
                    service.publisher.subscribe(push)
                    subscribed = True
                reply = proto.SubscribeReply(subscription=1)
            else:
                reply = proto.Error(
                    message=f"unsupported read-plane message {type(request).__name__}",
                    code="unsupported",
                )
        except Exception as exc:  # surface shard-side errors, keep serving
            reply = proto.Error(message=f"{type(exc).__name__}: {exc}", code="internal")
        if not send(reply):
            return


def _shard_main(
    index: int,
    config: ServiceConfig,
    data_sock: socket.socket,
    control,
    ring_handle: RingHandle | None = None,
    read_channel=None,
) -> None:
    """Control loop of one shard: select over the data channel and control pipe.

    With ``ring_handle`` set, frame bytes arrive through the shared-memory
    ring and ``data_sock`` is its doorbell (byte totals only); otherwise
    ``data_sock`` carries the frame bytes itself.  Control messages are the
    typed protocol envelopes of :mod:`repro.service.protocol`, one per
    ``send_bytes``/``recv_bytes`` pair on the pipe.  With ``read_channel``
    set, a daemon thread additionally serves read-only requests (stats,
    metrics, heartbeats, prediction-event subscriptions) on that channel —
    see :func:`_serve_read_plane`.
    """
    service = PredictionService(config)
    updates: list[dict] = []
    service.publisher.subscribe(lambda update: updates.append(update.to_dict()))
    bytes_received = 0
    data_eof = False
    if read_channel is not None:
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

    def state_replies(
        state: dict, max_chunk: int | None, single: type, kind: str
    ) -> list[proto.Message]:
        # One plain reply when it fits (or the request set no bound); a
        # bounded chunk stream otherwise.
        packed = packb(state)
        if max_chunk is None or len(packed) <= max_chunk:
            return [single(state=state)]
        return list(proto.iter_state_chunks(packed, kind=kind, max_chunk=max_chunk))

    assembler = proto.ChunkAssembler()

    def handle(request: proto.Message) -> tuple[list[proto.Message], bool]:
        if isinstance(request, proto.Hello):
            version = proto.negotiate_version(request.versions)
            if version is None:
                # Typed rejection, then hang up — as the gateway and the
                # shard listener do: a router of another protocol generation
                # cannot drive this shard.
                return (
                    [
                        proto.Error(
                            message=(
                                f"no common protocol version (shard speaks "
                                f"{proto.SUPPORTED_VERSIONS}, peer offered {request.versions})"
                            ),
                            code="unsupported-version",
                        )
                    ],
                    True,
                )
            return (
                [proto.HelloReply(version=version, server=f"prediction-shard-{index}")],
                False,
            )
        if isinstance(request, proto.Pump):
            sync_to(request.expected_bytes)
            submitted = service.pump(wait_for_batch=True)
            service.dispatcher.join()
            return [proto.PumpReply(submitted=submitted, updates=drain_updates())], False
        if isinstance(request, proto.Drain):
            sync_to(request.expected_bytes)
            service.drain()
            return [proto.DrainReply(updates=drain_updates())], False
        if isinstance(request, proto.Stats):
            return [_stats_reply(service, bytes_received)], False
        if isinstance(request, proto.MetricsReport):
            # An (empty) report is the poll; the reply carries this shard's
            # registry snapshot for the router to merge.
            return [proto.MetricsReport(metrics=service.metrics_snapshot())], False
        if isinstance(request, proto.Snapshot):
            sync_to(request.expected_bytes)
            return (
                state_replies(
                    snapshot_state(service), request.max_chunk, proto.SnapshotReply, "snapshot"
                ),
                False,
            )
        if isinstance(request, proto.ExtractJobs):
            # The migration source: drain the data plane up to the router's
            # mark, then capture-and-remove the moving jobs in one step.
            sync_to(request.expected_bytes)
            state = extract_service_jobs(service, request.jobs)
            return (
                state_replies(state, request.max_chunk, proto.ExtractJobsReply, "extract"),
                False,
            )
        if isinstance(request, proto.SnapshotChunk):
            kind = request.kind
            state = assembler.feed(request)
            if state is None:
                # Mid-transfer chunks ride the ordered pipe unacknowledged;
                # only the completed transfer gets a reply.
                return [], False
            if kind == "merge":
                merge_into(service, state)
            elif kind == "restore":
                apply_state(service, state)
            else:
                return (
                    [
                        proto.Error(
                            message=f"cannot apply a {kind!r} chunk stream to a shard",
                            code="protocol",
                        )
                    ],
                    False,
                )
            return [proto.RestoreReply(restored=len(state["sessions"]))], False
        if isinstance(request, proto.Restore):
            apply_state(service, request.state)
            return [proto.RestoreReply(restored=len(request.state["sessions"]))], False
        if isinstance(request, proto.BeginHandover):
            # Rebuild both rings locally and stage exactly the frames whose
            # job is moving *to this shard* — correct even for job ids first
            # seen mid-migration, and independent of how data-plane bytes
            # interleave with this control message (frames already buffered
            # for jobs this shard owned under the old ring never match).
            old_ring = HashRing(
                request.old_shards,
                replicas=request.replicas,
                weights=request.old_weights,
            )
            new_ring = HashRing(
                request.new_shards,
                replicas=request.replicas,
                weights=request.new_weights,
            )
            me = request.shard

            def moving_here(job: str) -> bool:
                owner = new_ring.shard_for(job)
                return owner == me and old_ring.shard_for(job) != owner

            service.broker.begin_staging(moving_here)
            return [proto.BeginHandoverReply(shard=index)], False
        if isinstance(request, proto.CompleteHandover):
            sync_to(request.expected_bytes)
            replayed, dropped = service.broker.end_staging(request.drop_counts)
            return (
                [proto.CompleteHandoverReply(replayed=replayed, dropped=dropped)],
                False,
            )
        if isinstance(request, proto.AbortHandover):
            sync_to(request.expected_bytes)
            discarded = service.broker.abort_staging()
            return [proto.AbortHandoverReply(discarded=discarded)], False
        if isinstance(request, proto.FinishJob):
            service.finish_job(request.job)
            return [proto.FinishJobReply(job=request.job)], False
        if isinstance(request, proto.ReapFinished):
            reaped = service.reap_finished(
                forget_predictions=request.forget_predictions
            )
            return [proto.ReapFinishedReply(jobs=reaped)], False
        if isinstance(request, proto.Close):
            service.close()
            return [proto.CloseReply()], True
        return (
            [
                proto.Error(
                    message=f"unsupported shard control message {type(request).__name__}",
                    code="unsupported",
                )
            ],
            False,
        )

    selector = selectors.DefaultSelector()
    selector.register(data_sock, selectors.EVENT_READ, "data")
    selector.register(control, selectors.EVENT_READ, "control")
    try:
        done = False
        while not done:
            for key, _ in selector.select():
                if key.data == "data":
                    read_available()
                    if data_eof:
                        selector.unregister(data_sock)
                    continue
                try:
                    request = proto.decode_message(control.recv_bytes())
                except EOFError:
                    # The router went away; there is nobody to serve.
                    done = True
                    break
                except ProtocolError as exc:
                    control.send_bytes(
                        proto.encode_message(proto.Error(message=str(exc), code="protocol"))
                    )
                    continue
                try:
                    responses, done = handle(request)
                    for response in responses:
                        control.send_bytes(proto.encode_message(response))
                except Exception as exc:  # surface shard-side errors to the router
                    control.send_bytes(
                        proto.encode_message(
                            proto.Error(message=f"{type(exc).__name__}: {exc}", code="internal")
                        )
                    )
                if done:
                    break
    finally:
        selector.close()
        if ring is not None:
            ring.close()
        data_sock.close()
        control.close()
        if read_channel is not None:
            try:
                read_channel.close()
            except OSError:  # pragma: no cover - already torn down
                pass


@dataclass
class _RoutedCopy:
    """Router-side copy of one double-routed frame (handover replay/rollback).

    ``delivered_old`` records whether the frame also reached the old owner
    before its state was extracted: such frames travel inside the extracted
    session state (their staged twin is deduplicated away), while frames
    delivered only to the staging target must be replayed by the router if
    the target dies or the migration rolls back to the old ring.
    """

    frame: RawFrame
    target: int
    delivered_old: bool


@dataclass
class _Migration:
    """In-flight reshard: the two rings plus the in-flight frame bookkeeping.

    Every shard of the new topology acknowledges
    :class:`~repro.service.protocol.BeginHandover` before the migration is
    installed, so a frame whose job changes owner between ``old_ring`` and
    ``new_ring`` is *double-routed*: delivered to the old owner for
    immediate evaluation (zero ingest pause) and to the new owner's staging
    buffer, with per-job duplicate counts so the receiving shard can
    deduplicate at :class:`~repro.service.protocol.CompleteHandover` — the
    stream stays exactly-once.
    """

    old_ring: HashRing
    new_ring: HashRing
    extracted: bool = False
    handover_targets: set[int] = field(default_factory=set)
    dup_counts: dict[str, int] = field(default_factory=dict)
    routed: list[_RoutedCopy] = field(default_factory=list)

    def moves(self, job: str) -> bool:
        return self.old_ring.shard_for(job) != self.new_ring.shard_for(job)


@dataclass
class _Shard:
    """Parent-side handle of one worker shard.

    A *local* shard is a forked subprocess (``process`` set, channels are a
    socketpair and pipes).  A *remote* shard is an adopted dial-home
    ``repro-shard`` worker (``process`` is ``None``, every channel is a TCP
    connection, and ``name``/``host``/``pid``/``weight`` carry the identity
    it registered with).  Remote liveness has no ``waitpid`` to lean on: it
    is connection loss (any channel operation failing) or a heartbeat
    timeout (:meth:`ShardedService.heartbeat`) flipping ``dead``.
    """

    index: int
    process: multiprocessing.process.BaseProcess | None
    data_sock: socket.socket
    control: object  # multiprocessing.connection.Connection or SocketChannel
    ring: ShmRingWriter | None = None
    read: object | None = None  # read-plane channel (pipe or SocketChannel)
    bytes_sent: int = 0
    dead: bool = False
    unresponsive: bool = False  # heartbeat timeout: connected but wedged
    name: str | None = None
    host: str | None = None
    pid: int | None = None
    weight: float = 1.0

    @property
    def remote(self) -> bool:
        return self.process is None

    @property
    def alive(self) -> bool:
        if self.dead:
            return False
        return True if self.process is None else self.process.is_alive()


# --------------------------------------------------------------------- #
# the sharded service (parent-side router)
# --------------------------------------------------------------------- #
class ShardedService:
    """Routes FTS1 frames onto N subprocess shards and aggregates their state.

    Parameters
    ----------
    n_shards:
        Number of worker shards (subprocesses) to spawn.
    config:
        Per-shard :class:`ServiceConfig` (session config, worker pool,
        auto-revive policy).  When
        :attr:`ServiceConfig.token` is set, the router stamps it on frames it
        encodes itself and **rejects** routed byte streams whose frames do
        not carry it (wire-level auth).
    replicas:
        Virtual nodes per shard on the hash ring.
    weights:
        Optional per-shard ring weights: shard ``i`` takes an arc share
        proportional to ``weights[i]`` (``None`` = uniform), so a shard on
        bigger hardware can own proportionally more jobs.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default).
    placement:
        Optional per-shard placement, one of ``"local"`` (fork a subprocess,
        the default) or ``"remote"`` (adopt a dial-home ``repro-shard``
        worker from the :class:`~repro.service.transport.ShardListener` —
        requires ``ServiceConfig.shard_port``).  A ``"remote"`` slot with no
        worker dialed home within ``remote_timeout`` falls back to a local
        fork, so a missing machine degrades the topology, never the service.
    remote_timeout:
        Seconds to wait for a remote worker to dial home / attach its
        channels before falling back to a local fork.
    """

    def __init__(
        self,
        n_shards: int,
        config: ServiceConfig | None = None,
        *,
        replicas: int = 64,
        weights: tuple[float, ...] | list[float] | None = None,
        start_method: str | None = None,
        placement: list[str] | tuple[str, ...] | None = None,
        remote_timeout: float = 30.0,
    ) -> None:
        self.config = config or ServiceConfig()
        self._token = self.config.token
        self.ring = HashRing(n_shards, replicas=replicas, weights=weights)
        self.publisher = PredictionPublisher()
        self._splitter = FrameSplitter(expected_token=self._token)
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False
        # Federation: the dial-home listener exists only when configured (a
        # port to listen on), the read plane always (local shards use it too
        # — stats and liveness must not queue behind a busy control pipe).
        self._remote_timeout = float(remote_timeout)
        self._listener: ShardListener | None = None
        if self.config.shard_port is not None:
            self._listener = ShardListener(
                "0.0.0.0", self.config.shard_port, token=self._token
            )
        self._placement = self._check_placement(placement, n_shards)
        self._read_plane = ReadPlane()
        self._read_events_active = False
        self._heartbeat_seq = 0
        self._shard_views_registered: set[int] = set()
        self._tails: dict[Path, FrameReader] = {}
        self._last_snapshot: dict | None = None
        self._snapshot_positions: dict[Path, dict] = {}
        self._auto_revives = 0
        # Jobs routed to each shard so far — the router knows every job id
        # from the frame headers it forwards, so a reshard can compute the
        # moving set without a stats round trip (and without trusting a
        # shard that may still be draining its socket).
        self._jobs_by_shard: list[set[str]] = [set() for _ in range(n_shards)]
        self._migration: _Migration | None = None
        self._reshards = 0
        self._sessions_moved = 0
        self._double_routed = 0
        # Router-side observability: the registry holds what only the parent
        # can see (ring occupancy/stalls, reshard phase durations, revives);
        # shard-side registries are polled and merged in metrics_snapshot().
        self.metrics = MetricRegistry() if self.config.metrics else None
        self.journal = (
            SpanJournal(self.config.span_capacity) if self.config.spans else None
        )
        self._ring_views_registered: set[int] = set()
        if self.metrics is not None:
            self.metrics.register_view(
                "repro_shard_revives_total", "counter", lambda: self._auto_revives,
                help="Automatic shard revives performed",
            )
            self.metrics.register_view(
                "repro_reshards_total", "counter", lambda: self._reshards,
                help="Completed live reshard operations",
            )
            self.metrics.register_view(
                "repro_double_routed_frames_total", "counter",
                lambda: self._double_routed,
                help="Frames double-routed to old and new owners during handovers",
            )
        self._shards = [self._spawn(index) for index in range(n_shards)]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _check_placement(
        self, placement: list[str] | tuple[str, ...] | None, n_shards: int
    ) -> list[str]:
        if placement is None:
            return ["local"] * n_shards
        entries = [str(entry) for entry in placement]
        if len(entries) != n_shards:
            raise ValueError(
                f"placement must have one entry per shard ({n_shards}), got {len(entries)}"
            )
        for entry in entries:
            if entry not in ("local", "remote"):
                raise ValueError(
                    f"placement entries must be 'local' or 'remote', got {entry!r}"
                )
        if "remote" in entries and self._listener is None:
            raise ValueError(
                "placement includes 'remote' but ServiceConfig.shard_port is not "
                "set — the router has no listener for workers to dial home to"
            )
        return entries

    def _placement_for(self, index: int) -> str:
        return self._placement[index] if index < len(self._placement) else "local"

    def _spawn(self, index: int) -> _Shard:
        """Bring up the worker for slot ``index`` per its placement.

        A ``"remote"`` slot adopts the next dial-home worker parked on the
        listener; if none arrives (or its channels never attach) within
        ``remote_timeout`` the slot degrades to a local fork — the same
        fallback a revive of a dead remote takes when its machine is gone.
        """
        shard: _Shard | None = None
        if self._placement_for(index) == "remote":
            shard = self._adopt_remote(index)
            if shard is None:
                warnings.warn(
                    f"no remote worker adopted for shard {index} within "
                    f"{self._remote_timeout}s; spawning it locally",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if shard is None:
            shard = self._spawn_local(index)
        return self._handshake(shard)

    def _spawn_local(self, index: int) -> _Shard:
        parent_sock, child_sock = socket.socketpair()
        parent_conn, child_conn = self._ctx.Pipe()
        read_parent, read_child = self._ctx.Pipe()
        ring = ShmRingWriter(self.config.ring_bytes) if self.config.ring_bytes > 0 else None
        # Not daemonic: orphan safety comes from the shard loop exiting on
        # control-pipe EOF when the router goes away, not from multiprocessing
        # terminating the child at interpreter exit.
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                index,
                self.config,
                child_sock,
                child_conn,
                ring.handle if ring is not None else None,
                read_child,
            ),
            name=f"prediction-shard-{index}",
        )
        process.start()
        child_sock.close()
        child_conn.close()
        read_child.close()
        if ring is not None:
            ring.bind(parent_sock)
        return _Shard(
            index=index,
            process=process,
            data_sock=parent_sock,
            control=parent_conn,
            ring=ring,
            read=read_parent,
            host="local",
            pid=process.pid,
        )

    def _adopt_remote(self, index: int) -> _Shard | None:
        """Adopt the next parked dial-home worker into slot ``index``.

        The worker already passed the listener's Hello (token, version) and
        registered its identity; adoption sends it the wire-form config plus
        a one-time key, then waits for it to attach its data- and read-plane
        connections under that key.  Returns ``None`` (caller falls back to
        a local fork) when nothing dialed home or the worker went away
        mid-adoption.
        """
        assert self._listener is not None
        pending = self._listener.take_pending(timeout=self._remote_timeout)
        if pending is None:
            return None
        registration = pending.registration
        key = self._listener.new_key()
        try:
            send_message(
                pending.channel,
                proto.RegisterShardReply(
                    shard=index, config=config_to_wire(self.config), data_key=key
                ),
            )
            data_sock = self._listener.wait_attachment(
                key, "data", timeout=self._remote_timeout
            )
            read_sock = self._listener.wait_attachment(
                key, "read", timeout=self._remote_timeout
            )
        except (OSError, EOFError, ServiceError) as exc:
            pending.close()
            warnings.warn(
                f"adopting remote worker {registration.name!r} for shard {index} "
                f"failed ({exc}); trying the next placement",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        data_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Shard(
            index=index,
            process=None,
            data_sock=data_sock,
            control=pending.channel,
            ring=None,
            read=SocketChannel(read_sock),
            name=registration.name,
            host=registration.host,
            pid=registration.pid,
            weight=registration.weight,
        )

    def _handshake(self, shard: _Shard) -> _Shard:
        # Version negotiation before the first real control message: a shard
        # built from an incompatible protocol generation fails loudly at
        # spawn, never by silently mis-parsing a request later.
        reply = self._request(
            shard, proto.Hello(versions=proto.SUPPORTED_VERSIONS, token=self._token)
        )
        if not isinstance(reply, proto.HelloReply):
            raise ServiceError(
                f"shard {shard.index} handshake returned {type(reply).__name__}, "
                f"expected HelloReply"
            )
        if shard.read is not None:
            self._read_plane.attach(shard.index, shard.read)
            if self._read_events_active:
                try:
                    self._read_plane.request(
                        shard.index, proto.Subscribe(), timeout=self._remote_timeout
                    )
                except (ShardCrashedError, ServiceError, TimeoutError):
                    pass  # events degrade; the control-plane replies still carry them
        self._register_ring_views(shard.index)
        self._register_shard_views(shard.index)
        return shard

    def _register_ring_views(self, index: int) -> None:
        """Expose shard ``index``'s ring counters as labelled metric views.

        Registered once per index (revives and reshard respawns reuse the
        registration — the closures read whatever shard currently holds the
        slot).  A slot that has no ring, is dead, or was shrunk away raises
        inside the closure, which drops the series from that scrape.
        """
        if self.metrics is None or index in self._ring_views_registered:
            return
        self._ring_views_registered.add(index)
        labels = {"shard": str(index)}

        def ring(idx: int = index) -> ShmRingWriter:
            shard = self._shards[idx]
            if shard.ring is None or not shard.alive:
                raise ValueError(f"shard {idx} has no live ring")
            return shard.ring

        self.metrics.register_view(
            "repro_ring_occupancy_bytes", "gauge", lambda: ring().occupancy, labels,
            help="Bytes written to the shard's shm ring but not yet acknowledged",
        )
        self.metrics.register_view(
            "repro_ring_stalls_total", "counter", lambda: ring().stalls, labels,
            help="Writes that found the ring full and blocked for space",
        )
        self.metrics.register_view(
            "repro_ring_doorbell_sends_total", "counter",
            lambda: ring().doorbell_sends, labels,
            help="Doorbell announcements sent (one per written chunk)",
        )

    def _register_shard_views(self, index: int) -> None:
        """Expose shard ``index``'s liveness as a labelled gauge.

        Registered once per slot; the closure reads whoever currently holds
        it, so revives and remote adoptions are reflected without
        re-registration.  A slot shrunk away raises inside the closure,
        which drops the series from that scrape.
        """
        if self.metrics is None or index in self._shard_views_registered:
            return
        self._shard_views_registered.add(index)

        def alive(idx: int = index) -> float:
            if idx >= len(self._shards):
                raise ValueError(f"shard slot {idx} no longer exists")
            return 1.0 if self._shards[idx].alive else 0.0

        self.metrics.register_view(
            "repro_shard_alive", "gauge", alive, {"shard": str(index)},
            help="1 while the shard's process (local) or connection (remote) is live",
        )

    @property
    def n_shards(self) -> int:
        """Number of shards (live or dead)."""
        return len(self._shards)

    @property
    def token(self) -> int | None:
        """Tenant/auth token nibble stamped on and required of every frame."""
        return self._token

    def shard_for(self, job: str) -> int:
        """Shard index that owns ``job`` (consistent hash)."""
        return self.ring.shard_for(job)

    def dead_shards(self) -> tuple[int, ...]:
        """Indices of shards whose process died or whose channel broke."""
        return tuple(s.index for s in self._shards if not s.alive)

    @property
    def auto_revives(self) -> int:
        """Number of automatic shard revives performed so far."""
        return self._auto_revives

    def kill_shard(self, index: int) -> None:
        """Forcibly kill a shard (SIGKILL) — fault injection for tests.

        For a remote shard the signal is delivered by pid (same-host chaos
        runs); detection stays organic either way — the router notices the
        death on the next channel operation (waitpid for local shards,
        connection loss for remote ones), exactly like a real crash.
        """
        shard = self._shards[index]
        if shard.process is not None:
            shard.process.kill()
            shard.process.join()
            return
        if shard.pid is None:
            raise ServiceError(
                f"shard {index} is remote and registered no pid; cannot signal it"
            )
        try:
            os.kill(shard.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover - raced
            pass

    def revive_shard(
        self,
        index: int,
        *,
        state: dict | None = None,
        spool: str | Path | None = None,
        spool_offset: int = 0,
        spool_position: dict | None = None,
    ) -> int:
        """Respawn a dead shard, restoring its sessions and replaying the spool.

        ``state`` is a merged snapshot (any deployment shape); only the
        sessions this shard owns are pushed into the replacement process.
        With ``spool`` plus the ingestion point recorded alongside the
        snapshot (``spool_position`` — a tailing reader's rotation-proof
        :attr:`FrameReader.position` — or a plain ``spool_offset``), the
        frames written since the snapshot are replayed — **only** those owned
        by the revived shard; surviving shards already consumed theirs —
        pumping after every frame so each replayed flush is evaluated at its
        own timestamp, the same cadence a flush-by-flush live run takes.
        Returns the number of frames replayed.
        """
        shard = self._shards[index]
        if shard.alive:
            raise ServiceError(f"shard {index} is still alive; refusing to revive it")
        self._release(shard)
        self._shards[index] = self._spawn(index)
        if state is not None:
            per_shard = split_state(state, self.ring.shard_for, self.n_shards)
            self._send_state(self._shards[index], per_shard[index], kind="restore")
            self._jobs_by_shard[index].update(self._state_jobs(per_shard[index]))
            # Merge (not replace): surviving shards have published past the
            # snapshot, only the revived shard's jobs roll back to it.
            self.publisher.merge_state_dict(per_shard[index]["publisher"])
        replayed = 0
        if spool is not None:
            replayed = self._replay_spool(
                index, spool, spool_offset=spool_offset, spool_position=spool_position
            )
        return replayed

    def _replay_spool(
        self,
        index: int,
        spool: str | Path,
        *,
        spool_offset: int = 0,
        spool_position: dict | None = None,
        limit: int | None = None,
    ) -> int:
        """Replay the spool tail into shard ``index``; returns frames replayed.

        ``limit`` bounds the replay to that many bytes past the start point
        (every frame counts, owned or not) — the auto-revive path uses it to
        stop exactly at the parent tail's consumed position, so a frame a
        concurrent writer appended after the parent's last poll is never
        ingested twice (once by the replay, again by the next poll).
        """
        reader = FrameReader(
            spool,
            offset=spool_offset,
            position=spool_position,
            expected_token=self._token,
            raw=True,
        )
        replayed = 0
        budget = limit
        for raw in reader.poll():
            if budget is not None:
                if len(raw.data) > budget:
                    break
                budget -= len(raw.data)
            if self.ring.shard_for(raw.job) != index:
                continue
            self.route_raw(raw)
            self.pump(shards=(index,))
            replayed += 1
        return replayed

    def _release(self, shard: _Shard) -> None:
        shard.dead = True
        try:
            shard.data_sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        shard.control.close()
        if shard.read is not None:
            # The read plane's drain thread unregisters and closes the
            # channel; a replacement spawn may re-attach the slot right away.
            self._read_plane.detach(shard.index)
        if shard.process is not None:
            # Closing both channels makes a healthy shard exit on EOF; give
            # it a moment, then escalate so close() can never hang on a
            # wedged shard.  A shard already convicted by a heartbeat
            # timeout is wedged by definition — skip straight to the kill.
            shard.process.join(timeout=0.5 if shard.unresponsive else 10.0)
            if shard.process.is_alive():
                shard.process.kill()
                shard.process.join()
        if shard.ring is not None:
            # Unlink only after the reader process is gone: its mapping stays
            # valid until then, and nobody else can attach by name anymore.
            shard.ring.close()

    def close(self) -> None:
        """Shut every live shard down and reap the subprocesses."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            if shard.alive:
                try:
                    self._request(shard, proto.Close())
                except ShardCrashedError:
                    pass
            self._release(shard)
        self._read_plane.close()
        if self._listener is not None:
            self._listener.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #
    def _send_raw(self, shard: _Shard, data: bytes | memoryview) -> None:
        if not shard.alive:
            raise ShardCrashedError(shard.index)
        started = time.perf_counter() if self._journal_enabled else 0.0
        try:
            if shard.ring is not None:
                # One copy into the shared segment; the shard decodes it in
                # place.  Blocks for acknowledgements while the ring is full,
                # matching sendall's backpressure on a full socket buffer.
                shard.ring.write(data)
            else:
                shard.data_sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            shard.dead = True
            raise ShardCrashedError(shard.index, f"shard {shard.index}: {exc}") from exc
        shard.bytes_sent += len(data)
        if self._journal_enabled:
            assert self.journal is not None
            self.journal.record(
                "ring",
                time.perf_counter() - started,
                job=f"shard:{shard.index}",
                started=started,
            )

    @property
    def _journal_enabled(self) -> bool:
        return self.journal is not None

    def ingest_flush(
        self, job: str, flush: FlushRecord, *, payload_format: str = "msgpack"
    ) -> int:
        """Encode one flush as a frame and route it; returns the shard index."""
        frame = encode_frame(flush, job=job, payload_format=payload_format, token=self._token)
        return self.route_raw(RawFrame(job=job, data=frame, token=self._token))

    def route_raw(self, frame: RawFrame) -> int:
        """Route one already-framed message; returns the shard index.

        During a live reshard, a frame whose job is changing owner is
        double-routed — delivered to the old owner (ingested immediately,
        zero pause) and to the new owner's staging buffer.  The returned
        index is then the job's *new* owner.
        """
        migration = self._migration
        if migration is not None and migration.moves(frame.job):
            return self._route_moving(migration, frame)
        started = time.perf_counter() if self._journal_enabled else 0.0
        index = self.ring.shard_for(frame.job)
        self._send_raw(self._shards[index], frame.data)
        self._jobs_by_shard[index].add(frame.job)
        if self._journal_enabled:
            assert self.journal is not None
            self.journal.record(
                "route", time.perf_counter() - started, job=frame.job, started=started
            )
        return index

    def _route_moving(self, migration: _Migration, frame: RawFrame) -> int:
        """Route one frame whose job changes owner under ``migration``."""
        new = migration.new_ring.shard_for(frame.job)
        # Materialize: the copy outlives this call (replayed if the staging
        # target dies or the migration rolls back), so it must not borrow
        # ring/splitter memory (see RawFrame).
        data = frame.data if isinstance(frame.data, bytes) else bytes(frame.data)
        copy = RawFrame(job=frame.job, data=data, token=frame.token)
        if not migration.extracted:
            # Pre-extraction: the old owner ingests the frame immediately
            # (and its effect travels inside the extracted state), the new
            # owner stages a twin that CompleteHandover deduplicates away.
            old = migration.old_ring.shard_for(frame.job)
            self._send_raw(self._shards[old], data)
            self._jobs_by_shard[old].add(frame.job)
            migration.dup_counts[frame.job] = migration.dup_counts.get(frame.job, 0) + 1
            migration.routed.append(_RoutedCopy(copy, new, delivered_old=True))
        else:
            # Post-extraction the old owner no longer holds the session —
            # the frame goes to the staging target only, ingested in order
            # at CompleteHandover.
            migration.routed.append(_RoutedCopy(copy, new, delivered_old=False))
        try:
            self._send_raw(self._shards[new], data)
        except ShardCrashedError:
            # The staging target died; the routed copy above is re-sent when
            # the target is respawned and re-armed (_rearm_handover_target).
            pass
        self._double_routed += 1
        return new

    def feed_bytes(self, data: bytes) -> int:
        """Route a shared framed byte stream (socket reads); returns frames routed.

        Frames are classified on the header only and forwarded verbatim; a
        partial trailing frame stays buffered until its bytes arrive.
        """
        self._splitter.feed(data)
        count = 0
        for raw in self._splitter.raw_frames():
            self.route_raw(raw)
            count += 1
        return count

    def tail_file(self, path: str | Path, *, offset: int = 0) -> FrameReader:
        """Tail a framed spool file; each ``poll()`` routes the new frames.

        The reader runs in raw (header-only) mode and follows spool rotation.
        It is remembered so snapshots can record the spool position (auto
        revive replays from it) and ``auto_compact`` can drop the consumed
        prefix.

        With ``ServiceConfig.auto_revive``, a dead shard discovered while
        routing is revived in place.  The revival replay reads the spool from
        the last snapshot position **to its end**, so it already delivers
        every frame of the current poll batch the revived shard owns — those
        frames are therefore skipped (not double-sent) for the rest of the
        batch.
        """

        def route(frames: list[RawFrame]) -> None:
            replayed_by_revival: set[int] = set()
            for raw in frames:
                owner = self.ring.shard_for(raw.job)
                if owner in replayed_by_revival:
                    continue
                try:
                    self.route_raw(raw)
                except ShardCrashedError as crash:
                    if not self._auto_revive_index(crash.shard):
                        raise crash
                    replayed_by_revival.add(crash.shard)

        reader = FrameReader(
            path, offset=offset, sink=route, expected_token=self._token, raw=True
        )
        self._tails[Path(path)] = reader
        return reader

    def spool_positions(self) -> dict[str, dict]:
        """Rotation-proof resume point of every tailed spool (by path)."""
        return tail_positions(self._tails)

    def compact_spools(self) -> dict[str, int]:
        """Compact every tailed spool up to its reader's consumed position."""
        return compact_tails(self._tails)

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #
    def _control_send(self, shard: _Shard, message: proto.Message) -> None:
        if not shard.alive:
            raise ShardCrashedError(shard.index)
        try:
            shard.control.send_bytes(proto.encode_message(message))
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            shard.dead = True
            raise ShardCrashedError(shard.index, f"shard {shard.index}: {exc}") from exc

    def _control_recv(self, shard: _Shard) -> proto.Message:
        try:
            return proto.decode_message(shard.control.recv_bytes())
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            shard.dead = True
            raise ShardCrashedError(shard.index, f"shard {shard.index}: {exc}") from exc

    def _request(self, shard: _Shard, message: proto.Message) -> proto.Message:
        self._control_send(shard, message)
        response = self._control_recv(shard)
        if isinstance(response, proto.Error):
            raise ServiceError(
                f"shard {shard.index} control request {type(message).__name__} failed: "
                f"{response.message}"
            )
        return response

    def _collect_state(self, shard: _Shard) -> dict:
        """Read one state-bearing reply: a plain reply or a chunk stream."""
        assembler = proto.ChunkAssembler()
        while True:
            response = self._control_recv(shard)
            if isinstance(response, proto.Error):
                raise ServiceError(
                    f"shard {shard.index} state request failed: {response.message}"
                )
            if isinstance(response, proto.SnapshotChunk):
                try:
                    state = assembler.feed(response)
                except ProtocolError:
                    # A torn chunk stream cannot be resynchronized on the
                    # pipe; the shard is unusable from here on.
                    shard.dead = True
                    raise
                if state is not None:
                    return state
                continue
            if isinstance(response, (proto.SnapshotReply, proto.ExtractJobsReply)):
                if assembler.receiving:
                    shard.dead = True
                    raise ProtocolError(
                        f"shard {shard.index} interleaved a "
                        f"{type(response).__name__} into a chunk stream"
                    )
                return response.state
            shard.dead = True
            raise ProtocolError(
                f"unexpected {type(response).__name__} from shard {shard.index} "
                f"while collecting a snapshot state"
            )

    def _request_state(self, shard: _Shard, message: proto.Message) -> dict:
        """Send one state-returning request and collect its (chunked) reply."""
        self._control_send(shard, message)
        return self._collect_state(shard)

    def _send_state(self, shard: _Shard, state: dict, *, kind: str) -> proto.Message:
        """Push one snapshot state into a shard as a chunk stream.

        ``kind`` is ``"restore"`` (replace, the revive/restore path) or
        ``"merge"`` (fold in without touching resident jobs, the migration
        path).
        """
        for chunk in proto.iter_state_chunks(
            packb(state), kind=kind, max_chunk=proto.DEFAULT_CHUNK_BYTES
        ):
            self._control_send(shard, chunk)
        response = self._control_recv(shard)
        if isinstance(response, proto.Error):
            raise ServiceError(
                f"shard {shard.index} {kind} transfer failed: {response.message}"
            )
        return response

    def _broadcast(
        self,
        make_message: Callable[[_Shard], proto.Message],
        *,
        only: tuple[int, ...] | None = None,
    ) -> list[proto.Message]:
        """Send one request to every live shard, then collect the replies.

        Requests are written before any reply is awaited, so the shards work
        in parallel — this is what makes ``pump`` scale with the shard count.

        A failure never short-circuits the collection: every shard that was
        sent the request gets its reply consumed (or its death recorded)
        before anything is raised, so the surviving shards' control pipes
        stay request/response-aligned for the next operation.
        """
        live = [
            s for s in self._shards if s.alive and (only is None or s.index in only)
        ]
        crashes: list[ShardCrashedError] = []
        op_errors: list[str] = []
        sent: list[_Shard] = []
        for shard in live:
            message = make_message(shard)
            try:
                shard.control.send_bytes(proto.encode_message(message))
            except (BrokenPipeError, OSError) as exc:
                shard.dead = True
                crashes.append(ShardCrashedError(shard.index, f"shard {shard.index}: {exc}"))
                continue
            sent.append(shard)
        responses: list[proto.Message] = []
        for shard in sent:
            try:
                response = proto.decode_message(shard.control.recv_bytes())
            except (EOFError, OSError) as exc:
                shard.dead = True
                crashes.append(ShardCrashedError(shard.index, f"shard {shard.index}: {exc}"))
                continue
            if isinstance(response, proto.Error):
                op_errors.append(f"shard {shard.index} control request failed: {response.message}")
                continue
            responses.append(response)
        if crashes:
            # Survivors answered; let the caller keep their results (pump
            # publishes them) even though the crash is surfaced.
            crashes[0].partial_responses = responses
            raise crashes[0]
        if op_errors:
            raise ServiceError("; ".join(op_errors))
        return responses

    def _broadcast_states(
        self, make_message: Callable[[_Shard], proto.Message]
    ) -> list[dict]:
        """Send a state-returning request to every live shard, collect states.

        Requests are written before any reply is collected (the shards
        serialize their states in parallel), and — like :meth:`_broadcast` —
        every shard that was sent the request gets its reply consumed before
        anything raises, so surviving pipes stay request/response-aligned.
        """
        live = [s for s in self._shards if s.alive]
        crashes: list[ShardCrashedError] = []
        op_errors: list[str] = []
        sent: list[_Shard] = []
        for shard in live:
            try:
                self._control_send(shard, make_message(shard))
            except ShardCrashedError as crash:
                crashes.append(crash)
                continue
            sent.append(shard)
        states: list[dict] = []
        for shard in sent:
            try:
                states.append(self._collect_state(shard))
            except ShardCrashedError as crash:
                crashes.append(crash)
            except ServiceError as exc:
                if shard.alive:
                    op_errors.append(str(exc))
                else:
                    crashes.append(ShardCrashedError(shard.index, str(exc)))
        if crashes:
            raise crashes[0]
        if op_errors:
            raise ServiceError("; ".join(op_errors))
        return states

    def _publish_updates(self, responses: list[proto.Message]) -> None:
        for response in responses:
            for entry in getattr(response, "updates", ()):
                self.publisher.publish(PredictionUpdate.from_dict(entry))

    def pump(self, *, shards: tuple[int, ...] | None = None) -> int:
        """Evaluate every due session on every shard (in parallel).

        Returns the total number of submitted evaluations; every resulting
        prediction is re-published through the parent-side :attr:`publisher`.
        ``shards`` restricts the pump to the given shard indices (recovery
        replay pumps only the revived shard).

        With ``ServiceConfig.auto_revive``, dead shards — whether discovered
        right here or on an earlier data-plane send — are transparently
        revived from the last :meth:`snapshot_state` snapshot (plus the
        recorded spool tails) before and during the pump, up to
        ``ServiceConfig.revive_budget`` times over the service's lifetime;
        a dead shard that cannot be revived anymore raises instead of being
        silently skipped.
        """
        self._revive_or_raise(only=shards)
        total = 0
        only = shards
        while True:
            try:
                responses = self._broadcast_publishing(
                    lambda shard: proto.Pump(expected_bytes=shard.bytes_sent), shards=only
                )
                return total + sum(r.submitted for r in responses)  # type: ignore[attr-defined]
            except ShardCrashedError as crash:
                # Survivors' counts were published with their updates; keep
                # them so the retry only adds the revived shards' work.
                total += sum(
                    getattr(r, "submitted", 0) for r in crash.partial_responses
                )
                revived = self._revive_or_raise(only=shards)
                if not revived:
                    raise
                only = revived

    def drain(self) -> None:
        """Pump every shard until nothing is due and nothing is in flight."""
        self._revive_or_raise()
        while True:
            try:
                self._broadcast_publishing(
                    lambda shard: proto.Drain(expected_bytes=shard.bytes_sent)
                )
                return
            except ShardCrashedError:
                if not self._revive_or_raise():
                    raise

    def finish_job(self, job: str) -> None:
        """Mark ``job`` finished on the shard that owns it."""
        self._request(self._shards[self.ring.shard_for(job)], proto.FinishJob(job=job))

    def reap_finished(self, *, forget_predictions: bool = False) -> tuple[str, ...]:
        """Release finished, fully evaluated sessions on every shard.

        The sharded mirror of :meth:`~repro.service.service.PredictionService.
        reap_finished`.  By default a reaped job keeps its last prediction,
        so it stays tracked for future migrations (the publisher entry still
        has an owner); with ``forget_predictions=True`` the job disappears
        entirely and is dropped from the routing bookkeeping too.  Returns
        the reaped job identifiers, all shards pooled, sorted.
        """
        replies = self._broadcast(lambda shard: proto.ReapFinished(
            forget_predictions=forget_predictions
        ))
        reaped: list[str] = []
        for reply in replies:
            if not isinstance(reply, proto.ReapFinishedReply):
                raise ServiceError(
                    f"expected ReapFinishedReply, got {type(reply).__name__}"
                )
            reaped.extend(reply.jobs)
        if forget_predictions:
            for job in reaped:
                for jobs in self._jobs_by_shard:
                    jobs.discard(job)
        return tuple(sorted(reaped))

    # ------------------------------------------------------------------ #
    # elastic resharding
    # ------------------------------------------------------------------ #
    @property
    def reshards(self) -> int:
        """Number of completed live reshards."""
        return self._reshards

    @property
    def sessions_moved(self) -> int:
        """Total sessions migrated across all completed reshards."""
        return self._sessions_moved

    @property
    def resharding(self) -> bool:
        """Whether a live reshard is in progress (moving jobs are double-routed)."""
        return self._migration is not None

    @property
    def double_routed_frames(self) -> int:
        """Frames double-routed to old and new owners across all handovers."""
        return self._double_routed

    @property
    def last_snapshot(self) -> dict | None:
        """The last merged snapshot taken (the auto-revive recovery point)."""
        return self._last_snapshot

    def reshard(
        self,
        n_shards: int,
        *,
        weights: tuple[float, ...] | list[float] | None = None,
        placement: list[str] | tuple[str, ...] | None = None,
        on_phase: Callable[[str], None] | None = None,
    ) -> dict:
        """Live-resize the service to ``n_shards`` worker shards.

        The operation is a minimal-movement migration: thanks to the
        consistent hash ring, only the jobs whose arc changes owner move.
        ``weights`` re-weights the new ring (same-count reshards with new
        weights rebalance arcs in place).  ``placement`` assigns each slot of
        the new topology to ``"local"`` or ``"remote"`` (dial-home adoption,
        see the constructor) — newly spawned slots honor it immediately;
        existing live slots keep their current worker and adopt the new
        placement only on a later revive.  Phase by phase (``on_phase``
        receives each name — an observability / fault-injection hook):

        1. ``spawned`` (growing) — the new shard subprocesses are up and
           handshaken before anything else: a double-routed frame may target
           them immediately.
        2. ``parked`` — every shard of the new topology has acknowledged
           :class:`~repro.service.protocol.BeginHandover` and, from here on,
           a frame routed for a moving job is *double-routed*: the old owner
           ingests it immediately (zero pause) and the new owner stages a
           twin for deduplicated replay.  (The phase name is historical.)
        3. ``extracted`` — every moving job's session + publisher state has
           been captured *and removed* from its source shard
           (:class:`~repro.service.protocol.ExtractJobs` drains the source's
           data socket to the router's byte mark first, so no in-flight
           frame is lost).  Frames arriving later are delivered to the
           staging target only.
        4. ``switched`` — the hash ring now answers with the new topology.
        5. ``retired`` (shrinking) — the now-empty trailing shards are shut
           down and reaped.
        6. ``transferred`` — the extracted sessions were merged into their
           new owners over the chunked snapshot transfer.  A
           target killed mid-transfer is respawned, re-armed, its staged
           frames re-sent from the router's copies, and the transfer
           repeated (the state is still in the router's hands) when it held
           no other sessions; otherwise the crash surfaces as
           :class:`~repro.exceptions.ShardCrashedError` for the ordinary
           snapshot-revive path.
        7. ``replayed`` — each target deduplicated and ingested its staged
           frames (:class:`~repro.service.protocol.CompleteHandover`).

        The end state is bit-identical to having ingested the same stream at
        ``n_shards`` from scratch.  Returns a summary dict (``from_shards``,
        ``to_shards``, ``moved_jobs``, ``moved_sessions``,
        ``replayed_frames``, ``double_routed_frames``).
        """
        if self._closed:
            raise ServiceError("cannot reshard a closed service")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if weights is not None and len(weights) != n_shards:
            raise ValueError(
                f"weights must have one entry per shard ({n_shards}), got {len(weights)}"
            )
        new_placement = (
            None if placement is None else self._check_placement(placement, n_shards)
        )
        if self._migration is not None:
            raise ServiceError("a reshard is already in progress")
        user_notify = on_phase if on_phase is not None else (lambda phase: None)
        if self.metrics is not None:
            # Each phase's duration is the gap since the previous boundary;
            # the labelled histogram makes slow phases visible per name.
            phase_clock = [time.perf_counter()]

            def notify(phase: str) -> None:
                now = time.perf_counter()
                assert self.metrics is not None
                self.metrics.histogram(
                    "repro_reshard_phase_seconds",
                    {"phase": phase},
                    help="Duration of each live-reshard phase",
                ).observe(now - phase_clock[0])
                phase_clock[0] = now
                user_notify(phase)
        else:
            notify = user_notify
        old_count = self.n_shards
        requested_weights = None if weights is None else tuple(float(w) for w in weights)
        summary = {
            "from_shards": old_count,
            "to_shards": n_shards,
            "moved_jobs": (),
            "moved_sessions": 0,
            "replayed_frames": 0,
            "double_routed_frames": 0,
        }
        if n_shards == old_count and requested_weights == self.ring.weights:
            return summary
        # Migration reads from every source shard: heal (or surface) dead
        # shards before any state moves.
        self._revive_or_raise()
        dead = self.dead_shards()
        if dead:
            raise ShardCrashedError(
                dead[0], f"shard {dead[0]} is dead; revive it before resharding"
            )
        migration = _Migration(
            old_ring=self.ring,
            new_ring=HashRing(
                n_shards, replicas=self.ring.replicas, weights=requested_weights
            ),
        )
        moved_sessions = 0
        moved_jobs: list[str] = []
        moved_states: list[dict] = []
        old_placement = self._placement
        if new_placement is not None:
            self._placement = new_placement
        else:
            self._placement = (self._placement + ["local"] * n_shards)[:n_shards]
        try:
            # New shards come up before the migration is armed: a
            # double-routed frame may target them the moment routing for
            # moving jobs changes.  Frames keep flowing per the old ring
            # while they spawn.
            for index in range(old_count, n_shards):
                self._shards.append(self._spawn(index))
                self._jobs_by_shard.append(set())
            if n_shards > old_count:
                notify("spawned")
            for index in range(n_shards):
                self._arm_handover_target(index, migration)
            migration.handover_targets = set(range(n_shards))
            self._migration = migration
            notify("parked")
            # Extract the moving sessions from their sources.  Consistent
            # hashing means only one direction actually moves (to the new
            # shards on a grow, off the retiring shards on a shrink), but
            # the per-shard predicate needs no case analysis: the moving
            # set is simply non-empty only where it should be.  sorted()
            # keeps the extraction order independent of Python's
            # seed-randomized set iteration order.
            for index in range(old_count):
                moving = sorted(
                    job for job in self._jobs_by_shard[index] if migration.moves(job)
                )
                if not moving:
                    continue
                shard = self._shards[index]
                state = self._request_state(
                    shard,
                    proto.ExtractJobs(
                        jobs=tuple(moving),
                        expected_bytes=shard.bytes_sent,
                        max_chunk=proto.DEFAULT_CHUNK_BYTES,
                    ),
                )
                moved_states.append(state)
                moved_jobs.extend(moving)
                self._jobs_by_shard[index].difference_update(moving)
            # From here on the old owners no longer hold the moving sessions:
            # a frame arriving for a moving job (even a brand-new job id)
            # goes to its staging target only.
            migration.extracted = True
            notify("extracted")
            # Ring first, shard list second: between the two steps the shard
            # list is a *superset* of what the ring routes to, so a failure
            # at any point leaves every ring-reachable index valid (the
            # rollback below reconciles the surplus).
            self.ring = migration.new_ring
            notify("switched")
            if n_shards < old_count:
                for shard in self._shards[n_shards:]:
                    if shard.alive:
                        try:
                            self._request(shard, proto.Close())
                        except ShardCrashedError:
                            pass
                    self._release(shard)
                del self._shards[n_shards:]
                del self._jobs_by_shard[n_shards:]
                notify("retired")
            if moved_states:
                per_target = split_state(
                    merge_states(moved_states), self.ring.shard_for, n_shards
                )
                for target, shard_state in enumerate(per_target):
                    publisher = shard_state["publisher"]
                    if not (
                        shard_state["sessions"]
                        or publisher["latest"]
                        or publisher["latest_period"]
                    ):
                        continue
                    self._transfer_state(target, shard_state)
                    moved_sessions += len(shard_state["sessions"])
                    self._jobs_by_shard[target].update(self._state_jobs(shard_state))
            # A shard killed mid-migration while holding nothing (typically a
            # freshly spawned target whose incoming bucket turned out empty)
            # is respawned for free — nothing was lost with it (its staged
            # frames are re-sent from the router's copies), and the handover
            # completion below must find every owner alive.
            for index, shard in enumerate(self._shards):
                if not shard.alive and not self._jobs_by_shard[index]:
                    self._release(shard)
                    self._shards[index] = self._spawn(index)
                    self._rearm_handover_target(index, migration)
            notify("transferred")
        except BaseException:
            self._migration = None
            self._placement = old_placement[: self.ring.n_shards]
            # Reconcile the shard list with whichever ring the failure left
            # in charge: any shard beyond the ring's range (fresh spawns of
            # a failed grow, drained sources of a failed shrink) is released
            # — it owns nothing the ring can still route to, and keeping it
            # would make n_shards lie and a retried resize short-circuit as
            # a same-count no-op.
            surplus = self._shards[self.ring.n_shards :]
            del self._shards[self.ring.n_shards :]
            del self._jobs_by_shard[self.ring.n_shards :]
            for shard in surplus:
                self._release(shard)
            # The extracted sessions are still in the router's hands — push
            # them back to whichever ring the failure left in charge.  A
            # "merge" transfer is an idempotent overwrite, so states whose
            # handover already succeeded are simply rewritten in place.
            if moved_states:
                per_target = split_state(
                    merge_states(moved_states),
                    self.ring.shard_for,
                    self.ring.n_shards,
                )
                for target, shard_state in enumerate(per_target):
                    if not self._state_jobs(shard_state):
                        continue
                    # Per target, not around the loop: one dead target must
                    # not discard the sessions the live ones can still take.
                    try:
                        self._send_state(self._shards[target], shard_state, kind="merge")
                    except ServiceError:  # pragma: no cover - double fault
                        continue
                    self._jobs_by_shard[target].update(self._state_jobs(shard_state))
            # Resolve the armed handover against whichever ring survived:
            # with the new ring in charge the staged frames are completed in
            # place (deduplicated and ingested — they are the only copies of
            # the post-extraction stream); with the old ring back in charge
            # they are discarded and the router re-delivers, from its own
            # copies, exactly the frames the old owners never saw.  Then the
            # original failure surfaces.
            in_charge = set(range(self.ring.n_shards))
            if self.ring is migration.new_ring:
                self._complete_handover(migration, best_effort=True)
            else:
                for index in sorted(migration.handover_targets & in_charge):
                    shard = self._shards[index]
                    if not shard.alive:
                        continue
                    try:
                        self._request(
                            shard,
                            proto.AbortHandover(expected_bytes=shard.bytes_sent),
                        )
                    except (ShardCrashedError, ServiceError):
                        continue  # pragma: no cover - double fault
                for record in migration.routed:
                    if record.delivered_old:
                        continue
                    try:
                        self.route_raw(record.frame)
                    except Exception:  # pragma: no cover - double fault
                        break
            raise
        self._migration = None
        replayed = self._complete_handover(migration)
        notify("replayed")
        self._reshards += 1
        self._sessions_moved += moved_sessions
        summary.update(
            moved_jobs=tuple(moved_jobs),
            moved_sessions=moved_sessions,
            replayed_frames=replayed,
            double_routed_frames=len(migration.routed),
        )
        return summary

    def _arm_handover_target(self, index: int, migration: _Migration) -> None:
        """Send :class:`~repro.service.protocol.BeginHandover` to one shard."""
        reply = self._request(
            self._shards[index],
            proto.BeginHandover(
                shard=index,
                old_shards=migration.old_ring.n_shards,
                new_shards=migration.new_ring.n_shards,
                replicas=migration.new_ring.replicas,
                old_weights=migration.old_ring.weights,
                new_weights=migration.new_ring.weights,
            ),
        )
        if not isinstance(reply, proto.BeginHandoverReply):
            raise ServiceError(
                f"shard {index} answered BeginHandover with {type(reply).__name__}"
            )

    def _rearm_handover_target(
        self, index: int, migration: _Migration | None = None
    ) -> None:
        """Re-arm a respawned staging target and re-send its staged frames.

        A kill-9'd target took its staging buffer with it, but the router
        kept a copy of every double-routed frame: after the respawn the
        target is re-armed and the copies re-sent in original arrival order,
        so the later :class:`~repro.service.protocol.CompleteHandover` (with
        the unchanged per-job duplicate counts) deduplicates and ingests
        exactly what it would have.
        """
        migration = migration if migration is not None else self._migration
        if migration is None or index not in migration.handover_targets:
            return
        self._arm_handover_target(index, migration)
        shard = self._shards[index]
        for record in migration.routed:
            if record.target == index:
                self._send_raw(shard, record.frame.data)

    def _complete_handover(
        self, migration: _Migration, *, best_effort: bool = False
    ) -> int:
        """Finish an armed handover on every target; returns frames ingested.

        Each target drains its data plane to the router's byte mark, drops
        the per-job duplicate prefix of its staging buffer (frames whose
        effect arrived inside the merged session state) and ingests the
        rest in arrival order.  ``best_effort`` (the rollback path) skips
        dead targets instead of raising.
        """
        replayed = 0
        reachable = set(range(self.n_shards))
        for index in sorted(migration.handover_targets & reachable):
            shard = self._shards[index]
            drops = {
                job: count
                for job, count in migration.dup_counts.items()
                if self.ring.shard_for(job) == index
            }
            try:
                reply = self._request(
                    shard,
                    proto.CompleteHandover(
                        expected_bytes=shard.bytes_sent, drop_counts=drops
                    ),
                )
            except (ShardCrashedError, ServiceError):
                if best_effort:
                    continue
                raise
            replayed += getattr(reply, "replayed", 0)
        # Every double-routed job is resident at its new owner now (the
        # staged stream or the merged state carried it there).
        for record in migration.routed:
            if record.target in reachable:
                self._jobs_by_shard[record.target].add(record.frame.job)
        return replayed

    def _transfer_state(self, index: int, state: dict) -> None:
        """Merge ``state`` into shard ``index``, surviving a mid-transfer kill."""
        try:
            self._send_state(self._shards[index], state, kind="merge")
            return
        except ShardCrashedError:
            # The migrating state is still in the router's hands, so a
            # target that held nothing else is simply respawned and the
            # transfer repeated.  One that already owned sessions lost them
            # with the crash — that is the ordinary crash-recovery path
            # (snapshot + spool replay), not something to paper over here.
            if self._jobs_by_shard[index]:
                raise
        self._release(self._shards[index])
        self._shards[index] = self._spawn(index)
        self._rearm_handover_target(index)
        self._send_state(self._shards[index], state, kind="merge")

    @staticmethod
    def _state_jobs(state: dict) -> set[str]:
        """Every job a snapshot state carries — sessions *and* publisher-only
        entries (a reaped job keeps its last prediction; it must stay tracked
        so a later reshard still migrates that entry with its owner)."""
        publisher = state.get("publisher", {})
        return (
            {str(session["job"]) for session in state["sessions"]}
            | {str(job) for job in publisher.get("latest", {})}
            | {str(job) for job in publisher.get("latest_period", {})}
        )

    def _auto_revive_index(self, index: int) -> bool:
        """Revive one dead shard from the last snapshot, if policy allows.

        The replay covers **every** tailed spool, each bounded at the parent
        tail's consumed position — frames past that mark have not been routed
        yet and will arrive through the normal poll path.
        """
        if not self.config.auto_revive or self._closed:
            return False
        if self._auto_revives >= self.config.revive_budget:
            return False
        if self._shards[index].alive:  # pragma: no cover - already recovered
            return False
        self._auto_revives += 1
        self.revive_shard(index, state=self._last_snapshot)
        for path, reader in self._tails.items():
            snapshot_position = self._snapshot_positions.get(path)
            parent_position = reader.position
            limit: int | None = None
            start_offset = 0 if snapshot_position is None else int(snapshot_position["offset"])
            same_inode = (
                snapshot_position is None
                or snapshot_position["inode"] == parent_position["inode"]
            )
            # A byte bound is only meaningful within one spool generation; a
            # rotation in between falls back to replay-to-EOF (PR-3 semantics).
            bounded = parent_position["inode"] is not None and same_inode
            if bounded and not self._has_generations(path):
                limit = max(0, int(parent_position["offset"]) - start_offset)
            self._replay_spool(index, path, spool_position=snapshot_position, limit=limit)
        return True

    @staticmethod
    def _has_generations(path: Path) -> bool:
        prefix = path.name + "."
        return any(
            candidate.name[len(prefix):].isdigit()
            for candidate in path.parent.glob(prefix + "*")
        )

    def _revive_or_raise(self, *, only: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """Auto-revive every (eligible) dead shard; raise when one cannot be.

        With ``auto_revive`` off this is a no-op (dead shards are skipped
        silently, the PR-3 contract); with it on, a dead shard that cannot be
        healed — budget exhausted — surfaces as :class:`ShardCrashedError`
        instead of silently dropping its work.
        """
        if not self.config.auto_revive or self._closed:
            return ()
        revived: list[int] = []
        for index in self.dead_shards():
            if only is not None and index not in only:
                continue
            if self._auto_revive_index(index):
                revived.append(index)
            else:
                raise ShardCrashedError(
                    index, f"shard {index} is dead and the auto-revive budget is exhausted"
                )
        return tuple(revived)

    def _broadcast_publishing(
        self,
        make_message: Callable[[_Shard], proto.Message],
        *,
        shards: tuple[int, ...] | None = None,
    ) -> list[proto.Message]:
        """Broadcast an update-bearing request; publish results even on a crash."""
        try:
            responses = self._broadcast(make_message, only=shards)
        except ShardCrashedError as crash:
            self._publish_updates(getattr(crash, "partial_responses", []))
            raise
        self._publish_updates(responses)
        return responses

    # ------------------------------------------------------------------ #
    # aggregated introspection
    # ------------------------------------------------------------------ #
    def _stats_responses(self) -> list[dict]:
        return [
            response.stats  # type: ignore[attr-defined]
            for response in self._broadcast(lambda shard: proto.Stats())
        ]

    @property
    def jobs(self) -> tuple[str, ...]:
        """Every job seen by any shard (grouped by shard, ingestion order)."""
        jobs: list[str] = []
        for stats in self._stats_responses():
            jobs.extend(stats["jobs"])
        return tuple(jobs)

    @property
    def broker_stats(self) -> BrokerStats:
        """Ingestion counters aggregated over all shards."""
        return BrokerStats.merge(
            BrokerStats(**stats["broker"]) for stats in self._stats_responses()
        )

    @property
    def dispatcher_stats(self) -> DispatcherStats:
        """Dispatch counters aggregated over all shards."""
        return DispatcherStats.merge(
            DispatcherStats(**stats["dispatcher"]) for stats in self._stats_responses()
        )

    def latency_percentile(self, q: float) -> float | None:
        """Detection-latency percentile over all shards' recent windows."""
        return self._percentile(self._stats_responses(), q)

    @staticmethod
    def _percentile(stats_list: list[dict], q: float) -> float | None:
        """Cross-shard latency percentile, merged without window bias.

        When every shard ships its detection-latency histogram (metrics on),
        the histograms are merged bucket-wise and the quantile read from the
        merged distribution: each shard contributes *every* detection it ever
        ran, weighted by volume.  Pooling the bounded recent-latency windows
        instead (the pre-histogram behavior, kept as the metrics-off
        fallback) caps each shard at ``latency_window`` samples regardless of
        how many detections it served, which skews the aggregate toward the
        low-volume shards' tails (``tests/service/test_stats_schema.py``
        pins the unbiased merge).
        """
        hist_states = [stats.get("detect_hist") for stats in stats_list]
        if stats_list and all(state is not None for state in hist_states):
            merged = Histogram.from_dict(hist_states[0])
            for state in hist_states[1:]:
                merged = merged.merge(Histogram.from_dict(state))
            if merged.count == 0:
                return None
            return float(merged.quantile(q / 100.0))
        latencies = [latency for stats in stats_list for latency in stats["latencies"]]
        if not latencies:
            return None
        return float(np.percentile(np.asarray(latencies), q))

    def stats(self) -> dict:
        """One JSON-friendly dict of service-wide counters, summed over shards.

        Includes the merged p50/p99 detection latencies — everything comes
        from a single control round trip, so callers wanting several views
        (the benchmark does) pay one broadcast, not one per accessor.
        """
        return self._stats_totals(self._stats_responses())

    def _stats_totals(self, stats_list: list[dict]) -> dict:
        totals: dict = {
            "shards": self.n_shards,
            "dead_shards": len(self.dead_shards()),
            "revived_shards": self._auto_revives,
            "reshards": self._reshards,
            "sessions_moved": self._sessions_moved,
            "resharding_in_progress": self._migration is not None,
            "double_routed_frames": self._double_routed,
        }
        for stats in stats_list:
            for key, value in stats["service"].items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        totals["published"] = self.publisher.published
        totals["p50_detection_latency_seconds"] = self._percentile(stats_list, 50.0)
        totals["p99_detection_latency_seconds"] = self._percentile(stats_list, 99.0)
        return totals

    # ------------------------------------------------------------------ #
    # read plane: stats/metrics/liveness without touching the control pipe
    # ------------------------------------------------------------------ #
    def _read_stats_responses(self) -> list[dict]:
        responses: list[dict] = []
        for shard in self._shards:
            if not shard.alive or shard.read is None:
                continue
            try:
                reply = self._read_plane.request(
                    shard.index, proto.Stats(), timeout=self._remote_timeout
                )
            except ShardCrashedError:
                shard.dead = True
                raise
            if not isinstance(reply, proto.StatsReply):
                raise ProtocolError(
                    f"shard {shard.index} answered Stats with "
                    f"{type(reply).__name__} on the read plane"
                )
            responses.append(reply.stats)
        return responses

    def read_stats(self) -> dict:
        """:meth:`stats`, served by the shards' read planes.

        Same schema, different path: each shard's dedicated read thread
        answers, so the aggregation never queues behind a pump in flight on
        the control pipe — the PR-4 "reads served from shards" path the
        gateway and ops surface use.  The counters reflect what each shard
        has ingested *so far* (no ``expected_bytes`` barrier), exactly like
        a scrape of a single-process service racing its ingest loop.
        """
        return self._stats_totals(self._read_stats_responses())

    def read_metrics_snapshot(self) -> dict:
        """:meth:`metrics_snapshot`, served by the shards' read planes.

        Best-effort like its control-plane twin: a shard that died or timed
        out is skipped — a scrape must never take the router down.
        """
        if self.metrics is None:
            return {}
        snapshots = [self.metrics.collect()]
        for shard in self._shards:
            if not shard.alive or shard.read is None:
                continue
            try:
                reply = self._read_plane.request(
                    shard.index, proto.MetricsReport(), timeout=self._remote_timeout
                )
            except (ShardCrashedError, ServiceError, TimeoutError):
                continue
            metrics = getattr(reply, "metrics", None)
            if metrics:
                snapshots.append(metrics)
        return merge_snapshots(snapshots)

    def subscribe_read_events(
        self, callback: Callable[[PredictionUpdate], None]
    ) -> None:
        """Stream shard-side predictions straight off the read plane.

        ``callback`` fires on the read plane's drain thread for every
        prediction any shard publishes — without waiting for the router to
        pump (the control-plane path batches updates into ``PumpReply``).
        Shards spawned later (revives, reshard growth) are subscribed
        automatically.
        """
        self._read_plane.subscribe(
            lambda _index, update: callback(PredictionUpdate.from_dict(update))
        )
        self._read_events_active = True
        for shard in self._shards:
            if not shard.alive or shard.read is None:
                continue
            try:
                self._read_plane.request(
                    shard.index, proto.Subscribe(), timeout=self._remote_timeout
                )
            except (ShardCrashedError, ServiceError, TimeoutError):
                continue

    def heartbeat(self, timeout: float | None = None) -> dict[int, float | None]:
        """Probe every live shard's read plane; returns RTT by shard index.

        The liveness generalization the federation needs: ``waitpid`` only
        sees a *local* child die, but a heartbeat timeout convicts any
        unresponsive worker — a kill-9'd remote (connection reset), a
        network partition, or a process that still holds its sockets while
        wedged (SIGSTOP, runaway native code).  A convicted shard is marked
        dead so the ordinary revive machinery replaces it; an answering
        shard's RTT feeds the ``repro_heartbeat_rtt_seconds`` histogram.

        All probes are launched before any reply is awaited, so the total
        wall time is one ``timeout`` (default
        ``ServiceConfig.heartbeat_timeout``), not one per shard.
        """
        timeout = self.config.heartbeat_timeout if timeout is None else float(timeout)
        rtts: dict[int, float | None] = {}
        probes: list[tuple[_Shard, int]] = []
        acquired: list[threading.Lock] = []
        try:
            for shard in self._shards:
                if not shard.alive or shard.read is None:
                    continue
                try:
                    lock = self._read_plane.request_lock(shard.index)
                except ShardCrashedError:
                    continue
                # Hold the per-shard request mutex from send to collect so a
                # concurrent read_stats() can never steal the reply.  Locks
                # are taken in index order; every other path holds only one.
                lock.acquire()
                acquired.append(lock)
                self._heartbeat_seq += 1
                seq = self._heartbeat_seq
                try:
                    self._read_plane.send(
                        shard.index,
                        proto.Heartbeat(seq=seq, sent_at=time.monotonic()),
                    )
                except ShardCrashedError:
                    shard.dead = True
                    rtts[shard.index] = None
                    continue
                probes.append((shard, seq))
            deadline = time.monotonic() + timeout
            for shard, seq in probes:
                rtt: float | None = None
                while True:
                    remaining = deadline - time.monotonic()
                    try:
                        reply = self._read_plane.collect(
                            shard.index, timeout=max(0.0, remaining)
                        )
                    except (TimeoutError, ShardCrashedError):
                        break
                    if isinstance(reply, proto.HeartbeatReply) and reply.seq == seq:
                        # The echoed sent_at is this process's own monotonic
                        # clock: RTT needs no cross-host clock agreement.
                        rtt = time.monotonic() - reply.sent_at
                        break
                    # A stale reply from an earlier timed-out probe: skip it.
                if rtt is None:
                    shard.dead = True
                    shard.unresponsive = True
                    rtts[shard.index] = None
                else:
                    rtts[shard.index] = rtt
                    if self.metrics is not None:
                        self.metrics.histogram(
                            "repro_heartbeat_rtt_seconds",
                            {"shard": str(shard.index)},
                            help="Round-trip time of shard read-plane heartbeats",
                        ).observe(rtt)
        finally:
            for lock in acquired:
                lock.release()
        return rtts

    def shard_details(self) -> list[dict]:
        """Per-shard view for dashboards: liveness, session count, bytes routed.

        Unlike :meth:`stats` this never raises on a dead shard — the dead
        entry simply reports ``alive: False`` with the router-side counters
        it still knows (jobs routed, bytes sent).  Remote shards additionally
        carry the identity they registered at dial-home.
        """
        details = []
        for shard in self._shards:
            entry: dict = {
                "shard": shard.index,
                "alive": shard.alive,
                "remote": shard.remote,
                "jobs": len(self._jobs_by_shard[shard.index]),
                "bytes_sent": shard.bytes_sent,
            }
            if shard.remote:
                entry["worker"] = {
                    "name": shard.name,
                    "host": shard.host,
                    "pid": shard.pid,
                    "weight": shard.weight,
                }
            if shard.ring is not None:
                entry["ring_occupancy_bytes"] = shard.ring.occupancy
                entry["ring_stalls"] = shard.ring.stalls
            details.append(entry)
        return details

    def metrics_snapshot(self) -> dict:
        """Merged metric tree: router registry + every live shard's registry.

        Shards are polled with an empty :class:`~repro.service.protocol.
        MetricsReport` on the control pipe and reply with their
        :meth:`~repro.obs.MetricRegistry.collect` trees; histograms merge
        bucket-wise (:func:`repro.obs.merge_snapshots`), so cross-shard
        quantiles are as good as single-process ones.  A shard that died is
        skipped — a scrape must never take the router down.  Empty when
        ``ServiceConfig.metrics`` is off.
        """
        if self.metrics is None:
            return {}
        snapshots = [self.metrics.collect()]
        try:
            responses = self._broadcast(lambda shard: proto.MetricsReport())
        except ShardCrashedError as crash:
            responses = list(getattr(crash, "partial_responses", []))
        for response in responses:
            metrics = getattr(response, "metrics", None)
            if metrics:
                snapshots.append(metrics)
        return merge_snapshots(snapshots)

    def spans_snapshot(self) -> list[dict]:
        """Recent router-side spans (empty unless ``ServiceConfig.spans``)."""
        if self.journal is None:
            return []
        return self.journal.snapshot()

    def period_provider(self, *, bootstrap: bool = True):
        """A Set-10 ``PeriodProvider`` backed by the merged parent publisher."""
        from repro.service.provider import ServicePeriodProvider

        return ServicePeriodProvider(self, bootstrap=bootstrap)

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Merged snapshot of all shards (single-process snapshot schema).

        The result round-trips through :func:`repro.service.snapshot.
        restore_state` (one big service) and :meth:`restore_state` (any shard
        count) alike.  The snapshot (plus each tailed spool's position) is
        remembered as the auto-revive recovery point, and with
        ``ServiceConfig.auto_compact`` every tailed spool is compacted up to
        the position this snapshot covers.
        """
        states = self._broadcast_states(
            lambda shard: proto.Snapshot(
                expected_bytes=shard.bytes_sent,
                max_chunk=proto.DEFAULT_CHUNK_BYTES,
            )
        )
        merged = merge_states(states)
        merged["sharding"] = {
            "n_shards": self.n_shards,
            "replicas": self.ring.replicas,
            "weights": None if self.ring.weights is None else list(self.ring.weights),
        }
        self._last_snapshot = merged
        self._snapshot_positions = {
            path: reader.position for path, reader in self._tails.items()
        }
        if self.config.auto_compact:
            compacted = self.compact_spools()
            # Compaction rewrote the spools under new inodes; re-anchor the
            # recorded positions on the compacted files (whose byte 0 is
            # exactly the first post-snapshot byte of each compacted spool).
            for path, reader in self._tails.items():
                if str(path) in compacted and path.exists():
                    self._snapshot_positions[path] = {
                        "inode": os.stat(path).st_ino,
                        "offset": reader.position["offset"],
                    }
        return merged

    def restore_state(self, state: dict) -> None:
        """Load a merged snapshot: each shard receives the sessions it owns."""
        check_snapshot_version(state)
        per_shard = split_state(state, self.ring.shard_for, self.n_shards)
        for shard, shard_state in zip(self._shards, per_shard):
            self._send_state(shard, shard_state, kind="restore")
            # Update, never replace: apply_state leaves sessions the shard
            # holds for *other* jobs resident, so those must stay tracked or
            # a later reshard would silently skip extracting them.
            self._jobs_by_shard[shard.index].update(self._state_jobs(shard_state))
        self.publisher.load_state_dict(state["publisher"])
