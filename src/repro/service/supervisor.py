"""Shard supervision: who holds which slot, and how a lost one comes back.

:class:`ShardSupervisor` owns the topology of a sharded service — the
:class:`~repro.service.ring.HashRing`, one :class:`Shard` handle per slot and
the job ids each slot has been sent — and everything that keeps it populated:
spawn, dial-home adoption, handshake, liveness, revival.  A :class:`Shard` is
reached over three channels:

* **data plane** — a shared-memory ring (:mod:`repro.service.shm_ring`)
  carrying ordinary FTS1 frames (:mod:`repro.trace.framing`): the router
  copies each frame into the ring once, the shard decodes it straight out of
  the mapped memory as a borrowed ``memoryview``, and the ``socketpair``
  between them is demoted to a doorbell carrying byte totals — ≤1 copy per
  frame per hop (``ServiceConfig.ring_bytes = 0``, and every remote shard,
  moves the frame bytes over the socket itself).
* **control plane** — a :class:`~repro.service.transport.Channel` (over a
  ``socketpair`` for a forked shard, a TCP connection for a remote one)
  carrying the typed, versioned messages of :mod:`repro.service.protocol`:
  :class:`~repro.service.protocol.Hello` negotiation at spawn, then
  Pump/Drain/Snapshot/ExtractJobs/Close request/response pairs and the
  ``SnapshotChunk`` streams every state moves as, in either direction.  It
  is the one way a prediction leaves a shard (in ``PumpReply`` /
  ``DrainReply``).  Because data and control travel on different channels,
  every control request that depends on the data stream carries the
  router's byte count (``expected_bytes``) and the shard drains its data
  channel up to that mark first — the two planes are re-ordered
  deterministically.  One thread drives it at a time.
* **read plane** — a second such channel served by its own thread in the
  shard, and the one way Stats, MetricsReport and Heartbeat are answered: a
  timed request/reply under a per-shard mutex
  (:meth:`Shard.read_request`), safe from any thread, so a scrape or a
  liveness probe never queues behind — or steals the reply of — a pump in
  flight.  Nothing unsolicited travels on it, so no thread demultiplexes it.

Crash recovery composes out of existing pieces: shard death is detected on
whichever channel operation fails first (the :class:`Shard` primitives mark
the handle dead and raise :class:`~repro.exceptions.ShardCrashedError`) or by
a heartbeat timeout.  :meth:`ShardSupervisor.revive` is the one way back: the
lost shard's sessions are restored from the last
:meth:`~ShardSupervisor.checkpoint` (:func:`~repro.service.snapshot.
split_state`), and the spool tail written since is replayed through the
router.  With ``ServiceConfig.auto_revive``
:meth:`ShardSupervisor.revive_or_raise` calls it by itself, at most
``ServiceConfig.revive_budget`` times.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
import threading
import time
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from repro.exceptions import ProtocolError, ServiceError, ShardCrashedError
from repro.obs import MetricRegistry, SpanJournal
from repro.service import protocol as proto
from repro.service.publisher import PredictionPublisher
from repro.service.ring import HashRing
from repro.service.service import ServiceConfig, replay_since, tail_marks
from repro.service.shard_worker import shard_main
from repro.service.shm_ring import ShmRingWriter
from repro.service.snapshot import split_state, state_jobs
from repro.service.transport import Channel, ShardListener, config_to_wire, wait_readable
from repro.trace.framing import FrameReader, RawFrame

R = TypeVar("R", bound=proto.Message)

#: Longest single wait on a read channel.  A reader holds the shard's read
#: mutex while it waits; between slices it notices the shard was declared
#: dead and gives the mutex up, so :meth:`ShardSupervisor.release` never
#: waits out a full timeout to close the channel.
_READ_SLICE = 0.25


@dataclass
class Shard:
    """Parent-side handle of one worker shard, and its channel primitives.

    A *local* shard is a forked subprocess (``process`` set, every channel a
    ``socketpair``).  A *remote* shard is an adopted dial-home
    ``repro-shard`` worker (``process`` is ``None``, every channel is a TCP
    connection, and ``name``/``host``/``pid`` carry the identity it
    registered with).  The two differ only in how their sockets came to
    exist and in whether a ring sits in front of the data socket.  Remote
    liveness has no ``waitpid`` to lean on: it is connection loss (any
    channel operation below failing) or a heartbeat timeout
    (:meth:`ShardSupervisor.heartbeat`) flipping ``dead``.
    """

    index: int
    process: multiprocessing.process.BaseProcess | None
    data_sock: socket.socket
    control: Channel
    read: Channel
    ring: ShmRingWriter | None = None
    journal: SpanJournal | None = None
    bytes_sent: int = 0
    dead: bool = False
    unresponsive: bool = False  # heartbeat timeout: connected but wedged
    name: str | None = None
    host: str | None = None
    pid: int | None = None
    #: Held from the send of a read request to the receipt of its reply, and
    #: by :meth:`ShardSupervisor.release` while it closes the channel.
    read_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def remote(self) -> bool:
        return self.process is None

    @property
    def alive(self) -> bool:
        if self.dead:
            return False
        return True if self.process is None else self.process.is_alive()

    def _crashed(self, exc: BaseException) -> ShardCrashedError:
        self.dead = True
        return ShardCrashedError(self.index, f"shard {self.index}: {exc}")

    def send_raw(self, data: bytes | memoryview) -> None:
        """Write frame bytes to the data plane (counted in ``bytes_sent``)."""
        if not self.alive:
            raise ShardCrashedError(self.index)
        started = time.perf_counter() if self.journal is not None else 0.0
        try:
            if self.ring is not None:
                # One copy into the shared segment; the shard decodes it in
                # place.  Blocks for acknowledgements while the ring is full,
                # matching sendall's backpressure on a full socket buffer.
                self.ring.write(data)
            else:
                self.data_sock.sendall(data)
        except OSError as exc:
            raise self._crashed(exc) from exc
        self.bytes_sent += len(data)
        if self.journal is not None:
            self.journal.record(
                "ring",
                time.perf_counter() - started,
                job=f"shard:{self.index}",
                started=started,
            )

    @contextlib.contextmanager
    def _guard(self) -> Iterator[None]:
        """A channel that fails under an operation marks the handle dead."""
        try:
            yield
        except TimeoutError:
            raise  # not a verdict: the caller decides what silence means
        except (EOFError, OSError) as exc:
            raise self._crashed(exc) from exc

    def _send(self, channel: Channel, message: proto.Message) -> None:
        if not self.alive:
            raise ShardCrashedError(self.index)
        with self._guard():
            channel.send(message)

    def hello(self, token: int | None) -> proto.HelloReply:
        """Offer the handshake on the control channel (refusal: ``ServiceError``)."""
        with self._guard():
            return self.control.hello(token=token)

    def control_send(self, message: proto.Message) -> None:
        self._send(self.control, message)

    def control_recv(self) -> proto.Message:
        with self._guard():
            return self.control.recv()

    def reply(self) -> proto.Message:
        """The next control reply; a typed ``Error`` raises ``ServiceError``."""
        response = self.control_recv()
        if isinstance(response, proto.Error):
            raise ServiceError(
                f"shard {self.index} control request failed: {response.message}"
            )
        return response

    def request(self, message: proto.Message) -> proto.Message:
        self.control_send(message)
        return self.reply()

    def collect_state(self) -> dict:
        """Read one state-bearing reply: a ``SnapshotChunk`` stream."""
        assembler = proto.ChunkAssembler()
        while True:
            response = self.reply()
            try:
                if not isinstance(response, proto.SnapshotChunk):
                    raise ProtocolError(
                        f"unexpected {type(response).__name__} from shard "
                        f"{self.index} while collecting a snapshot state"
                    )
                state = assembler.feed(response)
            except ProtocolError:
                # A torn chunk stream cannot be resynchronized on the channel;
                # the shard is unusable from here on.
                self.dead = True
                raise
            if state is not None:
                return state

    def send_state(self, state: dict) -> proto.Message:
        """Push one snapshot state into the shard as a chunk stream.

        The shard loads it with :func:`~repro.service.snapshot.apply_state`
        (the carried sessions are loaded, the publisher entries merged; its
        other jobs are left alone), whether it revives, restores or migrates
        jobs.  The stream travels as ``kind="merge"``, which every shard
        generation applies that way.
        """
        for chunk in proto.iter_state_chunks(state, kind="merge"):
            self.control_send(chunk)
        return self.reply()

    # -- read plane ---------------------------------------------------- #
    def read_send(self, message: proto.Message) -> None:
        """Write one read-plane request (caller holds ``read_lock``)."""
        self._send(self.read, message)

    def read_recv(self, timeout: float | None = None) -> proto.Message:
        """The read channel's next reply (``read_lock`` held).

        :class:`TimeoutError` after ``timeout`` seconds of an incomplete
        reply; what has arrived of it is kept for the next call.
        """
        try:
            with self._guard():
                return self.read.recv(timeout)
        except ProtocolError as exc:
            raise self._crashed(exc) from exc

    def read_request(self, message: proto.Message, timeout: float) -> proto.Message:
        """One timed round trip on the read channel, safe from any thread.

        A shard silent for ``timeout`` is convicted exactly as a heartbeat
        timeout convicts it (``dead`` and ``unresponsive``): its channel is
        never read again, so the late reply can not be taken for the next
        request's — it goes away with the channel when the slot is revived.
        """
        with self.read_lock:
            self.read_send(message)
            deadline = time.monotonic() + timeout
            while True:
                try:
                    reply = self.read_recv(min(_READ_SLICE, deadline - time.monotonic()))
                    break
                except TimeoutError:
                    if self.dead:  # released (or convicted) while we waited
                        raise ShardCrashedError(self.index) from None
                    if time.monotonic() >= deadline:
                        self.unresponsive = True
                        raise self._crashed(
                            TimeoutError(f"no answer on the read channel within {timeout}s")
                        ) from None
        if isinstance(reply, proto.Error):
            raise ServiceError(f"shard {self.index} read request failed: {reply.message}")
        return reply


def check_placement(
    placement: list[str] | tuple[str, ...] | None, n_shards: int, shard_port: int | None
) -> list[str]:
    """Validate a per-shard placement list (``None`` = every slot local)."""
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
    if "remote" in entries and shard_port is None:
        raise ValueError(
            "placement includes 'remote' but ServiceConfig.shard_port is not "
            "set — the router has no listener for workers to dial home to"
        )
    return entries


class ShardSupervisor:
    """Spawns, adopts, watches and revives the shards of one topology.

    One shard is brought up per slot of ``ring``; ``config`` is each shard's
    :class:`ServiceConfig` and carries the supervision policy; ``placement``,
    ``start_method`` and ``remote_timeout`` are
    :class:`~repro.service.sharding.ShardedService`'s.  A revive rolls the
    revived shard's jobs back to the snapshot in the router's merged
    ``publisher`` and hands each replayed spool frame to ``replay(index,
    frame)`` — the router delivers and evaluates it.

    ``jobs`` holds the job ids sent to each slot so far — the router knows
    every job id from the frame headers it forwards, so a reshard can compute
    the moving set without a stats round trip; ``tails`` the tailed spools.
    """

    def __init__(
        self,
        ring: HashRing,
        config: ServiceConfig,
        *,
        placement: list[str] | tuple[str, ...] | None,
        start_method: str | None,
        remote_timeout: float,
        metrics: MetricRegistry | None,
        journal: SpanJournal | None,
        publisher: PredictionPublisher,
        replay: Callable[[int, RawFrame], None],
    ) -> None:
        # Validated before anything is opened: a bad placement must not
        # leave a bound listener port behind.
        self.placement = check_placement(placement, ring.n_shards, config.shard_port)
        self.ring = ring
        self.config = config
        self.remote_timeout = float(remote_timeout)
        self.metrics = metrics
        self.journal = journal
        self.closed = False
        self.shards: list[Shard] = []
        self.jobs: list[set[str]] = [set() for _ in range(ring.n_shards)]
        self.tails: dict[Path, FrameReader] = {}
        self.last_snapshot: dict | None = None
        self.auto_revives = 0
        #: :func:`~repro.service.service.tail_marks` at the last checkpoint.
        self.snapshot_marks: dict[Path, tuple[dict, int]] = {}
        self._publisher = publisher
        self._replay = replay
        self._ctx = multiprocessing.get_context(start_method)
        self._heartbeat_seq = 0
        self._views_registered: set[int] = set()
        if metrics is not None:
            metrics.register_view(
                "repro_shard_revives_total", "counter", lambda: self.auto_revives,
                help="Automatic shard revives performed",
            )
        # The dial-home listener exists only when configured (a port to
        # listen on).
        self.listener: ShardListener | None = None
        try:
            if config.shard_port is not None:
                self.listener = ShardListener(
                    "0.0.0.0", config.shard_port, token=config.token
                )
            for index in range(ring.n_shards):
                self.shards.append(self.spawn(index))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # spawn / adopt / release
    # ------------------------------------------------------------------ #
    def spawn(self, index: int) -> Shard:
        """Bring up and handshake the worker for slot ``index`` per its placement.

        A ``"remote"`` slot adopts the next dial-home worker parked on the
        listener; if none arrives (or its channels never attach) within
        ``remote_timeout`` the slot degrades to a local fork — as a revive
        of a dead remote does when its machine is gone.
        """
        shard: Shard | None = None
        if self.placement[index] == "remote":
            shard = self._adopt_remote(index)
            if shard is None:
                warnings.warn(
                    f"no remote worker adopted for shard {index} within "
                    f"{self.remote_timeout}s; spawning it locally",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if shard is None:
            shard = self._spawn_local(index)
        try:
            self._handshake(shard)
        except BaseException:
            self.release(shard)
            raise
        return shard

    def respawn(self, index: int) -> Shard:
        """Release whatever holds slot ``index`` and spawn its replacement."""
        self.release(self.shards[index])
        self.shards[index] = self.spawn(index)
        return self.shards[index]

    def _spawn_local(self, index: int) -> Shard:
        # Raw sockets are what crosses Process(args=...) under every start
        # method; the child wraps its ends in channels as this side does.
        data, child_data = socket.socketpair()
        control, child_control = socket.socketpair()
        read, child_read = socket.socketpair()
        ring = ShmRingWriter(self.config.ring_bytes) if self.config.ring_bytes > 0 else None
        # Not daemonic: a shard ends when its control channel reports EOF,
        # not by multiprocessing terminating it at interpreter exit.  (Under
        # fork a shard inherits copies of the router's socket ends, so only
        # a router that closes — not one killed -9 — delivers that EOF.)
        handle = ring.handle if ring is not None else None
        process = self._ctx.Process(
            target=shard_main,
            args=(index, self.config, child_data, child_control, handle, child_read),
            name=f"prediction-shard-{index}",
        )
        process.start()
        for child_end in (child_data, child_control, child_read):
            child_end.close()
        if ring is not None:
            ring.bind(data)
        return Shard(index, process, data, Channel(control), Channel(read), ring, self.journal)

    def _adopt_remote(self, index: int) -> Shard | None:
        """Adopt the next parked dial-home worker into slot ``index``.

        The worker already passed the listener's Hello (token, version) and
        registered its identity; adoption sends it the wire-form config plus
        a one-time key, then waits for it to attach its data- and read-plane
        connections under that key.  ``None`` (the caller forks locally)
        when nothing dialed home or the worker went away mid-adoption.
        """
        listener = self.listener
        assert listener is not None  # check_placement(): "remote" needs shard_port
        pending = listener.take_pending(timeout=self.remote_timeout)
        if pending is None:
            return None
        registration = pending.registration
        key = listener.new_key()
        try:
            pending.channel.send(
                proto.RegisterShardReply(
                    shard=index, config=config_to_wire(self.config), data_key=key
                )
            )
            data_sock = listener.wait_attachment(key, "data", timeout=self.remote_timeout)
            read_sock = listener.wait_attachment(key, "read", timeout=self.remote_timeout)
        except (OSError, EOFError, ServiceError) as exc:
            pending.close()
            warnings.warn(
                f"adopting remote worker {registration.name!r} for shard {index} "
                f"failed ({exc}); trying the next placement",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return Shard(
            index, None, data_sock, pending.channel, Channel(read_sock),
            journal=self.journal,
            name=registration.name,
            host=registration.host,
            pid=registration.pid,
        )

    def _handshake(self, shard: Shard) -> None:
        # Version negotiation before the first real control message: a shard
        # built from an incompatible protocol generation fails loudly at
        # spawn, never by silently mis-parsing a request later.
        shard.hello(self.config.token)
        self._register_views(shard.index)

    def _register_views(self, index: int) -> None:
        """Expose slot ``index``'s liveness and ring counters as labelled views.

        Registered once per slot: the closures read whatever shard holds it
        now, so revives and respawns need no re-registration.  A slot shrunk
        away (for the ring series also: ring-less or dead) raises inside the
        closure, which drops the series from that scrape.
        """
        if self.metrics is None or index in self._views_registered:
            return
        self._views_registered.add(index)
        labels = {"shard": str(index)}

        def alive() -> float:
            if index >= len(self.shards):
                raise ValueError(f"shard slot {index} no longer exists")
            return 1.0 if self.shards[index].alive else 0.0

        def ring() -> ShmRingWriter:
            shard = self.shards[index]
            if shard.ring is None or not shard.alive:
                raise ValueError(f"shard {index} has no live ring")
            return shard.ring

        self.metrics.register_view(
            "repro_shard_alive", "gauge", alive, labels,
            help="1 while the shard's process (local) or connection (remote) is live",
        )
        for name, kind, counter, help_text in (
            ("repro_ring_occupancy_bytes", "gauge", "occupancy",
             "Bytes written to the shard's shm ring but not yet acknowledged"),
            ("repro_ring_stalls_total", "counter", "stalls",
             "Writes that found the ring full and blocked for space"),
            ("repro_ring_doorbell_sends_total", "counter", "doorbell_sends",
             "Doorbell announcements sent (one per written chunk)"),
        ):
            self.metrics.register_view(
                name, kind, lambda counter=counter: getattr(ring(), counter), labels,
                help=help_text,
            )

    def release(self, shard: Shard) -> None:
        """Close ``shard``'s channels, reap its process, unlink its ring."""
        shard.dead = True
        try:
            shard.data_sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        shard.control.close()
        # Under the read mutex: no reader may be waiting on a descriptor that
        # is closed (and possibly reused) under it.  Readers see ``dead``
        # within one ``_READ_SLICE`` and let go.
        with shard.read_lock:
            shard.read.close()
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

    def retire(self, shard: Shard) -> None:
        """Ask a live shard to close, then :meth:`release` it."""
        if shard.alive:
            try:
                shard.request(proto.Close())
            except ShardCrashedError:
                pass
        self.release(shard)

    def close(self) -> None:
        """Shut every shard down, reap the subprocesses, stop listening."""
        if self.closed:
            return
        self.closed = True
        for shard in self.shards:
            self.retire(shard)
        if self.listener is not None:
            self.listener.close()

    def dead_shards(self) -> tuple[int, ...]:
        """Indices of shards whose process died or whose channel broke."""
        return tuple(s.index for s in self.shards if not s.alive)

    def kill(self, index: int) -> None:
        """SIGKILL a shard — fault injection for tests.

        A remote shard is signalled by pid (same-host chaos runs); detection
        stays organic either way — the router notices the death on the next
        channel operation (waitpid locally, connection loss remotely).
        """
        shard = self.shards[index]
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

    # ------------------------------------------------------------------ #
    # channels: one slot, every slot, the read plane
    # ------------------------------------------------------------------ #
    def send(self, index: int, frame: RawFrame) -> None:
        """Write ``frame`` to slot ``index`` and note the slot has seen its job."""
        self.shards[index].send_raw(frame.data)
        self.jobs[index].add(frame.job)

    def broadcast(
        self,
        make_message: Callable[[Shard], proto.Message],
        *,
        only: tuple[int, ...] | None = None,
        collect: Callable[[Shard], object] = Shard.reply,
    ) -> list:
        """Send one request to every live shard, then collect the replies.

        Requests are written before any reply is awaited, so the shards work
        in parallel — this is what makes ``pump`` scale with the shard count.
        ``collect`` reads one shard's answer: :meth:`Shard.reply` (a message)
        or :meth:`Shard.collect_state` (a possibly chunked state).

        A failure never short-circuits the collection: every shard that was
        sent the request gets its reply consumed (or its death recorded)
        before anything is raised, so the surviving shards' control channels
        stay request/response-aligned for the next operation.
        """
        crashes: list[ShardCrashedError] = []
        op_errors: list[str] = []
        sent: list[Shard] = []
        for shard in self.shards:
            if not shard.alive or (only is not None and shard.index not in only):
                continue
            try:
                shard.control_send(make_message(shard))
            except ShardCrashedError as crash:
                crashes.append(crash)
                continue
            sent.append(shard)
        results: list = []
        for shard in sent:
            try:
                results.append(collect(shard))
            except ShardCrashedError as crash:
                crashes.append(crash)
            except ServiceError as exc:
                if shard.alive:
                    op_errors.append(str(exc))
                else:
                    crashes.append(ShardCrashedError(shard.index, str(exc)))
        if crashes:
            # Survivors answered; let the caller keep their results (pump
            # publishes them) even though the crash is surfaced.
            crashes[0].partial_responses = results
            raise crashes[0]
        if op_errors:
            raise ServiceError("; ".join(op_errors))
        return results

    def read_all(
        self, request: proto.Message, reply_type: type[R], *, skip_lost: bool = False
    ) -> list[R]:
        """Ask every live shard ``request`` on its read channel, in slot order.

        A shard lost mid-read (crashed, or convicted by the timeout — either
        way already marked dead) or answering with an error raises, unless
        ``skip_lost`` leaves it out of the result instead.
        """
        replies: list[R] = []
        for shard in list(self.shards):
            if not shard.alive:
                continue
            try:
                reply = shard.read_request(request, self.remote_timeout)
            except (ShardCrashedError, ServiceError):
                if skip_lost:
                    continue
                raise
            if not isinstance(reply, reply_type):
                raise ProtocolError(
                    f"shard {shard.index} answered {type(request).__name__} "
                    f"with {type(reply).__name__}"
                )
            replies.append(reply)
        return replies

    def heartbeat(self, timeout: float | None = None) -> dict[int, float | None]:
        """Probe every live shard's read plane; returns RTT by shard index.

        ``waitpid`` only sees a *local* child die; a heartbeat timeout
        convicts any unresponsive worker — a kill-9'd remote (connection
        reset), a network partition, or a process that still holds its
        sockets while wedged (SIGSTOP, runaway native code).  A convicted
        shard is marked dead so the ordinary revive machinery replaces it; an
        answering shard's RTT feeds ``repro_heartbeat_rtt_seconds``.  Every
        probe is launched before any reply is awaited, so the round costs one
        ``timeout`` (default ``ServiceConfig.heartbeat_timeout``), not one
        per shard.
        """
        timeout = self.config.heartbeat_timeout if timeout is None else float(timeout)
        live = [shard for shard in self.shards if shard.alive]
        rtts: dict[int, float | None] = {shard.index: None for shard in live}
        waiting: dict[Channel, tuple[Shard, int]] = {}  # read channel -> (shard, seq)

        def settle(channel: Channel) -> None:
            # This probe is over: answered, lost, or the shard was released.
            waiting.pop(channel)[0].read_lock.release()

        try:
            for shard in live:
                # Each read mutex is held from the probe until it settles, so
                # a concurrent read_request() can never take the reply.  Taken
                # in slot order; every other path holds only one.
                shard.read_lock.acquire()
                self._heartbeat_seq += 1
                waiting[shard.read] = (shard, self._heartbeat_seq)
                try:
                    shard.read_send(
                        proto.Heartbeat(seq=self._heartbeat_seq, sent_at=time.monotonic())
                    )
                except ShardCrashedError:
                    settle(shard.read)
            deadline = time.monotonic() + timeout
            while waiting and (remaining := deadline - time.monotonic()) > 0:
                for channel in wait_readable(waiting, min(_READ_SLICE, remaining)):
                    shard, seq = waiting[channel]
                    try:
                        reply = shard.read_recv(deadline - time.monotonic())
                    except TimeoutError:
                        continue  # half a reply; the deadline convicts it
                    except ShardCrashedError:
                        settle(channel)
                        continue
                    if isinstance(reply, proto.HeartbeatReply) and reply.seq == seq:
                        # The echoed sent_at is this process's own monotonic
                        # clock: RTT needs no cross-host clock agreement.
                        rtts[shard.index] = time.monotonic() - reply.sent_at
                        settle(channel)
                    # Anything else is the stale reply to an earlier probe
                    # that timed out: skip it and keep waiting.
                for channel in [c for c, (shard, _) in waiting.items() if shard.dead]:
                    settle(channel)
        finally:
            for channel in list(waiting):
                settle(channel)
        for shard in live:
            rtt = rtts[shard.index]
            if rtt is None:
                shard.dead = shard.unresponsive = True
            elif self.metrics is not None:
                self.metrics.histogram(
                    "repro_heartbeat_rtt_seconds",
                    {"shard": str(shard.index)},
                    help="Round-trip time of shard read-plane heartbeats",
                ).observe(rtt)
        return rtts

    # ------------------------------------------------------------------ #
    # recovery: checkpoint, revive, spool replay
    # ------------------------------------------------------------------ #
    def checkpoint(self, merged: dict) -> None:
        """Remember ``merged`` (a snapshot of every shard) and each tailed
        spool's mark as the recovery point."""
        self.last_snapshot = merged
        self.snapshot_marks = tail_marks(self.tails)

    def revive(self, index: int) -> int:
        """Respawn dead shard ``index`` from the recovery point.

        The replacement loads the shard's part of :attr:`last_snapshot` (if
        a checkpoint was taken), the router's publisher merges the same part
        (surviving shards have published past the snapshot; only the revived
        shard's jobs roll back to it), and every tailed spool is replayed
        from its checkpoint mark — only the frames the revived shard owns.
        The replay stops after the frames the tail has routed since
        (:func:`~repro.service.service.replay_since`): frames past it arrive
        through the next poll, so none is ingested twice.  Returns the frames
        replayed.
        """
        if self.shards[index].alive:
            raise ServiceError(f"shard {index} is still alive; refusing to revive it")
        shard = self.respawn(index)
        if self.last_snapshot is not None:
            owned = split_state(self.last_snapshot, self.ring.shard_for, len(self.shards))
            restored = owned[index]
            shard.send_state(restored)
            self.jobs[index].update(state_jobs(restored))
            self._publisher.merge_state_dict(restored["publisher"])
        replayed = 0
        for path, tail in self.tails.items():
            mark = self.snapshot_marks.get(path)
            for raw in replay_since(path, mark, tail, expected_token=self.config.token):
                if self.ring.shard_for(raw.job) == index:
                    self._replay(index, raw)
                    replayed += 1
        return replayed

    def auto_revive(self, index: int) -> bool:
        """:meth:`revive` one dead shard, if ``ServiceConfig.auto_revive``
        is on and the ``revive_budget`` is not spent."""
        if not self.config.auto_revive or self.closed:
            return False
        if self.auto_revives >= self.config.revive_budget:
            return False
        self.auto_revives += 1
        self.revive(index)
        return True

    def revive_or_raise(self, *, only: tuple[int, ...] | None = None) -> tuple[int, ...]:
        """Auto-revive every dead shard (of ``only``); returns those revived.

        A no-op with ``auto_revive`` off (dead shards are skipped silently,
        the PR-3 contract); with it on, a dead shard the budget can no
        longer heal raises instead of silently dropping its work.
        """
        if not self.config.auto_revive or self.closed:
            return ()
        revived: list[int] = []
        for index in self.dead_shards():
            if only is not None and index not in only:
                continue
            if not self.auto_revive(index):
                raise ShardCrashedError(
                    index, f"shard {index} is dead and the auto-revive budget is exhausted"
                )
            revived.append(index)
        return tuple(revived)
