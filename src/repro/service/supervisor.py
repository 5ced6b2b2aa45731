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
* **control plane** — a ``multiprocessing`` pipe (a framed TCP connection
  for remote shards) carrying the typed, versioned messages of
  :mod:`repro.service.protocol`: :class:`~repro.service.protocol.Hello`
  negotiation at spawn, then Pump/Drain/Stats/Snapshot/Restore/Close
  request/response pairs.  Because data and control travel on different
  channels, every control request that depends on the data stream carries
  the router's byte count (``expected_bytes``) and the shard drains its data
  channel up to that mark first — the two planes are re-ordered
  deterministically.
* **read plane** — a second pipe / connection served by its own thread in
  the shard (one :class:`~repro.service.transport.ReadPlane` multiplexes
  them): stats and heartbeats never queue behind a pump in flight.

Crash recovery composes out of existing pieces: shard death is detected on
whichever channel operation fails first (the :class:`Shard` primitives mark
the handle dead and raise :class:`~repro.exceptions.ShardCrashedError`) or by
a heartbeat timeout; the lost shard's sessions are restored from the last
merged snapshot (:func:`~repro.service.snapshot.split_state`), and the spool
tail written since is replayed through the router.  With
``ServiceConfig.auto_revive`` :meth:`ShardSupervisor.revive_or_raise` does
this by itself from the last :meth:`~ShardSupervisor.checkpoint`, at most
``ServiceConfig.revive_budget`` times.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import ProtocolError, ServiceError, ShardCrashedError
from repro.obs import MetricRegistry, SpanJournal
from repro.service import protocol as proto
from repro.service.publisher import PredictionPublisher
from repro.service.ring import HashRing
from repro.service.service import ServiceConfig, compact_tails
from repro.service.shard_worker import shard_main
from repro.service.shm_ring import ShmRingWriter
from repro.service.snapshot import split_state, state_jobs
from repro.service.transport import (
    ReadPlane,
    ShardListener,
    SocketChannel,
    config_to_wire,
    send_message,
)
from repro.trace.framing import FrameReader, RawFrame
from repro.trace.msgpack import packb


@dataclass
class Shard:
    """Parent-side handle of one worker shard, and its channel primitives.

    A *local* shard is a forked subprocess (``process`` set, channels are a
    socketpair and pipes).  A *remote* shard is an adopted dial-home
    ``repro-shard`` worker (``process`` is ``None``, every channel is a TCP
    connection, and ``name``/``host``/``pid``/``weight`` carry the identity
    it registered with).  Remote liveness has no ``waitpid`` to lean on: it
    is connection loss (any channel operation below failing) or a heartbeat
    timeout (:meth:`ShardSupervisor.heartbeat`) flipping ``dead``.
    """

    index: int
    process: multiprocessing.process.BaseProcess | None
    data_sock: socket.socket
    control: Any  # multiprocessing.connection.Connection or SocketChannel
    read: Any  # read-plane channel (pipe or SocketChannel)
    ring: ShmRingWriter | None = None
    journal: SpanJournal | None = None
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

    def control_send(self, message: proto.Message) -> None:
        if not self.alive:
            raise ShardCrashedError(self.index)
        try:
            self.control.send_bytes(proto.encode_message(message))
        except OSError as exc:
            raise self._crashed(exc) from exc

    def control_recv(self) -> proto.Message:
        try:
            return proto.decode_message(self.control.recv_bytes())
        except (EOFError, OSError) as exc:
            raise self._crashed(exc) from exc

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
        """Read one state-bearing reply: a plain reply or a chunk stream."""
        assembler = proto.ChunkAssembler()
        while True:
            response = self.reply()
            if isinstance(response, proto.SnapshotChunk):
                try:
                    state = assembler.feed(response)
                except ProtocolError:
                    # A torn chunk stream cannot be resynchronized on the
                    # pipe; the shard is unusable from here on.
                    self.dead = True
                    raise
                if state is not None:
                    return state
                continue
            if (
                isinstance(response, (proto.SnapshotReply, proto.ExtractJobsReply))
                and not assembler.receiving
            ):
                return response.state
            self.dead = True
            raise ProtocolError(
                f"unexpected {type(response).__name__} from shard {self.index} "
                f"while collecting a snapshot state"
            )

    def send_state(self, state: dict, *, kind: str) -> proto.Message:
        """Push one snapshot state into the shard as a chunk stream.

        ``kind`` is ``"restore"`` (replace: revive / restore) or ``"merge"``
        (fold in without touching resident jobs: migration).
        """
        for chunk in proto.iter_state_chunks(
            packb(state), kind=kind, max_chunk=proto.DEFAULT_CHUNK_BYTES
        ):
            self.control_send(chunk)
        return self.reply()


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


def _has_generations(path: Path) -> bool:
    prefix = path.name + "."
    return any(
        candidate.name[len(prefix):].isdigit()
        for candidate in path.parent.glob(prefix + "*")
    )


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
        self._snapshot_positions: dict[Path, dict] = {}
        self._publisher = publisher
        self._replay = replay
        self._ctx = multiprocessing.get_context(start_method)
        self._events_active = False
        self._views_registered: set[int] = set()
        if metrics is not None:
            metrics.register_view(
                "repro_shard_revives_total", "counter", lambda: self.auto_revives,
                help="Automatic shard revives performed",
            )
        # The dial-home listener exists only when configured (a port to
        # listen on), the read plane always (local shards use it too).
        self.listener: ShardListener | None = None
        self.read_plane = ReadPlane()
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
        parent_sock, child_sock = socket.socketpair()
        parent_conn, child_conn = self._ctx.Pipe()
        read_parent, read_child = self._ctx.Pipe()
        ring = ShmRingWriter(self.config.ring_bytes) if self.config.ring_bytes > 0 else None
        # Not daemonic: orphan safety comes from the shard loop exiting on
        # control-pipe EOF when the router goes away, not from multiprocessing
        # terminating the child at interpreter exit.
        handle = ring.handle if ring is not None else None
        process = self._ctx.Process(
            target=shard_main,
            args=(index, self.config, child_sock, child_conn, handle, read_child),
            name=f"prediction-shard-{index}",
        )
        process.start()
        child_sock.close()
        child_conn.close()
        read_child.close()
        if ring is not None:
            ring.bind(parent_sock)
        return Shard(
            index, process, parent_sock, parent_conn, read_parent, ring, self.journal
        )

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
            send_message(
                pending.channel,
                proto.RegisterShardReply(
                    shard=index, config=config_to_wire(self.config), data_key=key
                ),
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
        data_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Shard(
            index, None, data_sock, pending.channel, SocketChannel(read_sock),
            journal=self.journal,
            name=registration.name,
            host=registration.host,
            pid=registration.pid,
            weight=registration.weight,
        )

    def _handshake(self, shard: Shard) -> None:
        # Version negotiation before the first real control message: a shard
        # built from an incompatible protocol generation fails loudly at
        # spawn, never by silently mis-parsing a request later.
        reply = shard.request(
            proto.Hello(versions=proto.SUPPORTED_VERSIONS, token=self.config.token)
        )
        if not isinstance(reply, proto.HelloReply):
            raise ServiceError(
                f"shard {shard.index} handshake returned {type(reply).__name__}, "
                f"expected HelloReply"
            )
        self.read_plane.attach(shard.index, shard.read)
        if self._events_active:
            try:
                self.read_request(shard, proto.Subscribe())
            except (ShardCrashedError, ServiceError, TimeoutError):
                pass  # events degrade; the control-plane replies still carry them
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
        # The read plane's drain thread unregisters and closes the channel
        # (only if this shard got as far as attaching it); a replacement
        # spawn may re-attach the slot right away.
        self.read_plane.detach(shard.index)
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
        self.read_plane.close()
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
        before anything is raised, so the surviving shards' control pipes
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

    def read_request(self, shard: Shard, message: proto.Message) -> proto.Message:
        """One round trip on ``shard``'s read plane (never the control pipe)."""
        return self.read_plane.request(shard.index, message, timeout=self.remote_timeout)

    def subscribe_events(self, callback: Callable[[int, dict], None]) -> None:
        """Have every shard, present and future (subscribed at its handshake),
        push its predictions to ``callback(shard_index, update_dict)``."""
        self.read_plane.subscribe(callback)
        self._events_active = True
        for shard in self.shards:
            if not shard.alive:
                continue
            try:
                self.read_request(shard, proto.Subscribe())
            except (ShardCrashedError, ServiceError, TimeoutError):
                continue

    def heartbeat(self, timeout: float | None = None) -> dict[int, float | None]:
        """Probe every live shard's read plane; returns RTT by shard index.

        ``waitpid`` only sees a *local* child die; a heartbeat timeout
        convicts any unresponsive worker — a kill-9'd remote (connection
        reset), a network partition, or a process that still holds its
        sockets while wedged (SIGSTOP, runaway native code).  A convicted
        shard is marked dead so the ordinary revive machinery replaces it; an
        answering shard's RTT feeds ``repro_heartbeat_rtt_seconds``.  The
        round costs one ``timeout`` (default
        ``ServiceConfig.heartbeat_timeout``), not one per shard.
        """
        timeout = self.config.heartbeat_timeout if timeout is None else float(timeout)
        live = [shard for shard in self.shards if shard.alive]
        rtts = self.read_plane.heartbeat([shard.index for shard in live], timeout)
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
        """Remember ``merged`` (a snapshot of every shard, plus each tailed
        spool's position) as the recovery point; ``auto_compact`` spools."""
        self.last_snapshot = merged
        self._snapshot_positions = {
            path: reader.position for path, reader in self.tails.items()
        }
        if self.config.auto_compact:
            compacted = compact_tails(self.tails)
            # Compaction rewrote the spools under new inodes; re-anchor the
            # recorded positions on the compacted files (whose byte 0 is
            # exactly the first post-snapshot byte of each compacted spool).
            for path, reader in self.tails.items():
                if str(path) in compacted and path.exists():
                    self._snapshot_positions[path] = {
                        "inode": os.stat(path).st_ino,
                        "offset": reader.position["offset"],
                    }

    def revive(
        self,
        index: int,
        *,
        state: dict | None = None,
        spool: str | Path | None = None,
        spool_offset: int = 0,
        spool_position: dict | None = None,
    ) -> int:
        """Respawn dead shard ``index``; see ``ShardedService.revive_shard``."""
        if self.shards[index].alive:
            raise ServiceError(f"shard {index} is still alive; refusing to revive it")
        shard = self.respawn(index)
        if state is not None:
            restored = split_state(state, self.ring.shard_for, len(self.shards))[index]
            shard.send_state(restored, kind="restore")
            self.jobs[index].update(state_jobs(restored))
            # Merge (not replace): surviving shards have published past the
            # snapshot, only the revived shard's jobs roll back to it.
            self._publisher.merge_state_dict(restored["publisher"])
        if spool is None:
            return 0
        return self._replay_spool(index, spool, offset=spool_offset, position=spool_position)

    def _replay_spool(
        self,
        index: int,
        spool: str | Path,
        *,
        offset: int = 0,
        position: dict | None = None,
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
            spool, offset=offset, position=position, expected_token=self.config.token, raw=True
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
            self._replay(index, raw)
            replayed += 1
        return replayed

    def auto_revive(self, index: int) -> bool:
        """Revive one dead shard from the recovery point, if policy allows.

        The replay covers **every** tailed spool, each bounded at the parent
        tail's consumed position — frames past that mark have not been routed
        yet and will arrive through the normal poll path.
        """
        if not self.config.auto_revive or self.closed:
            return False
        if self.auto_revives >= self.config.revive_budget:
            return False
        self.auto_revives += 1
        self.revive(index, state=self.last_snapshot)
        for path, reader in self.tails.items():
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
            if bounded and not _has_generations(path):
                limit = max(0, int(parent_position["offset"]) - start_offset)
            self._replay_spool(index, path, position=snapshot_position, limit=limit)
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
