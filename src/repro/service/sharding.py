"""Sharded multi-process prediction service: the router.

One :class:`~repro.service.service.PredictionService` scales to hundreds of
jobs in a single process, but its detections all share one GIL and one crash
domain.  :class:`ShardedService` scales the service *out*: job ids are
consistent-hashed (:mod:`repro.service.ring`) onto N worker shards, each
shard runs a full service (broker + dispatcher + publisher) in its own
process (:mod:`repro.service.shard_worker`), and the parent acts as a thin
router.  It classifies frames from the header alone
(:class:`~repro.trace.framing.FrameSplitter`) and forwards the raw bytes; a
payload is decoded exactly once, inside the shard that owns the job — the
same header-only property the single-process broker has, preserved across
the process boundary.

Sessions are already independent and lock-isolated, so sharding changes no
prediction: the ``shards=N`` service is bit-identical to the single-process
one on the same input (asserted by ``tests/service/test_sharding.py``).

This module keeps routing, pump / drain, aggregation and snapshot / restore.
The shards' lifecycle, channels and crash recovery are
:mod:`repro.service.supervisor`'s; live resizing is
:mod:`repro.service.migration`'s.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from pathlib import Path

from repro.exceptions import ServiceError, ShardCrashedError
from repro.obs import Histogram, MetricRegistry, SpanJournal, merge_snapshots
from repro.service import protocol as proto
from repro.service.broker import BrokerStats
from repro.service.dispatcher import DispatcherStats
from repro.service.migration import Migrator
from repro.service.publisher import PredictionPublisher, PredictionUpdate
from repro.service.ring import HashRing
from repro.service.service import ServiceConfig, retire_generations, tail_positions
from repro.service.snapshot import (
    check_snapshot_version,
    merge_states,
    split_state,
    state_jobs,
)
from repro.service.supervisor import Shard, ShardSupervisor
from repro.trace.framing import FrameReader, FrameSplitter, RawFrame, encode_frame
from repro.trace.jsonl import FlushRecord


class ShardedService:
    """Routes FTS1 frames onto N subprocess shards and aggregates their state.

    Parameters
    ----------
    n_shards:
        Number of worker shards (subprocesses) to spawn.
    config:
        Per-shard :class:`ServiceConfig` (session config, auto-revive
        policy).  When
        :attr:`ServiceConfig.token` is set, the router stamps it on frames it
        encodes itself and **rejects** routed byte streams whose frames do
        not carry it (wire-level auth).
    replicas:
        Virtual nodes per shard on the hash ring.
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
        start_method: str | None = None,
        placement: list[str] | tuple[str, ...] | None = None,
        remote_timeout: float = 30.0,
    ) -> None:
        self.config = config or ServiceConfig()
        self.publisher = PredictionPublisher()
        self._splitter = FrameSplitter(expected_token=self.config.token)
        # Router-side observability: the registry holds what only the parent
        # can see (ring occupancy/stalls, reshard phase durations, revives);
        # shard-side registries are polled and merged in metrics_snapshot().
        self.metrics = MetricRegistry() if self.config.metrics else None
        self.journal = SpanJournal() if self.config.spans else None
        self._supervisor = ShardSupervisor(
            HashRing(n_shards, replicas=replicas),
            self.config,
            placement=placement,
            start_method=start_method,
            remote_timeout=remote_timeout,
            metrics=self.metrics,
            journal=self.journal,
            publisher=self.publisher,
            replay=self._replay_frame,
        )
        self._migrator = Migrator(self._supervisor, self.metrics)

    # ------------------------------------------------------------------ #
    # topology and lifecycle (the supervisor's, surfaced)
    # ------------------------------------------------------------------ #
    @property
    def ring(self) -> HashRing:
        """The hash ring currently routing (a reshard swaps it)."""
        return self._supervisor.ring

    @property
    def n_shards(self) -> int:
        """Number of shards (live or dead)."""
        return len(self._supervisor.shards)

    @property
    def token(self) -> int | None:
        """Tenant/auth token nibble stamped on and required of every frame."""
        return self.config.token

    def shard_for(self, job: str) -> int:
        """Shard index that owns ``job`` (consistent hash)."""
        return self._supervisor.ring.shard_for(job)

    def dead_shards(self) -> tuple[int, ...]:
        """Indices of shards whose process died or whose channel broke."""
        return self._supervisor.dead_shards()

    @property
    def auto_revives(self) -> int:
        """Number of automatic shard revives performed so far."""
        return self._supervisor.auto_revives

    def kill_shard(self, index: int) -> None:
        """Forcibly kill a shard (SIGKILL) — fault injection for tests."""
        self._supervisor.kill(index)

    def revive_shard(self, index: int) -> int:
        """Respawn a dead shard from the last checkpoint; returns the spool
        frames replayed.

        The checkpoint is the last :meth:`snapshot_state` or
        :meth:`restore_state`.  The replacement shard gets the sessions it
        owns in that snapshot, then every tailed spool is replayed from the
        mark recorded with it, as many frames as the tail has routed since —
        **only** the frames the revived shard owns (surviving shards already
        consumed theirs), pumping after every frame so each replayed flush is
        evaluated at its own timestamp, the cadence a flush-by-flush live run
        takes.  ``ServiceConfig.auto_revive`` runs this same revive by itself.
        """
        return self._supervisor.revive(index)

    def _replay_frame(self, index: int, frame: RawFrame) -> None:
        self.route_raw(frame)
        self.pump(shards=(index,))

    def heartbeat(self, timeout: float | None = None) -> dict[int, float | None]:
        """Probe every live shard's read plane; returns RTT by shard index.

        A shard silent for ``timeout`` (default
        ``ServiceConfig.heartbeat_timeout``) is marked dead — see
        :meth:`~repro.service.supervisor.ShardSupervisor.heartbeat`.
        """
        return self._supervisor.heartbeat(timeout)

    def close(self) -> None:
        """Shut every live shard down and reap the subprocesses."""
        self._supervisor.close()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # data plane: classify on the header, forward the bytes
    # ------------------------------------------------------------------ #
    def ingest_flush(self, job: str, flush: FlushRecord) -> int:
        """Encode one flush as a frame and route it; returns the shard index."""
        token = self.config.token
        frame = encode_frame(flush, job=job, token=token)
        return self.route_raw(RawFrame(job=job, data=frame, token=token))

    def route_raw(self, frame: RawFrame) -> int:
        """Route one already-framed message; returns the shard index.

        During a live reshard, a frame whose job is changing owner is
        double-routed — delivered to the old owner (ingested immediately,
        zero pause) and to the new owner's staging buffer.  The returned
        index is then the job's *new* owner.
        """
        migration = self._migrator.active
        if migration is not None and migration.moves(frame.job):
            return self._migrator.route_moving(migration, frame)
        started = time.perf_counter() if self.journal is not None else 0.0
        index = self._supervisor.ring.shard_for(frame.job)
        self._supervisor.send(index, frame)
        if self.journal is not None:
            self.journal.record(
                "route", time.perf_counter() - started, job=frame.job, started=started
            )
        return index

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

    def tail_file(self, path: str | Path) -> FrameReader:
        """Tail a framed spool file from its oldest retained frame; each
        ``poll()`` routes the new frames.

        The reader runs in raw (header-only) mode and follows spool rotation.
        It is remembered so each checkpoint records its mark (position and
        frames read): a revive replays from there, and :meth:`compact_spools`
        retires the generations before it.

        With ``ServiceConfig.auto_revive``, a dead shard discovered while
        routing is revived in place.  The revival replay delivers every frame
        the tail has read since the checkpoint — the current poll batch
        included — so the batch's frames the revived shard owns are skipped
        (not double-sent) for the rest of the batch.
        """

        def route(frames: list[RawFrame]) -> None:
            replayed_by_revival: set[int] = set()
            for raw in frames:
                if self._supervisor.ring.shard_for(raw.job) in replayed_by_revival:
                    continue
                try:
                    self.route_raw(raw)
                except ShardCrashedError as crash:
                    if not self._supervisor.auto_revive(crash.shard):
                        raise crash
                    replayed_by_revival.add(crash.shard)

        reader = FrameReader(path, sink=route, expected_token=self.config.token, raw=True)
        self._supervisor.tails[Path(path)] = reader
        return reader

    def spool_positions(self) -> dict[str, dict]:
        """Rotation-proof resume point of every tailed spool (by path)."""
        return tail_positions(self._supervisor.tails)

    def compact_spools(self) -> dict[str, list[Path]]:
        """Unlink the rotated spool generations the last checkpoint covers
        (:func:`~repro.service.service.retire_generations`); returns them per
        spool path.  The live spool file is never touched."""
        return retire_generations(self._supervisor.snapshot_marks)

    # ------------------------------------------------------------------ #
    # control plane: pump / drain every shard in parallel
    # ------------------------------------------------------------------ #
    def _broadcast_publishing(
        self,
        make_message: Callable[[Shard], proto.Message],
        *,
        shards: tuple[int, ...] | None = None,
    ) -> list[proto.Message]:
        """Broadcast an update-bearing request; publish results even on a crash."""
        try:
            responses = self._supervisor.broadcast(make_message, only=shards)
        except ShardCrashedError as crash:
            self._publish_updates(crash.partial_responses)
            raise
        self._publish_updates(responses)
        return responses

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
        revived (:meth:`revive_shard`) before and during the pump, up to
        ``ServiceConfig.revive_budget`` times over the service's lifetime;
        a dead shard that cannot be revived anymore raises instead of being
        silently skipped.
        """
        self._supervisor.revive_or_raise(only=shards)
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
                revived = self._supervisor.revive_or_raise(only=shards)
                if not revived:
                    raise
                only = revived

    def drain(self) -> None:
        """Pump every shard until nothing is due and nothing is in flight."""
        self._supervisor.revive_or_raise()
        while True:
            try:
                self._broadcast_publishing(
                    lambda shard: proto.Drain(expected_bytes=shard.bytes_sent)
                )
                return
            except ShardCrashedError:
                if not self._supervisor.revive_or_raise():
                    raise

    def finish_job(self, job: str) -> None:
        """Mark ``job`` finished on the shard that owns it."""
        supervisor = self._supervisor
        supervisor.shards[supervisor.ring.shard_for(job)].request(proto.FinishJob(job=job))

    def reap_finished(self, *, forget_predictions: bool = False) -> tuple[str, ...]:
        """Release finished, fully evaluated sessions on every shard.

        The sharded mirror of :meth:`~repro.service.service.PredictionService.
        reap_finished`.  By default a reaped job keeps its last prediction,
        so it stays tracked for future migrations (the publisher entry still
        has an owner); with ``forget_predictions=True`` the job disappears
        entirely and is dropped from the routing bookkeeping too.  Returns
        the reaped job identifiers, all shards pooled, sorted.
        """
        replies = self._supervisor.broadcast(
            lambda shard: proto.ReapFinished(forget_predictions=forget_predictions)
        )
        reaped: list[str] = []
        for reply in replies:
            if not isinstance(reply, proto.ReapFinishedReply):
                raise ServiceError(
                    f"expected ReapFinishedReply, got {type(reply).__name__}"
                )
            reaped.extend(reply.jobs)
        if forget_predictions:
            for jobs in self._supervisor.jobs:
                jobs.difference_update(reaped)
        return tuple(sorted(reaped))

    # ------------------------------------------------------------------ #
    # elastic resharding (the migrator's, surfaced)
    # ------------------------------------------------------------------ #
    @property
    def reshards(self) -> int:
        """Number of completed live reshards."""
        return self._migrator.reshards

    @property
    def sessions_moved(self) -> int:
        """Total sessions migrated across all completed reshards."""
        return self._migrator.sessions_moved

    @property
    def resharding(self) -> bool:
        """Whether a live reshard is in progress (moving jobs are double-routed)."""
        return self._migrator.active is not None

    @property
    def double_routed_frames(self) -> int:
        """Frames double-routed to old and new owners across all handovers."""
        return self._migrator.double_routed

    def reshard(
        self,
        n_shards: int,
        *,
        placement: list[str] | tuple[str, ...] | None = None,
        on_phase: Callable[[str], None] | None = None,
    ) -> dict:
        """Live-resize the service to ``n_shards`` worker shards.

        The operation is a minimal-movement migration: thanks to the
        consistent hash ring, only the jobs whose arc changes owner move, and
        a reshard to the current count is a no-op.  ``placement`` assigns
        each slot of the new topology to ``"local"`` or ``"remote"``
        (dial-home adoption, see the constructor) — newly spawned slots
        honor it immediately; existing live slots keep their current worker
        and adopt the new placement only on a later revive.  Phase by phase
        (``on_phase`` receives each name — an observability /
        fault-injection hook):

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
        return self._migrator.reshard(n_shards, placement=placement, on_phase=on_phase)

    # ------------------------------------------------------------------ #
    # aggregated introspection: served by the shards' read threads
    # ------------------------------------------------------------------ #
    def _stats_responses(self) -> list[dict]:
        """Every live shard's stats map, asked on its read channel.

        Safe from any thread and never queued behind a pump in flight: the
        control channels are not touched.  The counters are what each shard has
        ingested *so far* (no ``expected_bytes`` barrier), exactly like a
        scrape of a single-process service racing its ingest loop; after a
        ``pump()`` / ``drain()`` returned they cover everything it evaluated.
        """
        return [
            reply.stats
            for reply in self._supervisor.read_all(proto.Stats(), proto.StatsReply)
        ]

    @property
    def jobs(self) -> tuple[str, ...]:
        """Every job seen by any shard (grouped by shard, ingestion order)."""
        return tuple(job for stats in self._stats_responses() for job in stats["jobs"])

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

    @staticmethod
    def _percentile(stats_list: list[dict], q: float) -> float | None:
        """Cross-shard detection-latency percentile (``None`` before the first).

        Every shard ships its full ``repro_dispatcher_detect_seconds``
        histogram; the quantile is read from their bucket-wise merge, so each
        shard contributes *every* detection it ever ran, weighted by volume
        (``tests/service/test_stats_schema.py`` pins the unbiased merge).
        """
        merged = Histogram()
        for stats in stats_list:
            merged = merged.merge(Histogram.from_dict(stats["detect_hist"]))
        if merged.count == 0:
            return None
        return float(merged.quantile(q / 100.0))

    def stats(self) -> dict:
        """One JSON-friendly dict of service-wide counters, summed over shards.

        Includes the merged p50/p99 detection latency — everything comes from
        a single read round, so callers wanting several views (the benchmark
        does) pay one round, not one per accessor.
        """
        stats_list = self._stats_responses()
        migrator = self._migrator
        totals: dict = {
            "shards": self.n_shards,
            "dead_shards": len(self.dead_shards()),
            "revived_shards": self._supervisor.auto_revives,
            "reshards": migrator.reshards,
            "sessions_moved": migrator.sessions_moved,
            "resharding_in_progress": migrator.active is not None,
            "double_routed_frames": migrator.double_routed,
        }
        for stats in stats_list:
            for key, value in stats["service"].items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        totals["published"] = self.publisher.published
        totals["p50_detection_latency_seconds"] = self._percentile(stats_list, 50.0)
        totals["p99_detection_latency_seconds"] = self._percentile(stats_list, 99.0)
        return totals

    def metrics_snapshot(self) -> dict:
        """Merged metric tree: router registry + every live shard's registry.

        Shards are polled with an empty :class:`~repro.service.protocol.
        MetricsReport` on their read channels and reply with their
        :meth:`~repro.obs.MetricRegistry.collect` trees; histograms merge
        bucket-wise (:func:`repro.obs.merge_snapshots`), so cross-shard
        quantiles are as good as single-process ones.  A shard that died or
        timed out is skipped — a scrape must never take the router down.
        Empty when ``ServiceConfig.metrics`` is off.
        """
        if self.metrics is None:
            return {}
        reports = self._supervisor.read_all(
            proto.MetricsReport(), proto.MetricsReport, skip_lost=True
        )
        return merge_snapshots(
            [self.metrics.collect(), *(r.metrics for r in reports if r.metrics)]
        )

    def shard_details(self) -> list[dict]:
        """Per-shard view for dashboards: liveness, session count, bytes routed.

        Unlike :meth:`stats` this never raises on a dead shard — the dead
        entry simply reports ``alive: False`` with the router-side counters
        it still knows (jobs routed, bytes sent).  Remote shards additionally
        carry the identity they registered at dial-home.
        """
        details = []
        for shard in self._supervisor.shards:
            entry: dict = {
                "shard": shard.index,
                "alive": shard.alive,
                "remote": shard.remote,
                "jobs": len(self._supervisor.jobs[shard.index]),
                "bytes_sent": shard.bytes_sent,
            }
            if shard.remote:
                entry["worker"] = {
                    "name": shard.name,
                    "host": shard.host,
                    "pid": shard.pid,
                }
            if shard.ring is not None:
                entry["ring_occupancy_bytes"] = shard.ring.occupancy
                entry["ring_stalls"] = shard.ring.stalls
            details.append(entry)
        return details

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
        count) alike.  The snapshot (plus each tailed spool's mark) is
        remembered as the checkpoint every revive starts from and
        :meth:`compact_spools` retires spool generations up to.
        """
        states = self._supervisor.broadcast(
            lambda shard: proto.Snapshot(expected_bytes=shard.bytes_sent),
            collect=Shard.collect_state,
        )
        merged = merge_states(states)
        merged["sharding"] = {
            "n_shards": self.n_shards,
            "replicas": self._supervisor.ring.replicas,
        }
        self._supervisor.checkpoint(merged)
        return merged

    def restore_state(self, state: dict) -> None:
        """Load a merged snapshot, taken at any shard count, into the running
        service.

        Each shard applies the part it owns
        (:func:`~repro.service.snapshot.apply_state`) and the router's
        publisher merges the snapshot's entries: the carried jobs roll back
        to it, every other job keeps its session and prediction.  The
        restored state is then checkpointed, so a shard lost from here on is
        revived with it.
        """
        check_snapshot_version(state)
        supervisor = self._supervisor
        per_shard = split_state(state, supervisor.ring.shard_for, self.n_shards)
        for shard, shard_state in zip(supervisor.shards, per_shard):
            shard.send_state(shard_state)
            # Update, never replace: the shard keeps the sessions it holds
            # for *other* jobs, so those must stay tracked or a later reshard
            # would silently skip extracting them.
            supervisor.jobs[shard.index].update(state_jobs(shard_state))
        self.publisher.merge_state_dict(state["publisher"])
        self.snapshot_state()
