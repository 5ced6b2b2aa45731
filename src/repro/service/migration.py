"""Live resharding: move the jobs whose ring arc changed owner, mid-stream.

The topology of a sharded service is elastic: :meth:`Migrator.reshard` grows
or shrinks the shard count *live*.  Because the hash ring is consistent, only
the jobs whose arc changed owner move; their sessions are extracted from the
source shards (:class:`~repro.service.protocol.ExtractJobs` — capture and
remove in one drained step), carried over the chunked snapshot
transfer (:class:`~repro.service.protocol.SnapshotChunk`), and merged into
their new owners, while any frame arriving for a moving job is *double-routed*
(:meth:`Migrator.route_moving`) — ingested by the old owner at once and
staged at the new owner, which deduplicates and ingests its staged frames
when the handover completes.  The end state is bit-identical to having
ingested the same stream at the target shard count from scratch
(``tests/service/test_resharding.py`` asserts this under chaotic
interleavings, kill -9 included).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.exceptions import ServiceError, ShardCrashedError
from repro.obs import MetricRegistry
from repro.service import protocol as proto
from repro.service.ring import HashRing
from repro.service.snapshot import merge_states, split_state, state_jobs
from repro.service.supervisor import ShardSupervisor, check_placement
from repro.trace.framing import RawFrame


@dataclass
class RoutedCopy:
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
class Migration:
    """In-flight reshard: the two rings plus the in-flight frame bookkeeping.

    Every shard of the new topology acknowledges
    :class:`~repro.service.protocol.BeginHandover` before the migration is
    installed, so a frame whose job changes owner between ``old_ring`` and
    ``new_ring`` is *double-routed*: delivered to the old owner for
    immediate evaluation (zero ingest pause) and to the new owner's staging
    buffer, with per-job duplicate counts so the receiving shard can
    deduplicate at :class:`~repro.service.protocol.CompleteHandover` — the
    stream stays exactly-once.  ``moved_states`` are the extracted sessions,
    in the router's hands from extraction until their transfer (or the
    rollback) lands them on a shard again.
    """

    old_ring: HashRing
    new_ring: HashRing
    extracted: bool = False
    handover_targets: set[int] = field(default_factory=set)
    dup_counts: dict[str, int] = field(default_factory=dict)
    routed: list[RoutedCopy] = field(default_factory=list)
    moved_states: list[dict] = field(default_factory=list)
    moved_jobs: list[str] = field(default_factory=list)
    moved_sessions: int = 0

    def moves(self, job: str) -> bool:
        return self.old_ring.shard_for(job) != self.new_ring.shard_for(job)

    def moved_by_owner(self, ring: HashRing) -> Iterator[tuple[int, dict, set[str]]]:
        """The extracted states regrouped by owner under ``ring``: one
        ``(shard, state, jobs)`` per shard that gets any."""
        if not self.moved_states:
            return
        states = split_state(merge_states(self.moved_states), ring.shard_for, ring.n_shards)
        for target, state in enumerate(states):
            jobs = state_jobs(state)
            if jobs:
                yield target, state, jobs


class Migrator:
    """Runs live reshards over one supervisor's topology, one at a time.

    While ``active`` (the armed migration) is set, the router double-routes
    moving jobs through :meth:`route_moving`; the counters are lifetime totals.
    """

    def __init__(self, supervisor: ShardSupervisor, metrics: MetricRegistry | None) -> None:
        self.active: Migration | None = None
        self.reshards = 0
        self.sessions_moved = 0
        self.double_routed = 0
        self._supervisor = supervisor
        self._metrics = metrics
        if metrics is not None:
            metrics.register_view(
                "repro_reshards_total", "counter", lambda: self.reshards,
                help="Completed live reshard operations",
            )
            metrics.register_view(
                "repro_double_routed_frames_total", "counter",
                lambda: self.double_routed,
                help="Frames double-routed to old and new owners during handovers",
            )

    def route_moving(self, migration: Migration, frame: RawFrame) -> int:
        """Route one frame whose job changes owner; returns the *new* owner."""
        supervisor = self._supervisor
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
            supervisor.send(migration.old_ring.shard_for(frame.job), copy)
            migration.dup_counts[frame.job] = migration.dup_counts.get(frame.job, 0) + 1
        # Post-extraction the old owner no longer holds the session — the
        # frame goes to the staging target only, ingested in order at
        # CompleteHandover.
        migration.routed.append(
            RoutedCopy(copy, new, delivered_old=not migration.extracted)
        )
        try:
            supervisor.shards[new].send_raw(data)
        except ShardCrashedError:
            # The staging target died; the routed copy above is re-sent when
            # the target is respawned and re-armed (_rearm).
            pass
        self.double_routed += 1
        return new

    def reshard(
        self,
        n_shards: int,
        *,
        placement: list[str] | tuple[str, ...] | None = None,
        on_phase: Callable[[str], None] | None = None,
    ) -> dict:
        """Live-resize the topology; see ``ShardedService.reshard``."""
        supervisor = self._supervisor
        if supervisor.closed:
            raise ServiceError("cannot reshard a closed service")
        # Building the ring validates n_shards.
        new_ring = HashRing(n_shards, replicas=supervisor.ring.replicas)
        if placement is not None:
            placement = check_placement(placement, n_shards, supervisor.config.shard_port)
        if self.active is not None:
            raise ServiceError("a reshard is already in progress")
        notify = self._phase_notifier(on_phase)
        old_count = len(supervisor.shards)
        summary = {
            "from_shards": old_count,
            "to_shards": n_shards,
            "moved_jobs": (),
            "moved_sessions": 0,
            "replayed_frames": 0,
            "double_routed_frames": 0,
        }
        if n_shards == old_count:
            return summary
        # Migration reads from every source shard: heal (or surface) dead
        # shards before any state moves.
        supervisor.revive_or_raise()
        dead = supervisor.dead_shards()
        if dead:
            raise ShardCrashedError(
                dead[0], f"shard {dead[0]} is dead; revive it before resharding"
            )
        migration = Migration(old_ring=supervisor.ring, new_ring=new_ring)
        old_placement = supervisor.placement
        supervisor.placement = (
            placement
            if placement is not None
            else (old_placement + ["local"] * n_shards)[:n_shards]
        )
        try:
            if n_shards > old_count:
                self._spawn_new(migration)
                notify("spawned")
            self._arm(migration)
            notify("parked")
            self._extract(migration)
            notify("extracted")
            # Ring first, shard list second: between the two steps the shard
            # list is a *superset* of what the ring routes to, so a failure
            # at any point leaves every ring-reachable index valid (the
            # rollback reconciles the surplus).
            supervisor.ring = migration.new_ring
            notify("switched")
            if n_shards < old_count:
                self._retire_surplus()
                notify("retired")
            self._transfer(migration)
            notify("transferred")
        except BaseException:
            self._roll_back(migration, old_placement)
            raise
        self.active = None
        replayed = self._complete(migration)
        notify("replayed")
        self.reshards += 1
        self.sessions_moved += migration.moved_sessions
        summary.update(
            moved_jobs=tuple(migration.moved_jobs),
            moved_sessions=migration.moved_sessions,
            replayed_frames=replayed,
            double_routed_frames=len(migration.routed),
        )
        return summary

    def _phase_notifier(
        self, on_phase: Callable[[str], None] | None
    ) -> Callable[[str], None]:
        """``on_phase``, preceded (metrics on) by timing the phase that ended."""
        user_notify = on_phase if on_phase is not None else (lambda phase: None)
        if self._metrics is None:
            return user_notify
        histogram = self._metrics.histogram
        # Each phase's duration is the gap since the previous boundary; the
        # labelled histogram makes slow phases visible per name.
        clock = [time.perf_counter()]

        def notify(phase: str) -> None:
            now = time.perf_counter()
            histogram(
                "repro_reshard_phase_seconds",
                {"phase": phase},
                help="Duration of each live-reshard phase",
            ).observe(now - clock[0])
            clock[0] = now
            user_notify(phase)

        return notify

    # ------------------------------------------------------------------ #
    # phases, in the order reshard() runs them
    # ------------------------------------------------------------------ #
    def _spawn_new(self, migration: Migration) -> None:
        """``spawned``: bring up the slots the new ring adds — before the
        migration is armed, since a double-routed frame may target them the
        moment it is.  Frames keep flowing per the old ring meanwhile."""
        supervisor = self._supervisor
        for index in range(len(supervisor.shards), migration.new_ring.n_shards):
            supervisor.shards.append(supervisor.spawn(index))
            supervisor.jobs.append(set())

    def _arm(self, migration: Migration) -> None:
        """``parked``: every new-topology shard stages its incoming jobs."""
        targets = range(migration.new_ring.n_shards)
        for index in targets:
            self._arm_target(index, migration)
        migration.handover_targets = set(targets)
        self.active = migration

    def _arm_target(self, index: int, migration: Migration) -> None:
        """Send :class:`~repro.service.protocol.BeginHandover` to one shard."""
        reply = self._supervisor.shards[index].request(
            proto.BeginHandover(
                shard=index,
                old_shards=migration.old_ring.n_shards,
                new_shards=migration.new_ring.n_shards,
                replicas=migration.new_ring.replicas,
            ),
        )
        if not isinstance(reply, proto.BeginHandoverReply):
            raise ServiceError(
                f"shard {index} answered BeginHandover with {type(reply).__name__}"
            )

    def _rearm(self, index: int, migration: Migration) -> None:
        """Re-arm a respawned staging target and re-send its staged frames.

        A kill-9'd target took its staging buffer with it, but the router
        kept a copy of every double-routed frame: after the respawn the
        target is re-armed and the copies re-sent in original arrival order,
        so the later :class:`~repro.service.protocol.CompleteHandover` (with
        the unchanged per-job duplicate counts) deduplicates and ingests
        exactly what it would have.
        """
        self._arm_target(index, migration)
        shard = self._supervisor.shards[index]
        for record in migration.routed:
            if record.target == index:
                shard.send_raw(record.frame.data)

    def _extract(self, migration: Migration) -> None:
        """``extracted``: capture-and-remove the moving sessions at their sources.

        Consistent hashing means only one direction actually moves (to the
        new shards on a grow, off the retiring shards on a shrink), but the
        per-shard predicate needs no case analysis: the moving set is simply
        non-empty only where it should be.  sorted() keeps the extraction
        order independent of Python's seed-randomized set iteration order.
        """
        supervisor = self._supervisor
        for index in range(migration.old_ring.n_shards):
            moving = sorted(job for job in supervisor.jobs[index] if migration.moves(job))
            if not moving:
                continue
            shard = supervisor.shards[index]
            shard.control_send(
                proto.ExtractJobs(jobs=tuple(moving), expected_bytes=shard.bytes_sent)
            )
            migration.moved_states.append(shard.collect_state())
            migration.moved_jobs.extend(moving)
            supervisor.jobs[index].difference_update(moving)
        # From here on the old owners no longer hold the moving sessions:
        # a frame arriving for a moving job (even a brand-new job id)
        # goes to its staging target only.
        migration.extracted = True

    def _retire_surplus(self) -> None:
        """``retired``: shut down the now-empty slots past the ring's range."""
        supervisor = self._supervisor
        keep = supervisor.ring.n_shards
        for shard in supervisor.shards[keep:]:
            supervisor.retire(shard)
        del supervisor.shards[keep:]
        del supervisor.jobs[keep:]

    def _transfer(self, migration: Migration) -> None:
        """``transferred``: merge the extracted sessions into their new owners."""
        supervisor = self._supervisor
        for target, state, jobs in migration.moved_by_owner(supervisor.ring):
            self._transfer_state(target, state, migration)
            migration.moved_sessions += len(state["sessions"])
            supervisor.jobs[target].update(jobs)
        # A shard killed mid-migration while holding nothing (typically a
        # freshly spawned target whose incoming bucket turned out empty)
        # is respawned for free — nothing was lost with it (its staged
        # frames are re-sent from the router's copies), and the handover
        # completion must find every owner alive.
        for index, shard in enumerate(supervisor.shards):
            if not shard.alive and not supervisor.jobs[index]:
                supervisor.respawn(index)
                self._rearm(index, migration)

    def _transfer_state(self, index: int, state: dict, migration: Migration) -> None:
        """Merge ``state`` into shard ``index``, surviving a mid-transfer kill."""
        supervisor = self._supervisor
        try:
            supervisor.shards[index].send_state(state)
            return
        except ShardCrashedError:
            # The migrating state is still in the router's hands, so a
            # target that held nothing else is simply respawned and the
            # transfer repeated.  One that already owned sessions lost them
            # with the crash — that is the ordinary crash-recovery path
            # (snapshot + spool replay), not something to paper over here.
            if supervisor.jobs[index]:
                raise
        supervisor.respawn(index)
        self._rearm(index, migration)
        supervisor.shards[index].send_state(state)

    def _complete(self, migration: Migration, *, best_effort: bool = False) -> int:
        """``replayed``: finish the handover on every target; returns frames ingested.

        Each target drains its data plane to the router's byte mark, drops
        the per-job duplicate prefix of its staging buffer (frames whose
        effect arrived inside the merged session state) and ingests the
        rest in arrival order.  ``best_effort`` (the rollback path) skips
        dead targets instead of raising.
        """
        supervisor = self._supervisor
        replayed = 0
        reachable = set(range(len(supervisor.shards)))
        for index in sorted(migration.handover_targets & reachable):
            shard = supervisor.shards[index]
            drops = {
                job: count
                for job, count in migration.dup_counts.items()
                if supervisor.ring.shard_for(job) == index
            }
            try:
                reply = shard.request(
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
                supervisor.jobs[record.target].add(record.frame.job)
        return replayed

    def _roll_back(self, migration: Migration, old_placement: list[str]) -> None:
        """Land a failed reshard on whichever ring the failure left in charge."""
        supervisor = self._supervisor
        ring = supervisor.ring
        self.active = None
        supervisor.placement = (old_placement + ["local"] * ring.n_shards)[: ring.n_shards]
        # Reconcile the shard list with the ring: any shard beyond its range
        # (fresh spawns of a failed grow, drained sources of a failed shrink)
        # is released — it owns nothing the ring can still route to, and
        # keeping it would make n_shards lie and a retried resize
        # short-circuit as a same-count no-op.
        surplus = supervisor.shards[ring.n_shards :]
        del supervisor.shards[ring.n_shards :]
        del supervisor.jobs[ring.n_shards :]
        for shard in surplus:
            supervisor.release(shard)
        # The extracted sessions are still in the router's hands — push
        # them back to the ring in charge.  A state transfer is an
        # idempotent overwrite, so states whose handover already succeeded
        # are simply rewritten in place.
        for target, state, jobs in migration.moved_by_owner(ring):
            # Per target, not around the loop: one dead target must not
            # discard the sessions the live ones can still take.
            try:
                supervisor.shards[target].send_state(state)
            except ServiceError:  # pragma: no cover - double fault
                continue
            supervisor.jobs[target].update(jobs)
        # Resolve the armed handover against the ring that survived: with
        # the new ring in charge the staged frames are completed in place
        # (deduplicated and ingested — they are the only copies of the
        # post-extraction stream); with the old ring back in charge they are
        # discarded and the router re-delivers, from its own copies, exactly
        # the frames the old owners never saw.
        if ring is migration.new_ring:
            self._complete(migration, best_effort=True)
            return
        for index in sorted(migration.handover_targets & set(range(ring.n_shards))):
            shard = supervisor.shards[index]
            if not shard.alive:
                continue
            try:
                shard.request(proto.AbortHandover(expected_bytes=shard.bytes_sent))
            except (ShardCrashedError, ServiceError):
                continue  # pragma: no cover - double fault
        for record in migration.routed:
            if record.delivered_old:
                continue
            try:
                supervisor.send(ring.shard_for(record.frame.job), record.frame)
            except Exception:  # pragma: no cover - double fault
                break
