"""The streaming prediction service facade.

:class:`PredictionService` wires the subsystem together: the
:class:`~repro.service.broker.FlushBroker` demultiplexes incoming flushes
into bounded-memory per-job sessions, the
:class:`~repro.service.dispatcher.DetectionDispatcher` evaluates the due ones
as one batch in the thread that pumps, and every completed evaluation is
pushed to the :class:`~repro.service.publisher.PredictionPublisher`, where
schedulers and subscribers consume it.  One service instance serves any number of
concurrent jobs::

    service = PredictionService(ServiceConfig(session=SessionConfig(...)))
    service.feed_bytes(framed_bytes)          # or ingest_flush / tail_file
    service.pump()                            # evaluate whatever is due
    service.publisher.latest_period("job-7")  # -> predicted period [s]

Snapshot/restore for crash recovery lives in :mod:`repro.service.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import MetricRegistry, SpanJournal
from repro.service.backend import ThreadBackend
from repro.service.broker import FlushBroker
from repro.service.dispatcher import DetectionDispatcher, DispatcherStats
from repro.service.provider import ServicePeriodProvider
from repro.service.publisher import PredictionPublisher
from repro.service.session import JobSession, SessionConfig
from repro.trace.columns import FlushColumns
from repro.trace.framing import FlushFrame, FrameReader, RawFrame, inode_of, spool_generations
from repro.trace.jsonl import FlushRecord


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a :class:`PredictionService`.

    Attributes
    ----------
    session:
        Per-job session configuration (analysis config, memory cap, rate
        limit).
    ring_bytes:
        Sharded deployments only: capacity of the shared-memory ring carrying
        frames from the router to each shard (see
        :mod:`repro.service.shm_ring`).  ``0`` moves frame bytes over the
        socketpair itself — the framed-stream data plane every remote shard
        runs over TCP.
    token:
        Wire-level tenant/auth nibble (0..15).  When set, every ingested FTS1
        frame must carry it and every control-plane peer must present it in
        its :class:`~repro.service.protocol.Hello`.
    auto_revive:
        Sharded deployments only: :meth:`~repro.service.sharding.
        ShardedService.pump` transparently revives a crashed shard from the
        last snapshot instead of raising ``ShardCrashedError``.
    revive_budget:
        Maximum number of automatic revives before crashes surface again.
    metrics:
        Keep the metric registry on (counters, latency/kernel histograms,
        Prometheus exposition via the gateway's ops listener).  On by
        default — a traced benchmark run reports the hot-path cost as
        ``obs.overhead_share`` (reported, not gated); disable only to shave
        the last percent off a closed-box deployment.
    spans:
        Record frame-lifecycle spans into a bounded ring-buffer journal
        (see :mod:`repro.obs.spans`).  **Off by default**; tracing is an
        explicit opt-in.
    shard_port:
        Sharded deployments only: when not ``None``, the router listens on
        this TCP port (``0`` picks a free one) for dial-home ``repro-shard``
        workers (:mod:`repro.shard`), so shard slots placed ``"remote"`` can
        live on other machines.  ``None`` (the default) keeps every shard a
        local fork.
    heartbeat_timeout:
        Sharded deployments only: seconds a shard may take to answer a
        read-plane :class:`~repro.service.protocol.Heartbeat` before
        :meth:`~repro.service.sharding.ShardedService.heartbeat` declares it
        dead — the connection-loss/timeout generalization of the local
        waitpid liveness check.
    """

    session: SessionConfig = field(default_factory=SessionConfig)
    ring_bytes: int = 1 << 20
    token: int | None = None
    auto_revive: bool = False
    revive_budget: int = 3
    metrics: bool = True
    spans: bool = False
    shard_port: int | None = None
    heartbeat_timeout: float = 5.0


def tail_positions(tails: dict[Path, FrameReader]) -> dict[str, dict]:
    """Rotation-proof resume point of every tailed spool, keyed by path."""
    return {str(path): reader.position for path, reader in tails.items()}


def tail_marks(tails: dict[Path, FrameReader]) -> dict[Path, tuple[dict, int]]:
    """What a checkpoint records of every tailed spool: the reader's
    rotation-proof position and the number of frames it had read."""
    return {path: (reader.position, reader.frames_read) for path, reader in tails.items()}


def retire_generations(marks: dict[Path, tuple[dict, int]]) -> dict[str, list[Path]]:
    """Unlink the rotated spool generations a checkpoint has made redundant.

    The one rule by which both engines' ``compact_spools()`` shrink a spool.
    ``marks`` is :func:`tail_marks` as recorded at the engine's last
    ``snapshot_state()``.  A rotated generation older than the one holding a
    spool's recorded position was consumed before that snapshot, and no
    replay starts before it, so it is unlinked whole.  Before the first
    snapshot ``marks`` is empty and nothing is unlinked.  The live file is
    never rewritten or truncated: a producer may still be appending to it.
    Returns the unlinked generations per spool path.
    """
    retired: dict[str, list[Path]] = {}
    for path, (position, _) in marks.items():
        generations = [generation for _, generation in spool_generations(path)]
        inodes = [inode_of(generation) for generation in generations]
        if position["inode"] in inodes:
            older = generations[: inodes.index(position["inode"])]
        elif position["inode"] is not None and position["inode"] == inode_of(path):
            older = generations
        else:
            continue  # nothing read yet, or the file is gone: keep everything
        for generation in older:
            generation.unlink(missing_ok=True)
        if older:
            retired[str(path)] = older
    return retired


def replay_since(
    path: Path,
    mark: tuple[dict, int] | None,
    tail: FrameReader,
    *,
    expected_token: int | None = None,
) -> list[RawFrame]:
    """The frames ``tail`` has read since the checkpoint ``mark``, read again.

    The replay starts at the mark's position (the oldest retained frame
    without a mark) and stops after as many frames as the tail has read
    since.  A frame count holds however often the spool rotated in between;
    frames past the tail's consumed mark reach the engine through its next
    poll, so none is delivered twice.
    """
    position, frames_then = mark if mark is not None else (None, 0)
    reader = FrameReader(path, position=position, expected_token=expected_token, raw=True)
    return reader.poll()[: max(0, tail.frames_read - frames_then)]


class PredictionService:
    """Multi-job streaming prediction service (broker + dispatcher + publisher).

    ``backend`` substitutes a :class:`ThreadBackend` subclass for the default
    instance (e.g. one that wraps ``detect_batch`` in a trace span).
    """

    def __init__(
        self, config: ServiceConfig | None = None, *, backend: ThreadBackend | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricRegistry() if self.config.metrics else None
        self.journal = SpanJournal() if self.config.spans else None
        self.publisher = PredictionPublisher()
        self.broker = FlushBroker(
            session_config=self.config.session,
            expected_token=self.config.token,
            journal=self.journal,
        )
        self._tails: dict[Path, FrameReader] = {}
        self._snapshot_marks: dict[Path, tuple[dict, int]] = {}
        self.dispatcher = DetectionDispatcher(
            self.broker,
            sink=self._on_detection,
            backend=backend,
            metrics=self.metrics,
            journal=self.journal,
        )
        if self.metrics is not None:
            self.broker.register_metrics(self.metrics)
            self.metrics.register_view(
                "repro_published_total", "counter", lambda: self.publisher.published,
                help="Prediction updates published",
            )
            self.metrics.register_view(
                "repro_resident_samples", "gauge",
                lambda: sum(s.resident_samples for s in self.broker.sessions()),
                help="Samples resident across all session windows",
            )

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def ingest_flush(self, job: str, flush: FlushRecord | FlushColumns) -> JobSession:
        """Ingest one flush (row or columnar form) for ``job``."""
        return self.broker.ingest(job, flush)

    def ingest_frame(self, frame: FlushFrame) -> JobSession:
        """Ingest one decoded flush frame."""
        return self.broker.ingest_frame(frame)

    def feed_bytes(self, data: bytes) -> int:
        """Feed raw framed bytes (e.g. socket reads); returns frames routed."""
        return self.broker.feed_bytes(data)

    def feed_borrowed(self, data: memoryview) -> int:
        """Feed framed bytes from a borrowed buffer (shared-memory ring views).

        The buffer may be reclaimed as soon as this returns; see
        :meth:`~repro.service.broker.FlushBroker.feed_borrowed`.
        """
        return self.broker.feed_borrowed(data)

    def tail_file(self, path: str | Path) -> FrameReader:
        """Tail a framed spool file from its oldest retained frame; each
        ``poll()`` ingests the new frames.

        The reader is remembered so each :meth:`snapshot_state` records how
        far the spool has been consumed, the mark :meth:`compact_spools`
        retires generations up to.
        """
        reader = self.broker.tail(path)
        self._tails[Path(path)] = reader
        return reader

    def spool_positions(self) -> dict[str, dict]:
        """Rotation-proof resume point of every tailed spool (by path)."""
        return tail_positions(self._tails)

    def compact_spools(self) -> dict[str, list[Path]]:
        """Unlink the rotated spool generations the last :meth:`snapshot_state`
        covers (:func:`retire_generations`); returns them per spool path.

        Call it after a snapshot.  The live spool file is never touched.
        """
        return retire_generations(self._snapshot_marks)

    def finish_job(self, job: str) -> None:
        """Mark a job finished: pending data is still evaluated, then idle.

        The session itself stays resident (so late subscribers can still read
        its state) until :meth:`reap_finished` releases it.
        """
        self.broker.session(job).mark_finished()

    def reap_finished(self, *, forget_predictions: bool = False) -> tuple[str, ...]:
        """Release the sessions of finished, fully evaluated jobs.

        Call after :meth:`drain` (or between pumps) on long-running services:
        without reaping, memory grows with the total number of jobs ever
        seen, not with the live ones.  With ``forget_predictions=True`` the
        publisher's last prediction of each reaped job is dropped as well;
        by default it is kept so consumers can still query recently finished
        jobs.  Returns the reaped job identifiers.
        """
        reaped: list[str] = []
        for session in self.broker.sessions():
            if session.finished and not session.due():
                if self.broker.remove(session.job) is not None:
                    reaped.append(session.job)
                    if forget_predictions:
                        self.publisher.forget(session.job)
        return tuple(reaped)

    # ------------------------------------------------------------------ #
    # evaluation and results
    # ------------------------------------------------------------------ #
    def pump(self) -> int:
        """Evaluate every due session (see the dispatcher); returns how many.

        One pump runs at a time; a concurrent call waits for the one in
        progress, then evaluates what is due after it.
        """
        return self.dispatcher.pump()

    def drain(self) -> None:
        """Pump until nothing is due."""
        while self.pump():
            pass

    def close(self) -> None:
        """Wait for a pump in progress, then reject further pumps."""
        self.dispatcher.close()

    def period_provider(self, *, bootstrap: bool = True) -> ServicePeriodProvider:
        """A Set-10 :class:`PeriodProvider` backed by this service's publisher."""
        return ServicePeriodProvider(self, bootstrap=bootstrap)

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Capture the full service state (see :mod:`repro.service.snapshot`).

        Each tailed spool's consumed position is recorded with it: the
        snapshot plus the spool from there on is a complete recovery recipe,
        and :meth:`compact_spools` may unlink the generations before it.
        """
        from repro.service.snapshot import snapshot_state

        self._snapshot_marks = tail_marks(self._tails)
        return snapshot_state(self)

    def restore_state(self, state: dict) -> PredictionService:
        """Load a snapshot into this running service (see
        :func:`~repro.service.snapshot.apply_state`): the carried jobs roll
        back to it, every other job keeps its session and prediction."""
        from repro.service.snapshot import apply_state

        return apply_state(self, state)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> tuple[str, ...]:
        """Identifiers of every job seen so far."""
        return self.broker.jobs

    def session(self, job: str) -> JobSession:
        """The session of ``job`` (created on demand)."""
        return self.broker.session(job)

    @property
    def dispatcher_stats(self) -> DispatcherStats:
        """Dispatch counters (submitted / completed / failures)."""
        return self.dispatcher.stats

    def stats(self) -> dict:
        """One JSON-friendly dict of service-wide counters.

        The key set is part of the service's observability contract: it is
        identical for single-process and sharded deployments (modulo the
        sharding-only keys) and pinned by ``tests/service/test_stats_schema``
        so dashboards and autoscalers can rely on it.
        """
        broker = self.broker.stats
        dispatch = self.dispatcher.stats
        sessions = self.broker.sessions()
        copies = self.broker.copy_stats
        latency = self.dispatcher.detect_histogram
        detected = latency.count > 0
        return {
            "jobs": broker.jobs,
            "frames": broker.frames,
            "flushes": broker.flushes,
            "requests": broker.requests,
            "bytes_copied_per_frame": copies["bytes_copied_per_frame"],
            "resident_samples": sum(s.resident_samples for s in sessions),
            "evicted_samples": sum(s.evicted_samples for s in sessions),
            "detections": dispatch.completed,
            "failures": dispatch.failures,
            "published": self.publisher.published,
            "p50_detection_latency_seconds": latency.quantile(0.5) if detected else None,
            "p99_detection_latency_seconds": latency.quantile(0.99) if detected else None,
        }

    def metrics_snapshot(self) -> dict:
        """Plain-type snapshot of the metric registry (empty when disabled).

        The tree is msgpack/JSON-safe: shards ship it to the router inside a
        :class:`~repro.service.protocol.MetricsReport` and the gateway's
        ``/metrics`` endpoint renders the merged result (see
        :func:`repro.obs.merge_snapshots`).
        """
        if self.metrics is None:
            return {}
        return self.metrics.collect()

    def spans_snapshot(self) -> list[dict]:
        """Recent frame-lifecycle spans (empty unless ``ServiceConfig.spans``)."""
        if self.journal is None:
            return []
        return self.journal.snapshot()

    # ------------------------------------------------------------------ #
    def _on_detection(self, session: JobSession, step, latency: float) -> None:
        if step is not None:
            if self.journal is not None:
                with self.journal.span("publish", job=session.job):
                    self.publisher.publish_step(session.job, step, latency=latency)
            else:
                self.publisher.publish_step(session.job, step, latency=latency)
