"""Detection dispatcher: batches due evaluations onto a worker pool.

On every :meth:`pump`, the dispatcher collects the sessions that have new,
rate-limit-eligible data (``JobSession.due``) and submits them to a thread
pool.  Two mechanisms keep an overloaded service stable
rather than ever-slower:

* **backpressure** — at most ``max_pending`` evaluations are in flight; when
  the pool is saturated, due sessions are deferred, their flushes keep
  accumulating, and the *next* evaluation covers all of them at once
  (detections coalesce, ingestion never blocks);
* **per-job rate limiting** — ``SessionConfig.min_detection_interval`` spaces
  evaluations of a chatty job in trace time, independent of other jobs.

With ``max_workers=0`` evaluations run inline in the pumping thread, which is
deterministic and what the equivalence tests use.

A pump hands the sessions it selected — one or many — to the backend as
**one batch** (:meth:`ThreadBackend.detect_batch`): the kernels group the
windows by length and evaluate each group with single vectorized
FFT/ACF/outlier passes (see :mod:`repro.core.kernels`).  There is no other
evaluation route, so a job's arithmetic never depends on who else was due.
The whole batch occupies one pool slot and counters stay in *evaluation*
units.

**Latency accounting.**  A session's detection latency is its
submit-to-completion wall time, which for a batched session is the *whole*
batch span (every member waited for it).  It is recorded in the
``repro_dispatcher_detect_seconds`` histogram (per-batch spans in
``repro_dispatcher_batch_seconds``), handed to the sink, and is what the
``p50/p99_detection_latency_seconds`` stats keys read — in-process from this
histogram, sharded from the bucket-wise merge of every shard's.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

from repro.core.online import PredictionStep
from repro.obs import NULL_HISTOGRAM, Histogram, MetricRegistry, NullHistogram, SpanJournal
from repro.service.backend import ThreadBackend
from repro.service.broker import FlushBroker
from repro.service.session import JobSession

#: Completion callback signature: (session, step or None, latency seconds).
DetectionSink = Callable[[JobSession, PredictionStep | None, float], None]


@dataclass(frozen=True)
class DispatcherStats:
    """Counters and latency aggregates of a dispatcher."""

    submitted: int
    completed: int
    deferred: int
    failures: int
    pending: int

    @classmethod
    def merge(cls, stats: Iterable[DispatcherStats]) -> DispatcherStats:
        """Aggregate the counters of several dispatchers (the sharded view)."""
        stats = list(stats)
        return cls(
            submitted=sum(s.submitted for s in stats),
            completed=sum(s.completed for s in stats),
            deferred=sum(s.deferred for s in stats),
            failures=sum(s.failures for s in stats),
            pending=sum(s.pending for s in stats),
        )


class DetectionDispatcher:
    """Schedules due per-job detections with backpressure and rate limiting."""

    def __init__(
        self,
        broker: FlushBroker,
        *,
        sink: DetectionSink | None = None,
        max_workers: int = 0,
        max_pending: int = 64,
        backend: ThreadBackend | None = None,
        metrics: MetricRegistry | None = None,
        journal: SpanJournal | None = None,
    ) -> None:
        if max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._broker = broker
        self._sink = sink
        self._backend = backend if backend is not None else ThreadBackend()
        self._pool = ThreadPoolExecutor(max_workers=max_workers) if max_workers else None
        self._max_pending = max_pending
        self._closed = False
        self._futures: set[Future] = set()
        # In-flight count in *evaluation* units (a batch future counts as
        # len(batch)); keeps DispatcherStats.pending and the backpressure
        # capacity independent of how evaluations are packed into futures.
        self._pending_evals = 0
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._deferred = 0
        self._failures = 0
        self._journal = journal
        self._metrics = metrics
        self._batch_hist: Histogram | NullHistogram = NULL_HISTOGRAM
        #: Every completed evaluation's latency: the one source of the stats
        #: percentiles, so it exists (unregistered) with metrics off too.
        self.detect_histogram = Histogram()
        if metrics is not None:
            self._batch_hist = metrics.histogram(
                "repro_dispatcher_batch_seconds",
                help="Wall time of one dispatched batch",
            )
            self.detect_histogram = metrics.histogram(
                "repro_dispatcher_detect_seconds",
                help="Submit-to-completion latency per session "
                "(batched sessions share the batch span)",
            )
            self._kernel_hists: dict[str, Histogram] = {}
            self._backend.observer = self._observe_kernel_stage
            for attr, metric in (
                ("_submitted", "repro_dispatcher_submitted_total"),
                ("_completed", "repro_dispatcher_completed_total"),
                ("_deferred", "repro_dispatcher_deferred_total"),
                ("_failures", "repro_dispatcher_failures_total"),
            ):
                metrics.register_view(
                    metric, "counter", (lambda a=attr: getattr(self, a)),
                    help=f"Dispatcher {metric.split('_')[2]} count",
                )
            metrics.register_view(
                "repro_dispatcher_pending_evals", "gauge",
                lambda: self._pending_evals,
                help="Evaluations currently queued or running (evaluation units)",
            )

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed dispatcher rejects pumps."""
        return self._closed

    @property
    def stats(self) -> DispatcherStats:
        """Current dispatch counters."""
        with self._lock:
            return DispatcherStats(
                submitted=self._submitted,
                completed=self._completed,
                deferred=self._deferred,
                failures=self._failures,
                pending=self._pending_evals,
            )

    # ------------------------------------------------------------------ #
    def pump(self, *, wait_for_batch: bool = False) -> int:
        """Schedule every due session onto the pool; returns the submit count.

        With ``wait_for_batch=True`` (or inline workers) the call returns only
        after the scheduled evaluations finished.
        """
        if self._closed:
            raise RuntimeError("cannot pump a closed dispatcher")
        claim_started = time.perf_counter()
        due = list(self._broker.due_sessions())
        if self._journal is not None:
            self._journal.record(
                "batch_claim",
                time.perf_counter() - claim_started,
                job=f"due[{len(due)}]",
                started=claim_started,
            )
        if not due:
            return 0
        # One lock acquisition for the whole due set: capacity is computed
        # once, the overflow is deferred in one go, and the counters move
        # atomically — the old per-session re-locking let concurrent pumps
        # interleave half-updated counters between sessions.
        with self._lock:
            if self._pool is None:
                # Inline execution completes before pump returns; nothing is
                # ever in flight, so backpressure cannot apply.
                capacity = len(due)
            else:
                capacity = max(0, self._max_pending - self._pending_evals)
            selected = due[:capacity]
            self._deferred += len(due) - len(selected)
            self._submitted += len(selected)
            self._pending_evals += len(selected)
        if not selected:
            return 0

        submitted_at = time.perf_counter()
        if self._pool is None:
            self._run_batch(selected, submitted_at)
        else:
            future = self._pool.submit(self._run_batch, selected, submitted_at)
            with self._lock:
                self._futures.add(future)
            future.add_done_callback(self._discard_future)
            if wait_for_batch:
                wait([future])
        return len(selected)

    def join(self) -> None:
        """Block until every in-flight evaluation has completed."""
        while True:
            with self._lock:
                futures = list(self._futures)
            if not futures:
                return
            wait(futures)

    def close(self) -> None:
        """Wait for in-flight work and shut the pool down.

        Idempotent; after the first call :meth:`pump` raises ``RuntimeError``.
        """
        if self._closed:
            return
        self.join()
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    def _discard_future(self, future: Future) -> None:
        with self._lock:
            self._futures.discard(future)

    def _observe_kernel_stage(self, stage: str, group_size: int, seconds: float) -> None:
        hist = self._kernel_hists.get(stage)
        if hist is None:
            assert self._metrics is not None
            hist = self._metrics.histogram(
                "repro_batch_kernel_stage_seconds",
                {"stage": stage},
                help="Batched spectral kernel stage time per window-group",
            )
            self._kernel_hists[stage] = hist
        hist.observe(seconds)
        if self._journal is not None:
            self._journal.record("kernel", seconds, job=f"group[{group_size}]:{stage}")

    def _run_batch(self, sessions: list[JobSession], submitted_at: float) -> None:
        started = time.perf_counter()
        try:
            report = self._backend.detect_batch(sessions)
        except Exception:
            # The batch engine degrades per session (a failed session is
            # aborted and reported); an exception here means the backend
            # itself broke, so the whole batch is lost.
            with self._lock:
                self._failures += len(sessions)
                self._pending_evals -= len(sessions)
            raise
        completed_at = time.perf_counter()
        wall = completed_at - started
        # Every member of the batch waited for the whole span: that is the
        # latency each actually observed, and what the histograms record.
        self._batch_hist.observe(wall)
        observed = completed_at - submitted_at
        for failed in report.failed:
            if not failed:
                self.detect_histogram.observe(observed)
        if self._journal is not None:
            self._journal.record(
                "detect", wall, job=f"batch[{len(sessions)}]", started=started
            )
        with self._lock:
            self._failures += report.failures
            self._completed += len(sessions) - report.failures
            self._pending_evals -= len(sessions)
        if self._sink is not None:
            for session, step, failed in zip(sessions, report.steps, report.failed):
                if not failed:
                    self._sink(session, step, observed)
