"""Detection dispatcher: evaluates due sessions inline, one pump at a time.

On every :meth:`pump`, the dispatcher collects the sessions that have new,
rate-limit-eligible data (``JobSession.due``) and evaluates them in the
thread that called it.  Flushes that arrive between two pumps accumulate,
and the next evaluation of a job covers all of them at once (detections
coalesce, ingestion never blocks); **per-job rate limiting**
(``SessionConfig.min_detection_interval``) spaces evaluations of a chatty
job in trace time, independent of other jobs.

The whole of :meth:`pump` holds the dispatcher's pump lock, so one service
runs one pump at a time: a job is claimed, evaluated and committed by one
pump before any other can see it due, and two threads pumping one service
take turns.  Readers (stats scrapes, session reads) do not take that lock.

A pump hands the sessions it selected — one or many — to the backend as
**one batch** (:meth:`ThreadBackend.detect_batch`): the kernels group the
windows by length and evaluate each group with single vectorized
FFT/ACF/outlier passes (see :mod:`repro.core.kernels`).  There is no other
evaluation route, so a job's arithmetic never depends on who else was due.
Counters are in *evaluation* units.

**Latency accounting.**  A session's detection latency is the wall time of
the batch it was evaluated in (every member waited for the whole span).  It
is recorded in the ``repro_dispatcher_detect_seconds`` histogram (per-batch
spans in ``repro_dispatcher_batch_seconds``), handed to the sink, and is
what the ``p50/p99_detection_latency_seconds`` stats keys read — in-process
from this histogram, sharded from the bucket-wise merge of every shard's.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
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
    """Counters of a dispatcher."""

    submitted: int
    completed: int
    failures: int

    @classmethod
    def merge(cls, stats: Iterable[DispatcherStats]) -> DispatcherStats:
        """Aggregate the counters of several dispatchers (the sharded view)."""
        stats = list(stats)
        return cls(
            submitted=sum(s.submitted for s in stats),
            completed=sum(s.completed for s in stats),
            failures=sum(s.failures for s in stats),
        )


class DetectionDispatcher:
    """Evaluates due per-job detections inline, one pump at a time."""

    def __init__(
        self,
        broker: FlushBroker,
        *,
        sink: DetectionSink | None = None,
        backend: ThreadBackend | None = None,
        metrics: MetricRegistry | None = None,
        journal: SpanJournal | None = None,
    ) -> None:
        self._broker = broker
        self._sink = sink
        self._backend = backend if backend is not None else ThreadBackend()
        self._closed = False
        # Held for the whole of pump() and by close(); the counters below are
        # only written under it (a scrape reads them without it).
        self._pump_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
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
                help="Detection latency per session "
                "(batched sessions share the batch span)",
            )
            self._kernel_hists: dict[str, Histogram] = {}
            self._backend.observer = self._observe_kernel_stage
            for attr, metric in (
                ("_submitted", "repro_dispatcher_submitted_total"),
                ("_completed", "repro_dispatcher_completed_total"),
                ("_failures", "repro_dispatcher_failures_total"),
            ):
                metrics.register_view(
                    metric, "counter", (lambda a=attr: getattr(self, a)),
                    help=f"Dispatcher {metric.split('_')[2]} count",
                )

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed dispatcher rejects pumps."""
        return self._closed

    @property
    def stats(self) -> DispatcherStats:
        """Current dispatch counters."""
        return DispatcherStats(
            submitted=self._submitted,
            completed=self._completed,
            failures=self._failures,
        )

    # ------------------------------------------------------------------ #
    def pump(self) -> int:
        """Evaluate every due session as one batch; returns how many were due.

        Returns once the batch is evaluated and published.  Concurrent calls
        take turns on the pump lock.
        """
        with self._pump_lock:
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
            if due:
                self._submitted += len(due)
                self._run_batch(due)
            return len(due)

    def close(self) -> None:
        """Wait for a pump in progress, then reject further pumps.

        Idempotent; after the first call :meth:`pump` raises ``RuntimeError``.
        """
        with self._pump_lock:
            self._closed = True

    # ------------------------------------------------------------------ #
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

    def _run_batch(self, sessions: list[JobSession]) -> None:
        started = time.perf_counter()
        try:
            report = self._backend.detect_batch(sessions)
        except Exception:
            # The batch engine degrades per session (a failed session is
            # dropped and reported); an exception here means the backend
            # itself broke, so the whole batch is lost.
            self._failures += len(sessions)
            raise
        wall = time.perf_counter() - started
        # Every member of the batch waited for the whole span: that is the
        # latency each actually observed, and what the histograms record.
        self._batch_hist.observe(wall)
        for failed in report.failed:
            if not failed:
                self.detect_histogram.observe(wall)
        if self._journal is not None:
            self._journal.record(
                "detect", wall, job=f"batch[{len(sessions)}]", started=started
            )
        self._failures += report.failures
        self._completed += len(sessions) - report.failures
        if self._sink is not None:
            for session, step, failed in zip(sessions, report.steps, report.failed):
                if not failed:
                    self._sink(session, step, wall)
