"""Per-job prediction sessions with bounded memory.

A session owns everything the service knows about one job: a ring-buffered
columnar copy of the requests still relevant to the next prediction, the
job's :class:`~repro.core.online.OnlinePredictor`, merged metadata, and the
bookkeeping the dispatcher uses for rate limiting.  The buffer is the key to
multi-tenant scale — memory per job, and its snapshot, is O(analysis window),
not O(runtime), since the predictor beside it is a few scalars, not a history:

* after every evaluation the predictor exposes the timestamp before which no
  future evaluation will look (:meth:`OnlinePredictor.evictable_before`), and
  the session drops every request that completed before it (minus a safety
  margin of a few periods, so a temporarily larger period estimate can still
  widen the window);
* a hard ``max_samples`` cap bounds the buffer even while the adaptive window
  has not converged yet (the oldest requests are dropped first);
* ``max_samples`` counts requests, and until the adaptive window exists the
  analysis window is the whole resident span, so the span is bounded too: a
  request is resident only if it started within ``MAX_WINDOW_SAMPLES``
  sampling intervals of the newest flush, which makes ``Δt · fs <=
  MAX_WINDOW_SAMPLES`` an invariant of every claimed window.  Without it one
  tenant going quiet for a day — or one request spanning that day — turned
  its next detection into a multi-million-sample transform on the thread
  every other tenant of the shard waits for.

**What a detection copies, and what it checks.**  A claim
(:meth:`JobSession.begin_batch_detect`, :meth:`JobSession.detect`) hands the
evaluation a private :class:`~repro.trace.trace.Trace` of the resident rows:
five column copies and one copy of the merged metadata, taken under the
session lock — the pump prepares that window outside the lock, while another
thread's next ``ingest`` may compact or grow the ring in place, so a view
would not do.  Nothing is validated at that point.  Every row passed
``FlushColumns.__post_init__`` (ingest) or ``Trace.__post_init__`` (restore)
on its way into the ring and the ring only moves rows, so the snapshot is
wrapped by ``Trace._trusted``; the pump's prepare then reads its columns
unchecked (:func:`repro.trace.sampling.discretize_windows` concatenates the
claimed windows once per pump; a predictor preparing alone copies only what a
kind filter actually removes).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.core.config import FtioConfig
from repro.core.kernels import SpectralKernels
from repro.core.online import OnlinePredictor, PredictionStep, PreparedStep
from repro.trace.columns import KIND_DTYPE, FlushColumns, SortedColumns, as_flush_columns
from repro.trace.jsonl import FlushRecord
from repro.trace.trace import Trace
from repro.utils.validation import check_non_negative, check_positive_int

#: Longest span a session keeps behind its newest flush, in sampling intervals
#: of the configured rate (~25x the longest window the benchmark analyses).
#: What started before a gap that long cannot bear on the next period.
MAX_WINDOW_SAMPLES = 1 << 20
#: Extra periods of history a session keeps behind the predictor's evictable
#: cutoff, so a growing period estimate can re-widen the window without the
#: data having been dropped.
EVICTION_MARGIN_PERIODS = 2.0


@dataclass(frozen=True)
class DetectionTask:
    """The claimed work of one evaluation: the resident window and its trigger time."""

    trace: Trace
    now: float


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs of one job session (shared service-wide by default).

    Attributes
    ----------
    config:
        FTIO analysis configuration used by the session's predictor.
    adaptive_window:
        Enable the online adaptive time window (Section II-D).
    max_samples:
        Hard cap on the number of resident requests per job.
    min_detection_interval:
        Minimum trace-time seconds between two evaluations of the same job
        (per-job rate limiting; 0 evaluates after every flush).
    min_requests:
        Evaluations are skipped while fewer requests are resident.
    """

    config: FtioConfig = field(default_factory=FtioConfig)
    adaptive_window: bool = True
    max_samples: int = 65_536
    min_detection_interval: float = 0.0
    min_requests: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.max_samples, "max_samples")
        check_non_negative(self.min_detection_interval, "min_detection_interval")
        check_positive_int(self.min_requests, "min_requests")


class RingColumnStore:
    """Columnar request buffer with amortized append and front eviction.

    Requests live in preallocated numpy columns sorted by start time; the
    buffer grows geometrically at the tail and evicts at the head, so a
    steady-state session settles at a fixed allocation sized by the analysis
    window.  Appends of already-later chunks (the common streaming case) are
    pure copies; out-of-order chunks fall back to a stable merge.
    """

    def __init__(self, *, initial_capacity: int = 256) -> None:
        check_positive_int(initial_capacity, "initial_capacity")
        self._capacity = int(initial_capacity)
        self._starts = np.empty(self._capacity, dtype=np.float64)
        self._ends = np.empty(self._capacity, dtype=np.float64)
        self._nbytes = np.empty(self._capacity, dtype=np.int64)
        self._ranks = np.empty(self._capacity, dtype=np.int64)
        self._kinds = np.empty(self._capacity, dtype=KIND_DTYPE)
        self._head = 0
        self._size = 0
        self._evicted = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Current allocation size (in requests)."""
        return self._capacity

    @property
    def evicted(self) -> int:
        """Total number of requests dropped since the session started."""
        return self._evicted

    def _live(self, column: NDArray) -> NDArray:
        return column[self._head : self._head + self._size]

    # ------------------------------------------------------------------ #
    def append(self, chunk: Trace | SortedColumns) -> None:
        """Append the (sorted) requests of ``chunk`` keeping global order.

        ``chunk`` comes from a validated container — a :class:`Trace` or
        :meth:`FlushColumns.time_ordered` — because :meth:`trace` hands the
        rows back out without checking them again.
        """
        n = len(chunk.starts)
        if n == 0:
            return
        self._reserve(n)
        tail = self._head + self._size
        self._starts[tail : tail + n] = chunk.starts
        self._ends[tail : tail + n] = chunk.ends
        self._nbytes[tail : tail + n] = chunk.nbytes
        self._ranks[tail : tail + n] = chunk.ranks
        self._kinds[tail : tail + n] = chunk.kinds
        out_of_order = self._size > 0 and chunk.starts[0] < self._starts[tail - 1]
        self._size += n
        if out_of_order:
            live = self._live(self._starts)
            order = np.argsort(live, kind="stable")
            for column in (self._starts, self._ends, self._nbytes, self._ranks, self._kinds):
                self._live(column)[:] = self._live(column)[order]

    def _reserve(self, n: int) -> None:
        needed = self._size + n
        if self._head + needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        if capacity == self._capacity:
            # Enough total room: compacting the live region to the front of
            # the existing allocation is all that is needed.
            self._compact(self._starts, self._ends, self._nbytes, self._ranks, self._kinds)
            return
        self._grow(capacity)

    def _grow(self, capacity: int) -> None:
        new_columns = (
            np.empty(capacity, dtype=np.float64),
            np.empty(capacity, dtype=np.float64),
            np.empty(capacity, dtype=np.int64),
            np.empty(capacity, dtype=np.int64),
            np.empty(capacity, dtype=KIND_DTYPE),
        )
        self._compact(*new_columns)
        self._starts, self._ends, self._nbytes, self._ranks, self._kinds = new_columns
        self._capacity = capacity

    def _compact(self, starts, ends, nbytes, ranks, kinds) -> None:
        n = self._size
        starts[:n] = self._live(self._starts)
        ends[:n] = self._live(self._ends)
        nbytes[:n] = self._live(self._nbytes)
        ranks[:n] = self._live(self._ranks)
        kinds[:n] = self._live(self._kinds)
        self._head = 0

    # ------------------------------------------------------------------ #
    def evict_completed_before(self, cutoff: float) -> int:
        """Drop every request that ended at or before ``cutoff``; returns the count."""
        # The earliest start bounds every end from below: nothing to drop is
        # the common case, and then this is one comparison.
        if self._size == 0 or self._starts[self._head] > cutoff:
            return 0
        keep = self._live(self._ends) > cutoff
        dropped = int(self._size - keep.sum())
        if dropped == 0:
            return 0
        # Fast path: with starts sorted, evictable requests are usually a
        # contiguous prefix — then eviction is just a head advance.
        first_keep = int(np.argmax(keep))
        if keep[first_keep:].all():
            self._head += first_keep
            self._size -= first_keep
        else:
            for column in (self._starts, self._ends, self._nbytes, self._ranks, self._kinds):
                live = self._live(column)
                column[self._head : self._head + self._size - dropped] = live[keep]
            self._size -= dropped
        self._evicted += dropped
        return dropped

    def evict_started_before(self, cutoff: float) -> int:
        """Drop every request that started before ``cutoff``; returns the count.

        The ring is sorted by start, so these are the oldest: a head advance.
        """
        if self._size == 0 or self._starts[self._head] >= cutoff:
            return 0
        started_before = int(np.searchsorted(self._live(self._starts), cutoff, side="left"))
        return self.evict_to_cap(self._size - started_before)

    def evict_to_cap(self, max_samples: int) -> int:
        """Drop the oldest requests so at most ``max_samples`` stay resident."""
        overflow = self._size - int(max_samples)
        if overflow <= 0:
            return 0
        self._head += overflow
        self._size -= overflow
        self._evicted += overflow
        return overflow

    # ------------------------------------------------------------------ #
    def trace(self, *, metadata: dict | None = None) -> Trace:
        """Materialize the resident requests as an immutable :class:`Trace`.

        The columns (and ``metadata``) are copied: the returned trace stays
        valid while the buffer keeps mutating under subsequent flushes.  They
        are not validated again — every row passed ``FlushColumns`` or
        ``Trace`` validation on its way into :meth:`append`, and the buffer
        only moves rows.
        """
        return Trace._trusted(
            self._live(self._starts).copy(),
            self._live(self._ends).copy(),
            self._live(self._nbytes).copy(),
            self._live(self._ranks).copy(),
            self._live(self._kinds).copy(),
            dict(metadata or {}),
        )


class JobSession:
    """All service state of one job: buffer, predictor, rate-limit bookkeeping.

    Thread safety: ``ingest``, the evaluation methods and :meth:`state_dict`
    take the session lock, so a shard's read-plane thread or a gateway scrape
    may read a session while a pump evaluates it.  Two evaluations are not
    excluded here: the service runs one pump at a time
    (:class:`~repro.service.dispatcher.DetectionDispatcher`), which is what
    keeps a job from being claimed again before its commit — so call
    :meth:`detect` only on a session no pump is evaluating.
    """

    def __init__(self, job: str, config: SessionConfig | None = None) -> None:
        self.job = job
        self.config = config or SessionConfig()
        self.predictor = OnlinePredictor(
            config=self.config.config, adaptive_window=self.config.adaptive_window
        )
        self._store = RingColumnStore()
        self._max_span = MAX_WINDOW_SAMPLES / self.config.config.sampling_frequency
        self._metadata: dict = {}
        self._lock = threading.Lock()
        self._pending_time: float | None = None
        self._last_detection_time: float | None = None
        self._ingested_flushes = 0
        self._ingested_requests = 0
        self._finished = False

    # ------------------------------------------------------------------ #
    @property
    def resident_samples(self) -> int:
        """Number of requests currently held in memory for this job."""
        return len(self._store)

    @property
    def evicted_samples(self) -> int:
        """Number of requests evicted so far."""
        return self._store.evicted

    @property
    def ingested_flushes(self) -> int:
        """Number of flushes ingested so far."""
        return self._ingested_flushes

    @property
    def ingested_requests(self) -> int:
        """Number of requests ingested so far."""
        return self._ingested_requests

    @property
    def detections(self) -> int:
        """Number of evaluations performed so far."""
        return self.predictor.evaluations

    @property
    def metadata(self) -> dict:
        """Merged metadata of every flush seen so far."""
        return dict(self._metadata)

    @property
    def finished(self) -> bool:
        """True once the job was marked finished (no further evaluations)."""
        return self._finished

    def mark_finished(self) -> None:
        """Mark the job as finished: pending data is still evaluated, then idle."""
        self._finished = True

    def latest_period(self) -> float | None:
        """Most recent predicted period, or ``None``."""
        return self.predictor.latest_period()

    # ------------------------------------------------------------------ #
    def ingest(self, flush: FlushRecord | FlushColumns) -> None:
        """Ingest one flush: append its requests and merge its metadata.

        Afterwards the buffer holds at most ``max_samples`` requests, none of
        which started more than ``MAX_WINDOW_SAMPLES`` sampling intervals
        before this flush (oldest dropped first, in both cases).
        """
        flush = as_flush_columns(flush)
        with self._lock:
            if flush.metadata:
                self._metadata.update(flush.metadata)
            if len(flush):
                self._store.append(flush.time_ordered())
                self._store.evict_to_cap(self.config.max_samples)
                self._ingested_requests += len(flush)
            self._store.evict_started_before(float(flush.timestamp) - self._max_span)
            self._ingested_flushes += 1
            pending = self._pending_time
            self._pending_time = (
                float(flush.timestamp) if pending is None else max(pending, float(flush.timestamp))
            )

    def due(self) -> bool:
        """Whether an evaluation should be scheduled for this session."""
        with self._lock:
            if self._pending_time is None:
                return False
            if self._last_detection_time is None:
                return True
            # A finished job bypasses the rate limit: no further flush will
            # ever arrive to carry its last data past the interval.
            if self._finished:
                return True
            return (
                self._pending_time - self._last_detection_time
                >= self.config.min_detection_interval
            )

    def detect(self, *, now: float | None = None) -> PredictionStep | None:
        """Run one evaluation over the resident data (or skip when too little).

        ``now`` defaults to the newest ingested flush timestamp.  After the
        evaluation, history older than the predictor's evictable cutoff
        (minus the configured margin) is dropped.

        One :meth:`OnlinePredictor.step` under the session lock — the kernels
        every pump runs, on a batch of one; the service itself evaluates
        sessions through the two-phase batch methods below, and a row's bits
        do not depend on its batch (:mod:`repro.core.kernels`).
        """
        with self._lock:
            task = self._claim_task_locked(now)
            if task is None:
                return None
            step = self.predictor.step(task.trace, now=task.now)
            self._evict_stale()
            return step

    # ------------------------------------------------------------------ #
    # batched evaluation (two-phase, used by repro.service.batch)
    # ------------------------------------------------------------------ #
    def begin_batch_detect(self, *, now: float | None = None) -> DetectionTask | None:
        """Phase 1 of a batched evaluation: claim the pending work as a task.

        Performs exactly the bookkeeping :meth:`detect` does before the
        evaluation (clear the pending mark, stamp the rate limit, skip when
        below ``min_requests``) and returns the :class:`DetectionTask`, or
        ``None`` when there is nothing to evaluate.  A claim that is never
        completed (its evaluation failed) is simply dropped: the data stays
        resident for the next one.
        """
        with self._lock:
            return self._claim_task_locked(now)

    def complete_batch_detect(
        self, prepared: PreparedStep, kernels: SpectralKernels | None = None
    ) -> PredictionStep:
        """Phase 2: commit a prepared evaluation.

        Runs the live predictor's :meth:`~OnlinePredictor.complete_step`
        with the batch-computed kernels under the session lock, then applies
        the same post-evaluation bookkeeping as :meth:`detect`.
        """
        with self._lock:
            step = self.predictor.complete_step(prepared, kernels=kernels)
            self._evict_stale()
            return step

    def _claim_task_locked(self, now: float | None) -> DetectionTask | None:
        """Shared pre-evaluation bookkeeping; the caller holds the lock.

        The task's trace is a copy of the ring taken here, under that lock
        (see the module docstring for why a copy, and why unchecked).
        """
        if now is None:
            now = self._pending_time
        if now is None:
            return None
        self._pending_time = None
        self._last_detection_time = float(now)
        if len(self._store) < self.config.min_requests:
            return None
        return DetectionTask(trace=self._store.trace(metadata=self._metadata), now=float(now))

    def _evict_stale(self) -> None:
        cutoff = self.predictor.evictable_before()
        if cutoff is None:
            return
        last_period = self.predictor.latest_period() or 0.0
        margin = EVICTION_MARGIN_PERIODS * last_period
        self._store.evict_completed_before(cutoff - margin)

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Serializable snapshot of the session (see :mod:`repro.service.snapshot`)."""
        with self._lock:
            trace = self._store.trace()
            return {
                "job": self.job,
                "metadata": dict(self._metadata),
                "pending_time": self._pending_time,
                "last_detection_time": self._last_detection_time,
                "ingested_flushes": self._ingested_flushes,
                "ingested_requests": self._ingested_requests,
                "evicted": self._store.evicted,
                "finished": self._finished,
                "buffer": {
                    "n": len(trace),
                    "starts": trace.starts.tobytes(),
                    "ends": trace.ends.tobytes(),
                    "nbytes": trace.nbytes.tobytes(),
                    "ranks": trace.ranks.tobytes(),
                    "kinds": list(trace.kinds),
                },
                "predictor": self.predictor.state_dict(),
            }

    def load_state_dict(self, state: dict) -> None:
        """Restore the session from a :meth:`state_dict` snapshot."""
        with self._lock:
            buffer = state["buffer"]
            n = int(buffer["n"])
            restored = Trace(
                starts=np.frombuffer(buffer["starts"], dtype=np.float64, count=n).copy(),
                ends=np.frombuffer(buffer["ends"], dtype=np.float64, count=n).copy(),
                nbytes=np.frombuffer(buffer["nbytes"], dtype=np.int64, count=n).copy(),
                ranks=np.frombuffer(buffer["ranks"], dtype=np.int64, count=n).copy(),
                kinds=np.asarray(list(buffer["kinds"]), dtype=KIND_DTYPE),
            )
            self._store = RingColumnStore()
            self._store.append(restored)
            self._store._evicted = int(state["evicted"])
            self._metadata = dict(state["metadata"])
            self._pending_time = state["pending_time"]
            self._last_detection_time = state["last_detection_time"]
            self._ingested_flushes = int(state["ingested_flushes"])
            self._ingested_requests = int(state["ingested_requests"])
            self._finished = bool(state["finished"])
            self.predictor.load_state_dict(state["predictor"])
