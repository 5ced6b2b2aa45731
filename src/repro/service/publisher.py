"""Prediction publisher: per-job latest predictions plus a subscription API.

Every completed evaluation is condensed into a :class:`PredictionUpdate` and
published: the latest update per job is kept for pull-style consumers (the
scheduler's period provider polls it on every allocation decision), and
push-style subscribers — dashboards, loggers, downstream controllers — are
notified synchronously with each update.  Subscribers may filter by job.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.online import PredictionStep

#: Subscriber callback signature.
Subscriber = Callable[["PredictionUpdate"], None]


@dataclass(frozen=True)
class PredictionUpdate:
    """One published prediction for one job.

    Attributes
    ----------
    job:
        Job identifier the prediction belongs to.
    index:
        Sequence number of the evaluation within the job's session.
    time:
        Trace time at which the evaluation was triggered.
    frequency, period:
        Dominant frequency [Hz] / period [s], or ``None`` when the evaluation
        found no periodicity.
    confidence:
        Confidence of the evaluation (0 when nothing was found).
    latency:
        Wall-clock seconds the evaluation took (detection latency).
    """

    job: str
    index: int
    time: float
    frequency: float | None
    period: float | None
    confidence: float
    latency: float | None = None

    def to_dict(self) -> dict:
        """Serialize for a control channel (the shard→router update stream)."""
        return {
            "job": self.job,
            "index": self.index,
            "time": self.time,
            "frequency": self.frequency,
            "period": self.period,
            "confidence": self.confidence,
            "latency": self.latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictionUpdate":
        """Reconstruct an update from :meth:`to_dict` output."""
        return cls(
            job=str(data["job"]),
            index=int(data["index"]),
            time=float(data["time"]),
            frequency=data["frequency"],
            period=data["period"],
            confidence=float(data["confidence"]),
            latency=data.get("latency"),
        )


class PredictionPublisher:
    """Stores the latest prediction per job and fans updates out to subscribers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latest: dict[str, PredictionUpdate] = {}
        self._latest_period: dict[str, float] = {}
        self._subscribers: dict[int, tuple[Subscriber, frozenset[str] | None]] = {}
        self._next_subscription = 0
        self._published = 0

    # ------------------------------------------------------------------ #
    @property
    def published(self) -> int:
        """Total number of updates published."""
        with self._lock:
            return self._published

    def subscribe(self, callback: Subscriber, *, jobs: Iterable[str] | None = None) -> int:
        """Register a callback for every update (optionally only some jobs).

        Returns a subscription id for :meth:`unsubscribe`.  Callbacks run
        synchronously on the publishing (worker) thread and must be quick.
        """
        with self._lock:
            subscription = self._next_subscription
            self._next_subscription += 1
            job_filter = frozenset(jobs) if jobs is not None else None
            self._subscribers[subscription] = (callback, job_filter)
            return subscription

    def unsubscribe(self, subscription: int) -> None:
        """Remove a subscription; unknown ids are ignored."""
        with self._lock:
            self._subscribers.pop(subscription, None)

    # ------------------------------------------------------------------ #
    def publish_step(
        self, job: str, step: PredictionStep, *, latency: float | None = None
    ) -> PredictionUpdate:
        """Condense a prediction step into an update and publish it."""
        update = PredictionUpdate(
            job=job,
            index=step.index,
            time=step.time,
            frequency=step.dominant_frequency,
            period=step.period,
            confidence=step.confidence,
            latency=latency,
        )
        self.publish(update)
        return update

    def publish(self, update: PredictionUpdate) -> None:
        """Publish one update: store it and notify the matching subscribers."""
        with self._lock:
            self._latest[update.job] = update
            if update.period is not None:
                self._latest_period[update.job] = update.period
            self._published += 1
            subscribers = [
                callback
                for callback, job_filter in self._subscribers.values()
                if job_filter is None or update.job in job_filter
            ]
        for callback in subscribers:
            callback(update)

    # ------------------------------------------------------------------ #
    def latest(self, job: str) -> PredictionUpdate | None:
        """Latest update of ``job``, or ``None``."""
        with self._lock:
            return self._latest.get(job)

    def latest_period(self, job: str) -> float | None:
        """Most recent successfully predicted period of ``job``, or ``None``.

        Unlike :meth:`latest`, this survives evaluations that found nothing:
        the scheduler keeps using the last known period until a new one lands.
        """
        with self._lock:
            return self._latest_period.get(job)

    def forget(self, job: str) -> None:
        """Drop the stored predictions of ``job`` (after the job was reaped)."""
        with self._lock:
            self._latest.pop(job, None)
            self._latest_period.pop(job, None)

    def snapshot(self) -> dict[str, PredictionUpdate]:
        """Latest update of every job (a copy)."""
        with self._lock:
            return dict(self._latest)

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Serializable snapshot (crash recovery)."""
        with self._lock:
            return {
                "latest": {
                    job: {
                        "index": u.index,
                        "time": u.time,
                        "frequency": u.frequency,
                        "period": u.period,
                        "confidence": u.confidence,
                    }
                    for job, u in self._latest.items()
                },
                "latest_period": dict(self._latest_period),
            }

    def merge_state_dict(self, state: dict) -> None:
        """Merge a :meth:`state_dict` snapshot without dropping other jobs.

        The carried jobs' predictions roll back to the snapshot; every other
        job's live prediction stays.  The one way a publisher state is
        loaded (see :func:`~repro.service.snapshot.apply_state`).
        """
        with self._lock:
            self._latest.update(self._decode_latest(state))
            self._latest_period.update(
                {job: float(period) for job, period in state["latest_period"].items()}
            )

    @staticmethod
    def _decode_latest(state: dict) -> dict[str, PredictionUpdate]:
        return {
            job: PredictionUpdate(
                job=job,
                index=int(entry["index"]),
                time=float(entry["time"]),
                frequency=entry["frequency"],
                period=entry["period"],
                confidence=float(entry["confidence"]),
            )
            for job, entry in state["latest"].items()
        }
