"""Period knowledge providers for the Set-10 scheduler (Section IV).

Set-10 groups jobs by the period of their I/O phases.  Figure 17 compares
four sources of that knowledge:

* **clairvoyant** — the ideal, in-isolation period is supplied manually
  (:class:`ClairvoyantPeriods`);
* **FTIO** — the period the streaming prediction service publishes for the
  job, learnt online from the phases observed so far
  (:class:`ServicePeriodProvider`);
* **error-injected** — the FTIO estimate is randomly made 50 % larger or
  smaller before being handed to the scheduler (:class:`ErrorInjectedPeriods`);
* **original** — no period knowledge at all (no Set-10; plain fair sharing).

All providers implement the tiny :class:`PeriodProvider` protocol consumed by
:class:`~repro.scheduling.set10.Set10Scheduler`, and providers that learn at
runtime also see every completed phase through the scheduler.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cluster.job import JobState, PhaseRecord
from repro.utils.rng import SeedLike, as_generator


class PeriodProvider(abc.ABC):
    """Supplies the period estimate Set-10 uses to group and prioritize jobs."""

    @abc.abstractmethod
    def period_of(self, job_name: str) -> float | None:
        """Current period estimate of ``job_name`` in seconds, or ``None`` if unknown."""

    def observe_phase(self, job: JobState, record: PhaseRecord, time: float) -> None:
        """Phase-completion hook (providers that learn at runtime override this)."""


@dataclass
class ClairvoyantPeriods(PeriodProvider):
    """The ideal provider: periods are known in advance (the paper's "Set-10 + clairv.")."""

    periods: dict[str, float]

    def period_of(self, job_name: str) -> float | None:
        return self.periods.get(job_name)


class ServicePeriodProvider(PeriodProvider):
    """Period estimates published by a running prediction service.

    The simulator's completed phases reach the service through a
    :class:`~repro.service.bridge.PhaseFlushBridge`; this provider only reads
    ``service.publisher.latest_period(job)`` — the "most recent prediction" in
    the paper's wording.  Before the service has published a first
    prediction for a job, the mean gap between the job's observed phase
    starts stands in (the characteristic time w_iter of the original Set-10
    formulation), so freshly started jobs are not starved in the unknown set.
    """

    def __init__(self, service) -> None:
        self._service = service
        self._phase_starts: dict[str, list[float]] = {}

    def period_of(self, job_name: str) -> float | None:
        period = self._service.publisher.latest_period(job_name)
        if period is not None:
            return period
        starts = self._phase_starts.get(job_name)
        if starts is None or len(starts) < 2:
            return None
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        return sum(gaps) / len(gaps)

    def observe_phase(self, job: JobState, record: PhaseRecord, time: float) -> None:
        self._phase_starts.setdefault(job.name, []).append(record.start)


@dataclass
class ErrorInjectedPeriods(PeriodProvider):
    """Wrap another provider and corrupt its estimates by ±``error`` (paper: 50 %)."""

    inner: PeriodProvider
    error: float = 0.5
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.error < 1.0:
            raise ValueError(f"error must be in [0, 1), got {self.error}")
        self._rng = as_generator(self.seed)

    def period_of(self, job_name: str) -> float | None:
        period = self.inner.period_of(job_name)
        if period is None:
            return None
        sign = 1.0 if self._rng.uniform() < 0.5 else -1.0
        return period * (1.0 + sign * self.error)

    def observe_phase(self, job: JobState, record: PhaseRecord, time: float) -> None:
        self.inner.observe_phase(job, record, time)
