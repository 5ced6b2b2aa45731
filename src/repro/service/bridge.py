"""Bridge from the cluster simulator's phase observer to flush ingestion.

The simulator reports every completed I/O phase through its
:data:`~repro.cluster.simulator.PhaseObserver` hook.  The bridge turns each
phase into the flush record a TMIO tracer would have emitted for it (one
phase-level request), ingests it into the prediction service and pumps, so
:class:`~repro.scheduling.periods.ServicePeriodProvider` hands the Set-10
scheduler a live prediction before its next decision — the FTIO
configurations of Figure 17 (:mod:`repro.scheduling.experiment`).
"""

from __future__ import annotations

from repro.cluster.job import JobState, PhaseRecord
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest

#: A completed phase shorter than this is recorded with this duration so the
#: resulting request stays a valid (end > start) interval.
_MIN_PHASE_DURATION = 1e-6


class PhaseFlushBridge:
    """Phase observer that streams completed phases into a prediction service.

    Register an instance with the simulator::

        simulator.add_phase_observer(bridge)
        simulator.add_finish_observer(bridge.on_job_finished)

    Parameters
    ----------
    service:
        Target :class:`~repro.service.service.PredictionService`.
    """

    def __init__(self, service) -> None:
        self._service = service
        self._flush_indices: dict[str, int] = {}

    def __call__(self, job: JobState, record: PhaseRecord, time: float) -> None:
        index = self._flush_indices.get(job.name, 0)
        self._flush_indices[job.name] = index + 1
        request = IORequest(
            rank=0,
            start=record.start,
            end=max(record.end, record.start + _MIN_PHASE_DURATION),
            nbytes=int(record.nbytes),
        )
        flush = FlushRecord(flush_index=index, timestamp=float(time), requests=(request,))
        self._service.ingest_flush(job.name, flush)
        self._service.pump()

    def on_job_finished(self, job: JobState, time: float) -> None:
        """Finish observer: stop scheduling further evaluations for the job."""
        self._service.finish_job(job.name)
