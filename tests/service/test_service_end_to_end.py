"""End-to-end acceptance tests of the streaming prediction service.

Two closed loops are exercised:

1. **Streaming equivalence** — 16+ concurrent synthetic periodic jobs are
   framed, interleaved and streamed through the broker; every job's published
   prediction sequence must equal the offline ``replay_online`` result on the
   same data.
2. **Live scheduling** — the cluster simulator's phases are bridged into the
   service, and ``Set10Scheduler`` driven by ``ServicePeriodProvider``,
   wired by hand from the public pieces, must reproduce Figure 17's
   ``set10-ftio`` configuration exactly and beat the unmodified file system.
"""

from __future__ import annotations

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.core import FtioConfig
from repro.core.online import replay_online
from repro.scheduling.experiment import SchedulingExperiment
from repro.scheduling.metrics import evaluate, isolated_baselines
from repro.scheduling.periods import ServicePeriodProvider
from repro.scheduling.set10 import Set10Scheduler
from repro.service import (
    PhaseFlushBridge,
    PredictionService,
    ServiceConfig,
    SessionConfig,
)
from repro.trace.framing import encode_frame
from repro.trace.jsonl import FlushRecord, trace_to_flushes
from repro.trace.record import IORequest
from repro.utils.rng import as_generator
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace
from tests.service.conftest import UpdateLedger

N_JOBS = 16


@pytest.fixture(scope="module")
def online_config():
    return FtioConfig(
        sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
    )


@pytest.fixture(scope="module")
def job_traces(online_config):
    """16 concurrent periodic jobs with different periods, phases and sizes."""
    traces = {}
    for j in range(N_JOBS):
        traces[f"job-{j:02d}"] = hacc_io_trace(
            ranks=2 + (j % 3),
            loops=8,
            period=6.0 + 0.5 * j,
            first_phase_delay=3.0 + 0.25 * j,
            seed=100 + j,
        )
    return traces


class TestStreamingEquivalence:
    def test_16_jobs_match_offline_replay(self, online_config, job_traces):
        # The cap must sit above the largest per-job stream for the streamed
        # predictions to be bit-identical with the unbounded offline replay
        # (the adaptive window still evicts most of it, as asserted below).
        service = PredictionService(
            ServiceConfig(session=SessionConfig(config=online_config, max_samples=200_000))
        )
        ledger = UpdateLedger(service.publisher)
        streams = {
            job: trace_to_flushes(trace, hacc_flush_times(trace))
            for job, trace in job_traces.items()
        }
        n_rounds = max(len(flushes) for flushes in streams.values())
        for round_index in range(n_rounds):
            # One frame per job per round, interleaved: the broker must
            # demultiplex 16 concurrent streams correctly.
            for job, flushes in streams.items():
                if round_index < len(flushes):
                    service.feed_bytes(encode_frame(flushes[round_index], job=job))
            service.pump()

        assert len(service.jobs) == N_JOBS
        assert ledger.conflicts == []
        for job, trace in job_traces.items():
            reference = replay_online(trace, hacc_flush_times(trace), config=online_config)
            session = service.session(job)
            # One published update per replayed step, at the same time, with the
            # same frequency and period.  The confidence may sit an ulp or two
            # away: the bandwidth sweep is a running sum over every resident
            # request, and the session no longer holds the evicted ones.
            streamed = {key[1]: value for key, value in ledger.entries.items() if key[0] == job}
            assert sorted(streamed) == [s.index for s in reference], job
            for step in reference:
                time, frequency, period, confidence = streamed[step.index]
                assert (time, frequency, period) == (
                    step.time, step.dominant_frequency, step.period
                ), job
                assert confidence == pytest.approx(step.confidence, rel=1e-12), job
            assert service.publisher.latest_period(job) == pytest.approx(
                reference[-1].period
            ), job
            # Bounded memory: the adaptive window evicted most of the history.
            assert session.evicted_samples > 0, job
        service.close()

    def test_subscribers_see_every_published_update(self, online_config, job_traces):
        job, trace = next(iter(job_traces.items()))
        service = PredictionService(ServiceConfig(session=SessionConfig(config=online_config)))
        seen = []
        service.publisher.subscribe(seen.append, jobs=[job])
        ignored = []
        service.publisher.subscribe(ignored.append, jobs=["someone-else"])
        for flush in trace_to_flushes(trace, hacc_flush_times(trace)):
            service.ingest_flush(job, flush)
            service.pump()
        assert len(seen) == service.session(job).detections
        assert [u.job for u in seen] == [job] * len(seen)
        assert ignored == []


    def test_flush_stamped_before_its_first_request_publishes_no_result(self, online_config):
        """A rank clock ahead of the flush clock is "no result", not a failed detection."""
        service = PredictionService(ServiceConfig(session=SessionConfig(config=online_config)))
        seen = []
        service.publisher.subscribe(seen.append)
        requests = tuple(
            IORequest(rank=r, start=10.0 + r, end=10.5 + r, nbytes=1 << 20) for r in range(4)
        )
        service.ingest_flush("early", FlushRecord(flush_index=0, timestamp=9.0, requests=requests))
        service.pump()
        stats = service.stats()
        assert stats["failures"] == 0
        assert stats["detections"] == 1
        assert [(u.job, u.time, u.period) for u in seen] == [("early", 9.0, None)]
        service.close()

    def test_span_journal_records_every_stage_of_a_flush(self, online_config, job_traces):
        """With ``spans=True``, one ingest and one pump leave a span for each
        stage a flush crosses in-process: ingest, claim, kernels, detect and
        publish."""
        job, trace = next(iter(job_traces.items()))
        service = PredictionService(
            ServiceConfig(session=SessionConfig(config=online_config), spans=True)
        )
        try:
            service.ingest_flush(job, trace_to_flushes(trace, hacc_flush_times(trace))[0])
            assert service.pump() == 1
            stages = {span["stage"] for span in service.spans_snapshot()}
        finally:
            service.close()
        assert stages >= {"ingest", "batch_claim", "kernel", "detect", "publish"}
        assert PredictionService(ServiceConfig()).spans_snapshot() == []


class TestLiveScheduling:
    def test_service_driven_set10_matches_ftio_configuration(self):
        """The hand-wired loop is Figure 17's ``set10-ftio``, bit for bit."""
        experiment = SchedulingExperiment()
        seed = 17

        ftio = experiment.run_configuration("set10-ftio", seed=seed)
        original = experiment.run_configuration("original", seed=seed)

        rng = as_generator(seed)
        jobs = experiment.build_jobs(seed=rng)
        filesystem = experiment.filesystem()
        service = PredictionService(
            ServiceConfig(
                session=SessionConfig(
                    config=FtioConfig(
                        sampling_frequency=1.0,
                        use_autocorrelation=False,
                        compute_characterization=False,
                    ),
                    adaptive_window=False,
                    min_requests=3,
                )
            )
        )
        scheduler = Set10Scheduler(ServicePeriodProvider(service), name="set10-ftio")
        bridge = PhaseFlushBridge(service)
        simulator = ClusterSimulator(
            filesystem,
            scheduler,
            jobs,
            phase_observers=[bridge],
            finish_observers=[bridge.on_job_finished],
        )
        result = simulator.run()
        metrics = evaluate(result, isolated_baselines(jobs, filesystem))
        service.close()

        # The live loop is the FTIO configuration, wired by hand...
        assert metrics == ftio.metrics
        # ... and clearly beats the unmodified file system (Figure 17 ordering).
        assert metrics.io_slowdown < 0.6 * original.metrics.io_slowdown
        assert metrics.utilization > original.metrics.utilization

        # Every job was served by the service, and the high-frequency job's
        # period estimate converged to its true 19.2 s period.
        assert len(service.jobs) == len(jobs)
        high_period = service.publisher.latest_period("high-0")
        assert high_period == pytest.approx(19.2, rel=0.15)

    def test_finish_observer_closes_sessions(self):
        experiment = SchedulingExperiment()
        rng = as_generator(3)
        jobs = experiment.build_jobs(seed=rng)
        service = PredictionService(
            ServiceConfig(
                session=SessionConfig(
                    config=FtioConfig(
                        sampling_frequency=1.0,
                        use_autocorrelation=False,
                        compute_characterization=False,
                    ),
                    adaptive_window=False,
                    min_requests=3,
                )
            )
        )
        bridge = PhaseFlushBridge(service)
        scheduler = Set10Scheduler(ServicePeriodProvider(service))
        simulator = ClusterSimulator(
            experiment.filesystem(),
            scheduler,
            jobs,
            phase_observers=[bridge],
            finish_observers=[bridge.on_job_finished],
        )
        simulator.run()
        assert all(service.session(job.name).finished for job in jobs)
        service.close()
