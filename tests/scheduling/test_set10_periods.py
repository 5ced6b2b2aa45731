"""Unit tests for the Set-10 scheduler and the period providers."""

from __future__ import annotations

import pytest

from repro.cluster.filesystem import SharedFileSystem
from repro.cluster.job import JobSpec, JobState, PhaseRecord
from repro.cluster.simulator import ClusterSimulator
from repro.core.config import FtioConfig
from repro.scheduling.periods import (
    ClairvoyantPeriods,
    ErrorInjectedPeriods,
    ServicePeriodProvider,
)
from repro.scheduling.set10 import Set10Scheduler
from repro.service import PhaseFlushBridge, PredictionService, ServiceConfig, SessionConfig


def job_state(name: str, period: float = 100.0, waiting_since: float | None = 0.0) -> JobState:
    spec = JobSpec(
        name=name, period=period, io_fraction=0.1, iterations=3, io_bandwidth=1e9
    )
    state = JobState(spec=spec)
    state.start(0.0)
    state.remaining_compute = 0.0
    if waiting_since is not None:
        state.begin_io(waiting_since)
    return state


def phase_record(name: str, iteration: int, start: float, period: float) -> PhaseRecord:
    return PhaseRecord(job=name, iteration=iteration, start=start, end=start + 2.0, nbytes=1e9)


@pytest.fixture
def service():
    """A service with the session settings of Figure 17's FTIO configurations."""
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
    yield service
    service.close()


class TestClairvoyantAndErrorProviders:
    def test_clairvoyant_lookup(self):
        provider = ClairvoyantPeriods({"a": 19.2, "b": 384.0})
        assert provider.period_of("a") == pytest.approx(19.2)
        assert provider.period_of("missing") is None

    def test_error_injection_is_plus_or_minus_fifty_percent(self):
        provider = ErrorInjectedPeriods(ClairvoyantPeriods({"a": 100.0}), error=0.5, seed=1)
        values = {provider.period_of("a") for _ in range(50)}
        assert values <= {50.0, 150.0}
        assert len(values) == 2

    def test_error_on_unknown_period_stays_none(self):
        provider = ErrorInjectedPeriods(ClairvoyantPeriods({}), error=0.5)
        assert provider.period_of("a") is None

    def test_invalid_error_rejected(self):
        with pytest.raises(ValueError):
            ErrorInjectedPeriods(ClairvoyantPeriods({}), error=1.5)


class TestServicePeriodProvider:
    def test_bootstrap_then_ftio_estimate(self, service):
        provider = ServicePeriodProvider(service)
        bridge = PhaseFlushBridge(service)
        state = job_state("app", period=50.0, waiting_since=None)
        # Feed perfectly periodic phases 50 s apart, the way the simulator
        # does: the scheduler's hook first, then the phase observers.
        for i in range(8):
            record = phase_record("app", i, start=50.0 * i, period=50.0)
            provider.observe_phase(state, record, time=50.0 * i + 2)
            bridge(state, record, time=50.0 * i + 2)
            if i == 1:
                # Two phases: no detection yet, the mean phase gap stands in.
                assert service.publisher.latest_period("app") is None
                assert provider.period_of("app") == pytest.approx(50.0)
        assert service.publisher.latest_period("app") is not None
        assert provider.period_of("app") == pytest.approx(50.0, rel=0.1)

    def test_unknown_before_two_phases(self, service):
        provider = ServicePeriodProvider(service)
        bridge = PhaseFlushBridge(service)
        state = job_state("app", waiting_since=None)
        assert provider.period_of("app") is None
        record = phase_record("app", 0, 0.0, 50.0)
        provider.observe_phase(state, record, time=2.0)
        bridge(state, record, time=2.0)
        assert provider.period_of("app") is None


class TestSet10Scheduler:
    def test_set_assignment_by_order_of_magnitude(self):
        scheduler = Set10Scheduler(ClairvoyantPeriods({"fast": 19.2, "slow": 384.0}))
        assert scheduler.set_index("fast") == 1
        assert scheduler.set_index("slow") == 2
        assert scheduler.set_index("unknown") == scheduler._unknown_set

    def test_priority_favours_small_period(self):
        scheduler = Set10Scheduler(ClairvoyantPeriods({"fast": 19.2, "slow": 384.0}))
        shares = scheduler.allocate([job_state("fast", 19.2), job_state("slow", 384.0)], time=0.0)
        assert shares["fast"] > shares["slow"]
        assert sum(shares.values()) == pytest.approx(1.0)
        # Weight ratio equals the inverse period ratio.
        assert shares["fast"] / shares["slow"] == pytest.approx(384.0 / 19.2, rel=1e-6)

    def test_exclusive_within_set_fcfs(self):
        scheduler = Set10Scheduler(ClairvoyantPeriods({"a": 300.0, "b": 300.0}))
        early = job_state("a", 300.0, waiting_since=5.0)
        late = job_state("b", 300.0, waiting_since=9.0)
        shares = scheduler.allocate([late, early], time=10.0)
        assert shares == {"a": pytest.approx(1.0)}

    def test_single_job_gets_everything(self):
        scheduler = Set10Scheduler(ClairvoyantPeriods({"a": 100.0}))
        shares = scheduler.allocate([job_state("a", 100.0)], time=0.0)
        assert shares["a"] == pytest.approx(1.0)

    def test_unknown_period_gets_lowest_priority(self):
        scheduler = Set10Scheduler(ClairvoyantPeriods({"known": 20.0}))
        shares = scheduler.allocate(
            [job_state("known", 20.0), job_state("mystery", 20.0)], time=0.0
        )
        assert shares["known"] > 0.99
        assert shares["mystery"] < 0.01

    def test_on_phase_complete_feeds_provider(self, service):
        provider = ServicePeriodProvider(service)
        scheduler = Set10Scheduler(provider)
        state = job_state("app", 50.0, waiting_since=None)
        for i in range(3):
            scheduler.on_phase_complete(state, phase_record("app", i, 50.0 * i, 50.0), time=50.0 * i + 2)
        # Nothing was streamed into the service: the estimate is the one the
        # scheduler's hook fed the provider.
        assert service.publisher.latest_period("app") is None
        assert provider.period_of("app") == pytest.approx(50.0)

    def test_end_to_end_simulation_with_set10(self):
        fs = SharedFileSystem(capacity=1e9)
        jobs = [
            JobSpec(name="fast", period=20.0, io_fraction=0.2, iterations=10, io_bandwidth=1e9),
            JobSpec(name="slow", period=200.0, io_fraction=0.2, iterations=2, io_bandwidth=1e9),
        ]
        scheduler = Set10Scheduler(ClairvoyantPeriods({"fast": 20.0, "slow": 200.0}))
        result = ClusterSimulator(fs, scheduler, jobs).run()
        fast = result.job("fast")
        slow = result.job("slow")
        # The high-frequency job is prioritized: it barely stretches.
        assert fast.io_slowdown < slow.io_slowdown
        assert fast.stretch < 1.2
