"""The Figure 17 scheduling experiment.

Workload (Section IV): one *high-frequency* application with a period of
19.2 s and fifteen *low-frequency* applications with a period of 384 s, all
derived from IOR, with I/O consuming 6.25 % of each period in isolation.  Ten
executions (different release jitter) are simulated for each of the four
configurations:

* ``set10-clairvoyant`` — Set-10 fed with the ideal, in-isolation periods;
* ``set10-ftio``        — Set-10 fed with the periods the streaming prediction
  service publishes from the phases streamed into it as the simulation runs;
* ``set10-error``       — the same, with the estimates corrupted by ±50 %;
* ``original``          — the unmodified file system (fair sharing).

The experiment reports the stretch, I/O slowdown and utilization of every
execution, mirroring the three panels of Figure 17.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.filesystem import SharedFileSystem
from repro.cluster.job import JobSpec
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.core.config import FtioConfig
from repro.scheduling.baseline import FairShareScheduler
from repro.scheduling.metrics import SchedulingMetrics, evaluate, isolated_baselines
from repro.scheduling.periods import (
    ClairvoyantPeriods,
    ErrorInjectedPeriods,
    PeriodProvider,
    ServicePeriodProvider,
)
from repro.scheduling.set10 import Set10Scheduler
from repro.service import PhaseFlushBridge, PredictionService, ServiceConfig, SessionConfig
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int

#: The four configurations compared in Figure 17.
CONFIGURATIONS = ("set10-clairvoyant", "set10-ftio", "set10-error", "original")

#: The FTIO configurations' sessions: phase-level requests sampled at 1 Hz,
#: no ACF refinement, a growing (not adaptive) window, and a first detection
#: once three phases are in.
_FTIO_SESSION = SessionConfig(
    config=FtioConfig(
        sampling_frequency=1.0, use_autocorrelation=False, compute_characterization=False
    ),
    adaptive_window=False,
    min_requests=3,
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the Figure 17 workload."""

    high_frequency_period: float = 19.2
    low_frequency_period: float = 384.0
    n_high: int = 1
    n_low: int = 15
    io_fraction: float = 0.0625
    iterations_high: int = 60
    iterations_low: int = 3
    filesystem_bandwidth: float = 10e9
    job_bandwidth: float = 6e9
    release_jitter: float = 20.0

    def __post_init__(self) -> None:
        check_positive(self.high_frequency_period, "high_frequency_period")
        check_positive(self.low_frequency_period, "low_frequency_period")
        check_positive_int(self.n_high, "n_high")
        check_positive_int(self.n_low, "n_low")
        check_positive(self.filesystem_bandwidth, "filesystem_bandwidth")
        check_positive(self.job_bandwidth, "job_bandwidth")
        if not 0.0 < self.io_fraction < 1.0:
            raise ValueError(f"io_fraction must be in (0, 1), got {self.io_fraction}")


@dataclass(frozen=True)
class ExperimentRun:
    """One simulated execution of one configuration."""

    configuration: str
    repetition: int
    metrics: SchedulingMetrics
    result: SimulationResult


@dataclass
class SchedulingExperiment:
    """Builds the workload and runs the four Figure 17 configurations."""

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    # ------------------------------------------------------------------ #
    def filesystem(self) -> SharedFileSystem:
        """The shared file system used by every configuration."""
        return SharedFileSystem(capacity=self.workload.filesystem_bandwidth, name="beegfs")

    def build_jobs(self, *, seed: SeedLike = None) -> list[JobSpec]:
        """Build the 1 high-frequency + 15 low-frequency job mix with jittered releases."""
        w = self.workload
        rng = as_generator(seed)
        jobs: list[JobSpec] = []
        for i in range(w.n_high):
            jobs.append(
                JobSpec(
                    name=f"high-{i}",
                    period=w.high_frequency_period,
                    io_fraction=w.io_fraction,
                    iterations=w.iterations_high,
                    io_bandwidth=w.job_bandwidth,
                    start_time=float(rng.uniform(0.0, w.release_jitter)),
                )
            )
        for i in range(w.n_low):
            jobs.append(
                JobSpec(
                    name=f"low-{i}",
                    period=w.low_frequency_period,
                    io_fraction=w.io_fraction,
                    iterations=w.iterations_low,
                    io_bandwidth=w.job_bandwidth,
                    start_time=float(rng.uniform(0.0, w.release_jitter)),
                )
            )
        return jobs

    def true_periods(self, jobs: list[JobSpec]) -> dict[str, float]:
        """The ideal (isolation) periods handed to the clairvoyant configuration."""
        return {job.name: job.period for job in jobs}

    # ------------------------------------------------------------------ #
    def run_configuration(
        self,
        configuration: str,
        *,
        seed: SeedLike = None,
        repetition: int = 0,
    ) -> ExperimentRun:
        """Simulate one configuration once and return its metrics."""
        if configuration not in CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration {configuration!r}; expected one of {CONFIGURATIONS}"
            )
        rng = as_generator(seed)
        jobs = self.build_jobs(seed=rng)
        filesystem = self.filesystem()

        service = None
        if configuration == "original":
            scheduler = FairShareScheduler()
        elif configuration == "set10-clairvoyant":
            clairvoyant = ClairvoyantPeriods(self.true_periods(jobs))
            scheduler = Set10Scheduler(clairvoyant, name=configuration)
        else:  # set10-ftio, set10-error
            service = PredictionService(ServiceConfig(session=_FTIO_SESSION))
            periods: PeriodProvider = ServicePeriodProvider(service)
            if configuration == "set10-error":
                periods = ErrorInjectedPeriods(periods, error=0.5, seed=rng)
            scheduler = Set10Scheduler(periods, name=configuration)

        simulator = ClusterSimulator(filesystem, scheduler, jobs)
        if service is not None:
            bridge = PhaseFlushBridge(service)
            simulator.add_phase_observer(bridge)
            simulator.add_finish_observer(bridge.on_job_finished)
        try:
            result = simulator.run()
        finally:
            if service is not None:
                service.close()
        baselines = isolated_baselines(jobs, filesystem)
        metrics = evaluate(result, baselines)
        return ExperimentRun(
            configuration=configuration,
            repetition=repetition,
            metrics=metrics,
            result=result,
        )

    def run(
        self,
        *,
        repetitions: int = 10,
        configurations: tuple[str, ...] = CONFIGURATIONS,
        seed: SeedLike = 0,
    ) -> list[ExperimentRun]:
        """Run every configuration ``repetitions`` times (the Figure 17 boxplots)."""
        check_positive_int(repetitions, "repetitions")
        rng = as_generator(seed)
        runs: list[ExperimentRun] = []
        for repetition in range(repetitions):
            rep_seed = int(rng.integers(0, 2**31 - 1))
            for configuration in configurations:
                runs.append(
                    self.run_configuration(
                        configuration, seed=rep_seed, repetition=repetition
                    )
                )
        return runs


def summarize(runs: list[ExperimentRun]) -> dict[str, dict[str, float]]:
    """Aggregate experiment runs into per-configuration mean metrics.

    Returns a mapping configuration -> {stretch, io_slowdown, utilization}
    (means over the repetitions), which is what the Figure 17 discussion in
    the paper quotes (e.g. −56 % I/O slowdown, +26 % utilization vs original).
    """
    summary: dict[str, dict[str, float]] = {}
    for configuration in {run.configuration for run in runs}:
        subset = [run.metrics for run in runs if run.configuration == configuration]
        summary[configuration] = {
            "stretch": float(np.mean([m.stretch for m in subset])),
            "io_slowdown": float(np.mean([m.io_slowdown for m in subset])),
            "utilization": float(np.mean([m.utilization for m in subset])),
        }
    return summary
