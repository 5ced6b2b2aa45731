"""I/O scheduling on top of the cluster simulator: Set-10, baselines, metrics."""

from repro.scheduling.baseline import ExclusiveFcfsScheduler, FairShareScheduler
from repro.scheduling.experiment import (
    CONFIGURATIONS,
    ExperimentRun,
    SchedulingExperiment,
    WorkloadConfig,
    summarize,
)
from repro.scheduling.metrics import SchedulingMetrics, evaluate, isolated_baselines
from repro.scheduling.periods import (
    ClairvoyantPeriods,
    ErrorInjectedPeriods,
    PeriodProvider,
    ServicePeriodProvider,
)
from repro.scheduling.set10 import Set10Scheduler

__all__ = [
    "ExclusiveFcfsScheduler",
    "FairShareScheduler",
    "CONFIGURATIONS",
    "ExperimentRun",
    "SchedulingExperiment",
    "WorkloadConfig",
    "summarize",
    "SchedulingMetrics",
    "evaluate",
    "isolated_baselines",
    "ClairvoyantPeriods",
    "ErrorInjectedPeriods",
    "PeriodProvider",
    "ServicePeriodProvider",
    "Set10Scheduler",
]
