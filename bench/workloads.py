"""The four workloads, as constants.

Sizes, rates and phase shares live here and nowhere else, so they are the
same on every commit; ``BENCHMARK.json`` repeats the headline numbers in each
workload's ``why``.  ``smoke`` variants keep every code path and shrink only
the sizes (``bench/tests`` runs them in seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api import ReproConfig

#: Closed-loop rounds fed before anything is timed: enough for every adaptive
#: window to shrink to its steady three-period length (resident samples stop
#: growing after round six on both streaming workloads).
WARM_ROUNDS = 8

#: Share of ``--seconds`` spent in the closed-loop capacity phase; the rest is
#: the open-loop nominal phase (streaming) or the replay phase (offline).
CAPACITY_SHARE = 0.5

#: The paper's headline accuracy: mean period error below 11 %.
PERIOD_ERROR_LIMIT = 0.11


@dataclass(frozen=True)
class StreamSpec:
    """One streaming workload: who sends what, how fast, through which stack."""

    name: str
    jobs: int
    requests_per_flush: int
    sampling_frequency: float
    period_range: tuple[float, float]
    #: ACF refinement + characterization metrics on (the paper's full
    #: pipeline) or off (period only).
    refine: bool
    #: Open-loop offered rate [flushes/s] and pump tick [s] of the nominal phase.
    nominal_rate: float
    tick: float
    #: Rate [flushes/s] the generated stream is provisioned for in the
    #: capacity phase; a system faster than this ends the phase early (the
    #: rate is still measured over the rounds done).
    headroom_rate: float
    #: Jobs replayed through the single-process reference after the run.
    oracle_jobs: int
    #: True: one client connection to a server subprocess; False: in-process.
    stack: bool = False

    def config(self, **changes) -> ReproConfig:
        """The service configuration every topology of this workload runs."""
        base = ReproConfig(max_workers=0, metrics=True).with_analysis(
            sampling_frequency=self.sampling_frequency,
            use_autocorrelation=self.refine,
            compute_characterization=self.refine,
        )
        return base.with_(**changes) if changes else base


STREAM_MANY_SMALL = StreamSpec(
    name="stream_many_small",
    jobs=256,
    requests_per_flush=16,
    sampling_frequency=10.0,
    period_range=(6.4, 10.0),
    refine=False,
    nominal_rate=400.0,
    tick=0.05,
    headroom_rate=1800.0,
    oracle_jobs=8,
)

STREAM_FEW_LONG = StreamSpec(
    name="stream_few_long",
    jobs=8,
    requests_per_flush=64,
    sampling_frequency=100.0,
    period_range=(80.0, 125.0),
    refine=True,
    nominal_rate=30.0,
    tick=0.1,
    headroom_rate=140.0,
    oracle_jobs=1,
)

#: The very same bytes as ``stream_many_small`` (same generator, same seed),
#: sent over one TCP connection to a gateway + one ring shard.
STACK_MANY_SMALL = replace(
    STREAM_MANY_SMALL,
    name="stack_many_small",
    nominal_rate=250.0,
    stack=True,
)

STREAMS = {spec.name: spec for spec in (STREAM_MANY_SMALL, STREAM_FEW_LONG, STACK_MANY_SMALL)}


@dataclass(frozen=True)
class OfflineSpec:
    """The paper's own use: finished traces in, one period out."""

    name: str = "offline_suite"
    synthetic_traces: int = 200
    iterations: int = 12
    #: Compute-phase means are spread evenly over this range [s], so the
    #: suite's periods (and its work) are the same for every seed.
    compute_range: tuple[float, float] = (4.0, 12.0)
    sampling_frequencies: tuple[float, ...] = (10.0, 100.0)
    replay_loops: int = 40
    #: A detected period further than this from the generator's truth counts
    #: the trace as failed.
    tolerance: float = 0.25


OFFLINE_SUITE = OfflineSpec()


def smoke_stream(spec: StreamSpec) -> StreamSpec:
    """Toy-scale variant: a sixteenth of the jobs, a tenth of the window."""
    jobs = max(2, spec.jobs // 16)
    scale = jobs / spec.jobs
    lo, hi = spec.period_range
    shrink = 10.0 if spec.refine else 1.0
    return replace(
        spec,
        jobs=jobs,
        period_range=(lo / shrink, hi / shrink),
        nominal_rate=max(8.0, spec.nominal_rate * scale),
        headroom_rate=spec.headroom_rate * max(scale, 0.25),
        oracle_jobs=1,
    )


def smoke_offline(spec: OfflineSpec) -> OfflineSpec:
    """Toy-scale variant of the offline suite."""
    return replace(spec, synthetic_traces=12, replay_loops=10)
