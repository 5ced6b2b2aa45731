"""Semi-synthetic application traces (Section III-A methodology).

The limitation study of the paper evaluates FTIO on traces built from real IOR
phases: an application is a sequence of J non-overlapping iterations, each of
which has a compute phase of length t_cpu (drawn from a truncated normal
distribution) followed by an I/O phase picked at random from a library of
traced phases.  Each of the P processes can additionally be delayed by δ_k
drawn from an exponential distribution of mean ϕ (process 0 keeps δ_0 = 0), to
model desynchronization and I/O variability.  Optionally, single-process noise
traces are overlaid.

This module reproduces that generator with a synthetic phase library
(:class:`PhaseLibrary`) standing in for the 99 traced IOR phases — each phase
has 32 processes writing ~3.5 GB at roughly 10 GB/s, with durations spread
over [10.2, 13.3] s like the paper's traces.  Library phases are
:class:`Trace` columns; :class:`SemiSyntheticGenerator` places one with a
single add per request column, ``(cursor − t_start) + δ[rank]``, and joins
the placed phases with one sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import GIB, MIB
from repro.exceptions import WorkloadError
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest
from repro.trace.trace import Trace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive_int
from repro.workloads.ior import ior_phase
from repro.workloads.noise import NoiseLevel, add_noise
from repro.workloads.phases import join_phases, phase_of


@dataclass(frozen=True)
class PhaseLibrary:
    """A library of traced single I/O phases to draw from.

    Each entry is the trace of one phase, its ranks numbered from 0 to
    ``ranks - 1`` (every rank starts at 0 in a generated library).  The
    default library mimics the paper's 99 IOR phases: 32 processes, ~3.5 GB,
    average duration ≈ 10.4 s.
    """

    phases: tuple[Trace, ...]
    ranks: int

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError("a phase library needs at least one phase")
        if any(phase.is_empty or int(phase.ranks.max()) >= self.ranks for phase in self.phases):
            raise WorkloadError(f"every library phase needs requests of ranks below {self.ranks}")

    @property
    def size(self) -> int:
        """Number of phases in the library."""
        return len(self.phases)

    def durations(self) -> np.ndarray:
        """Wall-clock duration of every phase in the library."""
        return np.array([phase.duration for phase in self.phases])

    def mean_duration(self) -> float:
        """Average phase duration (the paper's ≈ 10.4 s)."""
        return float(self.durations().mean())

    def pick(self, rng: np.random.Generator) -> Trace:
        """Randomly select one phase."""
        return self.phases[int(rng.integers(0, self.size))]

    @classmethod
    def generate(
        cls,
        *,
        n_phases: int = 99,
        ranks: int = 32,
        volume_per_rank: int = int(3.5 * GIB),
        request_size: int = 32 * MIB,
        aggregate_bandwidth: float = 10e9,
        duration_spread: float = 0.12,
        seed: SeedLike = None,
    ) -> "PhaseLibrary":
        """Generate a synthetic phase library with the paper's characteristics."""
        check_positive_int(n_phases, "n_phases")
        rng = as_generator(seed)
        phases: list[Trace] = []
        for _ in range(n_phases):
            # Vary the effective bandwidth per traced run so durations spread
            # like the real phases did (file-system variability).
            factor = float(np.clip(rng.normal(1.0, duration_spread), 0.7, 1.3))
            phases.append(
                ior_phase(
                    ranks=ranks,
                    volume_per_rank=volume_per_rank,
                    request_size=request_size,
                    aggregate_bandwidth=aggregate_bandwidth * factor,
                    duration_jitter=0.05,
                    start=0.0,
                    seed=rng,
                )
            )
        return cls(phases=tuple(phases), ranks=ranks)


@dataclass(frozen=True)
class SyntheticAppConfig:
    """Parameters of one semi-synthetic application trace (Section III-A).

    Attributes
    ----------
    iterations:
        J, the number of compute+I/O iterations (paper: 20).
    compute_mean, compute_std:
        µ and σ of the truncated normal distribution of t_cpu (seconds).
    desync_mean:
        ϕ, the mean of the exponential per-process delay δ_k (0 disables it).
    noise:
        Background noise level overlaid on the final trace.
    start_offset:
        Time before the first compute phase.
    """

    iterations: int = 20
    compute_mean: float = 11.0
    compute_std: float = 0.0
    desync_mean: float = 0.0
    noise: NoiseLevel | str = NoiseLevel.NONE
    start_offset: float = 0.0

    def __post_init__(self) -> None:
        check_positive_int(self.iterations, "iterations")
        check_non_negative(self.compute_mean, "compute_mean")
        check_non_negative(self.compute_std, "compute_std")
        check_non_negative(self.desync_mean, "desync_mean")
        check_non_negative(self.start_offset, "start_offset")


@dataclass
class SemiSyntheticGenerator:
    """Generator of semi-synthetic application traces from a phase library."""

    library: PhaseLibrary = field(default_factory=lambda: PhaseLibrary.generate(seed=0))

    def generate(self, config: SyntheticAppConfig, *, seed: SeedLike = None) -> Trace:
        """Generate one application trace following the Section III-A recipe."""
        rng = as_generator(seed)
        pieces = []
        phases = []
        cursor = config.start_offset
        for _ in range(config.iterations):
            # Compute phase: truncated normal (re-draw until positive).
            cursor += _truncated_normal(rng, config.compute_mean, config.compute_std)

            base = self.library.pick(rng)
            delays = _per_rank_delays(rng, self.library.ranks, config.desync_mean)
            # Place the phase at the cursor and delay each rank by its δ_k.
            offsets = (cursor - base.t_start) + delays[base.ranks]
            starts, ends = base.starts + offsets, base.ends + offsets
            pieces.append(Trace._trusted(starts, ends, base.nbytes, base.ranks, base.kinds, {}))
            phases.append(phase_of(pieces[-1]))
            cursor = phases[-1].end

        trace = join_phases(
            pieces,
            phases,
            {
                "application": "semi-synthetic",
                "iterations": config.iterations,
                "compute_mean": config.compute_mean,
                "compute_std": config.compute_std,
                "desync_mean": config.desync_mean,
                "noise": NoiseLevel(config.noise).value,
            },
        )
        if NoiseLevel(config.noise) is not NoiseLevel.NONE:
            trace = add_noise(trace, level=config.noise, seed=rng)
        return trace

    def generate_batch(
        self, config: SyntheticAppConfig, *, count: int, seed: SeedLike = None
    ) -> list[Trace]:
        """Generate ``count`` independent traces for one parameter combination."""
        check_positive_int(count, "count")
        rng = as_generator(seed)
        return [self.generate(config, seed=rng) for _ in range(count)]


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def _truncated_normal(rng: np.random.Generator, mean: float, std: float) -> float:
    """Draw from N(mean, std) truncated to positive values (Section III-A)."""
    if std == 0.0:
        return max(mean, 0.0)
    for _ in range(1000):
        value = float(rng.normal(mean, std))
        if value > 0.0:
            return value
    # Pathological parameters (mean << 0): fall back to a small positive value.
    return abs(float(rng.normal(mean, std))) + 1e-6


def _per_rank_delays(rng: np.random.Generator, ranks: int, mean: float) -> np.ndarray:
    """Exponential per-rank delays δ_k with δ_0 = 0."""
    delays = np.zeros(ranks)
    if mean > 0 and ranks > 1:
        delays[1:] = rng.exponential(mean, size=ranks - 1)
    return delays


def mean_period(trace: Trace) -> float:
    """Ground-truth average period T̄ of a generated trace (phase-start gaps)."""
    if trace.ground_truth is None:
        raise WorkloadError("trace carries no ground truth")
    period = trace.ground_truth.average_period()
    if period is None:
        raise WorkloadError("trace ground truth has fewer than two phases")
    return period


def synthetic_flush_streams(
    n_jobs: int,
    *,
    flushes_per_job: int = 8,
    requests_per_flush: int = 16,
    base_period: float = 8.0,
    seed: int = 0,
) -> dict[str, list]:
    """Per-job flush streams of periodic synthetic writes (service workload).

    Each job writes one burst of ``requests_per_flush`` requests per period
    and flushes at the end of the burst; jobs get slightly different periods
    and phase offsets so the service sees genuinely heterogeneous tenants.
    Returns a mapping job id -> list of :class:`FlushRecord`.
    """
    rng = np.random.default_rng(seed)
    streams: dict[str, list] = {}
    for j in range(n_jobs):
        period = base_period * float(rng.uniform(0.8, 1.25))
        offset = float(rng.uniform(0.0, period))
        burst = period / 16.0
        flushes = []
        for i in range(flushes_per_job):
            phase_start = offset + i * period
            starts = phase_start + np.arange(requests_per_flush) * (burst / requests_per_flush)
            requests = tuple(
                IORequest(
                    rank=int(r % 4),
                    start=float(starts[r]),
                    end=float(starts[r] + burst / requests_per_flush),
                    nbytes=1 << 20,
                )
                for r in range(requests_per_flush)
            )
            flushes.append(
                FlushRecord(
                    flush_index=i,
                    timestamp=float(starts[-1] + burst / requests_per_flush),
                    requests=requests,
                    metadata={"application": "synthetic", "job": j} if i == 0 else {},
                )
            )
        streams[f"job-{j:03d}"] = flushes
    return streams
