"""IOR-like synthetic workload generator.

IOR is the canonical parallel I/O benchmark; the paper uses it in three roles:

* the Section II-C scalability example (9216 ranks, 8 iterations, 2 segments,
  2 MB transfers, 10 MB blocks, a period of roughly 112 s),
* the single I/O phases of the semi-synthetic traces (32 processes writing
  3.5 GB in 1 MB requests, around 10.4 s per phase), and
* the jobs of the Set-10 scheduling use case (Section IV).

:func:`ior_trace` generates a periodic compute/write pattern with those knobs;
:func:`ior_phase` generates a single phase for the semi-synthetic methodology.
"""

from __future__ import annotations

from repro.constants import GIB, MIB
from repro.trace.trace import Trace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive, check_positive_int
from repro.workloads.phases import PhaseSpec, generate_phase, join_phases, phase_of


def ior_phase(
    *,
    ranks: int = 32,
    volume_per_rank: int = int(3.5 * GIB),
    request_size: int = 32 * MIB,
    aggregate_bandwidth: float = 10e9,
    duration_jitter: float = 0.08,
    start: float = 0.0,
    seed: SeedLike = None,
) -> Trace:
    """Generate one IOR I/O phase (all ranks write once, roughly synchronized).

    Defaults mimic the phases traced for the limitation study: 32 processes,
    each writing a 3.5 GB file in contiguous requests, at an aggregate rate of
    about 10 GB/s — i.e. a phase of roughly 10–13 s once jitter is applied.
    (The request size is coarser than the paper's 1 MB so that laptop-scale
    traces stay at a manageable request count; the bandwidth signal is
    identical because requests are issued back to back.)
    """
    check_positive(aggregate_bandwidth, "aggregate_bandwidth")
    rng = as_generator(seed)
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(request_size, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
    )
    return generate_phase(
        spec,
        start=start,
        bandwidth_jitter=duration_jitter,
        seed=rng,
    )


def ior_trace(
    *,
    ranks: int = 32,
    iterations: int = 8,
    segments: int = 2,
    transfer_size: int = 2 * MIB,
    block_size: int = 10 * MIB,
    compute_time: float = 90.0,
    compute_jitter: float = 0.02,
    aggregate_bandwidth: float | None = None,
    io_phase_duration: float = 10.0,
    start_offset: float = 0.0,
    duration_jitter: float = 0.05,
    seed: SeedLike = None,
) -> Trace:
    """Generate a periodic IOR-like trace: ``iterations`` × (compute, write).

    Parameters mirror IOR's: each iteration writes ``segments`` blocks of
    ``block_size`` bytes per rank in ``transfer_size`` requests.  The trace's
    ground truth records the phase boundaries and the mean period.

    When ``aggregate_bandwidth`` is ``None`` it is derived so that one I/O
    phase lasts ``io_phase_duration`` seconds regardless of the rank count —
    on the real cluster the phase length is set by the shared file system, not
    by the per-node volume, and this keeps small laptop-scale configurations
    representative of the paper's runs (8 iterations, a period of about 112 s,
    I/O phases of 10–20 s on 9216 ranks).
    """
    check_positive_int(iterations, "iterations")
    check_positive_int(segments, "segments")
    check_positive(compute_time, "compute_time")
    check_non_negative(start_offset, "start_offset")
    check_non_negative(compute_jitter, "compute_jitter")
    check_positive(io_phase_duration, "io_phase_duration")
    rng = as_generator(seed)

    volume_per_rank = segments * block_size
    if aggregate_bandwidth is None:
        aggregate_bandwidth = ranks * volume_per_rank / io_phase_duration
    check_positive(aggregate_bandwidth, "aggregate_bandwidth")
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(transfer_size, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
    )

    pieces = []
    phases = []
    cursor = start_offset
    for _ in range(iterations):
        cursor += float(max(rng.normal(compute_time, compute_time * compute_jitter), 0.0))
        pieces.append(
            generate_phase(spec, start=cursor, bandwidth_jitter=duration_jitter, seed=rng)
        )
        phases.append(phase_of(pieces[-1]))
        cursor = phases[-1].end

    return join_phases(
        pieces,
        phases,
        {
            "application": "ior",
            "ranks": ranks,
            "iterations": iterations,
            "segments": segments,
            "transfer_size": transfer_size,
            "block_size": block_size,
        },
    )


def ior_periodic_job_trace(
    *,
    period: float,
    io_fraction: float = 0.0625,
    iterations: int = 10,
    ranks: int = 8,
    aggregate_bandwidth: float = 5e9,
    request_size: int = 1 * MIB,
    start_offset: float = 0.0,
    seed: SeedLike = None,
) -> Trace:
    """Generate the IOR-derived periodic jobs of the Set-10 experiment (Section IV).

    Each job runs ``iterations`` iterations of a fixed ``period``; the I/O
    phase occupies ``io_fraction`` of the period (6.25 % in the paper) and the
    rest is compute.  The volume per phase follows from the target bandwidth.
    """
    check_positive(period, "period")
    if not 0.0 < io_fraction < 1.0:
        raise ValueError(f"io_fraction must be in (0, 1), got {io_fraction}")
    rng = as_generator(seed)
    io_time = period * io_fraction
    compute_time = period - io_time
    volume_per_rank = max(int(aggregate_bandwidth * io_time / ranks), request_size)
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(request_size, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
    )
    pieces = []
    phases = []
    cursor = start_offset
    for _ in range(iterations):
        cursor += compute_time
        pieces.append(generate_phase(spec, start=cursor, bandwidth_jitter=0.02, seed=rng))
        phases.append(phase_of(pieces[-1]))
        cursor = phases[-1].end
    return join_phases(
        pieces,
        phases,
        {
            "application": "ior-periodic-job",
            "ranks": ranks,
            "period": period,
            "io_fraction": io_fraction,
        },
        mean_period=period,
    )
