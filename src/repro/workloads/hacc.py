"""HACC-IO-like workload generator (Figures 12–15).

HACC-IO mimics one I/O phase of the HACC cosmology code; the paper wraps its
compute/write/read/verify steps in a loop so that the pattern repeats
periodically, flushing the tracer at the end of every loop iteration.  Key
properties reproduced here:

* about 10 I/O phases with a mean period of ≈ 8.7 s,
* the first phase is significantly delayed/prolonged by initialization
  (the paper observes it spanning 4.1 s to 15.3 s), which pushes the offline
  detection towards two close dominant-frequency candidates,
* each phase contains a write step followed by a read step,
* high aggregate bandwidth (tens of GB/s on 3072 ranks).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.constants import MIB
from repro.trace.record import IOKind
from repro.trace.trace import Trace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int
from repro.workloads.phases import PhaseSpec, generate_phase, join_phases, phase_of


def hacc_io_trace(
    *,
    ranks: int = 64,
    loops: int = 10,
    period: float = 8.0,
    io_fraction: float = 0.25,
    first_phase_delay: float = 6.0,
    aggregate_bandwidth: float = 40e9,
    request_size: int = 8 * MIB,
    period_jitter: float = 0.04,
    include_reads: bool = True,
    seed: SeedLike = None,
) -> Trace:
    """Generate a HACC-IO-like looped compute/write/read trace.

    Parameters
    ----------
    ranks:
        Number of simulated MPI ranks (the paper used 3072; the default is
        smaller to keep request counts laptop-friendly — the signal shape only
        depends on the aggregate bandwidth and timing).
    loops:
        Number of loop iterations (I/O phases).
    period:
        Nominal time between the starts of consecutive I/O phases (s).
    io_fraction:
        Fraction of the period spent in the write+read steps.
    first_phase_delay:
        Extra initialization time added before (and stretching) the first
        phase, reproducing the delayed first phase observed in the paper.
    period_jitter:
        Relative jitter on the compute time of each loop.
    include_reads:
        Whether to emit the read-back step after each write.
    """
    check_positive_int(ranks, "ranks")
    check_positive_int(loops, "loops")
    check_positive(period, "period")
    check_positive(aggregate_bandwidth, "aggregate_bandwidth")
    if not 0.0 < io_fraction < 1.0:
        raise ValueError(f"io_fraction must be in (0, 1), got {io_fraction}")
    rng = as_generator(seed)

    io_time = period * io_fraction
    write_time = io_time * (0.6 if include_reads else 1.0)
    read_time = io_time - write_time if include_reads else 0.0
    compute_time = period - io_time

    write_volume_per_rank = max(int(aggregate_bandwidth * write_time / ranks), request_size)
    write_spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=write_volume_per_rank,
        request_size=min(request_size, write_volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
        kind=IOKind.WRITE,
    )
    read_spec = None
    if include_reads and read_time > 0:
        read_volume_per_rank = max(int(aggregate_bandwidth * read_time / ranks), request_size)
        read_spec = PhaseSpec(
            ranks=ranks,
            volume_per_rank=read_volume_per_rank,
            request_size=min(request_size, read_volume_per_rank),
            rank_bandwidth=aggregate_bandwidth / ranks,
            kind=IOKind.READ,
        )

    pieces = []
    phases = []
    flush_times: list[float] = []
    cursor = 0.0
    for loop in range(loops):
        jitter = float(np.clip(rng.normal(1.0, period_jitter), 0.5, 2.0))
        this_compute = compute_time * jitter
        if loop == 0:
            this_compute += first_phase_delay
        cursor += this_compute

        # The first phase is also stretched (slower effective bandwidth).
        stretch = 2.0 if loop == 0 and first_phase_delay > 0 else 1.0
        write = replace(write_spec, rank_bandwidth=write_spec.rank_bandwidth / stretch)
        steps = [generate_phase(write, start=cursor, bandwidth_jitter=0.03, seed=rng)]
        if read_spec is not None:
            steps.append(
                generate_phase(read_spec, start=steps[0].t_end, bandwidth_jitter=0.03, seed=rng)
            )
        pieces.extend(steps)
        phases.append(phase_of(*steps, label=f"loop-{loop}"))
        cursor = phases[-1].end
        flush_times.append(cursor)

    return join_phases(
        pieces,
        phases,
        {
            "application": "hacc-io",
            "ranks": ranks,
            "loops": loops,
            "nominal_period": period,
            "flush_times": flush_times,
        },
    )


def hacc_flush_times(trace: Trace) -> list[float]:
    """Return the per-loop flush times recorded by :func:`hacc_io_trace`."""
    times = trace.metadata.get("flush_times")
    if not times:
        # Fall back to the phase ends from the ground truth.
        if trace.ground_truth is None:
            return []
        return [p.end for p in trace.ground_truth.phases]
    return list(times)
