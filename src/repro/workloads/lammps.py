"""LAMMPS-like workload generator (Figure 10).

The paper runs the LAMMPS 2-d Lennard-Jones flow example for 300 steps,
dumping all atoms every 20 steps on 3072 ranks: 15 dump phases with a real
mean period of 27.38 s, *low* I/O bandwidth (the dump is written through a
slow text-based path), and noticeable variability — FTIO detects 25.73 s with
a moderate 55 % confidence, refined to 84.9 % by the autocorrelation.

The generator reproduces those characteristics: periodic low-bandwidth dump
phases whose period and duration wobble around the configured means, plus an
occasional extra straggler dump (the paper points at a misaligned phase near
143 s) to keep the confidence moderate rather than perfect.
"""

from __future__ import annotations

from repro.constants import MIB
from repro.trace.record import IOKind
from repro.trace.trace import Trace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int
from repro.workloads.phases import PhaseSpec, generate_phase, join_phases, phase_of


def lammps_trace(
    *,
    ranks: int = 48,
    dumps: int = 15,
    dump_interval: float = 27.4,
    dump_volume: int = 256 * MIB,
    aggregate_bandwidth: float = 30e6,
    interval_jitter: float = 0.08,
    straggler_probability: float = 0.15,
    seed: SeedLike = None,
) -> Trace:
    """Generate a LAMMPS-like low-bandwidth periodic dump trace.

    Parameters
    ----------
    ranks:
        Simulated writer ranks (the trace shape matters, not the count).
    dumps:
        Number of dump phases (300 steps / dump-every-20 = 15 in the paper).
    dump_interval:
        Mean time between dump starts (the paper's real mean period: 27.38 s).
    dump_volume:
        Bytes written per dump across all ranks.
    aggregate_bandwidth:
        Effective dump bandwidth; LAMMPS text dumps are slow (tens of MB/s in
        the paper's run, which is why the dump phases span several seconds).
    interval_jitter:
        Relative standard deviation of the interval between dumps.
    straggler_probability:
        Probability that a dump is significantly delayed (the misaligned phase
        the paper points out), keeping the DFT confidence moderate.
    """
    check_positive_int(ranks, "ranks")
    check_positive_int(dumps, "dumps")
    check_positive(dump_interval, "dump_interval")
    check_positive(aggregate_bandwidth, "aggregate_bandwidth")
    rng = as_generator(seed)

    volume_per_rank = max(dump_volume // ranks, MIB)
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(4 * MIB, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
        kind=IOKind.WRITE,
    )

    pieces = []
    phases = []
    cursor = 0.0
    for dump in range(dumps):
        gap = float(max(rng.normal(dump_interval, dump_interval * interval_jitter), 1.0))
        if rng.uniform() < straggler_probability:
            gap *= float(rng.uniform(1.2, 1.5))
        io_start = cursor + gap - spec.nominal_duration
        io_start = max(io_start, cursor)
        pieces.append(generate_phase(spec, start=io_start, bandwidth_jitter=0.1, seed=rng))
        phases.append(phase_of(pieces[-1], label=f"dump-{dump}"))
        cursor += gap

    return join_phases(
        pieces,
        phases,
        {
            "application": "lammps",
            "ranks": ranks,
            "dumps": dumps,
            "dump_interval": dump_interval,
        },
    )
