"""Noise-trace generation for the limitation study (Section III-A).

The paper emulates background I/O noise with 200 traces of single-process IOR
runs in two configurations — "low" noise of roughly 500 MB/s and "high" noise
of roughly 1 GB/s — each containing 10 short periods of about 2.2 s.  Noise is
added to an application trace by randomly selecting a sequence of noise traces
and overlaying them on the application's time range.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.constants import MIB
from repro.trace.record import IOKind
from repro.trace.trace import Trace, merge_traces
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive
from repro.workloads.phases import request_sizes


class NoiseLevel(str, Enum):
    """The two noise configurations used in the paper."""

    NONE = "none"
    LOW = "low"  # about 500 MB/s
    HIGH = "high"  # about 1 GB/s

    @property
    def bandwidth(self) -> float:
        """Nominal bandwidth of the noise bursts in bytes/s."""
        if self is NoiseLevel.LOW:
            return 500e6
        if self is NoiseLevel.HIGH:
            return 1e9
        return 0.0


def noise_trace(
    *,
    level: NoiseLevel | str = NoiseLevel.LOW,
    periods: int = 10,
    period_length: float = 2.2,
    duty_cycle: float = 0.5,
    rank: int = 0,
    start: float = 0.0,
    seed: SeedLike = None,
) -> Trace:
    """Generate one single-process noise trace (10 bursts of ~2.2 s by default)."""
    level = NoiseLevel(level)
    check_positive(period_length, "period_length")
    check_non_negative(start, "start")
    if not 0.0 < duty_cycle <= 1.0:
        raise ValueError(f"duty_cycle must be in (0, 1], got {duty_cycle}")
    rng = as_generator(seed)
    if level is NoiseLevel.NONE:
        return Trace.empty()
    metadata = {"application": "noise", "level": level.value}
    starts, ends, sizes = [], [], []
    for i in range(periods):
        burst_start = start + i * period_length
        burst_length = period_length * duty_cycle * float(rng.uniform(0.8, 1.2))
        nbytes = int(level.bandwidth * burst_length)
        if nbytes <= 0:
            continue
        # Split the burst into 1 MiB requests issued back to back, as IOR would.
        chunks = request_sizes(nbytes, MIB)
        request_duration = burst_length * MIB / nbytes if nbytes >= MIB else burst_length
        edges = np.cumsum(np.concatenate(([burst_start], request_duration * (chunks / MIB))))
        starts.append(edges[:-1])
        ends.append(edges[1:])
        sizes.append(chunks)
    if not sizes:
        return Trace.empty().with_metadata(**metadata)
    nbytes_column = np.concatenate(sizes)
    return Trace.from_columns(
        np.concatenate(starts),
        np.concatenate(ends),
        nbytes_column,
        np.full(nbytes_column.size, rank, dtype=np.int64),
        np.full(nbytes_column.size, IOKind.WRITE.value),
        metadata=metadata,
    )


def add_noise(
    trace: Trace,
    *,
    level: NoiseLevel | str = NoiseLevel.LOW,
    seed: SeedLike = None,
) -> Trace:
    """Overlay background noise over the full time range of ``trace``.

    Noise traces are generated back to back until the application's duration
    is covered, then merged with the original requests.  The ground truth of
    the application trace is preserved (the noise is not part of the phases).
    """
    level = NoiseLevel(level)
    if level is NoiseLevel.NONE or trace.is_empty:
        return trace
    rng = as_generator(seed)
    noise_rank = int(trace.ranks.max()) + 1 if len(trace) else 0
    pieces: list[Trace] = []
    cursor = trace.t_start
    while cursor < trace.t_end:
        piece = noise_trace(
            level=level,
            rank=noise_rank,
            start=cursor,
            seed=rng,
        )
        if piece.is_empty:
            break
        pieces.append(piece)
        cursor = piece.t_end + float(rng.uniform(0.0, 1.0))
    merged = merge_traces([trace, *pieces], metadata=dict(trace.metadata))
    return merged.with_ground_truth(trace.ground_truth) if trace.ground_truth else merged
