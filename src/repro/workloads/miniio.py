"""miniIO-like workload generator (Figure 6, the aliasing example).

The paper runs the miniIO *unstruct* mini-app (unstructured grids, 1000 points
per task) on 144 ranks and shows that a sampling frequency of 100 Hz is *not*
sufficient: the discrete signal misses most of the extremely short bursts and
the abstraction error (volume difference between the discrete and the original
signal) is far too large to trust any detected period.

The generator therefore produces many very short, sub-10-ms bursts: sampling
at 100 Hz (10 ms spacing) lands between most bursts, while a sufficiently
higher rate captures them — which is exactly the behaviour experiment E4
demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MIB
from repro.trace.record import GroundTruth, IOKind, IOPhase
from repro.trace.trace import Trace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int


def miniio_trace(
    *,
    ranks: int = 144,
    bursts: int = 40,
    burst_interval: float = 0.5,
    burst_duration: float = 0.004,
    burst_volume: int = 8 * MIB,
    interval_jitter: float = 0.05,
    seed: SeedLike = None,
) -> Trace:
    """Generate a miniIO-like trace of very short periodic bursts.

    Parameters
    ----------
    ranks:
        Ranks participating in each burst (the volume is split among them).
    bursts:
        Number of output bursts.
    burst_interval:
        Nominal spacing between burst starts (seconds).
    burst_duration:
        Length of each burst — a few milliseconds, far below typical sampling
        intervals, which is what provokes the aliasing.
    burst_volume:
        Bytes written per burst across all ranks.
    """
    check_positive_int(ranks, "ranks")
    check_positive_int(bursts, "bursts")
    check_positive(burst_interval, "burst_interval")
    check_positive(burst_duration, "burst_duration")
    check_positive_int(burst_volume, "burst_volume")
    rng = as_generator(seed)

    volume_per_rank = max(burst_volume // ranks, 1)
    gaps = rng.normal(burst_interval, burst_interval * interval_jitter, size=bursts)
    gaps = np.maximum(gaps, 0.01)
    # Each burst starts a gap after the previous one ends: the running sums of
    # [gap_1, duration, gap_2, duration, ...] are start_1, end_1, start_2, ...
    edges = np.cumsum(np.column_stack([gaps, np.full(bursts, float(burst_duration))]).ravel())
    starts, ends = edges[0::2], edges[1::2]
    phases = [
        IOPhase(start=float(s), end=float(e), nbytes=volume_per_rank * ranks, label=f"burst-{b}")
        for b, (s, e) in enumerate(zip(starts, ends))
    ]
    return Trace.from_columns(
        np.repeat(starts, ranks),
        np.repeat(ends, ranks),
        np.full(bursts * ranks, volume_per_rank, dtype=np.int64),
        np.tile(np.arange(ranks, dtype=np.int64), bursts),
        np.full(bursts * ranks, IOKind.WRITE.value),
        ground_truth=GroundTruth(phases=tuple(phases)),
        metadata={
            "application": "miniio",
            "ranks": ranks,
            "bursts": bursts,
            "burst_interval": burst_interval,
            "burst_duration": burst_duration,
        },
    )
