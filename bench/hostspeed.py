"""How fast the host is right now, so timings can be stated for a fixed host.

The benchmark runs on a few cores of a shared machine whose speed moves under
it: the same pure-Python loop takes 0.29-0.53 CPU-seconds within ten seconds,
and the whole machine shifts by a factor of up to 1.8 for minutes at a time
(``stream_many_small`` read 1 360 flushes/s on six consecutive seeds and 760
on the next four).  No statistic of wall times repeats within any bound
across such a shift.

So every timed phase interleaves its work with a small fixed *calibration
kernel* — half interpreter work, half ``numpy.fft`` — and divides its timings
by ``median(kernel seconds) / REFERENCE_SECONDS``: the metrics read as they
would on a host on which the kernel takes exactly ``REFERENCE_SECONDS``.  Over
25 minutes of alternating kernel and ``stream_many_small`` rounds the raw round
median moved between 196 and 399 ms (interquartile spread 32 % of the median)
and the round/kernel ratio spread 9 %.  A change to the program moves the
normalised metrics exactly as it moves the raw ones; the raw values, the
scales and the samples are in every result file.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: The kernel's duration on the reference host [s] — this sandbox in its fast
#: state, so a scale near 1 means "as fast as the machine gets".
REFERENCE_SECONDS = 0.004

_SIGNAL = np.random.default_rng(0).standard_normal(32768)


def _kernel() -> None:
    total = 0
    table: dict[int, int] = {}
    for i in range(16000):
        total += (i * i) % 7
        table[i & 63] = total
    for _ in range(8):
        np.fft.rfft(_SIGNAL)


class HostSpeed:
    """Calibration samples of one timed phase and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, seconds: float = 0.0) -> None:
        """Run the kernel (about 4 ms) and record how long it took — once, or
        again and again until ``seconds`` have gone into it."""
        until = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            _kernel()
            ended = time.perf_counter()
            self.samples.append(ended - started)
            if ended >= until:
                return

    @property
    def spent(self) -> float:
        """Seconds the samples themselves took (not the measured work's)."""
        return sum(self.samples)

    @property
    def scale(self) -> float:
        """Host slowness relative to the reference: > 1 on a slower host.

        Divide a duration by it (multiply a rate) to state it for the
        reference host.
        """
        return median(self.samples) / REFERENCE_SECONDS
