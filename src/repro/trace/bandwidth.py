"""Application-level bandwidth signal built from individual I/O requests.

Section II-A of the paper: the tracer records individual requests per rank and
the analysis script evaluates "the overlapping of the requests (i.e.,
bandwidth at the application level) ... with a linear complexity with the
number of I/O requests".  This module implements exactly that: each request is
modelled as a constant transfer rate ``bytes / duration`` over its lifetime,
and the application-level signal is the sum of the rates of all requests
active at a given instant — a piecewise-constant function of time.

The construction is an event sweep over the 2·n request boundaries, i.e.
O(n log n) for the sort and O(n) for the sweep, fully vectorized in numpy.

**One implementation of each step.**  The arithmetic lives in the private
array-level helpers below (``_kind_columns`` → ``_sweep`` → ``_clip`` /
``_values_at`` / ``_cumulative_volume``), which take and return plain
``(times, values)`` arrays and validate nothing but their own degenerate
cases.  :func:`bandwidth_signal` and the :class:`BandwidthSignal` methods wrap
them — the dataclass constructor is where outside arrays are checked — and
:func:`repro.trace.sampling.discretize_trace` chains the same helpers without
the wrappers, so the online hot path and the public composed route cannot
drift apart: they are the same floating-point operations in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.exceptions import EmptyTraceError
from repro.trace.record import IOKind
from repro.trace.trace import Trace

#: Requests shorter than this (seconds) are treated as instantaneous point
#: transfers and spread over this width instead, to keep rates finite.
_MIN_REQUEST_DURATION = 1e-9

_Columns = tuple[NDArray[np.float64], NDArray[np.float64]]


# --------------------------------------------------------------------- #
# array-level steps (shared with repro.trace.sampling)
# --------------------------------------------------------------------- #
def _kind_columns(
    trace: Trace, kind: str | None
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """``(starts, ends, nbytes)`` of the requests of ``kind`` (``None``: all), as float64.

    The columns are the trace's own when every request matches — nothing
    downstream writes to them.
    """
    starts, ends, nbytes = trace.starts, trace.ends, trace.nbytes
    if kind is not None:
        matches = trace.kinds == IOKind(kind).value
        if not matches.all():
            starts, ends, nbytes = starts[matches], ends[matches], nbytes[matches]
    if len(starts) == 0:
        raise EmptyTraceError("cannot build a bandwidth signal from an empty trace")
    return (
        np.asarray(starts, dtype=np.float64),
        np.asarray(ends, dtype=np.float64),
        np.asarray(nbytes, dtype=np.float64),
    )


def _sweep(
    starts: NDArray[np.float64], ends: NDArray[np.float64], nbytes: NDArray[np.float64]
) -> _Columns:
    """Event sweep: segment boundaries and the summed rate on each segment.

    The running sum covers *every* event handed in, in time order — a caller
    that wants a window clips the result (:func:`_clip`); starting the sum at
    the window would round differently.
    """
    durations = np.maximum(ends - starts, _MIN_REQUEST_DURATION)
    ends = starts + durations
    rates = nbytes / durations

    # +rate at each start, -rate at each end.
    boundaries = np.concatenate([starts, ends])
    deltas = np.concatenate([rates, -rates])
    order = boundaries.argsort(kind="stable")
    boundaries = boundaries[order]
    deltas = deltas[order]

    # Collapse identical timestamps so segments have strictly positive width:
    # ``np.unique(boundaries, return_inverse=True)`` without its second sort.
    first = np.empty(len(boundaries), dtype=np.bool_)
    first[0] = True
    np.not_equal(boundaries[1:], boundaries[:-1], out=first[1:])
    if math.isnan(boundaries[-1]):
        # NaNs sort last and count as one timestamp, as np.unique has it.
        first[boundaries.searchsorted(np.nan) + 1 :] = False
    times = boundaries[first]
    # Deltas sharing a timestamp are added one by one in sorted order (what
    # ``np.add.at`` does): a pairwise sum would round differently.
    delta_per_time = np.bincount(first.cumsum() - 1, weights=deltas, minlength=len(times))

    active = delta_per_time.cumsum()[:-1]
    # Numerical noise can leave tiny (or tiny negative) rates after full
    # cancellation; negative rates are clamped with them.
    active = np.where(active < 1e-6, 0.0, active)
    return times, active


def _values_at(
    times: NDArray[np.float64], values: NDArray[np.float64], t: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Value of the segment containing each ``t`` (left-inclusive), 0 outside the range.

    ``values`` is not empty.
    """
    idx = times.searchsorted(t, side="right") - 1
    out = values.take(idx, mode="clip")
    out[(idx < 0) | ~(t < times[-1])] = 0.0
    return out


def _cumulative_volume(
    times: NDArray[np.float64], values: NDArray[np.float64], t: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Bytes transferred from ``times[0]`` up to each ``t`` (exact: piecewise linear).

    ``np.interp`` holds the end values outside the range, which is the
    clipping of ``t`` to ``[times[0], times[-1]]``.
    """
    cumulative = np.empty(len(times))
    cumulative[0] = 0.0
    np.cumsum(values * (times[1:] - times[:-1]), out=cumulative[1:])
    return np.interp(t, times, cumulative)


def _clip(
    times: NDArray[np.float64], values: NDArray[np.float64], t0: float, t1: float
) -> _Columns:
    """Restrict (and clip) a signal to the window ``[t0, t1]``.

    Each clipped segment takes the value found at its midpoint, so a segment
    one ulp wide resolves exactly as it always has.
    """
    if t1 <= t0:
        raise ValueError(f"window end ({t1}) must be > start ({t0})")
    t0 = max(t0, float(times[0]))
    t1 = min(t1, float(times[-1]))
    if t1 <= t0 or len(values) == 0:
        t1 = max(t1, t0 + _MIN_REQUEST_DURATION)
        if t1 <= t0:
            # t0 is too large for the placeholder width to register.
            raise ValueError("segment boundaries must be strictly increasing")
        return np.array([t0, t1]), np.array([0.0])
    lo = times.searchsorted(t0, side="right")
    hi = times.searchsorted(t1, side="left")
    clipped = np.empty(hi - lo + 2)
    clipped[0] = t0
    clipped[1:-1] = times[lo:hi]
    clipped[-1] = t1
    mids = 0.5 * (clipped[:-1] + clipped[1:])
    return clipped, _values_at(times, values, mids)


@dataclass(frozen=True)
class BandwidthSignal:
    """A piecewise-constant bandwidth-over-time signal.

    Attributes
    ----------
    times:
        Segment boundaries, length ``m + 1``, strictly increasing.
    values:
        Bandwidth (bytes/s) on each of the ``m`` segments ``[times[i], times[i+1])``.
    """

    times: NDArray[np.float64]
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) + 1:
            raise ValueError(
                f"times must have exactly one more entry than values "
                f"({len(self.times)} vs {len(self.values)})"
            )
        if len(self.values) and np.any(np.diff(self.times) <= 0):
            raise ValueError("segment boundaries must be strictly increasing")

    # -------------------------------------------------------------- #
    @property
    def t_start(self) -> float:
        """First instant covered by the signal."""
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        """Last instant covered by the signal."""
        return float(self.times[-1])

    @property
    def duration(self) -> float:
        """Length of the covered time range in seconds."""
        return self.t_end - self.t_start

    @property
    def segment_durations(self) -> NDArray[np.float64]:
        """Length of each piecewise-constant segment."""
        return np.diff(self.times)

    def volume(self) -> float:
        """Total number of bytes represented by the signal (integral of bandwidth)."""
        if len(self.values) == 0:
            return 0.0
        return float(np.dot(self.values, self.segment_durations))

    def max_bandwidth(self) -> float:
        """Peak instantaneous bandwidth of the signal."""
        if len(self.values) == 0:
            return 0.0
        return float(self.values.max())

    # -------------------------------------------------------------- #
    def at(self, t: ArrayLike) -> NDArray[np.float64]:
        """Evaluate the signal at time(s) ``t``.

        Points outside the covered range evaluate to 0.  Within the range the
        value of the segment containing ``t`` is returned (left-inclusive).
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if len(self.values) == 0:
            return np.zeros_like(t_arr)
        return _values_at(self.times, self.values, t_arr)

    def cumulative_volume(self, t: ArrayLike) -> NDArray[np.float64]:
        """Bytes transferred from :attr:`t_start` up to time(s) ``t``.

        The cumulative volume of a piecewise-constant rate is piecewise linear,
        so it can be evaluated exactly with linear interpolation between the
        segment boundaries.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if len(self.values) == 0:
            return np.zeros_like(t_arr)
        return _cumulative_volume(self.times, self.values, t_arr)

    def mean_bandwidth(self) -> float:
        """Average bandwidth over the covered range (the V(T)/L(T) threshold)."""
        if self.duration == 0.0:
            return 0.0
        return self.volume() / self.duration

    def restricted(self, t0: float, t1: float) -> "BandwidthSignal":
        """Return the signal restricted (and clipped) to the window [t0, t1]."""
        times, values = _clip(self.times, self.values, t0, t1)
        return BandwidthSignal(times=times, values=values)


def bandwidth_signal(trace: Trace, *, kind: str | None = "write") -> BandwidthSignal:
    """Compute the application-level bandwidth signal of ``trace``.

    Parameters
    ----------
    trace:
        The trace to analyse.
    kind:
        Restrict to ``"write"`` or ``"read"`` requests, or ``None`` to use all.
        The paper's analysis focuses on writes by default.

    Returns
    -------
    BandwidthSignal
        The piecewise-constant sum of the per-request transfer rates.
    """
    times, values = _sweep(*_kind_columns(trace, kind))
    return BandwidthSignal(times=times, values=values)


def phase_boundaries(signal: BandwidthSignal, *, threshold: float = 0.0) -> list[tuple[float, float]]:
    """Return the maximal time intervals during which the bandwidth exceeds ``threshold``.

    This is a helper for ground-truth-style inspection and for the R_IO /
    B_IO characterization (Section II-C): with ``threshold = V(T)/L(T)`` the
    returned intervals are the "substantial I/O" subset S of the trace.
    """
    if len(signal.values) == 0:
        return []
    above = signal.values > threshold
    # A run of above-threshold segments starts right after a 0->1 flip and ends
    # right after a 1->0 flip; the edges of the signal close half-open runs.
    flips = np.diff(above.astype(np.int8))
    rises = np.flatnonzero(flips == 1) + 1
    falls = np.flatnonzero(flips == -1) + 1
    if above[0]:
        rises = np.concatenate([[0], rises])
    starts = signal.times[rises]
    ends = signal.times[falls]
    if above[-1]:
        ends = np.concatenate([ends, [signal.times[-1]]])
    return [(float(t0), float(t1)) for t0, t1 in zip(starts, ends)]
