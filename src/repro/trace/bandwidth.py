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
row-block helpers below (``_kind_columns`` → ``_sweep`` → ``_clip`` /
``_cumulative``), which take and return many signals at once as padded
blocks (:class:`_Rows`) and validate nothing but their own degenerate cases.
:func:`bandwidth_signal` and the :class:`BandwidthSignal` methods wrap them
with a block of one row — the dataclass constructor is where outside arrays
are checked — and :func:`repro.trace.sampling.discretize_windows` chains the
same helpers over every window a pump claimed, so the online hot path and
the public composed route cannot drift apart: they are the same
floating-point operations in the same order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
# row-block steps (shared with repro.trace.sampling)
# --------------------------------------------------------------------- #
class _Rows(NamedTuple):
    """k piecewise-constant signals as one padded block.

    Row ``r`` holds ``lengths[r]`` boundaries at the front of ``times[r]``
    and one value per segment at the front of ``values[r]`` (one column
    narrower); no step reads what lies past them.
    """

    times: NDArray[np.float64]
    values: NDArray[np.float64]
    lengths: NDArray[np.intp]


def _kind_columns(
    traces: Sequence[Trace], kinds: Sequence[str | None]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.intp]]:
    """The requests of each trace of its kind, end to end, as float64 columns.

    ``kinds[r]`` is an :class:`IOKind` value or ``None`` (every request).
    Returns ``(starts, ends, nbytes, counts)``: the kept requests of all
    traces in order, and how many each trace kept.  A lone trace's columns
    are its own when every request is kept — nothing downstream writes to them.
    """

    def joined(column: str) -> NDArray:
        if len(traces) == 1:
            return getattr(traces[0], column)
        return np.concatenate([getattr(trace, column) for trace in traces])

    sizes = np.array([len(trace.starts) for trace in traces], dtype=np.intp)
    starts, ends, nbytes = joined("starts"), joined("ends"), joined("nbytes")
    wanted = set(kinds)
    if wanted != {None}:
        labels = joined("kinds")
        if len(wanted) == 1:
            keep = labels == kinds[0]
        else:
            keep = labels == np.repeat(np.array([kind or "" for kind in kinds]), sizes)
            keep |= np.repeat(np.array([kind is None for kind in kinds]), sizes)
        if not keep.all():
            starts, ends, nbytes = starts[keep], ends[keep], nbytes[keep]
            if len(traces) == 1:
                sizes = np.array([len(starts)])
            else:
                bounds = np.zeros(len(sizes) + 1, dtype=np.intp)
                np.cumsum(sizes, out=bounds[1:])
                sizes = np.diff(np.flatnonzero(keep).searchsorted(bounds))
    return (
        np.asarray(starts, dtype=np.float64),
        np.asarray(ends, dtype=np.float64),
        np.asarray(nbytes, dtype=np.float64),
        sizes,
    )


def _sweep(
    starts: NDArray[np.float64],
    ends: NDArray[np.float64],
    nbytes: NDArray[np.float64],
    counts: NDArray[np.intp],
) -> _Rows:
    """Event sweep of every row at once: segment boundaries and summed rates.

    Row ``r`` is the next ``counts[r]`` requests of the columns.  Each row's
    running sum covers *every* event of the row, in time order — a caller that
    wants a window clips the result (:func:`_clip`); starting the sum at the
    window would round differently.  A row with no request has no boundary.

    Rows are padded with NaN to a ``(k, 2·max m)`` block; a stable sort puts
    the padding after the row's own events, its own NaNs included, so each
    row sorts, collapses and accumulates exactly as it would alone.
    """
    k = len(counts)
    sizes = counts.tolist()
    least, most = min(sizes), max(sizes)
    width = 2 * most
    durations = np.maximum(ends - starts, _MIN_REQUEST_DURATION)
    ends = starts + durations
    rates = nbytes / durations

    # +rate at each start, -rate at each end; row r's events at the front of
    # its row, starts then ends, the layout np.concatenate([starts, ends])
    # hands the stable sort of a row alone.
    padded = least < most
    if padded:
        column = np.arange(width)
        events = np.full((k, width), np.nan)
        deltas = np.zeros((k, width))
        for lo, hi, at_events, at_deltas in ((0, 1, starts, rates), (1, 2, ends, -rates)):
            at = (column >= lo * counts[:, None]) & (column < hi * counts[:, None])
            events[at] = at_events
            deltas[at] = at_deltas
    else:  # every row full: the halves are reshapes
        events = np.concatenate([starts.reshape(k, most), ends.reshape(k, most)], axis=1)
        deltas = np.concatenate([rates.reshape(k, most), -rates.reshape(k, most)], axis=1)
    order = events.argsort(axis=1, kind="stable")
    if k > 1:  # into the flattened block
        order += (np.arange(k) * width)[:, None]
    events = events.take(order)
    deltas = deltas.take(order)

    # Collapse identical timestamps so segments have strictly positive width:
    # ``np.unique(boundaries, return_inverse=True)`` without its second sort.
    # NaNs sort last and count as one timestamp, as np.unique has it; the
    # padding is never a timestamp.
    first = np.empty((k, width), dtype=np.bool_)
    first[:, :1] = True
    np.not_equal(events[:, 1:], events[:, :-1], out=first[:, 1:])
    if padded:
        first &= column < 2 * counts[:, None]
    if padded or (width and np.isnan(events[:, -1]).any()):
        first[:, 1:] &= ~np.isnan(events[:, :-1])
    # Deltas sharing a timestamp are added one by one in sorted order (what
    # ``np.add.at`` does): a pairwise sum would round differently.  Event
    # (r, c) goes to slot 1 + r·span + its segment of the (k, span) block
    # shifted by one: a row's padding adds +0.0 to the row's last segment,
    # which no sum started at +0.0 notices, and an empty row's to the slot
    # before it (slot 0, dropped, for row 0).
    slot = first.cumsum(axis=1, dtype=np.intp)
    lengths = slot[:, -1].copy() if width else np.zeros(k, dtype=np.intp)
    each = lengths.tolist()
    span = max(each)
    if k > 1:
        slot += (np.arange(k) * span)[:, None]
    per_time = np.bincount(slot.reshape(-1), weights=deltas.reshape(-1), minlength=k * span + 1)
    times = events[first]
    if min(each) == span:
        times = times.reshape(k, span)
    else:
        times_block = np.full((k, span), np.nan)
        times_block[np.arange(span) < lengths[:, None]] = times
        times = times_block
    # A zero-padded 2-D cumsum runs along each row, as the row's own would.
    active = per_time[1:].reshape(k, span)[:, :-1].cumsum(axis=1)
    # Numerical noise can leave tiny (or tiny negative) rates after full
    # cancellation; negative rates are clamped with them.
    active[active < 1e-6] = 0.0
    return _Rows(times, active, lengths)


def _clip(
    rows: _Rows, t0: NDArray[np.float64], t1: NDArray[np.float64]
) -> tuple[_Rows, NDArray[np.bool_]]:
    """Restrict (and clip) every row to its window ``[t0[r], t1[r]]``, ``t0 < t1``.

    Each clipped segment takes the value found at its midpoint, so a segment
    one ulp wide resolves exactly as it always has.  A row that no segment
    reaches into is one empty segment: the window clamped to the row's range,
    1 ns wide at least.  Returns the clipped rows and the rows where that
    placeholder has no width (past ~8e6 s, 1 ns is below an ulp).
    """
    times, values, lengths = rows
    k, width = times.shape
    row = np.arange(k)
    last = times[row, lengths - 1]
    t0 = np.where(times[:, 0] > t0, times[:, 0], t0)
    t1 = np.where(last < t1, last, t1)
    empty = (t1 <= t0) | (lengths < 2)
    no_width = empty
    any_empty = bool(empty.any())
    if any_empty:
        placeholder_end = t0 + _MIN_REQUEST_DURATION
        t1 = np.where(empty & (placeholder_end > t1), placeholder_end, t1)
        no_width = empty & (t1 <= t0)
    if width < 2:  # no row has a segment
        return _Rows(np.stack([t0, t1], axis=1), np.zeros((k, 1)), np.full(k, 2)), no_width
    # One binary search per row (the padding is NaN and sorts last) finds
    # lo = times.searchsorted(t0, "right") and hi = times.searchsorted(t1,
    # "left"): no float lies between t0 and nextafter(t0, inf), so the
    # boundaries below the one are those at or below the other.
    bounds = np.empty((k, 2))
    np.nextafter(t0, np.inf, out=bounds[:, 0])
    bounds[:, 1] = t1
    lo, hi = np.array([row_times.searchsorted(pair) for row_times, pair in zip(times, bounds)]).T
    size = hi - lo + 2
    if any_empty:  # an empty row's lo and hi are not read
        size[empty] = 2

    # A clipped row is t0, the row's boundaries lo .. hi - 1, t1: column j is
    # boundary lo - 1 + j in between (``at``: flat indices into the block).
    # Past its size a row reads whatever the block holds there; no step
    # reads that back.
    lo -= 1
    if k > 1:
        lo += row * width
    at = lo[:, None] + np.arange(size.max())
    source = times.take(at, mode="clip")
    clipped = source.copy()
    clipped[:, 0] = t0
    clipped[row, size - 1] = t1
    mids = 0.5 * (clipped[:, :-1] + clipped[:, 1:])
    # The midpoint of clipped segment j lies in the row's segment lo - 1 + j,
    # or on its right boundary (a segment one ulp wide), then in the next one;
    # past the row's last segment it is zeroed.  (``values`` is one column
    # narrower than ``times``, hence ``- row``.)
    at = at[:, :-1]
    if k > 1:
        at -= row[:, None]
    at += mids >= source[:, 1:]
    keep = mids < last[:, None]
    if any_empty:
        keep &= ~empty[:, None]
    clipped_values = np.where(keep, values.take(at, mode="clip"), 0.0)
    return _Rows(clipped, clipped_values, size), no_width


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


def _cumulative(rows: _Rows) -> NDArray[np.float64]:
    """Bytes transferred from each row's first boundary up to each of its boundaries.

    The cumulative volume of a piecewise-constant rate is piecewise linear, so
    ``np.interp`` over a row of this block is exact between the boundaries and
    holds the end values outside them (the clipping of ``t`` to the row).
    """
    times, values, _ = rows
    cumulative = np.zeros(times.shape)
    (values * (times[:, 1:] - times[:, :-1])).cumsum(axis=1, out=cumulative[:, 1:])
    return cumulative


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
        (cumulative,) = _cumulative(self._as_rows())
        return np.interp(t_arr, self.times, cumulative)

    def mean_bandwidth(self) -> float:
        """Average bandwidth over the covered range (the V(T)/L(T) threshold)."""
        if self.duration == 0.0:
            return 0.0
        return self.volume() / self.duration

    def restricted(self, t0: float, t1: float) -> "BandwidthSignal":
        """Return the signal restricted (and clipped) to the window [t0, t1].

        A window the signal does not reach into is one empty segment, 1 ns
        wide where the window is clamped to nothing.
        """
        if not t1 > t0:
            raise ValueError(f"window end ({t1}) must be > start ({t0})")
        (times, values, (size,)), (no_width,) = _clip(
            self._as_rows(), np.array([float(t0)]), np.array([float(t1)])
        )
        if no_width:
            # t0 is too large for the placeholder width to register.
            raise ValueError("segment boundaries must be strictly increasing")
        return BandwidthSignal(times=times[0, :size], values=values[0, : size - 1])

    def _as_rows(self) -> _Rows:
        """This signal as a block of one row."""
        return _Rows(self.times[None], self.values[None], np.array([len(self.times)]))


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
    starts, ends, nbytes, (count,) = _kind_columns(
        [trace], [None if kind is None else IOKind(kind).value]
    )
    if count == 0:
        raise EmptyTraceError("cannot build a bandwidth signal from an empty trace")
    times, values, (size,) = _sweep(starts, ends, nbytes, np.array([count]))
    return BandwidthSignal(times=times[0, :size], values=values[0, : size - 1])


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
