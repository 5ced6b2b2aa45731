"""Discretization of the bandwidth signal for the frequency analysis.

Section II-B: the continuous bandwidth signal x(t) is discretized with a
sampling frequency ``fs`` to obtain ``N = Δt * fs`` samples, and the period is
read off a DFT bin, f_k = k / Δt.  N must be an integer and Δt·fs is not one,
so something has to give, and it must not be Δt: the online mode (II-D) sizes
its next window from the period it just read, so an analysed span that differs
from the window by a fraction ε moves that loop's fixed point off the true
period — by one sample's worth, 1 / (fs·P), when N is rounded and the rate
kept; by ~4ε when the window is cut to a convenient N.  The signal is
piecewise constant and can be sampled at any rate, so **fs gives, upward**:

* ``N′ = next_fast_len(ceil(Δt·fs), real=True)``, the smallest 5-smooth
  length that samples at least as densely as asked (never Bluestein; windows
  of equal Δt share one N′, which is what lets the service batch them);
* ``fs′ = N′ / Δt`` is the *effective* rate, carried by
  :attr:`DiscreteSignal.sampling_frequency` and read by everything
  downstream, so ``N′ / fs′ = Δt`` and bin k sits at k / Δt exactly.

The requested ``fs`` is therefore a **minimum**: ``fs ≤ fs′``, and fs′ exceeds
it by one 5-smooth gap plus at most one sample — < 4.2 % for Δt·fs ≥ 16 384,
< 6.7 % from 2 048, < 11.2 % from 256, < 20 % from 16, a third from 3, and up
to 2x on the one-to-three-sample windows :func:`repro.freq.dft.dft` rejects
anyway.  Heatmaps, ready-made :class:`DiscreteSignal` objects and
``skip_first_phase`` trimming keep the N they bring.  Windows that ask for
more than ``_MAX_SAMPLES`` samples are refused (:class:`AnalysisError`).

Section II-E discusses the choice of ``fs``: a too-low sampling frequency
causes aliasing, quantified by the *abstraction error* — the volume difference
between the discrete signal and the original one (Figure 6).

Two sampling modes are provided:

``point``
    Sample the instantaneous bandwidth at the sample instants, exactly as the
    formula in the paper states.  This is the default and is what makes the
    abstraction error meaningful (short bursts that fall between two sample
    instants are missed entirely).
``bin``
    Average the bandwidth over each sampling interval (integral / bin width).
    This conserves volume by construction and is useful when consuming
    bin-structured inputs such as Darshan heatmaps.

:func:`discretize_windows` is the funnel every ``Trace`` → :class:`DiscreteSignal`
goes through: the service's pump hands it every window it claimed, once per
pump (:class:`repro.core.online.PrepareBatch`), and :func:`discretize_trace`
— offline (``Ftio.to_signal``) and a predictor preparing alone — is a batch
of one.  It runs the row-block steps of :mod:`repro.trace.bandwidth` back to
back over all rows — kind mask, event sweep, window clip — and samples each
group of rows of equal N as one 2-D block, with no :class:`BandwidthSignal`
in between; only the window search, ``next_fast_len``, ``np.interp``, the
grid search and the :class:`DiscreteSignal` are per row.  Every 2-D step is
one whose rows are bit-identical to the row alone (elementwise operations, a
stable row sort, a sequential row cumsum, a pairwise sum over rows of one
length), so a row does not depend on its batchmates.

A batch of one pays for no step a single row does not take: no chunking, no
padding, no row offsets, no gathering of a group out of the block, and the
clip finds its window by a binary search in the row rather than by comparing
every boundary — work that grows with the window, not with the trace behind
it.  What is left over the arithmetic is a few calls of bookkeeping on
vectors of length one.  :func:`discretize_signal` is the same clip-and-sample
tail (``_discretize``) behind the public dataclass, so the routes agree bit
for bit by construction (``tests/trace/test_sampling.py``,
``tests/trace/test_sampling_batch.py`` and ``tests/trace/test_sampling_rows.py``
hold the properties).  Nothing here validates request columns: a
:class:`Trace` did that when it was built.  A row's own arguments — a rate or
a window that is not a number, an unknown kind — are checked per row, and a
bad one is that row's error, whatever else is in the batch.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.fft import next_fast_len

from repro.exceptions import (
    AnalysisError,
    EmptyTraceError,
    InsufficientSamplesError,
    ReproError,
)
from repro.trace.bandwidth import (
    BandwidthSignal,
    _clip,
    _cumulative,
    _kind_columns,
    _Rows,
    _sweep,
)
from repro.trace.record import IOKind
from repro.trace.trace import Trace
from repro.utils.validation import check_positive

SamplingMode = Literal["point", "bin"]

#: Largest window, in samples, that will be cut (512 MiB of float64): Δt·fs is
#: bounded by nothing else, and one mistyped rate or one stale request would
#: otherwise ask for terabytes.
_MAX_SAMPLES = 1 << 26


@dataclass(frozen=True)
class DiscreteSignal:
    """An evenly sampled bandwidth signal ready for DFT.

    Attributes
    ----------
    samples:
        Bandwidth values x_n (bytes/s), length N.
    sampling_frequency:
        The effective rate fs′ in Hz; consecutive samples are 1/fs′ apart.
        For a signal cut by :func:`discretize_trace` / :func:`discretize_signal`
        this is ``N / Δt`` — at least the rate that was asked for, see the
        module docstring — not the configured minimum.
    t_start:
        Timestamp of the first sample.
    abstraction_error:
        Relative volume difference between the discrete representation and the
        continuous signal it was derived from (0 when unknown).
    mode:
        Sampling mode used to produce the samples.
    """

    samples: NDArray[np.float64]
    sampling_frequency: float
    t_start: float = 0.0
    abstraction_error: float = 0.0
    mode: SamplingMode = "point"

    def __post_init__(self) -> None:
        check_positive(self.sampling_frequency, "sampling_frequency")

    @property
    def n_samples(self) -> int:
        """Number of samples N."""
        return int(len(self.samples))

    @property
    def duration(self) -> float:
        """Time window covered by the samples (N / fs)."""
        return self.n_samples / self.sampling_frequency

    @property
    def times(self) -> NDArray[np.float64]:
        """Absolute timestamps of the samples."""
        return self.t_start + np.arange(self.n_samples) / self.sampling_frequency

    @property
    def frequency_resolution(self) -> float:
        """Spacing between DFT bins, 1 / duration."""
        if self.n_samples == 0:
            return float("inf")
        return 1.0 / self.duration

    def volume(self) -> float:
        """Bytes represented by the discrete signal (sum of samples / fs)."""
        return float(self.samples.sum() / self.sampling_frequency)

    def window(self, t0: float, t1: float) -> "DiscreteSignal":
        """Return the sub-signal covering [t0, t1) (sample-aligned)."""
        if t1 <= t0:
            raise ValueError(f"window end ({t1}) must be > start ({t0})")
        times = self.times
        mask = (times >= t0) & (times < t1)
        return DiscreteSignal(
            samples=self.samples[mask],
            sampling_frequency=self.sampling_frequency,
            t_start=float(times[mask][0]) if mask.any() else t0,
            abstraction_error=self.abstraction_error,
            mode=self.mode,
        )


def _sample_grid(
    times: NDArray[np.float64],
    values: NDArray[np.float64],
    grid: NDArray[np.float64],
    out: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """``_values_at(times, values, grid)`` for a sorted ``grid`` and finite ``times``.

    Locates the boundaries in the grid (one search per boundary) instead of
    every grid point in the boundaries: sample ``i`` lies in segment ``j`` iff
    ``pos[j] <= i < pos[j + 1]``, the same order comparisons between the same
    floats, so the result is equal element for element.  ``out``, if given,
    is zeros of the grid's length and receives the samples.
    """
    pos = grid.searchsorted(times, side="left")
    samples = np.zeros(len(grid)) if out is None else out
    samples[pos[0] : pos[-1]] = np.repeat(values, pos[1:] - pos[:-1])
    return samples


class TraceWindow(NamedTuple):
    """One row of :func:`discretize_windows`: what :func:`discretize_trace` takes."""

    trace: Trace
    sampling_frequency: float
    kind: str | None = "write"
    mode: SamplingMode = "point"
    window: tuple[float, float] | None = None


#: What a row of :func:`discretize_windows` can come back as instead of a signal.
RowError = ValueError | TypeError | ReproError

#: ``IOKind(kind).value`` for every kind that has one, without an enum call
#: per row (an ``IOKind`` member hashes and compares as its value).
_KIND_VALUES = {kind.value: kind.value for kind in IOKind}


def discretize_windows(rows: Sequence[TraceWindow]) -> list[DiscreteSignal | RowError]:
    """Build the bandwidth signal of every row's trace and discretize it, all in one pass.

    Row ``i`` of the result is ``discretize_trace(*rows[i])``, bit for bit,
    or the exception that call raises (returned, not raised), whatever else
    is in the batch.  The kind mask, event sweep and window clip run once over
    all rows (rows padded into one block per similar request count); the
    sampling runs once per group of rows with equal N.
    """
    out: list[DiscreteSignal | RowError | None] = [None] * len(rows)
    kinds: list[str | None] = []
    for i, row in enumerate(rows):
        kind = row.kind
        try:
            kinds.append(None if kind is None else _KIND_VALUES.get(kind) or IOKind(kind).value)
        except (TypeError, ValueError) as exc:
            out[i] = exc
            kinds.append(None)
    for chunk in _chunks([i for i, done in enumerate(out) if done is None], rows):
        starts, ends, nbytes, counts = _kind_columns(
            [rows[i].trace for i in chunk], [kinds[i] for i in chunk]
        )
        swept = _sweep(starts, ends, nbytes, counts)
        # Rows with and without a window are cut apart: a row alone is
        # clipped only when it has a window.
        parts: tuple[list[int], list[int]] = ([], [])
        fs: dict[int, float] = {}
        for i, count in zip(chunk, counts.tolist()):
            try:
                if count == 0:
                    raise EmptyTraceError("cannot build a bandwidth signal from an empty trace")
                fs[i] = check_positive(rows[i].sampling_frequency, "sampling_frequency")
            except (ReproError, TypeError, ValueError) as exc:
                out[i] = exc
                continue
            parts[rows[i].window is not None].append(i)
        for part in parts:
            if not part:
                continue
            block = swept
            if len(part) < len(chunk):
                where = np.searchsorted(chunk, part)
                block = _Rows(swept.times[where], swept.values[where], swept.lengths[where])
            signals = _discretize(
                block,
                [fs[i] for i in part],
                [rows[i].mode for i in part],
                [rows[i].window for i in part],
            )
            for i, signal in zip(part, signals):
                out[i] = signal
    return out  # type: ignore[return-value]


def _chunks(indices: list[int], rows: Sequence[TraceWindow]) -> list[list[int]]:
    """``indices`` in ascending order of request count, cut where a padded block
    would hold more than twice the requests it pads (plus a little slack).

    A lone row is its own chunk: there is nothing to sort or pad.
    """
    if len(indices) < 2:
        return [indices] if indices else []
    chunks: list[list[int]] = []
    held = 0
    sizes = {i: len(rows[i].trace.starts) for i in indices}
    for i in sorted(indices, key=sizes.__getitem__):
        size = sizes[i]
        if not chunks or (len(chunks[-1]) + 1) * size > 2 * (held + size) + 4096:
            chunks.append([])
            held = 0
        chunks[-1].append(i)
        held += size
    return [sorted(chunk) for chunk in chunks]


def _discretize(
    rows: _Rows,
    fs: list[float],
    modes: list[SamplingMode],
    windows: list[tuple[float, float] | None],
) -> list[DiscreteSignal | RowError]:
    """Clip each row to its window and sample it at ``fs[r]`` Hz or just above.

    ``windows`` is ``None`` for every row (no clipping) or for none.  The one
    definition of the sample grid: ``fs`` is the minimum rate, the returned
    signal carries the effective one (module docstring).
    """
    out: list[DiscreteSignal | RowError | None] = [None] * len(fs)
    if windows[0] is not None:
        # A row whose window is not a pair of numbers, or not one with t0 < t1,
        # comes back as its error (clipped to a stand-in window meanwhile).
        spans = []
        for r, window in enumerate(windows):
            try:
                t0, t1 = window  # type: ignore[misc]
                span = float(t0), float(t1)
                if not span[1] > span[0]:
                    raise ValueError(f"window end ({t1}) must be > start ({t0})")
            except (TypeError, ValueError) as exc:
                out[r] = exc
                span = 0.0, 1.0
            spans.append(span)
        bounds = np.array(spans)
        rows, no_width = _clip(rows, bounds[:, 0], bounds[:, 1])
        for r in np.flatnonzero(no_width).tolist():
            if out[r] is None:
                t0, t1 = windows[r]  # type: ignore[misc]
                out[r] = InsufficientSamplesError(
                    f"window ({t0}, {t1}) holds no part of the signal; there is nothing to sample"
                )

    times, values, lengths = rows
    sizes = lengths.tolist()
    t_start = times[:, 0]
    duration = times[np.arange(len(sizes)), lengths - 1] - t_start
    groups: dict[int, list[int]] = {}
    for r, span in enumerate(duration.tolist()):
        if out[r] is not None:
            continue
        asked = span * fs[r]
        if asked < 1:
            out[r] = InsufficientSamplesError(
                f"window of {span:.3g} s at fs={fs[r]} Hz holds less than one sampling "
                "interval; increase the window or the sampling frequency"
            )
        elif not asked <= _MAX_SAMPLES:  # NaN and inf included
            out[r] = AnalysisError(
                f"window of {span:.6g} s at fs={fs[r]:.6g} Hz asks for N={asked:.6g} samples, "
                f"more than the {_MAX_SAMPLES} a window may hold; narrow the window or lower "
                "the sampling frequency"
            )
        elif modes[r] not in ("point", "bin"):  # pragma: no cover - guarded by Literal typing
            out[r] = ValueError(f"unknown sampling mode {modes[r]!r}")
        else:
            n = next_fast_len(max(math.ceil(asked), 2), real=True)
            groups.setdefault(n, []).append(r)
    if not groups:
        return out  # type: ignore[return-value]

    cumulative = _cumulative(rows)
    for n, members in groups.items():
        # Rows of one N are (g, N + 1) blocks: each element is the same IEEE
        # operation on the same operands as in a row alone, and a row sum of
        # an equal-length block runs the same pairwise tree.
        picked = slice(None) if len(members) == len(sizes) else members
        rate = (n / duration[picked])[:, None]
        edges = t_start[picked, None] + np.arange(n + 1) / rate
        volume_to = np.empty((len(members), n + 1))
        samples = np.zeros((len(members), n))
        for g, r in enumerate(members):
            size = sizes[r]
            volume_to[g] = np.interp(edges[g], times[r, :size], cumulative[r, :size])
            if modes[r] == "point":
                _sample_grid(times[r, :size], values[r, : size - 1], edges[g, :-1], samples[g])
        true_bin_volumes = volume_to[:, 1:] - volume_to[:, :-1]
        binned = [g for g, r in enumerate(members) if modes[r] == "bin"]
        if binned:
            samples[binned] = true_bin_volumes[binned] * rate[binned]

        # Abstraction error: volume difference between the discrete representation
        # and the original signal, accumulated per sampling interval so that
        # over- and under-sampled bursts cannot cancel each other out (Sec. II-E).
        true_volume = true_bin_volumes.sum(axis=1).tolist()
        mismatch = np.abs(samples / rate - true_bin_volumes).sum(axis=1).tolist()
        rates, t0s = rate[:, 0].tolist(), t_start[picked].tolist()
        for g, r in enumerate(members):
            error = mismatch[g] / true_volume[g] if true_volume[g] > 0 else 0.0
            out[r] = DiscreteSignal(samples[g], rates[g], t0s[g], error, modes[r])
    return out  # type: ignore[return-value]


def discretize_signal(
    signal: BandwidthSignal,
    sampling_frequency: float,
    *,
    mode: SamplingMode = "point",
    window: tuple[float, float] | None = None,
) -> DiscreteSignal:
    """Discretize a :class:`BandwidthSignal` at ``sampling_frequency`` Hz or just above.

    Parameters
    ----------
    signal:
        The continuous (piecewise-constant) bandwidth signal.
    sampling_frequency:
        The minimum fs in Hz; the result carries the effective rate
        ``N / Δt >= fs`` that makes N a fast FFT length (module docstring).
    mode:
        ``"point"`` (paper default) or ``"bin"`` (volume-conserving).
    window:
        Optional (t0, t1) restriction of the analysis window Δt.

    Raises
    ------
    InsufficientSamplesError
        If the window is shorter than one sampling interval, or holds no
        part of the signal.
    AnalysisError
        If the window asks for more than ``_MAX_SAMPLES`` samples (or Δt·fs
        is not finite).
    """
    fs = check_positive(sampling_frequency, "sampling_frequency")
    return _one(_discretize(signal._as_rows(), [fs], [mode], [window]))


def discretize_trace(
    trace: Trace,
    sampling_frequency: float,
    *,
    kind: str | None = "write",
    mode: SamplingMode = "point",
    window: tuple[float, float] | None = None,
) -> DiscreteSignal:
    """Build the bandwidth signal of ``trace`` and discretize it, in one pass.

    Equal, bit for bit, to ``discretize_signal(bandwidth_signal(trace,
    kind=kind), sampling_frequency, mode=mode, window=window)``: a batch of
    one of :func:`discretize_windows`.
    """
    return _one(discretize_windows([TraceWindow(trace, sampling_frequency, kind, mode, window)]))


def _one(batch: list[DiscreteSignal | RowError]) -> DiscreteSignal:
    """The signal of a batch of one, or raise its error."""
    (signal,) = batch
    if isinstance(signal, Exception):
        raise signal
    return signal


def recommend_sampling_frequency(trace: Trace, *, kind: str | None = "write") -> float:
    """Suggest a sampling frequency from the smallest bandwidth change in the trace.

    Section II-E: "As our approach captures the time spent on each I/O request,
    we can find the smallest change in bandwidth over time and use it to
    calculate fs."  We return the Nyquist-safe rate 2 / (shortest request
    duration), capped to avoid absurd values for instantaneous requests.
    """
    work = trace if kind is None else trace.filter_kind(kind)
    if work.is_empty:
        return 0.0
    durations = np.maximum(work.ends - work.starts, 1e-6)
    return float(min(2.0 / durations.min(), 1e6))
