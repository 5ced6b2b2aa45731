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

:func:`discretize_trace` is the funnel every ``Trace`` → :class:`DiscreteSignal`
goes through, offline (``Ftio.to_signal``) and online (once per detection of
every service session), so it runs the array-level steps of
:mod:`repro.trace.bandwidth` back to back — kind mask, event sweep over every
request handed in, window clip, sampling — with no :class:`BandwidthSignal` in
between.  :func:`discretize_signal` is the same clip-and-sample tail
(``_discretize``) behind the public dataclass, so the two agree bit for bit
by construction (``tests/trace/test_sampling.py`` holds the property).
Nothing here validates request columns: a :class:`Trace` did that when it was
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray
from scipy.fft import next_fast_len

from repro.exceptions import AnalysisError, InsufficientSamplesError
from repro.trace.bandwidth import (
    BandwidthSignal,
    _clip,
    _cumulative_volume,
    _kind_columns,
    _sweep,
)
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
    times: NDArray[np.float64], values: NDArray[np.float64], grid: NDArray[np.float64]
) -> NDArray[np.float64]:
    """``_values_at(times, values, grid)`` for a sorted ``grid`` and finite ``times``.

    Locates the boundaries in the grid (one search per boundary) instead of
    every grid point in the boundaries: sample ``i`` lies in segment ``j`` iff
    ``pos[j] <= i < pos[j + 1]``, the same order comparisons between the same
    floats, so the result is equal element for element.
    """
    pos = grid.searchsorted(times, side="left")
    samples = np.zeros(len(grid))
    samples[pos[0] : pos[-1]] = np.repeat(values, pos[1:] - pos[:-1])
    return samples


def _discretize(
    times: NDArray[np.float64],
    values: NDArray[np.float64],
    fs: float,
    mode: SamplingMode,
    window: tuple[float, float] | None,
) -> DiscreteSignal:
    """Sample the piecewise-constant signal ``(times, values)``, clipped to ``window`` if given.

    The one definition of the sample grid: ``fs`` is the minimum rate, the
    returned signal carries the effective one (module docstring).
    """
    if window is not None:
        times, values = _clip(times, values, *window)
    t0 = float(times[0])
    duration = float(times[-1]) - t0
    wanted = duration * fs
    if wanted < 1:
        raise InsufficientSamplesError(
            f"window of {duration:.3g} s at fs={fs} Hz holds less than one sampling "
            "interval; increase the window or the sampling frequency"
        )
    if not wanted <= _MAX_SAMPLES:  # NaN and inf included
        raise AnalysisError(
            f"window of {duration:.6g} s at fs={fs:.6g} Hz asks for N={wanted:.6g} samples, "
            f"more than the {_MAX_SAMPLES} a window may hold; narrow the window or lower "
            "the sampling frequency"
        )
    n = next_fast_len(max(math.ceil(wanted), 2), real=True)
    rate = n / duration

    edges = t0 + np.arange(n + 1) / rate
    cumulative = _cumulative_volume(times, values, edges)
    true_bin_volumes = cumulative[1:] - cumulative[:-1]

    if mode == "point":
        samples = _sample_grid(times, values, edges[:-1])
    elif mode == "bin":
        samples = true_bin_volumes * rate
    else:  # pragma: no cover - guarded by Literal typing
        raise ValueError(f"unknown sampling mode {mode!r}")

    # Abstraction error: volume difference between the discrete representation
    # and the original signal, accumulated per sampling interval so that
    # over- and under-sampled bursts cannot cancel each other out (Sec. II-E).
    true_volume = float(true_bin_volumes.sum())
    if true_volume > 0:
        abstraction_error = float(np.abs(samples / rate - true_bin_volumes).sum() / true_volume)
    else:
        abstraction_error = 0.0

    return DiscreteSignal(
        samples=np.asarray(samples, dtype=np.float64),
        sampling_frequency=rate,
        t_start=t0,
        abstraction_error=abstraction_error,
        mode=mode,
    )


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
        If the window is shorter than one sampling interval.
    AnalysisError
        If the window asks for more than ``_MAX_SAMPLES`` samples (or Δt·fs
        is not finite).
    """
    fs = check_positive(sampling_frequency, "sampling_frequency")
    return _discretize(signal.times, signal.values, fs, mode, window)


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
    kind=kind), sampling_frequency, mode=mode, window=window)``.
    """
    times, values = _sweep(*_kind_columns(trace, kind))
    fs = check_positive(sampling_frequency, "sampling_frequency")
    return _discretize(times, values, fs, mode, window)


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
