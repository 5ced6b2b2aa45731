"""Discretization of the bandwidth signal for the frequency analysis.

Section II-B: the continuous bandwidth signal x(t) is discretized with a
sampling frequency ``fs`` to obtain ``N = dt * fs`` samples x_n = x(n / fs).
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

from repro.exceptions import InsufficientSamplesError
from repro.trace.bandwidth import (
    BandwidthSignal,
    _clip,
    _cumulative_volume,
    _kind_columns,
    _sweep,
    _values_at,
)
from repro.trace.trace import Trace
from repro.utils.validation import check_positive

SamplingMode = Literal["point", "bin"]


@dataclass(frozen=True)
class DiscreteSignal:
    """An evenly sampled bandwidth signal ready for DFT.

    Attributes
    ----------
    samples:
        Bandwidth values x_n (bytes/s), length N.
    sampling_frequency:
        fs in Hz; consecutive samples are 1/fs apart.
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


def _discretize(
    times: NDArray[np.float64],
    values: NDArray[np.float64],
    fs: float,
    mode: SamplingMode,
    window: tuple[float, float] | None,
) -> DiscreteSignal:
    """Sample the piecewise-constant signal ``(times, values)``, clipped to ``window`` if given."""
    if window is not None:
        times, values = _clip(times, values, *window)
    t0 = float(times[0])
    duration = float(times[-1]) - t0
    n = math.floor(duration * fs) + 1
    if n < 2:
        raise InsufficientSamplesError(
            f"window of {duration:.3g} s at fs={fs} Hz yields only {n} sample(s); "
            "increase the window or the sampling frequency"
        )

    edges = t0 + np.arange(n + 1) / fs
    cumulative = _cumulative_volume(times, values, edges)
    true_bin_volumes = cumulative[1:] - cumulative[:-1]

    if mode == "point":
        samples = _values_at(times, values, edges[:-1])
    elif mode == "bin":
        samples = true_bin_volumes * fs
    else:  # pragma: no cover - guarded by Literal typing
        raise ValueError(f"unknown sampling mode {mode!r}")

    # Abstraction error: volume difference between the discrete representation
    # and the original signal, accumulated per sampling interval so that
    # over- and under-sampled bursts cannot cancel each other out (Sec. II-E).
    true_volume = float(true_bin_volumes.sum())
    if true_volume > 0:
        abstraction_error = float(np.abs(samples / fs - true_bin_volumes).sum() / true_volume)
    else:
        abstraction_error = 0.0

    return DiscreteSignal(
        samples=np.asarray(samples, dtype=np.float64),
        sampling_frequency=fs,
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
    """Discretize a :class:`BandwidthSignal` at ``sampling_frequency`` Hz.

    Parameters
    ----------
    signal:
        The continuous (piecewise-constant) bandwidth signal.
    sampling_frequency:
        fs in Hz.
    mode:
        ``"point"`` (paper default) or ``"bin"`` (volume-conserving).
    window:
        Optional (t0, t1) restriction of the analysis window Δt.

    Raises
    ------
    InsufficientSamplesError
        If fewer than 2 samples fall inside the window.
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
