"""Discrete Fourier transform helpers (Section II-B1).

FTIO treats the discretized bandwidth signal x_n as a real-valued sequence and
computes its DFT with the FFT algorithm.  Because the signal is real, the
spectrum is conjugate-symmetric and only the single-sided half (k in
[0, N/2]) needs to be inspected; the inverse reconstruction of Eq. (1) then
uses cosine waves with twice the single-sided amplitude (except for the DC bin
and, for even N, the Nyquist bin).

The bins sit at f_k = (k / N) · fs.  For a window cut by
:mod:`repro.trace.sampling`, fs is the effective rate N / Δt, so f_k = k / Δt —
the paper's bin frequency, with no sample's worth of slack — and N is 5-smooth,
so the transform never falls to Bluestein.  The transform is ``numpy.fft``
called directly; :mod:`repro.freq.plan` caches only the unit grid k / N.

:func:`dft` is the one-signal helper of the figures and reconstructions; the
detection pipeline transforms groups of windows in :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.constants import MIN_SPECTRUM_SAMPLES
from repro.exceptions import InsufficientSamplesError
from repro.freq import plan
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DftResult:
    """Single-sided DFT of a real signal.

    Attributes
    ----------
    coefficients:
        Complex DFT coefficients X_k for k in [0, N//2] (``numpy.fft.rfft`` output).
    frequencies:
        Frequency of each bin in Hz, f_k = (k / N) * fs.
    n_samples:
        Length N of the time-domain signal.
    sampling_frequency:
        fs in Hz the samples are spaced at (the effective rate of the signal,
        not a configured minimum).
    """

    coefficients: NDArray[np.complex128]
    frequencies: NDArray[np.float64]
    n_samples: int
    sampling_frequency: float

    @property
    def amplitudes(self) -> NDArray[np.float64]:
        """|X_k| for every single-sided bin."""
        return np.abs(self.coefficients)

    @property
    def phases(self) -> NDArray[np.float64]:
        """arg(X_k) for every single-sided bin."""
        return np.angle(self.coefficients)

    @property
    def dc_offset(self) -> float:
        """X_0 / N: the mean of the time-domain signal."""
        return float(np.real(self.coefficients[0]) / self.n_samples)

    @property
    def frequency_resolution(self) -> float:
        """Spacing between consecutive bins, fs / N = 1 / Δt."""
        return self.sampling_frequency / self.n_samples

    @property
    def n_bins(self) -> int:
        """Number of single-sided bins (N // 2 + 1)."""
        return int(len(self.coefficients))

    def period_of_bin(self, k: int) -> float:
        """Period 1 / f_k of bin ``k`` (k must be >= 1)."""
        if k <= 0:
            raise ValueError("bin 0 is the DC offset and has no period")
        return 1.0 / float(self.frequencies[k])


def dft(samples: ArrayLike, sampling_frequency: float) -> DftResult:
    """Compute the single-sided DFT of a real signal via the FFT (O(N log N)).

    Parameters
    ----------
    samples:
        The discretized bandwidth values x_n.
    sampling_frequency:
        fs in Hz the samples are spaced at (``DiscreteSignal.sampling_frequency``).

    Raises
    ------
    InsufficientSamplesError
        If fewer than 4 samples are provided (no meaningful spectrum).
    """
    fs = check_positive(sampling_frequency, "sampling_frequency")
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {x.shape}")
    n = len(x)
    if n < MIN_SPECTRUM_SAMPLES:
        raise InsufficientSamplesError(
            f"DFT needs at least {MIN_SPECTRUM_SAMPLES} samples, got {n}"
        )
    coefficients = np.fft.rfft(x)
    # f_k = (k / N) * fs; with fs the effective rate N / Δt of a discretized
    # window that is k / Δt.
    frequencies = plan.rfftfreq_grid(n) * fs
    return DftResult(
        coefficients=coefficients,
        frequencies=frequencies,
        n_samples=n,
        sampling_frequency=fs,
    )


def reconstruct(
    result: DftResult,
    *,
    bins: ArrayLike | None = None,
    n_samples: int | None = None,
) -> NDArray[np.float64]:
    """Reconstruct the time-domain signal from (a subset of) DFT bins — Eq. (1).

    Parameters
    ----------
    result:
        The single-sided DFT.
    bins:
        Indices of the bins to include (the DC bin 0 is always included so the
        reconstruction keeps the signal's mean).  ``None`` uses all bins, which
        reproduces the original signal up to floating-point error.
    n_samples:
        Length of the reconstructed signal; defaults to the original length.

    Returns
    -------
    numpy.ndarray
        The reconstructed samples.
    """
    n = int(n_samples if n_samples is not None else result.n_samples)
    if n <= 0:
        raise ValueError(f"n_samples must be positive, got {n}")
    n_orig = result.n_samples

    if bins is None:
        selected = np.arange(1, result.n_bins)
    else:
        selected = np.unique(np.asarray(bins, dtype=np.int64))
        selected = selected[selected >= 1]
    if np.any(selected >= result.n_bins):
        bad = int(selected[selected >= result.n_bins][0])
        raise IndexError(f"bin index {bad} out of range [0, {result.n_bins - 1}]")

    if n == n_orig:
        # At the native length the sum of single-sided cosines is exactly the
        # inverse FFT of the masked spectrum: one O(N log N) transform replaces
        # the per-bin Python loop.
        masked = np.zeros_like(result.coefficients)
        masked[0] = result.coefficients[0]
        masked[selected] = result.coefficients[selected]
        return np.fft.irfft(masked, n=n_orig)

    # Extension/truncation to a different length: evaluate the selected
    # cosines in broadcast expressions over (bins, time) grids, chunked over
    # bins so the temporaries stay bounded (~32 MB) instead of O(bins × n).
    total = np.full(n, result.dc_offset, dtype=np.float64)
    if selected.size:
        t_index = np.arange(n, dtype=np.float64)
        # The Nyquist bin of an even-length signal is not doubled.
        factors = np.where((n_orig % 2 == 0) & (selected == n_orig // 2), 1.0, 2.0)
        coefficients = factors * result.amplitudes[selected] / n_orig
        phases = result.phases[selected]
        chunk = max(1, 4_000_000 // n)
        for i in range(0, selected.size, chunk):
            rows = slice(i, i + chunk)
            angles = (
                (2.0 * np.pi / n_orig) * selected[rows, None] * t_index[None, :]
                + phases[rows, None]
            )
            total += (coefficients[rows, None] * np.cos(angles)).sum(axis=0)
    return total


def cosine_wave(
    result: DftResult,
    k: int,
    *,
    n_samples: int | None = None,
    include_dc: bool = True,
) -> NDArray[np.float64]:
    """Return the single cosine wave of bin ``k`` (optionally shifted by the DC offset).

    This is what the paper plots on top of the time-domain signal (Figures 2,
    13 and 14): the dominant-frequency cosine, shifted upwards by X_0 / N.
    """
    if k <= 0 or k >= result.n_bins:
        raise ValueError(f"bin index must be in [1, {result.n_bins - 1}], got {k}")
    wave = reconstruct(result, bins=[k], n_samples=n_samples)
    if not include_dc:
        wave = wave - result.dc_offset
    return wave
