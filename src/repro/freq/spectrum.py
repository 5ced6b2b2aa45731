"""Power-spectrum construction (Section II-B1).

After the DFT, FTIO works on the *power spectrum* p_k = |X_k|^2 / N rather
than on the amplitude spectrum, because I/O noise produces many small
high-frequency amplitudes whose influence shrinks when squared.  For plotting
and for the confidence metrics the spectrum is normalized by the total signal
power, so that each bin reports its fractional contribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.freq.dft import DftResult, dft
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PowerSpectrum:
    """Single-sided power spectrum of a discretized bandwidth signal.

    Attributes
    ----------
    frequencies:
        Frequencies f_k of every single-sided bin (including the DC bin 0).
    power:
        Power p_k = |X_k|^2 / N of every bin.
    n_samples:
        Length N of the time-domain signal.
    sampling_frequency:
        fs in Hz.
    """

    frequencies: NDArray[np.float64]
    power: NDArray[np.float64]
    n_samples: int
    sampling_frequency: float

    def __post_init__(self) -> None:
        if len(self.frequencies) != len(self.power):
            raise ValueError("frequencies and power must have the same length")

    @property
    def n_bins(self) -> int:
        """Number of single-sided bins."""
        return int(len(self.power))

    @property
    def dc_power(self) -> float:
        """Power of the DC bin (excluded from the outlier analysis)."""
        return float(self.power[0])

    @property
    def analysis_power(self) -> NDArray[np.float64]:
        """Power of the bins inspected for outliers (everything except DC)."""
        return self.power[1:]

    @property
    def total_power(self) -> float:
        """Total signal power excluding the DC bin."""
        return float(self.analysis_power.sum())

    @property
    def normalized_power(self) -> NDArray[np.float64]:
        """Power of the non-DC bins normalized to sum to 1 (the paper's normed spectrum)."""
        total = self.total_power
        if total == 0.0:
            return np.zeros_like(self.analysis_power)
        return self.analysis_power / total

    @property
    def frequency_resolution(self) -> float:
        """Spacing between consecutive bins, fs / N."""
        return self.sampling_frequency / self.n_samples

    @property
    def max_frequency(self) -> float:
        """Largest frequency on the x-axis of the spectrum (fs / 2)."""
        return float(self.frequencies[-1])

    def contribution(self, k: int) -> float:
        """Fractional contribution of bin ``k`` (k >= 1) to the total power."""
        if k <= 0 or k >= self.n_bins:
            raise ValueError(f"bin index must be in [1, {self.n_bins - 1}], got {k}")
        total = self.total_power
        if total == 0.0:
            return 0.0
        return float(self.power[k] / total)

    def period_of_bin(self, k: int) -> float:
        """Period 1 / f_k of bin ``k`` (k >= 1)."""
        if k <= 0 or k >= self.n_bins:
            raise ValueError(f"bin index must be in [1, {self.n_bins - 1}], got {k}")
        return 1.0 / float(self.frequencies[k])

    def top_bins(self, count: int = 3) -> list[int]:
        """Indices of the ``count`` non-DC bins with the highest power, descending."""
        if count <= 0:
            return []
        order = np.argsort(self.analysis_power)[::-1][:count]
        return [int(k) + 1 for k in order]


def power_spectrum_from_dft(result: DftResult) -> PowerSpectrum:
    """Build the power spectrum p_k = |X_k|^2 / N from a DFT result."""
    power = (result.amplitudes**2) / result.n_samples
    return PowerSpectrum(
        frequencies=result.frequencies,
        power=power,
        n_samples=result.n_samples,
        sampling_frequency=result.sampling_frequency,
    )


def power_spectrum(samples: ArrayLike, sampling_frequency: float) -> PowerSpectrum:
    """Compute the single-sided power spectrum of a real signal in one call."""
    check_positive(sampling_frequency, "sampling_frequency")
    return power_spectrum_from_dft(dft(samples, sampling_frequency))
