"""Autocorrelation-based period detection (Section II-C).

The autocorrelation function (ACF) measures the correlation of a time series
with itself at every lag; repeated patterns appear as peaks at multiples of
the period.  FTIO uses the ACF as a *second opinion* on the DFT result:

1. compute the ACF of the discretized signal (normalized to [-1, 1]),
2. find the ACF peaks with SciPy's ``find_peaks`` (threshold 0.15),
3. the gaps between consecutive peaks, divided by fs, are period candidates,
4. filter candidate outliers with the Z-score using the ACF values as weights,
5. the period is the (weighted) average of the surviving candidates, and the
   confidence c_a = 1 − coefficient of variation of those candidates.

Step 1 has one implementation, :func:`autocorrelation_batch` (the one-signal
:func:`autocorrelation` is a batch of one), so a window's ACF is the same bits
offline and in any service batch; :mod:`repro.core.kernels` computes it there
and hands it to :func:`detect_period_autocorrelation` as ``acf=``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.fft import next_fast_len
from scipy.signal import find_peaks

from repro.constants import ACF_PEAK_THRESHOLD, ZSCORE_OUTLIER_THRESHOLD
from repro.exceptions import InsufficientSamplesError
from repro.freq import plan
from repro.utils.stats import coefficient_of_variation, weighted_mean, zscores
from repro.utils.validation import check_positive


def _padded_length(n: int) -> int:
    """FFT length for the Wiener–Khinchin ACF of ``n`` samples.

    Any length >= 2n − 1 makes the circular correlation equal the linear one;
    the next 5-smooth length is as fast per point as the next power of two
    and up to ~1.6x shorter (82 944 against 131 072 at n = 41 050).
    """
    return next_fast_len(2 * n - 1, real=True)


def autocorrelation(samples: ArrayLike) -> NDArray[np.float64]:
    """Return the normalized autocorrelation of ``samples`` for lags 0..N-1.

    The signal is mean-centred first; the ACF is normalized so the zero-lag
    value is exactly 1.  A constant signal returns an all-zero ACF (no
    correlation structure) except for the leading 1.  This is
    :func:`autocorrelation_batch` on a batch of one.
    """
    return autocorrelation_batch([samples])[0]


def autocorrelation_batch(rows: Sequence[ArrayLike]) -> list[NDArray[np.float64]]:
    """Normalized autocorrelation of each of ``rows`` (same-length signals).

    The lag products are evaluated with the Wiener–Khinchin theorem — the
    inverse FFT of the power spectrum of the zero-padded signal — which is
    O(N log N) instead of the O(N²) of a direct ``np.correlate``.  Zero-padding
    to at least 2N − 1 points (the next fast FFT length, :func:`_padded_length`)
    makes the circular correlation equal the linear one, so the result matches
    the direct method to floating-point precision.

    A row's result does not depend on the rest of the batch, bit for bit.
    The two transforms run as single 2-D FFTs over the whole stack (``numpy``'s
    batched rfft and irfft produce the rows their 1-D calls would).  The steps
    whose floating-point result is *shape-sensitive* — the complex power
    product and the energy dot product, where SIMD/FMA contraction differs
    between 1-D and 2-D evaluation — are computed per row on contiguous row
    views, the product into an explicit output buffer (numpy multiplies
    ``spectrum * np.conj(spectrum)`` into the conj temporary once it exceeds
    256 KiB, which rounds differently).  A batch of one is not stacked.
    """
    k = len(rows)
    if k == 0:
        return []
    first = np.asarray(rows[0], dtype=np.float64)
    if first.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {first.shape}")
    n = len(first)
    if n < 2:
        raise InsufficientSamplesError(f"autocorrelation needs at least 2 samples, got {n}")
    if k == 1:
        stacked = np.ascontiguousarray(first)[None, :]
    else:
        stacked = plan.workspace((k, n))
        stacked[0] = first
    for i in range(1, k):
        row = np.asarray(rows[i], dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {row.shape}")
        if len(row) != n:
            raise ValueError(f"all rows must share one length, got {len(row)} != {n}")
        stacked[i] = row
    means = stacked.mean(axis=1)
    centred = stacked - means[:, None]
    energies = [float(np.dot(centred[i], centred[i])) for i in range(k)]
    nfft = _padded_length(n)
    spectra = np.fft.rfft(centred, n=nfft, axis=1)
    power = np.empty_like(spectra)
    for i in range(k):
        np.multiply(spectra[i], np.conj(spectra[i]), out=power[i])
    lag_products = np.fft.irfft(power, n=nfft, axis=1)
    out: list[NDArray[np.float64]] = []
    for i in range(k):
        if energies[i] == 0.0:
            acf = np.zeros(n)
        else:
            acf = lag_products[i, :n] / energies[i]
        # Pin the zero lag: the FFT round-trip leaves it at 1 ± a few ulp only.
        acf[0] = 1.0
        out.append(acf)
    return out


@dataclass(frozen=True)
class AutocorrelationResult:
    """Outcome of the ACF-based period detection.

    Attributes
    ----------
    acf:
        The normalized autocorrelation values for lags 0..N-1.
    peak_lags:
        Lags (in samples) of the detected ACF peaks.
    candidate_periods:
        Period candidates in seconds (gaps between consecutive peaks / fs),
        after Z-score filtering.
    all_periods:
        Period candidates before outlier filtering.
    period:
        The detected period (weighted average of candidates), or ``None`` if
        no candidates survived.
    confidence:
        c_a = 1 − coefficient of variation of the candidates (0 when unknown).
    sampling_frequency:
        fs in Hz of the analysed signal.
    """

    acf: NDArray[np.float64]
    peak_lags: NDArray[np.int64]
    candidate_periods: NDArray[np.float64]
    all_periods: NDArray[np.float64]
    period: float | None
    confidence: float
    sampling_frequency: float
    metadata: dict = field(default_factory=dict)

    @property
    def dominant_frequency(self) -> float | None:
        """1 / period, or ``None`` if no period was found."""
        if self.period is None or self.period <= 0:
            return None
        return 1.0 / self.period


def detect_period_autocorrelation(
    samples: ArrayLike,
    sampling_frequency: float,
    *,
    peak_threshold: float = ACF_PEAK_THRESHOLD,
    zscore_threshold: float = ZSCORE_OUTLIER_THRESHOLD,
    acf: NDArray[np.float64] | None = None,
) -> AutocorrelationResult:
    """Find the period of ``samples`` using the autocorrelation function.

    Parameters
    ----------
    samples:
        Discretized bandwidth signal.
    sampling_frequency:
        fs in Hz.
    peak_threshold:
        Minimum ACF value for a lag to count as a peak (paper: 0.15).
    zscore_threshold:
        Z-score beyond which a candidate period is discarded as an outlier.
    acf:
        Precomputed autocorrelation of ``samples`` (e.g. one row of
        :func:`autocorrelation_batch`), skipping the per-call transform.  The
        caller guarantees it equals ``autocorrelation(samples)``.
    """
    fs = check_positive(sampling_frequency, "sampling_frequency")
    if acf is None:
        acf = autocorrelation(samples)

    # Peaks of the ACF, excluding the trivial lag-0 peak.
    peak_indices, _ = find_peaks(acf[1:], height=peak_threshold)
    peak_lags = (peak_indices + 1).astype(np.int64)

    if len(peak_lags) == 0:
        return AutocorrelationResult(
            acf=acf,
            peak_lags=peak_lags,
            candidate_periods=np.zeros(0),
            all_periods=np.zeros(0),
            period=None,
            confidence=0.0,
            sampling_frequency=fs,
        )

    # Gaps between consecutive peaks (the first gap is measured from lag 0,
    # i.e. the first peak lag itself) are the period candidates in samples.
    gaps = np.diff(np.concatenate([[0], peak_lags])).astype(np.float64)

    # When a peak falls below the detection threshold (a weak or noisy burst),
    # the surrounding gap spans an integer number of periods.  Fold such gaps
    # back onto the fundamental by dividing by the nearest multiple of the
    # median gap — the ACF analogue of the DFT harmonic rule.
    median_gap = float(np.median(gaps))
    if median_gap > 0:
        multiples = np.maximum(np.round(gaps / median_gap), 1.0)
        gaps = gaps / multiples
    all_periods = gaps / fs

    # Weights: ACF value at the right-hand peak of each gap.
    weights = acf[peak_lags]
    weights = np.clip(weights, 0.0, None)

    if len(all_periods) == 1:
        candidates = all_periods
        candidate_weights = weights
    else:
        scores = zscores(all_periods)
        keep = scores < zscore_threshold
        if not keep.any():
            keep = np.ones(len(all_periods), dtype=bool)
        candidates = all_periods[keep]
        candidate_weights = weights[keep]

    period = weighted_mean(candidates, candidate_weights) if len(candidates) else None
    if period is not None and period <= 0:
        period = None
    if period is None:
        confidence = 0.0
    else:
        cov = coefficient_of_variation(candidates, weights=candidate_weights)
        confidence = float(np.clip(1.0 - cov, 0.0, 1.0))

    return AutocorrelationResult(
        acf=acf,
        peak_lags=peak_lags,
        candidate_periods=candidates,
        all_periods=all_periods,
        period=period,
        confidence=confidence,
        sampling_frequency=fs,
        metadata={"n_peaks": int(len(peak_lags)), "n_filtered": int(len(all_periods) - len(candidates))},
    )


def similarity_to_candidates(frequency: float, candidate_periods: ArrayLike) -> float:
    """Similarity c_s between a DFT dominant frequency and the ACF candidates.

    The similarity is 1 − coefficient of variation of the set {1/f_d} ∪
    candidates, i.e. how tightly the ACF candidates cluster around the DFT
    period.  Returns 0 when there are no candidates.
    """
    check_positive(frequency, "frequency")
    periods = np.asarray(candidate_periods, dtype=np.float64)
    if periods.size == 0:
        return 0.0
    combined = np.concatenate([[1.0 / frequency], periods])
    cov = coefficient_of_variation(combined)
    return float(np.clip(1.0 - cov, 0.0, 1.0))
