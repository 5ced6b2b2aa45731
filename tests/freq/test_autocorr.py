"""Unit tests for the autocorrelation-based period detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InsufficientSamplesError
from repro.freq.autocorr import (
    autocorrelation,
    autocorrelation_batch,
    detect_period_autocorrelation,
    similarity_to_candidates,
)
from tests.conftest import make_square_wave
from tests.core.test_kernels import frozen_autocorrelation


class TestAutocorrelation:
    def test_zero_lag_is_one(self):
        rng = np.random.default_rng(0)
        acf = autocorrelation(rng.random(100))
        assert acf[0] == pytest.approx(1.0)

    def test_values_bounded(self):
        rng = np.random.default_rng(1)
        acf = autocorrelation(rng.random(500))
        assert np.all(acf <= 1.0 + 1e-9)
        assert np.all(acf >= -1.0 - 1e-9)

    def test_periodic_signal_peaks_at_period(self):
        fs, period = 2.0, 10.0
        signal = make_square_wave(period=period, duty=0.3, n_periods=12, fs=fs)
        acf = autocorrelation(signal)
        lag = int(period * fs)
        # The ACF at one full period is close to the maximum among non-zero lags.
        assert acf[lag] > 0.6

    def test_constant_signal(self):
        acf = autocorrelation(np.full(50, 7.0))
        assert acf[0] == pytest.approx(1.0)
        assert np.allclose(acf[1:], 0.0)

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            autocorrelation([1.0])

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones((3, 3)))

    @pytest.mark.parametrize("n", [300, 20_000])
    def test_batched_rows_equal_the_1d_function_bit_for_bit(self, n):
        """Alone or beside a batchmate, a row equals the 1-D ACF at every window length.

        The 1-D function is a batch of one now, so the reference is the frozen
        copy of its old body.  20 000 samples puts the spectrum past 256 KiB,
        where numpy starts reusing large temporaries as ufunc outputs — the
        two must not round differently there (they did: in-place vs
        out-of-place complex product).
        """
        rng = np.random.default_rng(20_000)
        x = rng.random(n) * (rng.random(n) < 0.2)
        y = rng.random(n)
        one = frozen_autocorrelation(x)
        assert np.array_equal(one, autocorrelation_batch([x, y])[0])
        assert np.array_equal(one, autocorrelation_batch([x])[0])
        assert np.array_equal(one, autocorrelation(x))


class TestDetectPeriod:
    def test_square_wave_period_recovered(self):
        fs, period = 2.0, 12.0
        signal = make_square_wave(period=period, duty=0.4, n_periods=15, fs=fs)
        result = detect_period_autocorrelation(signal, fs)
        assert result.period == pytest.approx(period, rel=0.1)
        assert result.confidence > 0.8
        assert result.dominant_frequency == pytest.approx(1.0 / period, rel=0.1)

    def test_noisy_periodic_signal(self):
        rng = np.random.default_rng(5)
        fs, period = 2.0, 10.0
        signal = make_square_wave(period=period, duty=0.4, n_periods=20, fs=fs)
        signal = signal + rng.normal(0, 0.05 * signal.max(), size=len(signal))
        result = detect_period_autocorrelation(signal, fs)
        assert result.period == pytest.approx(period, rel=0.15)

    def test_aperiodic_signal_low_confidence(self):
        rng = np.random.default_rng(9)
        result = detect_period_autocorrelation(rng.random(400), 1.0)
        # Either nothing is found or the candidates disagree (low confidence).
        assert result.period is None or result.confidence < 0.9

    def test_no_peaks_returns_none(self):
        result = detect_period_autocorrelation(np.full(64, 5.0), 1.0)
        assert result.period is None
        assert result.confidence == 0.0
        assert len(result.peak_lags) == 0

    def test_metadata_counts(self):
        fs, period = 2.0, 10.0
        signal = make_square_wave(period=period, duty=0.4, n_periods=10, fs=fs)
        result = detect_period_autocorrelation(signal, fs)
        assert result.metadata["n_peaks"] == len(result.peak_lags)
        assert result.metadata["n_filtered"] >= 0


class TestSimilarity:
    def test_identical_candidates_give_high_similarity(self):
        assert similarity_to_candidates(0.1, [10.0, 10.0, 10.0]) > 0.99

    def test_disagreeing_candidates_give_lower_similarity(self):
        tight = similarity_to_candidates(0.1, [10.0, 10.5])
        loose = similarity_to_candidates(0.1, [3.0, 30.0])
        assert tight > loose

    def test_empty_candidates(self):
        assert similarity_to_candidates(0.1, []) == 0.0

    def test_invalid_frequency(self):
        with pytest.raises(Exception):
            similarity_to_candidates(0.0, [1.0])


class TestFftEquivalence:
    """The FFT (Wiener–Khinchin) ACF must match the direct O(N²) method."""

    @staticmethod
    def _direct_autocorrelation(samples):
        """Reference implementation: the pre-optimization np.correlate path."""
        x = np.asarray(samples, dtype=np.float64)
        n = len(x)
        centred = x - x.mean()
        energy = float(np.dot(centred, centred))
        acf = np.zeros(n)
        acf[0] = 1.0
        if energy == 0.0:
            return acf
        full = np.correlate(centred, centred, mode="full")
        return full[n - 1 :] / energy

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 1000, 4097])
    def test_matches_direct_on_random_signals(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            autocorrelation(x), self._direct_autocorrelation(x), atol=1e-10
        )

    @pytest.mark.parametrize("value", [0.0, 1.0, -3.5])
    def test_matches_direct_on_constant_signals(self, value):
        x = np.full(128, value)
        np.testing.assert_allclose(
            autocorrelation(x), self._direct_autocorrelation(x), atol=1e-10
        )

    def test_matches_direct_on_periodic_signal(self):
        signal = make_square_wave(period=10.0, duty=0.3, n_periods=12, fs=2.0)
        np.testing.assert_allclose(
            autocorrelation(signal), self._direct_autocorrelation(signal), atol=1e-10
        )

    def test_matches_direct_on_short_signals(self):
        for x in ([1.0, 2.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0, 4.0]):
            np.testing.assert_allclose(
                autocorrelation(x), self._direct_autocorrelation(x), atol=1e-10
            )
