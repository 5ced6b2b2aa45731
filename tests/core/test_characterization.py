"""Unit tests for the characterization metrics (sigma_vol, sigma_time, R_IO, B_IO)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterization import (
    characterize,
    substantial_io_threshold,
    time_ratio_and_bandwidth,
)
from repro.core.result import CharacterizationResult
from repro.exceptions import AnalysisError
from repro.utils.validation import check_positive
from repro.trace.sampling import DiscreteSignal
from tests.conftest import make_square_wave


def square_signal(period=10.0, duty=0.4, n_periods=10, fs=2.0, high=1e9) -> DiscreteSignal:
    samples = make_square_wave(period=period, duty=duty, n_periods=n_periods, fs=fs, high=high)
    return DiscreteSignal(samples=samples, sampling_frequency=fs)


class TestThresholdAndRatio:
    def test_threshold_is_mean_bandwidth(self):
        signal = square_signal(duty=0.5)
        assert substantial_io_threshold(signal) == pytest.approx(signal.samples.mean())

    def test_time_ratio_matches_duty_cycle(self):
        signal = square_signal(duty=0.3)
        r_io, b_io, threshold = time_ratio_and_bandwidth(signal)
        assert r_io == pytest.approx(0.3, abs=0.05)
        assert b_io == pytest.approx(1e9, rel=1e-6)
        assert 0 < threshold < 1e9

    def test_constant_signal_has_zero_ratio(self):
        signal = DiscreteSignal(samples=np.full(100, 5.0), sampling_frequency=1.0)
        r_io, b_io, _ = time_ratio_and_bandwidth(signal)
        # Nothing exceeds the mean of a constant signal.
        assert r_io == 0.0
        assert b_io == 0.0


class TestCharacterize:
    def test_ideal_periodic_signal(self):
        signal = square_signal(period=10.0, duty=0.4, n_periods=20)
        result = characterize(signal, dominant_frequency=0.1)
        assert result.sigma_vol == pytest.approx(0.0, abs=0.02)
        assert result.sigma_time == pytest.approx(0.0, abs=0.02)
        assert result.time_ratio == pytest.approx(0.4, abs=0.05)
        assert result.periodicity_score > 0.95
        assert result.io_bandwidth == pytest.approx(1e9, rel=1e-6)

    def test_volume_variation_increases_sigma_vol(self):
        fs, period = 2.0, 10.0
        base = make_square_wave(period=period, duty=0.4, n_periods=10, fs=fs)
        varied = base.copy()
        # Halve the amplitude of every other period.
        samples_per_period = int(period * fs)
        for i in range(0, 10, 2):
            varied[i * samples_per_period : (i + 1) * samples_per_period] *= 0.3
        uniform = characterize(DiscreteSignal(samples=base, sampling_frequency=fs), 0.1)
        wobbly = characterize(DiscreteSignal(samples=varied, sampling_frequency=fs), 0.1)
        assert wobbly.sigma_vol > uniform.sigma_vol

    def test_time_variation_increases_sigma_time(self):
        fs, period = 2.0, 10.0
        samples_per_period = int(period * fs)
        pieces = []
        for i in range(10):
            duty = 0.2 if i % 2 == 0 else 0.8
            piece = make_square_wave(period=period, duty=duty, n_periods=1, fs=fs)
            pieces.append(piece[:samples_per_period])
        jittery = np.concatenate(pieces)
        steady = make_square_wave(period=period, duty=0.5, n_periods=10, fs=fs)
        r_jittery = characterize(DiscreteSignal(samples=jittery, sampling_frequency=fs), 0.1)
        r_steady = characterize(DiscreteSignal(samples=steady, sampling_frequency=fs), 0.1)
        assert r_jittery.sigma_time > r_steady.sigma_time

    def test_bytes_per_period(self):
        signal = square_signal(period=10.0, duty=0.5, n_periods=10, fs=2.0, high=100.0)
        result = characterize(signal, dominant_frequency=0.1)
        # Each period transfers ~ 100 B/s * 5 s of substantial I/O.
        assert result.bytes_per_period == pytest.approx(500.0, rel=0.1)

    def test_period_below_resolution_rejected(self):
        signal = square_signal(fs=1.0)
        with pytest.raises(AnalysisError):
            characterize(signal, dominant_frequency=10.0)

    def test_signal_shorter_than_period_rejected(self):
        signal = DiscreteSignal(samples=np.ones(5), sampling_frequency=1.0)
        with pytest.raises(AnalysisError):
            characterize(signal, dominant_frequency=0.01)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(Exception):
            characterize(square_signal(), dominant_frequency=0.0)

    def test_score_within_bounds(self, periodic_result):
        characterization = periodic_result.characterization
        assert characterization is not None
        assert 0.0 <= characterization.periodicity_score <= 1.0
        assert 0.0 <= characterization.time_ratio <= 1.0


# --------------------------------------------------------------------- #
# the frozen oracle: both functions as they stood at commit b0acd0b, verbatim
# --------------------------------------------------------------------- #
def frozen_time_ratio_and_bandwidth(signal):
    threshold = substantial_io_threshold(signal)
    samples = signal.samples
    if signal.n_samples == 0:
        return 0.0, 0.0, threshold
    substantial = samples > threshold
    r_io = float(substantial.mean())
    b_io = float(samples[substantial].mean()) if substantial.any() else 0.0
    return r_io, b_io, threshold


def frozen_characterize(signal, dominant_frequency):
    check_positive(dominant_frequency, "dominant_frequency")
    period = 1.0 / dominant_frequency
    fs = signal.sampling_frequency
    samples_per_period = int(round(period * fs))
    if samples_per_period < 1:
        raise AnalysisError("below the sampling resolution")
    n_periods = signal.n_samples // samples_per_period
    if n_periods < 1:
        raise AnalysisError("shorter than one period")

    r_io, b_io, threshold = frozen_time_ratio_and_bandwidth(signal)

    usable = signal.samples[: n_periods * samples_per_period]
    periods = usable.reshape(n_periods, samples_per_period)

    volumes = periods.sum(axis=1) / fs
    max_volume = float(volumes.max())
    if max_volume > 0:
        sigma_vol = float(np.std(volumes / max_volume))
    else:
        sigma_vol = 0.0

    per_period_ratio = (periods > threshold).mean(axis=1)
    sigma_time = float(np.sqrt(np.mean((per_period_ratio - r_io) ** 2)))

    substantial = signal.samples > threshold
    volume_substantial = float(signal.samples[substantial].sum() / fs)
    duration = signal.duration
    bytes_per_period = volume_substantial / (duration * dominant_frequency) if duration > 0 else 0.0

    periodicity_score = float(np.clip(1.0 - sigma_vol - sigma_time, 0.0, 1.0))

    return CharacterizationResult(
        sigma_vol=sigma_vol,
        sigma_time=sigma_time,
        time_ratio=r_io,
        io_bandwidth=b_io,
        bytes_per_period=bytes_per_period,
        threshold=threshold,
        periodicity_score=periodicity_score,
    )


def _drawn_signal(n, shape, seed, fs, strided):
    rng = np.random.default_rng(seed)
    if shape == "constant":
        samples = np.full(n, 1.0 + rng.random())
    elif shape == "zeros":
        samples = np.zeros(n)
    elif shape == "noise":
        samples = rng.random(n) * 1e9
    else:
        period = max(1, n // int(rng.integers(1, 12)))
        samples = ((np.arange(n) % period) < max(1, period // 3)) * rng.uniform(1e6, 1e9, n)
    if strided:
        wide = np.zeros(2 * n)
        wide[::2] = samples
        samples = wide[::2]
    return DiscreteSignal(samples=samples, sampling_frequency=fs)


class TestAgainstTheFrozenCharacterization:
    """The substantial-I/O mask is computed once now; every output is unchanged."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5_000),
        shape=st.sampled_from(("bursts", "noise", "constant", "zeros")),
        seed=st.integers(0, 2**16),
        fs=st.sampled_from((1.0, 10.0, 10.37, 100.0)),
        strided=st.booleans(),
        periods=st.floats(0.5, 40.0),
    )
    def test_every_output_field(self, n, shape, seed, fs, strided, periods):
        signal = _drawn_signal(n, shape, seed, fs, strided)
        assert time_ratio_and_bandwidth(signal) == frozen_time_ratio_and_bandwidth(signal)
        dominant_frequency = periods / signal.duration
        try:
            expected = frozen_characterize(signal, dominant_frequency)
        except AnalysisError:
            with pytest.raises(AnalysisError):
                characterize(signal, dominant_frequency)
            return
        result = characterize(signal, dominant_frequency)
        for field in dataclasses.fields(CharacterizationResult):
            assert getattr(result, field.name) == getattr(expected, field.name), field.name

    def test_an_empty_signal(self):
        signal = DiscreteSignal(samples=np.zeros(0), sampling_frequency=1.0)
        assert time_ratio_and_bandwidth(signal) == frozen_time_ratio_and_bandwidth(signal)
