"""The one spectral route, held to a frozen copy of the route it replaced.

:func:`repro.core.kernels.compute_batch_kernels` is the only place under
``src/`` where a detection's transform, power, Z-scores, outlier decision and
ACF are computed — offline detection is a batch of one.  Three things keep
that honest:

(a) every field of every row equals, ``np.array_equal``, a **frozen copy** of
    the one-signal arithmetic that ran under ``api.detect`` before the routes
    were joined (``dft`` → ``|X|² / N`` → ``zscores`` →
    ``ZScoreDetector.detect`` → ``autocorrelation`` with its ``out=`` buffer),
    on both sides of the 8 192 samples where the 1-D and the batched ACF once
    rounded differently;
(b) a row's bits do not depend on who else is in the batch — every row ``==``
    the same row evaluated alone, every outlier detector included (the
    non-Z-score ones run nowhere else now);
(c) rows too short for a spectrum come back ``None`` and
    ``Ftio.analyze_signal`` turns that into ``InsufficientSamplesError``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from repro.core import Ftio, FtioConfig, OnlinePredictor
from repro.core.kernels import SpectralKernels, compute_batch_kernels
from repro.exceptions import InsufficientSamplesError
from repro.trace.sampling import DiscreteSignal
from repro.workloads.ior import ior_trace


# --------------------------------------------------------------------- #
# the frozen oracle: the 1-D route as it stood at commit e31d649, verbatim
# --------------------------------------------------------------------- #
def _frozen_dft(samples, fs):
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    coefficients = np.fft.rfft(x)
    frequencies = np.fft.rfftfreq(n, d=1.0) * fs
    return coefficients, frequencies


def _frozen_power(coefficients, n):
    return (np.abs(coefficients) ** 2) / n


def _frozen_zscores(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    std = float(arr.std())
    if std == 0.0:
        return np.zeros_like(arr)
    return (np.abs(arr) - abs(float(arr.mean()))) / std


def _frozen_zscore_detect(power, threshold):
    scores = _frozen_zscores(power)
    return scores, scores >= threshold


def frozen_autocorrelation(samples):
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    centred = x - x.mean()
    energy = float(np.dot(centred, centred))
    acf = np.zeros(n)
    acf[0] = 1.0
    if energy == 0.0:
        return acf
    nfft = next_fast_len(2 * n - 1, real=True)
    spectrum = np.fft.rfft(centred, n=nfft)
    power = np.empty_like(spectrum)
    np.multiply(spectrum, np.conj(spectrum), out=power)
    lag_products = np.fft.irfft(power, n=nfft)[:n]
    acf = lag_products / energy
    acf[0] = 1.0
    return acf


# --------------------------------------------------------------------- #
# rows: described by small drawn values, built with numpy
# --------------------------------------------------------------------- #
#: 4 and 5 are the shortest spectra (even, odd); 360 a many-small window;
#: 3 125 = 5⁵ odd; 8 748 and 20 000 straddle the 256 KiB ACF spectrum.
LENGTHS = (4, 5, 360, 3_125, 8_748, 20_000)
SHAPES = ("bursts", "noise", "constant", "zeros", "strided")
#: ``dbscan`` takes 0.44 s at 1 563 bins and 17.7 s at 10 000.
SLOW_DETECTOR_MAX_SAMPLES = 360

DETECTORS = {
    "zscore@3": {},
    "zscore@2": {"outlier_kwargs": {"threshold": 2.0}},
    "dbscan": {"outlier_method": "dbscan"},
    "find_peaks": {"outlier_method": "find_peaks"},
    "lof": {"outlier_method": "lof"},
    "isolation_forest": {"outlier_method": "isolation_forest"},
}


def _samples(n: int, shape: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "constant":
        return np.full(n, 1.0 + rng.random())
    if shape == "zeros":
        return np.zeros(n)
    if shape == "noise":
        return rng.random(n)
    period = max(2, n // int(rng.integers(3, 12)))
    bursts = ((np.arange(n) % period) < max(1, period // 5)) * (1.0 + 0.2 * rng.random(n))
    if shape == "strided":
        # A non-contiguous view of the same values: a group of one reads the
        # signal's samples in place, a larger group copies them into a stack.
        wide = np.zeros(2 * n)
        wide[::2] = bursts
        return wide[::2]
    return bursts


row_specs = st.tuples(
    st.sampled_from(LENGTHS),
    st.sampled_from(SHAPES),
    st.integers(0, 2**16),  # sample seed
    st.sampled_from((1.0, 10.0, 10.37, 100.0)),  # rate: equal lengths meet at different rates
    st.booleans(),  # ACF on
)
groups = st.lists(row_specs, min_size=1, max_size=6)
BIG = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _build(rows, detectors=None):
    signals, configs = [], []
    for j, (n, shape, seed, fs, use_acf) in enumerate(rows):
        signals.append(DiscreteSignal(_samples(n, shape, seed), fs))
        extra = DETECTORS[detectors[j]] if detectors is not None else {}
        configs.append(FtioConfig(sampling_frequency=fs, use_autocorrelation=use_acf, **extra))
    return signals, configs


def _assert_same_kernels(one: SpectralKernels, other: SpectralKernels) -> None:
    assert np.array_equal(one.dft.coefficients, other.dft.coefficients)
    assert np.array_equal(one.dft.frequencies, other.dft.frequencies)
    assert np.array_equal(one.spectrum.frequencies, other.spectrum.frequencies)
    assert np.array_equal(one.spectrum.power, other.spectrum.power)
    assert np.array_equal(one.scores, other.scores)
    assert np.array_equal(one.outliers.scores, other.outliers.scores)
    assert np.array_equal(one.outliers.is_outlier, other.outliers.is_outlier)
    assert one.outliers.method == other.outliers.method
    assert (one.acf is None) == (other.acf is None)
    if one.acf is not None:
        assert np.array_equal(one.acf, other.acf)


class TestAgainstTheFrozenOneSignalRoute:
    @BIG
    @given(rows=groups)
    def test_every_field_of_every_row(self, rows):
        signals, configs = _build(rows)
        for signal, config, kernels in zip(
            signals, configs, compute_batch_kernels(signals, configs)
        ):
            n, fs = signal.n_samples, signal.sampling_frequency
            coefficients, frequencies = _frozen_dft(signal.samples, fs)
            power = _frozen_power(coefficients, n)
            scores, is_outlier = _frozen_zscore_detect(power[1:], 3.0)

            assert kernels.signal is signal
            assert (kernels.dft.n_samples, kernels.dft.sampling_frequency) == (n, fs)
            assert (kernels.spectrum.n_samples, kernels.spectrum.sampling_frequency) == (n, fs)
            assert np.array_equal(kernels.dft.coefficients, coefficients)
            assert np.array_equal(kernels.dft.frequencies, frequencies)
            assert np.array_equal(kernels.spectrum.frequencies, frequencies)
            assert np.array_equal(kernels.spectrum.power, power)
            assert np.array_equal(kernels.scores, _frozen_zscores(power[1:]))
            assert np.array_equal(kernels.outliers.scores, scores)
            assert np.array_equal(kernels.outliers.is_outlier, is_outlier)
            assert kernels.outliers.method == "zscore"
            if config.use_autocorrelation:
                assert np.array_equal(kernels.acf, frozen_autocorrelation(signal.samples))
            else:
                assert kernels.acf is None

    @pytest.mark.parametrize("n", [8_748, 20_000])
    def test_long_rows_in_one_group(self, n):
        """Four rows of one length past 256 KiB of spectrum, ACF on and off:
        the case the drawn groups reach only by luck."""
        rows = [(n, "bursts", 1, 100.0, True), (n, "noise", 2, 10.0, True),
                (n, "constant", 3, 100.0, True), (n, "bursts", 4, 10.37, False)]
        signals, configs = _build(rows)
        for signal, config, kernels in zip(
            signals, configs, compute_batch_kernels(signals, configs)
        ):
            coefficients, _ = _frozen_dft(signal.samples, signal.sampling_frequency)
            assert np.array_equal(kernels.dft.coefficients, coefficients)
            assert np.array_equal(kernels.spectrum.power, _frozen_power(coefficients, n))
            if config.use_autocorrelation:
                assert np.array_equal(kernels.acf, frozen_autocorrelation(signal.samples))


class TestARowDoesNotDependOnItsBatch:
    @BIG
    @given(
        rows=groups,
        names=st.lists(st.sampled_from(sorted(DETECTORS)), min_size=6, max_size=6),
    )
    def test_every_row_equals_itself_alone(self, rows, names):
        names = [
            name if name.startswith("zscore") or row[0] <= SLOW_DETECTOR_MAX_SAMPLES else "zscore@3"
            for name, row in zip(names, rows)
        ]
        signals, configs = _build(rows, names)
        together = compute_batch_kernels(signals, configs)
        for signal, config, name, row in zip(signals, configs, names, together):
            (alone,) = compute_batch_kernels([signal], [config])
            _assert_same_kernels(row, alone)
            assert row.outliers.method == name.split("@")[0]

    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_each_detector_beside_batchmates(self, name):
        """Every detector through a shared group at least once, whatever is drawn:
        its decision is the one it makes alone, and the one ``detect`` publishes."""
        fs = 10.0
        signal = DiscreteSignal(_samples(360, "bursts", 7), fs)
        config = FtioConfig(sampling_frequency=fs, **DETECTORS[name])
        mates = [DiscreteSignal(_samples(360, "noise", s), fs) for s in (1, 2)]
        plain = FtioConfig(sampling_frequency=fs, use_autocorrelation=False)
        together = compute_batch_kernels([mates[0], signal, mates[1]], [plain, config, plain])[1]
        (alone,) = compute_batch_kernels([signal], [config])
        _assert_same_kernels(together, alone)
        ftio = Ftio(config)
        staged = ftio.analyze_signal(signal, kernels=together, prepared=True)
        whole = ftio.detect(signal)
        assert np.array_equal(staged.outliers.is_outlier, whole.outliers.is_outlier)
        assert (staged.period, staged.confidence, staged.refined_confidence) == (
            whole.period, whole.confidence, whole.refined_confidence
        )


class TestRowsTooShortForASpectrum:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_come_back_none_and_raise_at_the_door(self, n):
        short = DiscreteSignal(np.ones(n), 10.0)
        fine = DiscreteSignal(_samples(360, "bursts", 0), 10.0)
        config = FtioConfig(use_autocorrelation=False)
        kernels = compute_batch_kernels([short, None, fine], [config] * 3)
        assert kernels[0] is None and kernels[1] is None
        assert isinstance(kernels[2], SpectralKernels)
        for prepared in (False, True):
            with pytest.raises(InsufficientSamplesError):
                Ftio(config).analyze_signal(short, prepared=prepared)

    def test_signals_and_configs_must_pair_up(self):
        with pytest.raises(ValueError):
            compute_batch_kernels([None], [])


class TestOneWayToFinishAResult:
    def test_detect_and_complete_step_change_two_fields_only(self):
        """``Ftio.detect`` and ``OnlinePredictor.complete_step`` stamp
        ``analysis_time`` and ``metadata`` on ``analyze_signal``'s result and
        carry every other field over — whatever fields there are."""
        config = FtioConfig(sampling_frequency=1.0)
        trace = ior_trace(ranks=4, iterations=8, seed=1)
        ftio = Ftio(config)
        bare = ftio.analyze_signal(ftio.to_signal(trace))
        detected = ftio.detect(trace)
        predictor = OnlinePredictor(config=config)
        stepped = predictor.complete_step(predictor.prepare_step(trace)).result

        stamped = {"analysis_time", "metadata"}
        assert bare.is_periodic and bare.analysis_time == 0.0
        for finished in (detected, stepped):
            assert finished.analysis_time > 0.0
            assert finished.metadata == {**bare.metadata, "trace_metadata": trace.metadata}
            for field in dataclasses.fields(bare):
                if field.name not in stamped:
                    assert _same(getattr(finished, field.name), getattr(bare, field.name)), (
                        field.name
                    )


def _same(one, other) -> bool:
    """Deep ``==`` over the dataclasses, tuples and arrays a result is made of."""
    if dataclasses.is_dataclass(one):
        return type(one) is type(other) and all(
            _same(getattr(one, f.name), getattr(other, f.name)) for f in dataclasses.fields(one)
        )
    if isinstance(one, np.ndarray):
        return np.array_equal(one, other)
    if isinstance(one, tuple):
        return len(one) == len(other) and all(_same(a, b) for a, b in zip(one, other))
    return one == other
