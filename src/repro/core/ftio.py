"""The FTIO detection pipeline (offline mode, Sections II-B and II-C).

The pipeline takes a trace (or any of the supported signal representations),
discretizes it, computes the single-sided power spectrum, finds outlier bins,
selects the dominant-frequency candidates D_f, applies the harmonic rule, and
derives the confidence and characterization metrics.  The online prediction
mode (:mod:`repro.core.online`) repeatedly invokes the same pipeline on a
growing — and adaptively shrinking — time window.

One door, one decide.  The arithmetic — transform, power, Z-scores, outlier
decision, ACF — is :mod:`repro.core.kernels` for every caller:
:meth:`Ftio.analyze_signal` handed no kernels computes a batch of one, the
service's pump hands in the row of a batch it already computed.  Below that
door a single decide reads only the :class:`~repro.core.kernels.SpectralKernels`
container, so a detection has the same bits offline, replayed, and behind any
service topology.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.constants import MAX_PERIODIC_CANDIDATES, MIN_SPECTRUM_SAMPLES
from repro.core.characterization import characterize
from repro.core.config import FtioConfig
from repro.core.confidence import confidence_from_totals, index_set_totals, refined_confidence
from repro.core.kernels import SpectralKernels, compute_batch_kernels
from repro.core.result import (
    CharacterizationResult,
    FrequencyCandidate,
    FtioResult,
    Periodicity,
)
from repro.exceptions import AnalysisError, InsufficientSamplesError
from repro.freq.autocorr import detect_period_autocorrelation, similarity_to_candidates
from repro.freq.spectrum import PowerSpectrum
from repro.trace.bandwidth import BandwidthSignal
from repro.trace.darshan import DarshanHeatmap, heatmap_to_signal
from repro.trace.sampling import DiscreteSignal, discretize_signal, discretize_trace
from repro.trace.trace import Trace

#: Union of the source types :meth:`Ftio.detect` accepts.
TraceLike = Trace | BandwidthSignal | DiscreteSignal | DarshanHeatmap


class Ftio:
    """Frequency Techniques for I/O: period detection on an I/O trace.

    Parameters
    ----------
    config:
        Analysis parameters; defaults reproduce the paper's settings.

    Examples
    --------
    >>> from repro import Ftio, workloads
    >>> trace = workloads.ior_trace(ranks=4, iterations=8, seed=1)
    >>> result = Ftio().detect(trace)
    >>> result.is_periodic
    True
    """

    def __init__(self, config: FtioConfig | None = None):
        self.config = config or FtioConfig()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def detect(
        self,
        source: TraceLike,
        *,
        window: tuple[float, float] | None = None,
        sampling_frequency: float | None = None,
    ) -> FtioResult:
        """Run the offline detection on ``source`` and return an :class:`FtioResult`.

        Parameters
        ----------
        source:
            A :class:`Trace`, a :class:`BandwidthSignal`, an already
            discretized :class:`DiscreteSignal`, or a :class:`DarshanHeatmap`.
        window:
            Optional (t0, t1) analysis window overriding the configured one.
        sampling_frequency:
            Optional fs override (ignored for heatmaps and pre-discretized
            signals, which carry their own sampling frequency).
        """
        started = time.perf_counter()
        signal = self.to_signal(source, window=window, sampling_frequency=sampling_frequency)
        result = self.analyze_signal(signal)
        elapsed = time.perf_counter() - started
        metadata = dict(result.metadata)
        if isinstance(source, Trace):
            metadata.setdefault("trace_metadata", dict(source.metadata))
        return replace(result, analysis_time=elapsed, metadata=metadata)

    def analyze_signal(
        self,
        signal: DiscreteSignal,
        *,
        kernels: SpectralKernels | None = None,
        prepared: bool = False,
    ) -> FtioResult:
        """Run the frequency analysis on an already discretized signal.

        Parameters
        ----------
        signal:
            The discretized bandwidth signal.
        kernels:
            The signal's row of a :func:`~repro.core.kernels.compute_batch_kernels`
            call already made (the service's pump); ``kernels.signal`` is what
            is analysed.  ``None`` computes them here, as a batch of one.
        prepared:
            Set when ``signal`` already went through :meth:`prepare_signal`,
            so the trimming is not applied a second time.

        Raises :class:`InsufficientSamplesError` when the signal is too short
        for a spectrum (:data:`~repro.constants.MIN_SPECTRUM_SAMPLES`).
        """
        if kernels is None:
            if not prepared:
                signal = self.prepare_signal(signal)
            (kernels,) = compute_batch_kernels([signal], [self.config])
            if kernels is None:
                raise InsufficientSamplesError(
                    f"a spectrum needs at least {MIN_SPECTRUM_SAMPLES} samples, "
                    f"got {signal.n_samples}"
                )
        return self._decide(kernels)

    def _decide(self, kernels: SpectralKernels) -> FtioResult:
        """Candidates → harmonic rule → classification → ACF refinement → characterisation."""
        cfg = self.config
        signal = kernels.signal
        spectrum = kernels.spectrum
        outliers = kernels.outliers

        candidates = self._select_candidates(spectrum, kernels.scores, outliers.is_outlier)
        periodicity, dominant = self._classify(candidates)

        confidence = 0.0
        if dominant is not None:
            confidence = dominant.confidence

        autocorr = None
        refined = None
        if cfg.use_autocorrelation:
            autocorr = detect_period_autocorrelation(
                signal.samples,
                signal.sampling_frequency,
                peak_threshold=cfg.acf_peak_threshold,
                zscore_threshold=cfg.zscore_threshold,
                acf=kernels.acf,
            )
            if dominant is not None and autocorr.period is not None:
                similarity = similarity_to_candidates(
                    dominant.frequency, autocorr.candidate_periods
                )
                refined = refined_confidence(confidence, autocorr.confidence, similarity)

        characterization: CharacterizationResult | None = None
        if cfg.compute_characterization and dominant is not None:
            try:
                characterization = characterize(signal, dominant.frequency)
            except AnalysisError:
                characterization = None

        return FtioResult(
            periodicity=periodicity,
            dominant_frequency=dominant.frequency if dominant is not None else None,
            confidence=confidence,
            refined_confidence=refined,
            candidates=tuple(candidates),
            spectrum=spectrum,
            signal=signal,
            outliers=outliers,
            autocorrelation=autocorr,
            characterization=characterization,
            metadata={
                "outlier_method": cfg.outlier_method,
                "tolerance": cfg.tolerance,
                "n_samples": signal.n_samples,
                "abstraction_error": signal.abstraction_error,
            },
        )

    def prepare_signal(self, signal: DiscreteSignal) -> DiscreteSignal:
        """Apply the configured pre-analysis trimming (``skip_first_phase``).

        This is the exact preparation :meth:`analyze_signal` performs before
        the kernels; the service's batch loop calls it first so the kernels it
        hands in are computed from the same samples.
        """
        if self.config.skip_first_phase:
            return _skip_first_phase(signal)
        return signal

    def to_signal(
        self,
        source: TraceLike,
        *,
        window: tuple[float, float] | None = None,
        sampling_frequency: float | None = None,
    ) -> DiscreteSignal:
        """Discretize ``source`` exactly as :meth:`detect` does (without analysing it)."""
        cfg = self.config
        window = window if window is not None else cfg.window
        fs = sampling_frequency if sampling_frequency is not None else cfg.sampling_frequency
        if isinstance(source, DiscreteSignal):
            if window is not None:
                return source.window(*window)
            return source
        if isinstance(source, DarshanHeatmap):
            kind = cfg.io_kind or "write"
            signal = heatmap_to_signal(source, kind=kind)
            if window is not None:
                return signal.window(*window)
            return signal
        if isinstance(source, BandwidthSignal):
            return discretize_signal(source, fs, mode=cfg.sampling_mode, window=window)
        if isinstance(source, Trace):
            return discretize_trace(
                source, fs, kind=cfg.io_kind, mode=cfg.sampling_mode, window=window
            )
        raise TypeError(
            "detect() expects a Trace, BandwidthSignal, DiscreteSignal or DarshanHeatmap, "
            f"got {type(source).__name__}"
        )

    # ------------------------------------------------------------------ #
    # the decide's stages
    # ------------------------------------------------------------------ #
    def _select_candidates(
        self,
        spectrum: PowerSpectrum,
        scores: np.ndarray,
        outlier_mask: np.ndarray,
    ) -> list[FrequencyCandidate]:
        """Build the candidate set D_f (Eq. 3) and mark harmonics."""
        cfg = self.config
        if scores.size == 0:
            return []
        # A (near-)constant signal has essentially all of its power in the DC
        # bin; whatever remains is floating-point dust, not periodic activity.
        total_power = spectrum.total_power
        if total_power <= max(spectrum.dc_power, 1.0) * 1e-12:
            return []
        z_max = float(scores.max())
        if z_max <= 0:
            return []
        within_tolerance = scores / z_max >= cfg.tolerance
        candidate_mask = outlier_mask & within_tolerance
        indices = np.flatnonzero(candidate_mask)
        if indices.size == 0:
            return []

        # The Section II-C index sets depend on the spectrum, not on the
        # candidate: built once here, shared by every c_k below.
        totals = index_set_totals(
            scores, zscore_threshold=cfg.zscore_threshold, tolerance=cfg.tolerance
        )
        candidates: list[FrequencyCandidate] = []
        for idx in indices:
            k = int(idx) + 1  # analysis arrays exclude the DC bin
            zscore = float(scores[idx])
            candidates.append(
                FrequencyCandidate(
                    bin_index=k,
                    frequency=float(spectrum.frequencies[k]),
                    power=float(spectrum.power[k]),
                    contribution=float(spectrum.power[k] / total_power) if total_power else 0.0,
                    zscore=zscore,
                    confidence=confidence_from_totals(zscore, totals),
                )
            )
        candidates.sort(key=lambda c: c.frequency)
        return self._mark_harmonics(candidates)

    def _mark_harmonics(self, candidates: list[FrequencyCandidate]) -> list[FrequencyCandidate]:
        """Mark candidates that are integer multiples of a lower candidate as harmonics.

        Section II-B2: when extra candidates are multiples of a lower one, the
        higher frequencies are ignored; their presence indicates periodic I/O
        bursts rather than a separate period.  (The paper discusses the
        "multiple of two" case seen in its IOR example; bursty signals also
        produce odd harmonics, so any integer multiple is treated the same.)
        """
        tol = self.config.harmonic_tolerance
        marked: list[FrequencyCandidate] = []
        base_frequencies: list[float] = []
        for candidate in candidates:
            is_harmonic = False
            for base in base_frequencies:
                if base <= 0:
                    continue
                ratio = candidate.frequency / base
                nearest = round(ratio)
                if nearest >= 2 and abs(ratio - nearest) <= tol * nearest:
                    is_harmonic = True
                    break
            if is_harmonic:
                marked.append(replace(candidate, is_harmonic=True))
            else:
                marked.append(candidate)
                base_frequencies.append(candidate.frequency)
        return marked

    @staticmethod
    def _classify(
        candidates: list[FrequencyCandidate],
    ) -> tuple[Periodicity, FrequencyCandidate | None]:
        """Apply the 0 / 1 / 2 / more candidate rule of Section II-B2."""
        active = [c for c in candidates if not c.is_harmonic]
        if len(active) == 1:
            return Periodicity.PERIODIC, active[0]
        if len(active) == MAX_PERIODIC_CANDIDATES:
            dominant = max(active, key=lambda c: c.power)
            return Periodicity.PERIODIC_WITH_VARIATION, dominant
        return Periodicity.NOT_PERIODIC, None


def _skip_first_phase(signal: DiscreteSignal) -> DiscreteSignal:
    """Drop everything up to the end of the first substantial I/O burst.

    The first I/O phase of an application is often prolonged by initialization
    overheads (observed for HACC-IO in Section III-B); FTIO offers the option
    to skip it.  The burst boundary is the first sample where the bandwidth
    falls back below the mean after having exceeded it.
    """
    samples = signal.samples
    if len(samples) < 4:
        return signal
    threshold = samples.mean()
    above = samples > threshold
    if not above.any():
        return signal
    first_high = int(np.argmax(above))
    after = np.flatnonzero(~above[first_high:])
    if after.size == 0:
        return signal
    cut = first_high + int(after[0])
    if cut >= len(samples) - 4:
        return signal
    return DiscreteSignal(
        samples=samples[cut:],
        sampling_frequency=signal.sampling_frequency,
        t_start=signal.t_start + cut / signal.sampling_frequency,
        abstraction_error=signal.abstraction_error,
        mode=signal.mode,
    )


def detect(source: TraceLike, **config_kwargs) -> FtioResult:
    """Convenience function: run FTIO with the given configuration overrides.

    ``detect(trace, sampling_frequency=1.0, use_autocorrelation=False)`` is
    shorthand for building an :class:`FtioConfig` and an :class:`Ftio` object.
    """
    config = FtioConfig(**config_kwargs)
    return Ftio(config).detect(source)
