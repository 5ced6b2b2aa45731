"""The FTIO detection pipeline (offline mode, Sections II-B and II-C).

The pipeline takes a trace (or any of the supported signal representations),
discretizes it, computes the single-sided power spectrum, finds outlier bins,
selects the dominant-frequency candidates D_f, applies the harmonic rule, and
derives the confidence and characterization metrics.  The online prediction
mode (:mod:`repro.core.online`) repeatedly invokes the same pipeline on a
growing — and adaptively shrinking — time window.

One door, one decide.  The arithmetic — transform, power, Z-scores, outlier
decision, ACF, and the candidate set D_f with each c_k and harmonic flag — is
:mod:`repro.core.kernels` for every caller: :meth:`Ftio.analyze_signal` handed
no kernels computes a batch of one, the service's pump hands in the row of a
batch it already computed.  Below that door a single decide (classification,
ACF refinement, characterisation) reads only the
:class:`~repro.core.kernels.SpectralKernels` container and builds the result
once, so a detection has the same bits offline, replayed, and behind any
service topology.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import MAX_PERIODIC_CANDIDATES, MIN_SPECTRUM_SAMPLES
from repro.core.characterization import characterize
from repro.core.config import FtioConfig
from repro.core.confidence import refined_confidence
from repro.core.kernels import SpectralKernels, compute_batch_kernels
from repro.core.result import (
    CharacterizationResult,
    FrequencyCandidate,
    FtioResult,
    Periodicity,
)
from repro.exceptions import AnalysisError, InsufficientSamplesError
from repro.freq.autocorr import detect_period_autocorrelation, similarity_to_candidates
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
        return self._analyze(
            signal,
            started=started,
            trace_metadata=dict(source.metadata) if isinstance(source, Trace) else None,
        )

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
        return self._analyze(signal, kernels=kernels, prepared=prepared)

    def _analyze(
        self,
        signal: DiscreteSignal,
        *,
        kernels: SpectralKernels | None = None,
        prepared: bool = False,
        started: float | None = None,
        trace_metadata: dict | None = None,
    ) -> FtioResult:
        """The pipeline behind every detection, and its package-internal entry.

        :meth:`analyze_signal` is this with neither of the last two arguments.
        :meth:`detect` and ``OnlinePredictor.complete_step`` also pass the
        ``perf_counter`` their timing started at and the source trace's
        metadata, so the result is built once, already carrying its
        ``analysis_time`` and ``metadata["trace_metadata"]``.

        Past the kernels: classification → ACF refinement → characterisation,
        over the candidates the kernels already selected.
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
        cfg = self.config
        signal = kernels.signal
        candidates = kernels.candidates
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

        metadata = {
            "outlier_method": cfg.outlier_method,
            "tolerance": cfg.tolerance,
            "n_samples": signal.n_samples,
            "abstraction_error": signal.abstraction_error,
        }
        if trace_metadata is not None:
            metadata["trace_metadata"] = trace_metadata
        return FtioResult(
            periodicity=periodicity,
            dominant_frequency=dominant.frequency if dominant is not None else None,
            confidence=confidence,
            refined_confidence=refined,
            candidates=candidates,
            spectrum=kernels.spectrum,
            signal=signal,
            outliers=kernels.outliers,
            autocorrelation=autocorr,
            characterization=characterization,
            analysis_time=time.perf_counter() - started if started is not None else 0.0,
            metadata=metadata,
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
    @staticmethod
    def _classify(
        candidates: tuple[FrequencyCandidate, ...],
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
