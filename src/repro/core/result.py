"""Result types returned by the FTIO analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.freq.autocorr import AutocorrelationResult
from repro.freq.outliers import OutlierResult
from repro.freq.spectrum import PowerSpectrum
from repro.trace.sampling import DiscreteSignal


class Periodicity(str, Enum):
    """Qualitative verdict on the periodicity of a signal (Section II-B2)."""

    #: Exactly one dominant-frequency candidate: confidently periodic.
    PERIODIC = "periodic"
    #: Two candidates: periodic with some variation in behaviour.
    PERIODIC_WITH_VARIATION = "periodic_with_variation"
    #: Zero or more than two candidates: most likely not periodic.
    NOT_PERIODIC = "not_periodic"

    @property
    def is_periodic(self) -> bool:
        """True for both periodic verdicts."""
        return self is not Periodicity.NOT_PERIODIC


@dataclass(frozen=True)
class FrequencyCandidate:
    """One dominant-frequency candidate f_k from the set D_f.

    Attributes
    ----------
    bin_index:
        Index k of the bin in the single-sided spectrum.
    frequency:
        f_k in Hz.
    power:
        p_k (unnormalized power of the bin).
    contribution:
        p_k / total power: the bin's share of the signal power.
    zscore:
        z_k of the bin.
    confidence:
        c_k as defined in Section II-C.
    is_harmonic:
        True when the candidate was discarded for being an integer multiple
        (two or more times) of a lower candidate.
    """

    bin_index: int
    frequency: float
    power: float
    contribution: float
    zscore: float
    confidence: float
    is_harmonic: bool = False

    @property
    def period(self) -> float:
        """1 / f_k in seconds."""
        return 1.0 / self.frequency


@dataclass(frozen=True)
class CharacterizationResult:
    """Further characterization of the signal given the detected period (Section II-C).

    Attributes
    ----------
    sigma_vol:
        Standard deviation of the per-period volume normalized by the maximum.
    sigma_time:
        Standard deviation of the per-period fraction of time spent on
        substantial I/O (Eq. 4).
    time_ratio:
        R_IO: fraction of the trace spent on substantial I/O.
    io_bandwidth:
        B_IO: bandwidth that characterizes the substantial I/O (bytes/s).
    bytes_per_period:
        Average amount of data transferred per period, V(S) / (L(T)·f_d).
    threshold:
        The noise threshold V(T) / L(T) in bytes/s.
    periodicity_score:
        1 − sigma_vol − sigma_time, clipped to [0, 1].
    """

    sigma_vol: float
    sigma_time: float
    time_ratio: float
    io_bandwidth: float
    bytes_per_period: float
    threshold: float
    periodicity_score: float


@dataclass(frozen=True)
class FtioResult:
    """Complete outcome of one FTIO evaluation (offline detection or one online step).

    Attributes
    ----------
    periodicity:
        Qualitative verdict (periodic / periodic with variation / not periodic).
    dominant_frequency:
        The dominant frequency f_d in Hz, or ``None`` when not periodic.
    confidence:
        c_d: confidence in the dominant frequency from the DFT analysis alone.
    refined_confidence:
        Average of (c_d, c_a, c_s) when autocorrelation was used, else ``None``.
    candidates:
        All dominant-frequency candidates (including discarded harmonics).
    spectrum:
        The single-sided power spectrum that was analysed.
    signal:
        The discretized signal the spectrum was computed from.
    outliers:
        Raw output of the configured outlier detector.
    autocorrelation:
        ACF refinement result, when enabled.
    characterization:
        sigma_vol / sigma_time / R_IO / B_IO metrics, when enabled and periodic.
    analysis_time:
        Wall-clock seconds spent in the analysis (the paper reports these).
    metadata:
        Extra information (window used, trace metadata, ...).
    """

    periodicity: Periodicity
    dominant_frequency: float | None
    confidence: float
    refined_confidence: float | None
    candidates: tuple[FrequencyCandidate, ...]
    spectrum: PowerSpectrum
    signal: DiscreteSignal
    outliers: OutlierResult
    autocorrelation: AutocorrelationResult | None = None
    characterization: CharacterizationResult | None = None
    analysis_time: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def is_periodic(self) -> bool:
        """True when a dominant frequency was identified."""
        return self.periodicity.is_periodic and self.dominant_frequency is not None

    @property
    def period(self) -> float | None:
        """1 / f_d in seconds, or ``None`` when the signal is not periodic."""
        if self.dominant_frequency is None or self.dominant_frequency <= 0:
            return None
        return 1.0 / self.dominant_frequency

    @property
    def best_confidence(self) -> float:
        """The refined confidence when available, else the DFT confidence."""
        return self.refined_confidence if self.refined_confidence is not None else self.confidence

    def active_candidates(self) -> tuple[FrequencyCandidate, ...]:
        """Candidates that were not discarded as harmonics."""
        return tuple(c for c in self.candidates if not c.is_harmonic)

    def summary(self) -> str:
        """One-line human-readable summary of the result."""
        if not self.is_periodic:
            return (
                f"not periodic ({len(self.active_candidates())} candidates, "
                f"{self.signal.n_samples} samples at {self.signal.sampling_frequency:g} Hz)"
            )
        period = self.period
        assert period is not None
        refined = (
            f", refined confidence {self.refined_confidence:.1%}"
            if self.refined_confidence is not None
            else ""
        )
        return (
            f"period {period:.2f} s (frequency {self.dominant_frequency:.4g} Hz), "
            f"confidence {self.confidence:.1%}{refined}"
        )
