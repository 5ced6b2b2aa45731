"""Configuration of the FTIO analysis.

The knobs mirror Section II of the paper: the sampling frequency fs, the
analysis window Δt, the Z-score threshold (3), the dominant-candidate
tolerance (0.8), the choice of outlier detector, and whether the
autocorrelation refinement and the characterization metrics are computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.constants import (
    ACF_PEAK_THRESHOLD,
    DEFAULT_SAMPLING_FREQUENCY,
    DOMINANT_TOLERANCE,
    ONLINE_WINDOW_HITS,
    ZSCORE_OUTLIER_THRESHOLD,
)
from repro.exceptions import ConfigurationError
from repro.freq.outliers import DETECTOR_REGISTRY
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability,
)


@dataclass(frozen=True)
class FtioConfig:
    """Parameters of one FTIO analysis.

    Attributes
    ----------
    sampling_frequency:
        The **minimum** fs in Hz the bandwidth signal is discretized with
        (paper default: 10 Hz for the case studies, 1 Hz for the limitation
        study).  A window of Δt seconds is cut to the next 5-smooth length
        N′ >= Δt·fs and sampled at the effective rate ``N′ / Δt`` — never
        below this value, a few percent above it (bounds in
        :mod:`repro.trace.sampling`) — which is what
        ``result.signal.sampling_frequency`` reports.
    tolerance:
        Fraction of the maximum Z-score a candidate must reach (paper: 0.8).
    zscore_threshold:
        Z-score above which a bin is an outlier (paper: 3).
    outlier_method:
        Which detector decides the outlier set: ``"zscore"`` (default),
        ``"dbscan"``, ``"isolation_forest"``, ``"lof"`` or ``"find_peaks"``.
    outlier_kwargs:
        Extra keyword arguments forwarded to the detector constructor.
    use_autocorrelation:
        Whether to run the ACF refinement and report a refined confidence.
    acf_peak_threshold:
        Threshold of the ACF peak detection (paper: 0.15).
    compute_characterization:
        Whether to compute sigma_vol / sigma_time / R_IO / B_IO.
    io_kind:
        Restrict the analysis to ``"write"`` (default) or ``"read"`` requests,
        or ``None`` for both.
    sampling_mode:
        ``"point"`` (paper formula) or ``"bin"`` (volume conserving).
    window:
        Optional (t0, t1) analysis window Δt; ``None`` analyses the whole trace.
    skip_first_phase:
        Drop everything before the end of the first detected I/O burst; the
        paper offers this because the first phase is often prolonged by
        initialization overheads.
    harmonic_tolerance:
        Relative tolerance when deciding whether a candidate is an integer
        multiple (two or more times) of a lower candidate.
    online_window_hits:
        Number of consecutive identical detections after which the online mode
        shrinks its analysis window (Section II-D).
    """

    sampling_frequency: float = DEFAULT_SAMPLING_FREQUENCY
    tolerance: float = DOMINANT_TOLERANCE
    zscore_threshold: float = ZSCORE_OUTLIER_THRESHOLD
    outlier_method: str = "zscore"
    outlier_kwargs: dict[str, Any] = field(default_factory=dict)
    use_autocorrelation: bool = True
    acf_peak_threshold: float = ACF_PEAK_THRESHOLD
    compute_characterization: bool = True
    io_kind: str | None = "write"
    sampling_mode: str = "point"
    window: tuple[float, float] | None = None
    skip_first_phase: bool = False
    harmonic_tolerance: float = 0.05
    online_window_hits: int = ONLINE_WINDOW_HITS

    def __post_init__(self) -> None:
        check_positive(self.sampling_frequency, "sampling_frequency")
        check_probability(self.tolerance, "tolerance")
        check_positive(self.zscore_threshold, "zscore_threshold")
        check_in_range(self.acf_peak_threshold, "acf_peak_threshold", low=0.0, high=1.0)
        check_in_range(self.harmonic_tolerance, "harmonic_tolerance", low=0.0, high=0.5)
        check_positive_int(self.online_window_hits, "online_window_hits")
        if self.outlier_method not in DETECTOR_REGISTRY:
            known = ", ".join(sorted(DETECTOR_REGISTRY))
            raise ConfigurationError(
                f"unknown outlier_method {self.outlier_method!r}; known methods: {known}"
            )
        if self.io_kind not in (None, "write", "read"):
            raise ConfigurationError(f"io_kind must be 'write', 'read' or None, got {self.io_kind!r}")
        if self.sampling_mode not in ("point", "bin"):
            raise ConfigurationError(
                f"sampling_mode must be 'point' or 'bin', got {self.sampling_mode!r}"
            )
        if self.window is not None:
            t0, t1 = self.window
            if t1 <= t0:
                raise ConfigurationError(f"window end ({t1}) must be > start ({t0})")

    def with_updates(self, **changes: Any) -> "FtioConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)
