"""Shared default constants of the FTIO reproduction.

The values mirror the defaults used in the paper (Section II): a Z-score of 3
marks an outlier, candidate frequencies must reach 80 % of the maximum Z-score,
and the default sampling frequency used in most experiments is 10 Hz.
"""

from __future__ import annotations

#: Z-score above which a power-spectrum bin is considered an outlier (Sec. II-B2).
ZSCORE_OUTLIER_THRESHOLD: float = 3.0

#: A candidate must have a Z-score within this fraction of the maximum Z-score.
DOMINANT_TOLERANCE: float = 0.8

#: Default sampling frequency [Hz] used for discretizing the bandwidth signal.
DEFAULT_SAMPLING_FREQUENCY: float = 10.0

#: Default relative threshold used by SciPy ``find_peaks`` on the ACF (Sec. II-C).
ACF_PEAK_THRESHOLD: float = 0.15

#: Fewest samples a spectrum is computed from: below it the DFT raises
#: ``InsufficientSamplesError`` and the spectral kernels return no row.
MIN_SPECTRUM_SAMPLES: int = 4

#: Maximum number of dominant-frequency candidates for a signal to be called periodic.
MAX_PERIODIC_CANDIDATES: int = 2

#: Number of consecutive detections after which the online window is shrunk (Sec. II-D).
ONLINE_WINDOW_HITS: int = 3

#: Bytes per gibibyte / mebibyte, used by the workload generators.
GIB: int = 1024**3
MIB: int = 1024**2

#: Peak write bandwidth of the simulated shared file system [bytes/s].
#: (The Lichtenberg IBM Spectrum Scale system peaks at 106 GB/s for writes.)
DEFAULT_FILESYSTEM_BANDWIDTH: float = 106 * 10**9

#: Default error injected into FTIO periods in the "Set-10 + error" configuration.
SET10_ERROR_FACTOR: float = 0.5
