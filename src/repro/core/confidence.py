"""Confidence metrics of Section II-C.

For at most two candidates, FTIO reports a confidence c_k per candidate
frequency f_k:

    c_k = 1/2 * ( z_k / sum_{i in I1} z_i  +  z_k / sum_{i in I2} z_i )

where I1 is the set of outlier bins (z_i >= 3) and I2 the set of bins whose
Z-score is within the tolerance of the maximum (z_i / z_max >= 0.8).  The
confidence of the dominant frequency is c_d.

When the autocorrelation refinement is enabled, the refined confidence is the
plain average of (c_d, c_a, c_s): the DFT confidence, the ACF confidence and
the similarity between the DFT period and the ACF candidates.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.constants import DOMINANT_TOLERANCE, ZSCORE_OUTLIER_THRESHOLD


def confidence_index_sets(
    scores: ArrayLike,
    *,
    zscore_threshold: float = ZSCORE_OUTLIER_THRESHOLD,
    tolerance: float = DOMINANT_TOLERANCE,
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Return the index sets I1 (outliers) and I2 (within tolerance of z_max).

    Both sets are indices into the *analysis* array (non-DC bins).  When no
    bin reaches the outlier threshold, I1 is empty; when every Z-score is zero
    (flat spectrum), I2 is empty as well.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    i1 = np.flatnonzero(z >= zscore_threshold).astype(np.int64)
    z_max = float(z.max())
    if z_max <= 0:
        i2 = np.zeros(0, dtype=np.int64)
    else:
        i2 = np.flatnonzero(z / z_max >= tolerance).astype(np.int64)
    return i1, i2


def candidate_confidence(
    k: int,
    scores: ArrayLike,
    *,
    zscore_threshold: float = ZSCORE_OUTLIER_THRESHOLD,
    tolerance: float = DOMINANT_TOLERANCE,
) -> float:
    """Confidence c_k of the candidate at index ``k`` of the analysis array.

    Follows the formula of Section II-C; a zero denominator contributes 0, so
    the confidence degrades gracefully instead of dividing by zero.  This is
    the per-candidate form; the pipeline computes the two index-set totals
    once per spectrum, with the same arithmetic, in the candidate pass of
    :mod:`repro.core.kernels`.
    """
    z = np.asarray(scores, dtype=np.float64)
    if k < 0 or k >= z.size:
        raise IndexError(f"candidate index {k} out of range for {z.size} bins")
    i1, i2 = confidence_index_sets(z, zscore_threshold=zscore_threshold, tolerance=tolerance)
    zk = float(z[k])
    totals = (float(z[i1].sum()) if i1.size else 0.0, float(z[i2].sum()) if i2.size else 0.0)
    return float(0.5 * sum(zk / total if total > 0 else 0.0 for total in totals))


def refined_confidence(
    dft_confidence: float,
    acf_confidence: float,
    similarity: float,
) -> float:
    """Refined confidence: the average of (c_d, c_a, c_s), clipped to [0, 1]."""
    values = np.clip([dft_confidence, acf_confidence, similarity], 0.0, 1.0)
    return float(values.mean())
