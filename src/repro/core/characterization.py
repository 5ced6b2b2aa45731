"""Characterization metrics given a detected period (Section II-C).

Once FTIO has found the period 1/f_d, the signal can be further characterized:

* ``sigma_vol`` — how similar the amount of data per period is,
* ``R_IO``      — which fraction of the time is spent on *substantial* I/O,
* ``B_IO``      — the bandwidth that characterizes that substantial I/O,
* ``sigma_time``— how similar the per-period time share of substantial I/O is,
* the periodicity score 1 − sigma_vol − sigma_time.

The noise threshold separating substantial I/O from background activity is
V(T)/L(T): the mean data rate of the whole trace.  All metrics are computed on
the discretized signal, which is what FTIO has available online.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.core.result import CharacterizationResult
from repro.exceptions import AnalysisError
from repro.trace.sampling import DiscreteSignal
from repro.utils.validation import check_positive


def substantial_io_threshold(signal: DiscreteSignal) -> float:
    """Return the noise threshold V(T)/L(T) in bytes/s for ``signal``.

    Because the samples are bandwidth values, the mean sample value equals the
    total volume divided by the trace length.
    """
    if signal.n_samples == 0:
        return 0.0
    return float(signal.samples.mean())


def time_ratio_and_bandwidth(signal: DiscreteSignal) -> tuple[float, float, float]:
    """Compute (R_IO, B_IO, threshold) for ``signal``.

    R_IO is the fraction of samples whose bandwidth exceeds the threshold;
    B_IO is the mean bandwidth over those samples (0 when there are none).
    """
    r_io, b_io, threshold, _, _ = _substantial_io(signal)
    return r_io, b_io, threshold


def _substantial_io(
    signal: DiscreteSignal,
) -> tuple[float, float, float, NDArray[np.bool_], NDArray[np.float64]]:
    """(R_IO, B_IO, threshold) plus the substantial-I/O mask and the samples it
    selects, each computed once over the window."""
    threshold = substantial_io_threshold(signal)
    samples = signal.samples
    if signal.n_samples == 0:
        return 0.0, 0.0, threshold, np.zeros(0, dtype=bool), samples
    substantial = samples > threshold
    selected = samples[substantial]
    r_io = float(substantial.mean())
    b_io = float(selected.mean()) if selected.size else 0.0
    return r_io, b_io, threshold, substantial, selected


def characterize(signal: DiscreteSignal, dominant_frequency: float) -> CharacterizationResult:
    """Compute all characterization metrics for ``signal`` and the given f_d.

    Raises
    ------
    AnalysisError
        If the signal is shorter than one period (no sub-trace can be formed).
    """
    check_positive(dominant_frequency, "dominant_frequency")
    period = 1.0 / dominant_frequency
    fs = signal.sampling_frequency
    samples_per_period = int(round(period * fs))
    if samples_per_period < 1:
        raise AnalysisError(
            f"period {period:.3g} s is below the sampling resolution 1/fs = {1.0 / fs:.3g} s"
        )
    n_periods = signal.n_samples // samples_per_period
    if n_periods < 1:
        raise AnalysisError(
            f"signal of {signal.n_samples} samples is shorter than one period "
            f"({samples_per_period} samples)"
        )

    r_io, b_io, threshold, substantial, selected = _substantial_io(signal)

    usable = n_periods * samples_per_period
    periods = signal.samples[:usable].reshape(n_periods, samples_per_period)

    # sigma_vol: std of per-period volume normalized by the maximum volume.
    volumes = periods.sum(axis=1) / fs
    max_volume = float(volumes.max())
    if max_volume > 0:
        sigma_vol = float(np.std(volumes / max_volume))
    else:
        sigma_vol = 0.0

    # sigma_time: std of the per-period fraction of time above the threshold,
    # measured against the global ratio R_IO (Eq. 4).
    per_period_ratio = substantial[:usable].reshape(n_periods, samples_per_period).mean(axis=1)
    sigma_time = float(np.sqrt(np.mean((per_period_ratio - r_io) ** 2)))

    # Average bytes moved per period: V(S) / (L(T) * f_d).
    volume_substantial = float(selected.sum() / fs)
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
