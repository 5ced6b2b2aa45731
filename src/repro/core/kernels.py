"""The spectral kernels — the one place the pipeline's arithmetic is computed.

Transform, power spectrum, Z-scores, outlier decision and ACF (Sections II-B
and II-C) of every detection run in :func:`compute_batch_kernels` and nowhere
else under ``src/``: offline ``Ftio.detect``, the replay and
``JobSession.detect`` hand it a batch of one, the service's pump
(:mod:`repro.service.batch`) every due session at once.  Signals are grouped
by window length, each group is one ``(k, n)`` array under single 2-D kernels,
and every row leaves as a :class:`SpectralKernels`, the container
``Ftio.analyze_signal`` decides from.  A group of one is a ``(1, n)`` view of
the signal's own samples: nothing is stacked, nothing copied out of a block
that *is* the row.  Group size is observed here, never set by a caller.

**Why the length alone.**  No kernel reads the sampling rate — a transform,
a Z-score and a lag product are functions of the samples — and
:mod:`repro.trace.sampling` cuts every window to the next 5-smooth length, so
a fleet of jobs with different periods lands on a handful of lengths (256
jobs on ~10) where exact ``(n, fs)`` pairs put them in 146 groups of ~2.  The
rate only labels the result: each row gets its own sampling frequency and its
own frequency grid, the shared unit grid times its rate.

**Bit-identity contract: a row's bits do not depend on who else is in the
batch** — alone, beside 255 others, offline or behind any service topology;
that is what makes every route agree, by call graph.  So 2-D evaluation is
used only where numpy produces bit-identical rows: the FFT transforms, the
mean/std axis reductions, and elementwise maps whose every output element is
one exact IEEE operation of its input element (abs, square, divide, subtract,
compare — lane position cannot change those).  The shape-sensitive steps —
complex products like ``x * conj(x)`` and energy dot products, where SIMD/FMA
contraction makes the 2-D form differ from its 1-D rows in the last ulp — stay
per row on contiguous views (:func:`repro.freq.autocorr.autocorrelation_batch`),
as does a detector whose decision is not a threshold on the Z-scores.
``tests/core/test_kernels.py`` holds every field of every row ``==`` a frozen
copy of the one-signal arithmetic this module replaced, and ``==`` the same
row evaluated alone.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.constants import MIN_SPECTRUM_SAMPLES
from repro.core.config import FtioConfig
from repro.freq import plan
from repro.freq.autocorr import autocorrelation_batch
from repro.freq.dft import DftResult
from repro.freq.outliers import OutlierDetector, OutlierResult, ZScoreDetector, make_detector
from repro.freq.spectrum import PowerSpectrum
from repro.trace.sampling import DiscreteSignal

#: Signature of the optional kernel-stage observer: ``(stage, group_size,
#: seconds)``.  The dispatcher plugs a histogram recorder in here; ``None``
#: (the default everywhere) skips the timing entirely.
KernelObserver = Callable[[str, int, float], None]


@dataclass(frozen=True)
class SpectralKernels:
    """Everything :meth:`Ftio.analyze_signal` decides from, for one signal.

    Built only by :func:`compute_batch_kernels`; every field is set.

    Attributes
    ----------
    signal:
        The *prepared* signal the kernels were computed from (after the
        configured ``skip_first_phase`` trimming).
    dft:
        Single-sided DFT of ``signal.samples``.
    spectrum:
        Single-sided power spectrum p_k = |X_k|² / N on the DFT's grid.
    scores:
        Z-scores of the non-DC power bins.
    outliers:
        The configured detector's decision on the non-DC power bins.
    acf:
        Normalized autocorrelation of ``signal.samples``; ``None`` exactly
        when the row's configuration has ``use_autocorrelation`` off.
    """

    signal: DiscreteSignal
    dft: DftResult
    spectrum: PowerSpectrum
    scores: NDArray[np.float64]
    outliers: OutlierResult
    acf: NDArray[np.float64] | None


def _own_row(block: NDArray, row: int) -> NDArray:
    """Row ``row`` of a group's block, for its result to keep: a copy (a view would
    pin the whole block for as long as one result lives) unless the block *is* the row."""
    return block[0] if len(block) == 1 else block[row].copy()


def compute_batch_kernels(
    signals: Sequence[DiscreteSignal | None],
    configs: Sequence[FtioConfig],
    observer: KernelObserver | None = None,
) -> list[SpectralKernels | None]:
    """Evaluate the spectral kernels of many prepared signals in batches.

    Signals are grouped by ``n_samples``; each group runs one 2-D ``rfft``,
    one vectorized Z-score pass and (for the rows whose configuration asks
    for it) one batched ACF, and every row keeps its own sampling rate.  A
    ``"zscore"`` detector's decision is a threshold on the group's scores;
    any other detector runs on its own row.  ``None`` signals and signals of
    fewer than :data:`~repro.constants.MIN_SPECTRUM_SAMPLES` samples come
    back ``None``.  A row's kernels do not depend on the rest of the batch.

    ``observer`` (when given) receives ``(stage, group_size, seconds)`` for
    each kernel stage of each window-group: ``rfft``, ``zscore``, ``acf``.
    """
    if len(signals) != len(configs):
        raise ValueError(f"{len(signals)} signals but {len(configs)} configs")
    kernels: list[SpectralKernels | None] = [None] * len(signals)
    # Fleets share a handful of config objects; build each one's detector
    # once per batch instead of once per session.
    detectors: dict[int, OutlierDetector] = {}

    groups: dict[int, list[int]] = {}
    for i, signal in enumerate(signals):
        if signal is None or signal.n_samples < MIN_SPECTRUM_SAMPLES:
            continue
        groups.setdefault(signal.n_samples, []).append(i)

    for n, indices in groups.items():
        k = len(indices)
        rows = [signals[i].samples for i in indices]  # type: ignore[union-attr]
        if k == 1:
            block = np.ascontiguousarray(rows[0], dtype=np.float64).reshape(1, n)
        else:
            # The per-thread (k, n) buffer is the ACF's stacking buffer too;
            # the transform below is its only reader here.
            block = plan.workspace((k, n))
            for row, samples in enumerate(rows):
                block[row] = samples
        stage_started = time.perf_counter() if observer is not None else 0.0
        coefficients = np.fft.rfft(block, axis=1)
        unit_frequencies = plan.rfftfreq_grid(n)
        if observer is not None:
            now = time.perf_counter()
            observer("rfft", k, now - stage_started)
            stage_started = now

        # Power and Z-scores of the whole group in single elementwise passes:
        # abs, square, divide and subtract map each element independently
        # through exact IEEE operations, so a row's bits are the same in any
        # block.  (Products like ``x * conj(x)`` do NOT qualify — FMA
        # contraction differs across shapes — which is why the power comes
        # from ``abs`` first.)
        power = np.abs(coefficients)
        np.multiply(power, power, out=power)  # == power**2
        np.divide(power, n, out=power)
        analysis_power = power[:, 1:]
        means = analysis_power.mean(axis=1)
        stds = analysis_power.std(axis=1)
        scores_block = np.abs(analysis_power)
        np.subtract(scores_block, np.abs(means)[:, None], out=scores_block)
        # A zero-variance spectrum scores zero everywhere, not 0 / 0.
        flat = stds == 0.0
        np.divide(scores_block, np.where(flat, 1.0, stds)[:, None], out=scores_block)
        scores_block[flat] = 0.0
        if observer is not None:
            now = time.perf_counter()
            observer("zscore", k, now - stage_started)
            stage_started = now

        acf_rows = [row for row, i in enumerate(indices) if configs[i].use_autocorrelation]
        acf_of = dict(zip(acf_rows, autocorrelation_batch([rows[row] for row in acf_rows])))
        if observer is not None and acf_rows:
            observer("acf", len(acf_rows), time.perf_counter() - stage_started)

        # One 2-D comparison per distinct threshold instead of one ufunc
        # call per row (exact comparisons, identical to the per-row form).
        outlier_masks: dict[float, NDArray[np.bool_]] = {}

        for row, i in enumerate(indices):
            signal = signals[i]
            assert signal is not None
            cfg = configs[i]
            fs = float(signal.sampling_frequency)
            frequencies = unit_frequencies * fs
            row_power = _own_row(power, row)
            scores = _own_row(scores_block, row)
            detector = detectors.get(id(cfg))
            if detector is None:
                detector = detectors[id(cfg)] = make_detector(
                    cfg.outlier_method, **cfg.outlier_kwargs
                )
            if isinstance(detector, ZScoreDetector):
                # The Z-score detector's scores are exactly the ones above;
                # its decision is a pure threshold on them.
                mask = outlier_masks.get(detector.threshold)
                if mask is None:
                    mask = outlier_masks[detector.threshold] = scores_block >= detector.threshold
                outliers = OutlierResult(
                    scores=scores, is_outlier=_own_row(mask, row), method=detector.name
                )
            else:
                outliers = detector.detect(row_power[1:], frequencies[1:])
            kernels[i] = SpectralKernels(
                signal=signal,
                dft=DftResult(
                    coefficients=coefficients[row],
                    frequencies=frequencies,
                    n_samples=n,
                    sampling_frequency=fs,
                ),
                spectrum=PowerSpectrum(
                    frequencies=frequencies,
                    power=row_power,
                    n_samples=n,
                    sampling_frequency=fs,
                ),
                scores=scores,
                outliers=outliers,
                acf=acf_of.get(row),
            )
    return kernels
