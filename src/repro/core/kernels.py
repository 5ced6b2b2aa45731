"""The spectral kernels — the one place the pipeline's arithmetic is computed.

Transform, power spectrum, Z-scores, outlier decision, ACF and the
dominant-frequency candidates (Sections II-B and II-C: D_f, each c_k, the
harmonic flags) of every detection run in :func:`compute_batch_kernels` and
nowhere else under ``src/``: offline ``Ftio.detect``, the replay and
``JobSession.detect`` hand it a batch of one, the service's pump
(:mod:`repro.service.batch`) every due session at once.  Signals are grouped
by window length, each group is one ``(k, n)`` array under single 2-D kernels,
and every row leaves as a :class:`SpectralKernels`, the container
``Ftio.analyze_signal`` decides from — it starts at the classification, the
candidates already built.  A group of one is a ``(1, n)`` view of
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
mean/std/sum/max axis reductions over whole rows, and elementwise maps whose
every output element is one exact IEEE operation of its input element (abs,
square, divide, subtract, compare — lane position cannot change those).  The
shape-sensitive steps — complex products like ``x * conj(x)`` and energy dot
products, where SIMD/FMA contraction makes the 2-D form differ from its 1-D
rows in the last ulp, and sums over a *subset* of a row (the c_k
denominators), where a zero-masked row or ``np.add.reduceat`` regroups the
pairwise sum — stay per row on contiguous data
(:func:`repro.freq.autocorr.autocorrelation_batch`, :func:`_group_candidates`),
as does a detector whose decision is not a threshold on the Z-scores.
``tests/core/test_kernels.py`` holds every field of every row ``==`` a frozen
copy of the one-signal arithmetic this module replaced, and ``==`` the same
row evaluated alone; ``tests/core/test_candidates.py`` does the same for every
field of the decided result against a frozen copy of the per-row candidate
selection.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.constants import MIN_SPECTRUM_SAMPLES
from repro.core.config import FtioConfig
from repro.core.result import FrequencyCandidate
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
    candidates:
        The dominant-frequency candidates D_f in frequency order, each with
        its confidence c_k and its harmonic flag set.
    """

    signal: DiscreteSignal
    dft: DftResult
    spectrum: PowerSpectrum
    scores: NDArray[np.float64]
    outliers: OutlierResult
    acf: NDArray[np.float64] | None
    candidates: tuple[FrequencyCandidate, ...]


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
    any other detector runs on its own row.  One candidate pass per group
    then builds every row's D_f (:func:`_group_candidates`).  ``None``
    signals and signals of fewer than
    :data:`~repro.constants.MIN_SPECTRUM_SAMPLES` samples come back ``None``.
    A row's kernels do not depend on the rest of the batch.

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
        at_least: dict[float, NDArray[np.bool_]] = {}
        rates: list[float] = []
        frequency_rows: list[NDArray[np.float64]] = []
        power_rows: list[NDArray[np.float64]] = []
        score_rows: list[NDArray[np.float64]] = []
        outliers: list[OutlierResult] = []
        for row, i in enumerate(indices):
            cfg = configs[i]
            fs = float(signals[i].sampling_frequency)  # type: ignore[union-attr]
            rates.append(fs)
            frequency_rows.append(unit_frequencies * fs)
            power_rows.append(_own_row(power, row))
            score_rows.append(_own_row(scores_block, row))
            detector = detectors.get(id(cfg))
            if detector is None:
                detector = detectors[id(cfg)] = make_detector(
                    cfg.outlier_method, **cfg.outlier_kwargs
                )
            if isinstance(detector, ZScoreDetector):
                # The Z-score detector's scores are exactly the ones above;
                # its decision is a pure threshold on them.
                mask = at_least.get(detector.threshold)
                if mask is None:
                    mask = at_least[detector.threshold] = scores_block >= detector.threshold
                outliers.append(
                    OutlierResult(
                        scores=score_rows[row],
                        is_outlier=_own_row(mask, row),
                        method=detector.name,
                    )
                )
            else:
                outliers.append(detector.detect(power_rows[row][1:], frequency_rows[row][1:]))

        candidates = _group_candidates(
            power,
            scores_block,
            np.stack([found.is_outlier for found in outliers]),
            [configs[i] for i in indices],
            rates,
            unit_frequencies,
        )

        for row, i in enumerate(indices):
            fs, frequencies = rates[row], frequency_rows[row]
            kernels[i] = SpectralKernels(
                signal=signals[i],  # type: ignore[arg-type]
                dft=DftResult(
                    coefficients=coefficients[row],
                    frequencies=frequencies,
                    n_samples=n,
                    sampling_frequency=fs,
                ),
                spectrum=PowerSpectrum(
                    frequencies=frequencies,
                    power=power_rows[row],
                    n_samples=n,
                    sampling_frequency=fs,
                ),
                scores=score_rows[row],
                outliers=outliers[row],
                acf=acf_of.get(row),
                candidates=candidates[row],
            )
    return kernels


def _group_candidates(
    power: NDArray[np.float64],
    scores: NDArray[np.float64],
    outliers: NDArray[np.bool_],
    configs: list[FtioConfig],
    rates: list[float],
    unit_frequencies: NDArray[np.float64],
) -> list[tuple[FrequencyCandidate, ...]]:
    """Every row's candidate set D_f (Eq. 3) — c_k and harmonic flags included.

    One pass over the group's ``(k, bins)`` blocks: ``z_max`` per row, the
    tolerance mask (the index set I2), the Z-score threshold mask (I1), the
    conjunction of the outlier mask with I2 and its nonzeros, the non-DC
    power totals, and the gathered bins turned into Python floats once.
    Per-row ``tolerance`` and ``zscore_threshold`` broadcast as columns, so a
    group may mix configurations.  The I1 / I2 Z-score totals stay one sum
    per row over that row's members alone — a zero-masked 2-D row sum, or
    ``np.add.reduceat``, rounds differently — and a row's candidates are
    built once, in frequency order, after the harmonic rule has run on their
    frequencies.
    """
    z_max = scores.max(axis=1)
    # Rows with z_max <= 0 have no candidates; dividing them by 1 keeps the
    # block free of 0 / 0 without touching a row that does.
    ratios = scores / np.where(z_max > 0, z_max, 1.0)[:, None]
    within = ratios >= np.array([cfg.tolerance for cfg in configs])[:, None]  # I2
    at_threshold = scores >= np.array([cfg.zscore_threshold for cfg in configs])[:, None]  # I1
    rows, bins = np.nonzero(outliers & within)
    found: list[tuple[FrequencyCandidate, ...]] = [()] * len(configs)
    if not rows.size:
        return found

    columns = bins + 1  # the analysis arrays exclude the DC bin
    owners = rows.tolist()
    ks = columns.tolist()
    units = unit_frequencies[columns].tolist()
    powers = power[rows, columns].tolist()
    zscores = scores[rows, bins].tolist()
    totals = power[:, 1:].sum(axis=1).tolist()
    dc = power[:, 0].tolist()
    z_top = z_max.tolist()
    # The Section II-C index sets of every row, gathered once: row r's members
    # are the slice ``[ends[r], ends[r + 1])`` of the gathered scores — the
    # same values in the same order as the row compressed on its own.
    i1_scores, i1_ends = _gathered(scores, at_threshold)
    i2_scores, i2_ends = _gathered(scores, within)

    start, n_found = 0, len(owners)
    while start < n_found:
        row = owners[start]
        stop = start + 1
        while stop < n_found and owners[stop] == row:
            stop += 1
        total_power = totals[row]
        # A (near-)constant signal has essentially all of its power in the DC
        # bin; whatever remains is floating-point dust, not periodic activity.
        if z_top[row] > 0 and total_power > max(dc[row], 1.0) * 1e-12:
            # The two denominators of c_k, one per-row sum each; empty sums to 0.
            i1_total = float(i1_scores[i1_ends[row] : i1_ends[row + 1]].sum())
            i2_total = float(i2_scores[i2_ends[row] : i2_ends[row + 1]].sum())
            fs = rates[row]
            # Bins ascend within a row, so these are in frequency order.
            frequencies = [unit * fs for unit in units[start:stop]]
            harmonic = _harmonic_flags(frequencies, configs[row].harmonic_tolerance)
            built: list[FrequencyCandidate] = []
            for j, frequency, is_harmonic in zip(range(start, stop), frequencies, harmonic):
                zk = zscores[j]
                built.append(
                    FrequencyCandidate(
                        bin_index=ks[j],
                        frequency=frequency,
                        power=powers[j],
                        contribution=powers[j] / total_power,
                        zscore=zk,
                        confidence=0.5 * sum((
                            zk / i1_total if i1_total > 0 else 0.0,
                            zk / i2_total if i2_total > 0 else 0.0,
                        )),
                        is_harmonic=is_harmonic,
                    )
                )
            found[row] = tuple(built)
        start = stop
    return found


def _harmonic_flags(frequencies: list[float], tol: float) -> list[bool]:
    """Section II-B2 on candidate frequencies in ascending order: a candidate
    within ``tol`` (relative) of an integer multiple >= 2 of a lower
    non-harmonic candidate is a harmonic, not a period of its own."""
    flags: list[bool] = []
    bases: list[float] = []
    for frequency in frequencies:
        is_harmonic = False
        for base in bases:
            if base <= 0:
                continue
            ratio = frequency / base
            nearest = round(ratio)
            if nearest >= 2 and abs(ratio - nearest) <= tol * nearest:
                is_harmonic = True
                break
        if not is_harmonic:
            bases.append(frequency)
        flags.append(is_harmonic)
    return flags


def _gathered(
    scores: NDArray[np.float64], mask: NDArray[np.bool_]
) -> tuple[NDArray[np.float64], list[int]]:
    """The masked scores of every row, concatenated, and each row's end offset."""
    return scores[mask], [0, *mask.sum(axis=1).cumsum().tolist()]
