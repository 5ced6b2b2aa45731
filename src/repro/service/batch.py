"""Batched cross-session spectral kernels — the service's one detection path.

Every evaluation the dispatcher schedules — one due session or hundreds —
runs here.  The batch engine claims every due session (two-phase, via
:meth:`JobSession.begin_batch_detect`), discretizes their adaptive windows,
groups the prepared signals by window length ``n_samples``, stacks each group
into one 2-D array and evaluates the group's transforms as single batched
kernels — one 2-D ``rfft`` for the power spectra, one vectorized Z-score pass,
one batched Wiener–Khinchin ACF.  Each session's slice is then fed back
through the ordinary pipeline via :class:`~repro.core.ftio.SpectralKernels`,
so the decision logic (candidate selection, harmonic rule, classification,
confidence) runs unchanged.

**Why the length alone.**  No kernel reads the sampling rate — a transform,
a Z-score and a lag product are functions of the samples — and
:mod:`repro.trace.sampling` cuts every window to the next 5-smooth length, so
a fleet of jobs with different periods lands on a handful of lengths (256
jobs on ~10) where exact ``(n, fs)`` pairs put them in 146 groups of ~2.  The
rate only labels the result: each row gets its own
``DftResult.sampling_frequency`` and its own frequency grid, the shared unit
grid times its rate — the expression :func:`repro.freq.dft.dft` uses.

**What is copied, what is checked.**  Per session and detection: the claim
copies the resident request columns once (under the session lock, unchecked —
they were validated at ingest; see :mod:`repro.service.session`),
``prepare_step`` turns them into samples in one pass with no validated
intermediate, the samples are copied once into the group's stack, and each
session gets its own copy of its score row (a view would pin the whole
group's block).  Nothing on this path re-validates a request.

**Bit-identity contract.**  Every value a batched evaluation produces equals
the sequential evaluation (:meth:`JobSession.detect`) bit for bit, whatever
the batch's size or composition.  The kernels only
use 2-D evaluation where numpy produces bit-identical rows: the FFT
transforms, the mean/std axis reductions, and elementwise maps whose every
output element is one exact IEEE operation of its input element (abs,
square, divide, subtract — lane position cannot change those).  The
shape-sensitive steps — complex products like ``x * conj(x)`` and energy dot
products, where SIMD/FMA contraction makes the 2-D form differ from its 1-D
rows in the last ulp — stay per row on contiguous views.  The equivalence
suite asserts the contract across mixed window lengths and mixed rates
within one length.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.core.config import FtioConfig
from repro.core.ftio import SpectralKernels
from repro.core.online import PredictionStep, PreparedStep
from repro.freq import plan
from repro.freq.autocorr import autocorrelation_batch
from repro.freq.dft import DftResult
from repro.freq.outliers import OutlierResult, ZScoreDetector, make_detector
from repro.service.session import JobSession
from repro.trace.sampling import DiscreteSignal

#: Minimum samples for a spectrum (mirrors :func:`repro.freq.dft.dft`); rows
#: below it fall back to the sequential per-session path, which raises the
#: same ``InsufficientSamplesError`` the offline pipeline would.
_MIN_SPECTRUM_SAMPLES = 4

#: Signature of the optional kernel-stage observer: ``(stage, group_size,
#: seconds)``.  The dispatcher plugs a histogram recorder in here; ``None``
#: (the default everywhere) skips the timing entirely.
KernelObserver = Callable[[str, int, float], None]


@dataclass
class BatchReport:
    """Outcome of one batched evaluation over a set of sessions.

    ``steps`` is aligned with the input sessions (``None`` where the session
    had nothing to evaluate or failed); ``failed`` marks the sessions whose
    evaluation raised and was dropped.
    """

    steps: list[PredictionStep | None]
    failed: list[bool]

    @property
    def failures(self) -> int:
        """Number of sessions whose evaluation failed."""
        return sum(self.failed)


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #
def compute_batch_kernels(
    signals: Sequence[DiscreteSignal | None],
    configs: Sequence[FtioConfig],
    observer: KernelObserver | None = None,
) -> list[SpectralKernels | None]:
    """Evaluate the spectral kernels of many prepared signals in batches.

    Signals are grouped by ``n_samples``; each group runs one 2-D ``rfft``,
    one vectorized Z-score pass and (where the configuration asks for it) one
    batched ACF, and every row keeps its own sampling rate.  Entries that cannot be
    batched (``None`` signals, fewer than 4 samples, non-batchable outlier
    detectors fall back partially) get ``None`` / partial kernels, and the
    per-session pipeline computes the rest exactly as before.

    ``observer`` (when given) receives ``(stage, group_size, seconds)`` for
    each kernel stage of each window-group: ``rfft``, ``zscore``, ``acf``.

    Every returned kernel is bit-identical to what the sequential pipeline
    would compute from the same signal.
    """
    if len(signals) != len(configs):
        raise ValueError(f"{len(signals)} signals but {len(configs)} configs")
    kernels: list[SpectralKernels | None] = [None] * len(signals)
    # Fleets share a handful of config objects; build each one's detector
    # once per batch instead of once per session.
    detectors: dict[int, object] = {}

    def detector_for(cfg: FtioConfig) -> object:
        detector = detectors.get(id(cfg))
        if detector is None:
            detector = make_detector(cfg.outlier_method, **cfg.outlier_kwargs)
            detectors[id(cfg)] = detector
        return detector

    groups: dict[int, list[int]] = {}
    for i, signal in enumerate(signals):
        if signal is None or signal.n_samples < _MIN_SPECTRUM_SAMPLES:
            continue
        groups.setdefault(signal.n_samples, []).append(i)

    for n, indices in groups.items():
        # The per-thread (k, n) buffer is the ACF's stacking buffer too; the
        # transform below is its only reader here.
        block = plan.workspace((len(indices), n))
        for row, i in enumerate(indices):
            block[row] = signals[i].samples  # type: ignore[union-attr]
        stage_started = time.perf_counter() if observer is not None else 0.0
        coefficients = np.fft.rfft(block, axis=1)
        unit_frequencies = plan.rfftfreq_grid(n)
        if observer is not None:
            now = time.perf_counter()
            observer("rfft", len(indices), now - stage_started)
            stage_started = now

        # Power and Z-scores of the whole group in single elementwise passes:
        # abs, square, divide and subtract map each element independently
        # through exact IEEE operations, so their 2-D forms equal the 1-D
        # per-row results bit for bit.  (Products like ``x * conj(x)`` do NOT
        # qualify — FMA contraction differs across shapes — which is why the
        # power comes from ``abs`` first.)
        amplitudes = np.abs(coefficients)
        np.multiply(amplitudes, amplitudes, out=amplitudes)  # == amplitudes**2
        np.divide(amplitudes, n, out=amplitudes)
        analysis_power = amplitudes[:, 1:]
        means = analysis_power.mean(axis=1)
        stds = analysis_power.std(axis=1)
        scores_block = np.abs(analysis_power)
        np.subtract(scores_block, np.abs(means)[:, None], out=scores_block)
        np.divide(
            scores_block, np.where(stds == 0.0, 1.0, stds)[:, None], out=scores_block
        )
        scores_block[stds == 0.0] = 0.0
        if observer is not None:
            now = time.perf_counter()
            observer("zscore", len(indices), now - stage_started)
            stage_started = now

        acf_rows = [
            row for row, i in enumerate(indices) if configs[i].use_autocorrelation
        ]
        acfs = (
            autocorrelation_batch([signals[indices[row]].samples for row in acf_rows])  # type: ignore[union-attr]
            if acf_rows
            else []
        )
        acf_of = dict(zip(acf_rows, acfs))
        if observer is not None and acf_rows:
            observer("acf", len(acf_rows), time.perf_counter() - stage_started)

        # One 2-D comparison per distinct threshold instead of one ufunc
        # call per row (exact comparisons, identical to the per-row form).
        outlier_masks: dict[float, NDArray[np.bool_]] = {}

        for row, i in enumerate(indices):
            signal = signals[i]
            assert signal is not None
            fs = float(signal.sampling_frequency)
            # Fresh arrays per session: a view would pin the whole group's
            # score block in memory for as long as any one result lives.
            scores = scores_block[row].copy()
            outliers: OutlierResult | None = None
            detector = detector_for(configs[i])
            if isinstance(detector, ZScoreDetector):
                # The Z-score detector recomputes exactly the scores above;
                # its decision is a pure threshold on them.
                mask = outlier_masks.get(detector.threshold)
                if mask is None:
                    mask = scores_block >= detector.threshold
                    outlier_masks[detector.threshold] = mask
                outliers = OutlierResult(
                    scores=scores,
                    is_outlier=mask[row].copy(),
                    method=detector.name,
                )
            kernels[i] = SpectralKernels(
                signal=signal,
                dft=DftResult(
                    coefficients=coefficients[row],
                    frequencies=unit_frequencies * fs,
                    n_samples=n,
                    sampling_frequency=fs,
                ),
                scores=scores,
                outliers=outliers,
                acf=acf_of.get(row),
            )
    return kernels


# --------------------------------------------------------------------- #
# batched evaluation of live sessions
# --------------------------------------------------------------------- #
def detect_sessions_inline(
    sessions: Sequence[JobSession],
    observer: KernelObserver | None = None,
) -> BatchReport:
    """Evaluate live sessions as one batch with shared kernels.

    Claims every session (two-phase), prepares the windows against the live
    predictors, computes the batched kernels, and commits each session under
    its own lock — the live predictor steps through exactly the same
    ``prepare_step``/``complete_step`` pair ``step()`` is built from.  A
    session whose evaluation raises is aborted and marked failed without
    touching its batchmates.  ``observer`` is forwarded to
    :func:`compute_batch_kernels` for per-stage timings.
    """
    steps: list[PredictionStep | None] = [None] * len(sessions)
    failed = [False] * len(sessions)
    prepared: list[PreparedStep | None] = [None] * len(sessions)
    configs: list[FtioConfig] = []

    for i, session in enumerate(sessions):
        configs.append(session.config.config)
        task = session.begin_batch_detect()
        if task is None:
            continue
        try:
            prepared[i] = session.predictor.prepare_step(task.trace, now=task.now)
        except Exception:
            session.abort_batch_detect()
            failed[i] = True

    kernels = compute_batch_kernels(
        [prep.signal if prep is not None else None for prep in prepared],
        configs,
        observer,
    )

    for i, session in enumerate(sessions):
        prep = prepared[i]
        if prep is None:
            continue
        try:
            steps[i] = session.complete_batch_detect(prep, kernels=kernels[i])
        except Exception:
            session.abort_batch_detect()
            failed[i] = True
    return BatchReport(steps=steps, failed=failed)
