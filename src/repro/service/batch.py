"""The batch loop: claim, prepare, commit — the service's one detection path.

Every evaluation the dispatcher schedules — one due session or hundreds —
runs through :func:`detect_sessions_inline`: **claim** every due session
(:meth:`JobSession.begin_batch_detect` takes its pending work and window), let
each live predictor pick its adaptive window
(:meth:`OnlinePredictor.prepare_step` ``into=`` one
:class:`~repro.core.online.PrepareBatch`), **prepare** every claimed window in
one pass (:meth:`PrepareBatch.run <repro.core.online.PrepareBatch.run>`, a
single :func:`~repro.trace.sampling.discretize_windows` call; how it samples
is that module's business), hand all the prepared signals to
:func:`repro.core.kernels.compute_batch_kernels` in one call — the function
offline detection calls with a batch of one — and **commit** each session's
row under its own lock (:meth:`JobSession.complete_batch_detect`, the ordinary
decide of :meth:`Ftio.analyze_signal <repro.core.ftio.Ftio.analyze_signal>`).
Both batched stages are a batch of one when a predictor steps alone, so a
session publishes the same bits alone or beside any batchmates.

**What is copied, what is checked.**  Per session and detection the claim
copies the resident request columns once (under the session lock, unchecked —
they were validated at ingest; see :mod:`repro.service.session`) and the
pump's prepare turns them into samples with no validated intermediate.
Nothing on this path re-validates a request.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.config import FtioConfig
from repro.core.kernels import KernelObserver, compute_batch_kernels
from repro.core.online import PredictionStep, PrepareBatch, PreparedStep
from repro.service.session import JobSession


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


def detect_sessions_inline(
    sessions: Sequence[JobSession],
    observer: KernelObserver | None = None,
) -> BatchReport:
    """Evaluate live sessions as one batch: one prepare, shared kernels.

    Claims every session, lets each live predictor pick its window,
    discretizes all the windows in one pass, computes the kernels of all of
    them in one call, and commits each session under its own lock — the live
    predictor steps through exactly the ``prepare_step`` / ``complete_step``
    pair ``step()`` is built from.  A session whose evaluation raises is
    marked failed without touching its batchmates (its claim is dropped; the
    data stays resident for the next evaluation).  ``observer`` is forwarded to
    :func:`~repro.core.kernels.compute_batch_kernels` for per-stage timings.
    """
    steps: list[PredictionStep | None] = [None] * len(sessions)
    failed = [False] * len(sessions)
    prepared: list[PreparedStep | None] = [None] * len(sessions)
    configs: list[FtioConfig] = []

    batch = PrepareBatch()
    claimed: list[int] = []
    for i, session in enumerate(sessions):
        configs.append(session.config.config)
        task = session.begin_batch_detect()
        if task is None:
            continue
        try:
            session.predictor.prepare_step(task.trace, now=task.now, into=batch)
            claimed.append(i)
        except Exception:
            failed[i] = True

    try:
        ready = batch.run() if claimed else []
    except Exception as exc:  # noqa: BLE001 - every claimed session fails, none wedges
        ready = [exc] * len(claimed)
    for i, prep in zip(claimed, ready):
        if isinstance(prep, Exception):
            failed[i] = True
        else:
            prepared[i] = prep

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
            failed[i] = True
    return BatchReport(steps=steps, failed=failed)
