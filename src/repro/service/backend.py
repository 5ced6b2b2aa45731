"""The detection backend: the object the dispatcher hands due sessions to.

The dispatcher decides *when* sessions are evaluated (which are due, rate
limits); :class:`ThreadBackend` evaluates them in the calling thread — the
one that pumps — as one batch through
:func:`~repro.service.batch.detect_sessions_inline`.  Cores beyond one
process are what shards are for.

It stays a class so a caller can substitute a subclass via
``PredictionService(config, backend=...)`` — the benchmark's ladder wraps
:meth:`ThreadBackend.detect_batch` in a trace span.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.kernels import KernelObserver
from repro.service.batch import BatchReport, detect_sessions_inline
from repro.service.session import JobSession


class ThreadBackend:
    """Evaluate due sessions in the calling thread, as one batch."""

    #: Optional kernel-stage observer ``(stage, group_size, seconds)``, set by
    #: the dispatcher when metrics are enabled and forwarded to
    #: :func:`~repro.core.kernels.compute_batch_kernels`.
    observer: KernelObserver | None = None

    def detect_batch(self, sessions: Sequence[JobSession]) -> BatchReport:
        """Evaluate ``sessions`` (one or many) with shared spectral kernels."""
        return detect_sessions_inline(sessions, observer=self.observer)
