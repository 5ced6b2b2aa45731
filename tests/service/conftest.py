"""Helpers shared by the service equivalence tests.

A session's snapshot holds its adaptive-window state, not its past
evaluations, so comparing two runs' final states says nothing about the
steps in between.  :class:`UpdateLedger` records every update a publisher
fans out, keyed by ``(job, index)``; two runs that published equal ledgers
agreed on every evaluation, not just on where they ended.
"""

from __future__ import annotations

import threading


def sessions_by_job(state: dict) -> dict[str, dict]:
    """A snapshot state's sessions, keyed by job."""
    return {session["job"]: session for session in state["sessions"]}


class UpdateLedger:
    """Every update a publisher published: ``(job, index) -> (time, frequency,
    period, confidence)``.

    A key published again (a revived shard replaying its spool tail) must
    carry the values it carried the first time; a mismatch is recorded in
    :attr:`conflicts` instead of raised, since the callback runs on the
    publishing thread.  :attr:`published` counts every update, so
    ``published == len(entries)`` means no key was published twice.
    """

    def __init__(self, publisher) -> None:
        self.entries: dict[tuple[str, int], tuple] = {}
        self.conflicts: list[tuple] = []
        self.published = 0
        self._lock = threading.Lock()
        publisher.subscribe(self._record)

    def _record(self, update) -> None:
        key = (update.job, update.index)
        value = (update.time, update.frequency, update.period, update.confidence)
        with self._lock:
            self.published += 1
            first = self.entries.setdefault(key, value)
            if first != value:
                self.conflicts.append((key, first, value))

    def assert_matches(self, reference: UpdateLedger) -> None:
        """Both ledgers are conflict-free and hold the same updates."""
        assert self.conflicts == [] and reference.conflicts == []
        assert self.entries == reference.entries
