"""Flush broker: demultiplexes framed flush streams into per-job sessions.

The broker is the ingestion front end of the prediction service.  Any number
of producers — a tailed spool file, socket pairs, the cluster simulator's
phase bridge, or direct :meth:`ingest` calls — hand it flush records tagged
with a job identity, and the broker routes each one to that job's
:class:`~repro.service.session.JobSession`, creating sessions on demand.
Classification happens on the frame header alone; payloads are only decoded
once (by the frame decoder), never per-consumer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.obs import MetricRegistry, SpanJournal
from repro.trace.columns import FlushColumns, as_flush_columns
from repro.trace.framing import FlushFrame, FrameDecoder, FrameReader
from repro.trace.jsonl import FlushRecord

from repro.service.session import JobSession, SessionConfig

#: Callable building the session for a newly seen job.
SessionFactory = Callable[[str], JobSession]


@dataclass(frozen=True)
class BrokerStats:
    """Ingestion counters of a broker."""

    jobs: int
    frames: int
    flushes: int
    requests: int

    @classmethod
    def merge(cls, stats: Iterable["BrokerStats"]) -> "BrokerStats":
        """Aggregate the counters of several brokers (the sharded view).

        Jobs are summed — shards partition the job space, so no job is ever
        counted by two brokers.
        """
        stats = list(stats)
        return cls(
            jobs=sum(s.jobs for s in stats),
            frames=sum(s.frames for s in stats),
            flushes=sum(s.flushes for s in stats),
            requests=sum(s.requests for s in stats),
        )


class FlushBroker:
    """Routes flush frames from N concurrent jobs into per-job sessions.

    Parameters
    ----------
    session_config:
        Configuration applied to sessions created on demand.
    session_factory:
        Alternative constructor for per-job sessions (overrides
        ``session_config``); receives the job id.
    expected_token:
        Require every ingested frame to carry this version-1 tenant/auth
        nibble (wire-level auth; ``None`` accepts any frame).
    journal:
        Optional :class:`~repro.obs.SpanJournal` recording one ``ingest``
        span per routed flush (session append included).  ``None`` — the
        default — keeps the hot path free of any tracing cost.
    """

    def __init__(
        self,
        *,
        session_config: SessionConfig | None = None,
        session_factory: SessionFactory | None = None,
        expected_token: int | None = None,
        journal: SpanJournal | None = None,
    ) -> None:
        self._session_config = session_config or SessionConfig()
        self._factory = session_factory
        self._sessions: dict[str, JobSession] = {}
        self._lock = threading.Lock()
        self._expected_token = expected_token
        self._decoder = FrameDecoder(expected_token=expected_token)
        self._journal = journal
        self._frames = 0
        self._flushes = 0
        self._requests = 0
        # Handover staging (zero-pause migration): while a predicate is
        # armed, decoded frames whose job matches it are buffered in arrival
        # order instead of ingested — see begin_staging()/end_staging().
        self._staging: Callable[[str], bool] | None = None
        self._staged: list[tuple[str, FlushColumns]] = []

    # ------------------------------------------------------------------ #
    @property
    def jobs(self) -> tuple[str, ...]:
        """Identifiers of every job seen so far (ingestion order)."""
        with self._lock:
            return tuple(self._sessions)

    @property
    def stats(self) -> BrokerStats:
        """Current ingestion counters."""
        with self._lock:
            return BrokerStats(
                jobs=len(self._sessions),
                frames=self._frames,
                flushes=self._flushes,
                requests=self._requests,
            )

    def session(self, job: str) -> JobSession:
        """Return (creating if necessary) the session of ``job``."""
        with self._lock:
            return self._session_locked(job)

    def _session_locked(self, job: str) -> JobSession:
        session = self._sessions.get(job)
        if session is None:
            if self._factory is not None:
                session = self._factory(job)
            else:
                session = JobSession(job, self._session_config)
            self._sessions[job] = session
        return session

    def sessions(self) -> tuple[JobSession, ...]:
        """All sessions (ingestion order)."""
        with self._lock:
            return tuple(self._sessions.values())

    def remove(self, job: str) -> JobSession | None:
        """Detach and return the session of ``job`` (``None`` when unknown).

        A flush arriving for the job afterwards transparently creates a fresh
        session, so removal is safe even if a straggler frame shows up.
        """
        with self._lock:
            return self._sessions.pop(job, None)

    def due_sessions(self) -> tuple[JobSession, ...]:
        """The sessions with unevaluated data, respecting per-job rate limits."""
        return tuple(s for s in self.sessions() if s.due())

    # ------------------------------------------------------------------ #
    def ingest(self, job: str, flush: FlushRecord | FlushColumns) -> JobSession:
        """Ingest one flush for ``job`` directly (no framing involved)."""
        started = time.perf_counter() if self._journal is not None else 0.0
        flush = as_flush_columns(flush)
        with self._lock:
            session = self._session_locked(job)
            self._flushes += 1
            self._requests += len(flush)
        session.ingest(flush)
        if self._journal is not None:
            self._journal.record(
                "ingest", time.perf_counter() - started, job=job, started=started
            )
        return session

    def ingest_frame(self, frame: FlushFrame) -> JobSession | None:
        """Route one decoded frame to its job's session.

        During an armed handover (:meth:`begin_staging`), a frame whose job
        matches the staging predicate is buffered instead of ingested and
        ``None`` is returned; it will be ingested (or deduplicated away) by
        :meth:`end_staging`.
        """
        with self._lock:
            if self._staging is not None and self._staging(frame.job):
                # Not counted in _frames yet: a staged frame is either a
                # duplicate of one the old owner already counted, or will be
                # counted when end_staging() actually ingests it.
                self._staged.append((frame.job, frame.flush))
                return None
            self._frames += 1
        return self.ingest(frame.job, frame.flush)

    def ingest_frames(self, frames: Iterable[FlushFrame]) -> int:
        """Route an iterable of frames; returns how many were ingested."""
        count = 0
        for frame in frames:
            self.ingest_frame(frame)
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # zero-pause handover staging
    # ------------------------------------------------------------------ #
    def begin_staging(self, predicate: Callable[[str], bool]) -> None:
        """Arm handover staging: buffer frames whose job matches ``predicate``.

        Matching frames are kept in arrival order (never ingested) until
        :meth:`end_staging` replays them or :meth:`abort_staging` discards
        them.  Re-arming replaces the predicate and drops any leftover buffer
        — a new handover supersedes a torn one (the router re-sends the
        frames a respawned target lost).
        """
        with self._lock:
            self._staging = predicate
            self._staged = []

    def end_staging(self, drop_counts: dict[str, int] | None = None) -> tuple[int, int]:
        """Disarm staging; dedup and ingest the buffer.

        Per job, the first ``drop_counts[job]`` staged frames are dropped —
        they were double-delivered and their effect already arrived inside
        the merged session state — and every surviving frame is ingested in
        arrival order.  Returns ``(replayed, dropped)``.
        """
        with self._lock:
            staged = self._staged
            self._staging = None
            self._staged = []
        remaining = dict(drop_counts or {})
        replayed = 0
        dropped = 0
        for job, flush in staged:
            if remaining.get(job, 0) > 0:
                remaining[job] -= 1
                dropped += 1
                continue
            with self._lock:
                self._frames += 1
            self.ingest(job, flush)
            replayed += 1
        return replayed, dropped

    def abort_staging(self) -> int:
        """Disarm staging and discard the buffer; returns frames discarded."""
        with self._lock:
            discarded = len(self._staged)
            self._staging = None
            self._staged = []
        return discarded

    def feed_bytes(self, data: bytes) -> int:
        """Feed raw framed bytes (socket reads); returns completed frames routed.

        A frame that fails to decode raises and costs that frame only: the
        frames completed before it are ingested first, the bytes behind it
        stay buffered for the next feed.
        """
        return self._feed(data, borrowed=False)

    def feed_borrowed(self, data: memoryview) -> int:
        """Feed bytes whose memory is reclaimed after this call returns.

        Same as :meth:`feed_bytes`, but ``data`` is a borrowed view (a slice
        of the shared-memory ring): any undecoded tail is materialized
        (:meth:`~repro.trace.framing._FrameBuffer.detach`) before returning,
        so the caller may acknowledge/overwrite the memory immediately.  A
        frame completed by this call is decoded straight out of the borrowed
        view into columns that own their memory — zero copies of the frame
        bytes on the common path.
        """
        return self._feed(data, borrowed=True)

    def _feed(self, data: bytes | memoryview, *, borrowed: bool) -> int:
        frames: list[FlushFrame] = []
        try:
            with self._lock:
                self._decoder.feed(data)
                try:
                    # extend() keeps the frames decoded before a bad one raises.
                    frames.extend(self._decoder.frames())
                finally:
                    if borrowed:
                        self._decoder.detach()
        finally:
            self.ingest_frames(frames)
        return len(frames)

    @property
    def copy_stats(self) -> dict[str, float]:
        """Ingest-path copy counters of the frame decoder.

        ``bytes_copied_per_frame`` is the headline metric: bytes materialized
        by the decoder per emitted frame (0.0 when every frame was decoded in
        place from borrowed buffers).
        """
        with self._lock:
            return {
                "frames_emitted": self._decoder.frames_emitted,
                "bytes_emitted": self._decoder.bytes_emitted,
                "bytes_copied": self._decoder.bytes_copied,
                "bytes_copied_per_frame": self._decoder.bytes_copied_per_frame,
            }

    def register_metrics(self, registry: MetricRegistry) -> None:
        """Expose the feed and copy counters as snapshot-time metric views.

        Views read the counters the broker already keeps, so ingestion pays
        nothing extra per frame — see :class:`~repro.obs.MetricRegistry`.
        """
        views = (
            ("repro_broker_jobs", "gauge", lambda: len(self._sessions),
             "Jobs with a live session"),
            ("repro_broker_frames_total", "counter", lambda: self._frames,
             "Framed flushes routed"),
            ("repro_broker_flushes_total", "counter", lambda: self._flushes,
             "Flush records ingested"),
            ("repro_broker_requests_total", "counter", lambda: self._requests,
             "I/O requests ingested"),
            ("repro_broker_bytes_emitted_total", "counter",
             lambda: self._decoder.bytes_emitted,
             "Payload bytes emitted by the frame decoder"),
            ("repro_broker_bytes_copied_total", "counter",
             lambda: self._decoder.bytes_copied,
             "Payload bytes the frame decoder had to materialize (copies)"),
        )
        for name, kind, read, help_text in views:
            registry.register_view(name, kind, read, help=help_text)

    def tail(self, path: str | Path) -> FrameReader:
        """Return a :class:`FrameReader` whose polls feed this broker.

        The reader's sink is this broker, so newly completed frames are
        ingested automatically::

            reader = broker.tail(spool_path)
            ...
            reader.poll()   # routes any new frames into the sessions
        """
        return FrameReader(path, sink=self.ingest_frames, expected_token=self._expected_token)
