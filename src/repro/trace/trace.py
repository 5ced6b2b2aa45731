"""The :class:`Trace` container: an application-level collection of I/O requests.

A trace is the unit FTIO operates on.  Internally the requests are stored as
columnar numpy arrays (start, end, bytes, rank) so that the bandwidth-signal
construction and the characterization metrics are fully vectorized, per the
linear-complexity claim of Section II-A.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import EmptyTraceError, TraceError
from repro.trace.record import GroundTruth, IOKind, IORequest, iter_requests


@dataclass(frozen=True)
class Trace:
    """An immutable, time-ordered collection of I/O requests.

    Build one with :meth:`from_columns`: it holds the one sort rule of a
    trace, a stable ``lexsort`` on (start, end, rank), so requests that tie on
    all three keep the order they were given in.  The workload generators
    build their columns and call it; :meth:`from_requests` extracts the
    columns of :class:`IORequest` objects (the tracer, JSONL input) and calls
    it too.

    Attributes
    ----------
    starts, ends:
        Request start/end timestamps (seconds), sorted by start time.
    nbytes:
        Bytes transferred per request.
    ranks:
        Issuing MPI rank per request.
    kinds:
        Request direction per request (``IOKind`` values as a string array).
    ground_truth:
        Optional generator-provided periodicity information.
    metadata:
        Free-form information (application name, rank count, ...).
    """

    starts: NDArray[np.float64]
    ends: NDArray[np.float64]
    nbytes: NDArray[np.int64]
    ranks: NDArray[np.int64]
    kinds: NDArray[np.str_]
    ground_truth: GroundTruth | None = None
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        n = len(self.starts)
        for name in ("ends", "nbytes", "ranks", "kinds"):
            if len(getattr(self, name)) != n:
                raise TraceError(f"column {name!r} has length {len(getattr(self, name))}, expected {n}")
        if n and np.any(self.ends < self.starts):
            raise TraceError("every request must satisfy end >= start")
        if n and np.any(self.nbytes < 0):
            raise TraceError("request byte counts must be >= 0")

    @classmethod
    def from_columns(
        cls,
        starts: NDArray[np.float64],
        ends: NDArray[np.float64],
        nbytes: NDArray[np.int64],
        ranks: NDArray[np.int64],
        kinds: NDArray[np.str_],
        *,
        ground_truth: GroundTruth | None = None,
        metadata: dict | None = None,
    ) -> "Trace":
        """Build a trace from request columns, sorted by (start, end, rank).

        The sort is one stable ``lexsort``; the rows come out as new arrays.
        """
        order = np.lexsort((ranks, ends, starts))
        return cls(
            starts=np.asarray(starts, dtype=np.float64)[order],
            ends=np.asarray(ends, dtype=np.float64)[order],
            nbytes=np.asarray(nbytes, dtype=np.int64)[order],
            ranks=np.asarray(ranks, dtype=np.int64)[order],
            kinds=np.asarray(kinds, dtype=np.str_)[order],
            ground_truth=ground_truth,
            metadata=dict(metadata or {}),
        )

    @classmethod
    def from_requests(
        cls,
        requests: Iterable[IORequest],
        *,
        ground_truth: GroundTruth | None = None,
        metadata: dict | None = None,
    ) -> "Trace":
        """Build a trace from an iterable of :class:`IORequest` (see :meth:`from_columns`)."""
        reqs = requests if isinstance(requests, (list, tuple)) else list(requests)
        return cls.from_columns(
            np.array([r.start for r in reqs], dtype=np.float64),
            np.array([r.end for r in reqs], dtype=np.float64),
            np.array([r.nbytes for r in reqs], dtype=np.int64),
            np.array([r.rank for r in reqs], dtype=np.int64),
            np.array([r.kind.value for r in reqs], dtype=np.str_),
            ground_truth=ground_truth,
            metadata=metadata,
        )

    @classmethod
    def _trusted(
        cls,
        starts: NDArray[np.float64],
        ends: NDArray[np.float64],
        nbytes: NDArray[np.int64],
        ranks: NDArray[np.int64],
        kinds: NDArray[np.str_],
        metadata: dict,
        ground_truth: GroundTruth | None = None,
    ) -> "Trace":
        """Wrap columns that were already validated, without checking them again.

        For rows that came out of a validated container and were only moved
        since (a session's ring of ingested flushes, a selection of a trace's
        rows); anything built from outside input goes through the
        constructor.  The trace takes the arrays and the dict as they are —
        the caller hands over its own.
        """
        trace = object.__new__(cls)
        trace.__dict__.update(
            starts=starts,
            ends=ends,
            nbytes=nbytes,
            ranks=ranks,
            kinds=kinds,
            ground_truth=ground_truth,
            metadata=metadata,
        )
        return trace

    @classmethod
    def empty(cls) -> "Trace":
        """Return an empty trace (useful as an accumulator seed)."""
        return cls.from_requests([])

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(len(self.starts))

    def __iter__(self) -> Iterator[IORequest]:
        return iter_requests(self.ranks, self.starts, self.ends, self.nbytes, self.kinds)

    def request(self, index: int) -> IORequest:
        """Return the ``index``-th request as an :class:`IORequest` object."""
        return IORequest(
            rank=int(self.ranks[index]),
            start=float(self.starts[index]),
            end=float(self.ends[index]),
            nbytes=int(self.nbytes[index]),
            kind=IOKind(str(self.kinds[index])),
        )

    def requests(self) -> list[IORequest]:
        """Materialize all requests as a list of :class:`IORequest`."""
        return list(self)

    # ------------------------------------------------------------------ #
    # aggregate properties
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when the trace contains no requests."""
        return len(self) == 0

    @property
    def volume(self) -> int:
        """Total number of bytes transferred (the paper's V(T))."""
        return int(self.nbytes.sum()) if len(self) else 0

    @property
    def t_start(self) -> float:
        """Timestamp of the earliest request start."""
        self._require_non_empty("t_start")
        return float(self.starts.min())

    @property
    def t_end(self) -> float:
        """Timestamp of the latest request end."""
        self._require_non_empty("t_end")
        return float(self.ends.max())

    @property
    def duration(self) -> float:
        """Trace length in seconds (the paper's L(T))."""
        if self.is_empty:
            return 0.0
        return self.t_end - self.t_start

    @property
    def rank_count(self) -> int:
        """Number of distinct ranks that issued at least one request."""
        if self.is_empty:
            return 0
        return int(np.unique(self.ranks).size)

    def _require_non_empty(self, what: str) -> None:
        if self.is_empty:
            raise EmptyTraceError(f"cannot compute {what} of an empty trace")

    # ------------------------------------------------------------------ #
    # transformations (all return new traces)
    # ------------------------------------------------------------------ #
    def _select(self, mask: NDArray[np.bool_]) -> "Trace":
        """The rows under ``mask``, with this trace's ground truth and a copy of its metadata.

        Rows of a validated trace are valid, so they are not checked again.
        """
        return Trace._trusted(
            self.starts[mask],
            self.ends[mask],
            self.nbytes[mask],
            self.ranks[mask],
            self.kinds[mask],
            dict(self.metadata),
            self.ground_truth,
        )

    def filter_kind(self, kind: IOKind | str) -> "Trace":
        """Return a trace with only read or only write requests.

        A trace that holds nothing else is returned as it is (it is immutable).
        """
        kind_value = IOKind(kind).value
        matches = self.kinds == kind_value
        if matches.all():
            return self
        return self._select(matches)

    def filter_ranks(self, ranks: Sequence[int]) -> "Trace":
        """Return a trace restricted to the given ranks."""
        if self.is_empty:
            return self
        return self._select(np.isin(self.ranks, np.asarray(list(ranks), dtype=np.int64)))

    def completed_before(self, t: float) -> "Trace":
        """Return the sub-trace of requests that have *ended* by time ``t``.

        This is the "flushed so far" view of a trace: in the online mode only
        requests that completed by the flush time have reached the trace file,
        so both the offline replay (:func:`repro.core.online.replay_online`)
        and the streaming service sessions reveal a trace through this method.
        """
        if self.is_empty:
            return self
        return self._select(self.ends <= t)

    def window(self, t0: float, t1: float) -> "Trace":
        """Return the sub-trace of requests that overlap the window [t0, t1).

        Requests are kept whole (not clipped); FTIO's time-window adaptation
        works on whole requests, as the tracer flushes complete records.
        """
        if t1 < t0:
            raise TraceError(f"window end ({t1}) must be >= start ({t0})")
        if self.is_empty:
            return self
        mask = (self.ends > t0) & (self.starts < t1)
        return self._select(mask)

    def shifted(self, offset: float) -> "Trace":
        """Return a copy of the trace with every timestamp shifted by ``offset``."""
        return Trace(
            starts=self.starts + offset,
            ends=self.ends + offset,
            nbytes=self.nbytes.copy(),
            ranks=self.ranks.copy(),
            kinds=self.kinds.copy(),
            ground_truth=self.ground_truth,
            metadata=dict(self.metadata),
        )

    def with_ground_truth(self, ground_truth: GroundTruth) -> "Trace":
        """Return a copy of the trace carrying the given ground truth."""
        return Trace(
            starts=self.starts,
            ends=self.ends,
            nbytes=self.nbytes,
            ranks=self.ranks,
            kinds=self.kinds,
            ground_truth=ground_truth,
            metadata=dict(self.metadata),
        )

    def with_metadata(self, **metadata) -> "Trace":
        """Return a copy of the trace with extra metadata entries merged in."""
        merged = dict(self.metadata)
        merged.update(metadata)
        return Trace(
            starts=self.starts,
            ends=self.ends,
            nbytes=self.nbytes,
            ranks=self.ranks,
            kinds=self.kinds,
            ground_truth=self.ground_truth,
            metadata=merged,
        )


def merge_traces(traces: Iterable[Trace], *, metadata: dict | None = None) -> Trace:
    """Merge several traces (e.g. per-rank or per-flush traces) into one.

    The rows are concatenated and sorted as :meth:`Trace.from_columns` sorts
    any trace, by (start, end, rank); ground truth is kept only if exactly one
    of the inputs carries it (merging ground truths from different
    applications would be meaningless).
    """
    traces = list(traces)
    if not traces:
        return Trace.empty()
    ground_truths = [t.ground_truth for t in traces if t.ground_truth is not None]
    return Trace.from_columns(
        np.concatenate([t.starts for t in traces]),
        np.concatenate([t.ends for t in traces]),
        np.concatenate([t.nbytes for t in traces]),
        np.concatenate([t.ranks for t in traces]),
        np.concatenate([t.kinds for t in traces]),
        ground_truth=ground_truths[0] if len(ground_truths) == 1 else None,
        metadata=metadata,
    )

