"""JSON Lines trace format (the TMIO online flush format).

In the online mode of the paper, the application is compiled with TMIO and a
single added call flushes the data collected so far to a file in JSON Lines or
MessagePack form.  Each line (or MessagePack message) is one *flush*: a JSON
object with the application metadata and the list of requests recorded since
the previous flush.  The FTIO side re-reads the file from the beginning on
every prediction, which is why the format is append-only.

Schema of a flush record::

    {
      "flush_index": 3,
      "timestamp": 47.4,
      "metadata": {"app": "hacc-io", "ranks": 3072},
      "requests": [
        {"rank": 0, "start": 4.1, "end": 5.0, "bytes": 1048576, "kind": "write"},
        ...
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from repro.exceptions import TraceFormatError
from repro.trace.record import IORequest
from repro.trace.trace import Trace, merge_traces


@dataclass(frozen=True)
class FlushRecord:
    """One append-only flush emitted by the (simulated) tracer."""

    flush_index: int
    timestamp: float
    requests: tuple[IORequest, ...]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Serialize to the plain-dict schema shared with the MessagePack format."""
        return {
            "flush_index": self.flush_index,
            "timestamp": self.timestamp,
            "metadata": dict(self.metadata),
            "requests": [r.to_dict() for r in self.requests],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlushRecord":
        """Reconstruct a flush from :meth:`to_dict` output."""
        try:
            return cls(
                flush_index=int(data["flush_index"]),
                timestamp=float(data["timestamp"]),
                requests=tuple(IORequest.from_dict(r) for r in data["requests"]),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int() of a float infinity.
            raise TraceFormatError(f"malformed flush record: {exc}") from exc


class JsonLinesTraceWriter:
    """Append-only writer of TMIO flush records in JSON Lines form."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._flush_index = 0

    @property
    def path(self) -> Path:
        """Location of the trace file."""
        return self._path

    @property
    def flush_count(self) -> int:
        """Number of flushes written so far."""
        return self._flush_index

    def append(self, requests: Iterable[IORequest], *, timestamp: float, metadata: dict | None = None) -> FlushRecord:
        """Append one flush with the given requests and return the record written."""
        record = FlushRecord(
            flush_index=self._flush_index,
            timestamp=timestamp,
            requests=tuple(requests),
            metadata=dict(metadata or {}),
        )
        with self._path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict()) + "\n")
        self._flush_index += 1
        return record


def iter_flushes(path: str | Path) -> Iterator[FlushRecord]:
    """Yield every flush record stored in a JSON Lines trace file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        yield from _iter_flushes_from_handle(handle, source=str(path))


def _iter_flushes_from_handle(handle: IO[str], *, source: str) -> Iterator[FlushRecord]:
    for lineno, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
        yield FlushRecord.from_dict(data)


def read_trace(path: str | Path) -> Trace:
    """Read a JSON Lines trace file into a single merged :class:`Trace`."""
    flushes = list(iter_flushes(path))
    return flushes_to_trace(flushes)


def flushes_to_trace(flushes: Iterable[FlushRecord]) -> Trace:
    """Merge an iterable of flush records into one :class:`Trace`.

    Metadata of the individual flushes is merged left-to-right so later flushes
    can update counters such as the rank count.
    """
    flushes = list(flushes)
    metadata: dict = {}
    for flush in flushes:
        metadata.update(flush.metadata)
    traces = [Trace.from_requests(f.requests) for f in flushes if f.requests]
    merged = merge_traces(traces, metadata=metadata)
    return merged


def trace_to_flushes(
    trace: Trace,
    flush_times: Iterable[float],
    *,
    metadata: dict | None = None,
) -> list[FlushRecord]:
    """Split a finished trace into the flush records a live tracer would emit.

    At every time ``t`` in ``flush_times`` the flush holds exactly the
    requests that *completed* since the previous flush time, ``previous <
    end <= t``: so far, the flushes hold ``trace.completed_before(t)``, a
    zero-duration request and one ending exactly at ``t`` included.  That is
    the visibility rule of :func:`repro.core.online.replay_online`, so
    streaming the returned records through the prediction service (or
    :func:`repro.core.online.predict_from_flushes`) reproduces the offline
    replay step for step.  Requests completing after the last flush time are
    not emitted.
    """
    records: list[FlushRecord] = []
    previous = float("-inf")
    flush_metadata = dict(metadata if metadata is not None else trace.metadata)
    for index, t in enumerate(sorted(flush_times)):
        completed = trace.completed_before(t)
        if previous != float("-inf"):
            completed = completed._select(completed.ends > previous)
        records.append(
            FlushRecord(
                flush_index=index,
                timestamp=float(t),
                requests=tuple(completed.requests()),
                metadata=flush_metadata if index == 0 else {},
            )
        )
        previous = float(t)
    return records


def write_trace(trace: Trace, path: str | Path, *, requests_per_flush: int | None = None) -> int:
    """Write a whole trace as a JSON Lines file, optionally split into flushes.

    Returns the number of flushes written.  When ``requests_per_flush`` is
    ``None`` the entire trace is written as a single flush (the offline mode).
    """
    path = Path(path)
    if path.exists():
        path.unlink()
    writer = JsonLinesTraceWriter(path)
    requests = trace.requests()
    if requests_per_flush is None or requests_per_flush >= len(requests):
        chunks = [requests] if requests else []
    else:
        if requests_per_flush <= 0:
            raise ValueError("requests_per_flush must be positive")
        chunks = [
            requests[i : i + requests_per_flush]
            for i in range(0, len(requests), requests_per_flush)
        ]
    for chunk in chunks:
        timestamp = max(r.end for r in chunk)
        writer.append(chunk, timestamp=timestamp, metadata=trace.metadata)
    return writer.flush_count
