"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``{id, parent, name, layer, workload, start, end, count}``: one
call (or one loop of ``count`` calls) into a public function of ``layer``.
The parent of a span is whichever span was open when it started — one thread
makes every call, so a stack of open spans suffices — and all spans of one
ladder rung descend from the rung's root span.  Spans are kept as tuples while the run
lasts and written out once at the end; the per-layer metrics are derived
from that file by :mod:`bench.report`.

A layer's *self time* is its span's duration minus the part its child spans
cover — :func:`self_seconds` computes it from the written form.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

_FIELDS = ("id", "parent", "name", "layer", "workload", "start", "end", "count")


class Tracer:
    """Collects spans and plain counters for one traced run."""

    def __init__(self, workload: str = "") -> None:
        self._spans: list[tuple] = []
        self._open: list[int] = []
        #: Tag of the workload whose input the current spans are driven by.
        self.workload = workload
        #: Counts read at the same boundaries the spans time (bytes moved,
        #: samples resident, frames double-routed ...), keyed
        #: ``workload -> name -> value``.
        self.counters: dict[str, dict[str, float]] = defaultdict(dict)

    def add(self, name: str, layer: str, start: float, end: float, count: int = 1) -> None:
        """Record an already finished call as a child of the open span."""
        parent = self._open[-1] if self._open else None
        self._spans.append(
            (len(self._spans), parent, name, layer, self.workload, start, end, count)
        )

    @contextmanager
    def span(self, name: str, layer: str, count: int = 1) -> Iterator[None]:
        """Time the enclosed block as a child of the open span."""
        span_id = len(self._spans)
        parent = self._open[-1] if self._open else None
        self._spans.append(())  # reserve the id: children started inside point at it
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._spans[span_id] = (
                span_id, parent, name, layer, self.workload, start, end, count
            )

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's finished spans (ids renumbered) and counters.

        Rungs that take turns round by round each record into a tracer of
        their own, so each keeps its own stack of open spans; their spans are
        merged here when the rungs are done.
        """
        offset = len(self._spans)
        for span in other._spans:
            if span:
                span_id, parent, *rest = span
                self._spans.append(
                    (span_id + offset, None if parent is None else parent + offset, *rest)
                )
            else:
                self._spans.append(())
        for workload, counters in other.counters.items():
            self.counters[workload].update(counters)

    def count(self, name: str, value: float) -> None:
        """Record a counter read at a layer boundary, under the current tag."""
        self.counters[self.workload][name] = value

    def to_dict(self) -> dict:
        """The written form: a list of span dicts plus the counters."""
        return {
            "spans": [dict(zip(_FIELDS, span)) for span in self._spans if span],
            "counters": {w: dict(c) for w, c in self.counters.items()},
        }


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Children of one span never overlap each other (one thread makes every
    call), so the covered part is the plain sum of child durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
