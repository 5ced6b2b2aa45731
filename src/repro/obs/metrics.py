"""Dependency-free metrics core: counters, gauges, mergeable histograms.

The service stack already keeps most of its counters (``BrokerStats``,
``DispatcherStats``, the ring writer's byte cursors) — what it lacked was a
uniform way to *export* them, and any way at all to keep distributions.
This module supplies both without new dependencies:

* :class:`Counter` / :class:`Gauge` — thread-safe scalars for code that has
  no native counter to piggyback on.
* :class:`Histogram` — fixed-bucket latency histogram whose state is a plain
  list of bucket counts, so two histograms **merge** by elementwise addition
  exactly like ``BrokerStats.merge`` sums its scalars.  Quantile estimates
  therefore survive cross-shard aggregation: merging per-shard snapshots and
  asking for p99 is as accurate as having observed every sample in one
  process (to within one bucket).
* :class:`MetricRegistry` — the per-process catalogue.  Besides owning live
  instruments it supports **views**: snapshot-time callbacks over counters a
  subsystem already maintains.  Views cost *zero* on the hot path — the
  broker does not pay a second increment per frame just so Prometheus can
  see ``frames_total``; the value is read once per scrape.

Snapshots (:meth:`MetricRegistry.collect`) are plain ``dict``/``list``/number
trees: msgpack-safe for the FTC1 read channel (``MetricsReport``),
JSON-safe for ``/status``, and mergeable across shards with
:func:`merge_snapshots`.  :func:`render_prometheus` writes the text
exposition format by hand — stdlib only.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullHistogram",
    "merge_snapshots",
    "render_prometheus",
]

#: Default bucket upper bounds (seconds) for latency histograms: roughly
#: geometric from 10 µs to 10 s, matching the service's observed range from
#: single-session detections (~100 µs) to cold resharding phases (~1 s).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

LabelMap = Mapping[str, str]


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value


class Gauge:
    """Point-in-time scalar (queue depth, occupancy, resident samples)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value: int | float = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (upper-inclusive) semantics.

    ``bounds`` are ascending bucket upper bounds; an implicit ``+Inf`` bucket
    catches the overflow.  The full state is ``(bounds, counts, sum, max)``
    and two histograms over identical bounds merge by elementwise addition,
    which is associative and commutative — so per-shard snapshots can be
    merged in any order and grouping without changing any quantile estimate.

    :meth:`quantile` returns the upper bound of the bucket holding the
    requested rank (clipped to the observed maximum), which is within one
    bucket width of the exact pooled-sample quantile by construction.
    """

    __slots__ = ("_bounds", "_counts", "_lock", "_max", "_sum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending, got {bounds}")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    def observe(self, value: float) -> None:
        idx = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            maximum = self._max
        total = sum(counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for idx, count in enumerate(counts):
            cumulative += count
            if count and cumulative >= target:
                if idx >= len(self._bounds):
                    return maximum
                return min(self._bounds[idx], maximum)
        return maximum

    def merge(self, other: Histogram) -> Histogram:
        """Return a new histogram holding the pooled observations of both."""
        if self._bounds != other._bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self._bounds} vs {other._bounds}"
            )
        merged = Histogram(self._bounds)
        with self._lock:
            counts_a, sum_a, max_a = list(self._counts), self._sum, self._max
        with other._lock:
            counts_b, sum_b, max_b = list(other._counts), other._sum, other._max
        merged._counts = [a + b for a, b in zip(counts_a, counts_b)]
        merged._sum = sum_a + sum_b
        merged._max = max(max_a, max_b)
        return merged

    def to_dict(self) -> dict:
        """Plain-type state: msgpack/JSON-safe, accepted by :meth:`from_dict`."""
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "max": self._max,
            }

    @classmethod
    def from_dict(cls, state: Mapping) -> Histogram:
        hist = cls(state["bounds"])
        counts = [int(c) for c in state["counts"]]
        if len(counts) != len(hist._counts):
            raise ValueError(
                f"count vector has {len(counts)} entries for "
                f"{len(hist._bounds)} bounds (+Inf)"
            )
        if any(c < 0 for c in counts):
            raise ValueError("bucket counts must be non-negative")
        hist._counts = counts
        hist._sum = float(state["sum"])
        hist._max = float(state["max"])
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self._bounds == other._bounds
            and self._counts == other._counts
            and self._sum == other._sum
            and self._max == other._max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count}, sum={self._sum:.6g}, max={self._max:.6g})"


class NullHistogram:
    """No-op stand-in so instrumented call sites need no ``if`` guard."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instance handed out when metrics are disabled.
NULL_HISTOGRAM = NullHistogram()


def _label_key(labels: LabelMap | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricRegistry:
    """Per-process metric catalogue: live instruments plus snapshot-time views.

    Instruments created through the factory methods are keyed by
    ``(name, labels)`` — repeated calls return the same instance, so call
    sites can resolve their histogram once at construction time and pay only
    the ``observe`` on the hot path.  Views (:meth:`register_view`) read an
    existing counter through a callback only when :meth:`collect` runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._views: list[tuple[str, tuple[tuple[str, str], ...], Callable[[], float]]] = []

    def _register(self, name: str, kind: str, help: str) -> None:
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(f"metric {name!r} already registered as {known}, not {kind}")
        self._kinds[name] = kind
        if help:
            self._help.setdefault(name, help)

    def counter(self, name: str, labels: LabelMap | None = None, *, help: str = "") -> Counter:
        return self._instrument(name, "counter", labels, help, Counter)

    def gauge(self, name: str, labels: LabelMap | None = None, *, help: str = "") -> Gauge:
        return self._instrument(name, "gauge", labels, help, Gauge)

    def histogram(
        self,
        name: str,
        labels: LabelMap | None = None,
        *,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        buckets = tuple(buckets)
        return self._instrument(name, "histogram", labels, help, lambda: Histogram(buckets))

    def _instrument(self, name, kind, labels, help, factory):
        key = (name, _label_key(labels))
        with self._lock:
            self._register(name, kind, help)
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            return instrument

    def register_view(
        self,
        name: str,
        kind: str,
        read: Callable[[], float],
        labels: LabelMap | None = None,
        *,
        help: str = "",
    ) -> None:
        """Expose ``read()`` as a ``counter`` or ``gauge`` series at collect time.

        The callback is invoked once per :meth:`collect`; a raising callback
        (e.g. a ring whose shard died) drops that series from the snapshot
        instead of failing the scrape.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"views must be counters or gauges, got {kind!r}")
        with self._lock:
            self._register(name, kind, help)
            self._views.append((name, _label_key(labels), read))

    def collect(self) -> dict:
        """Snapshot every instrument and view into a plain-type tree.

        Shape: ``{name: {"kind": ..., "help": ..., "series": [{"labels":
        {...}, "value": n} | {"labels": {...}, "hist": {...}}]}}``.
        """
        with self._lock:
            instruments = list(self._instruments.items())
            views = list(self._views)
            kinds = dict(self._kinds)
            helps = dict(self._help)
        snapshot: dict[str, dict] = {}

        def series_for(name: str) -> list:
            entry = snapshot.setdefault(
                name,
                {"kind": kinds[name], "help": helps.get(name, ""), "series": []},
            )
            return entry["series"]

        for (name, label_key), instrument in instruments:
            labels = dict(label_key)
            if isinstance(instrument, Histogram):
                series_for(name).append({"labels": labels, "hist": instrument.to_dict()})
            else:
                series_for(name).append({"labels": labels, "value": instrument.value})
        for name, label_key, read in views:
            try:
                value = read()
            except Exception:
                continue
            series_for(name).append({"labels": dict(label_key), "value": value})
        return snapshot


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Merge :meth:`MetricRegistry.collect` trees from many processes.

    Counters and gauges with identical ``(name, labels)`` sum; histograms
    merge bucket-wise via :meth:`Histogram.merge`.  Gauges sum rather than
    overwrite because every cross-shard gauge here is additive (occupancy,
    resident samples).
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            target = merged.setdefault(
                name,
                {"kind": entry["kind"], "help": entry.get("help", ""), "series": []},
            )
            if target["kind"] != entry["kind"]:
                continue
            if not target["help"]:
                target["help"] = entry.get("help", "")
            by_labels = {
                _label_key(series["labels"]): series for series in target["series"]
            }
            for series in entry["series"]:
                key = _label_key(series["labels"])
                existing = by_labels.get(key)
                if existing is None:
                    copied = {"labels": dict(series["labels"])}
                    if "hist" in series:
                        copied["hist"] = Histogram.from_dict(series["hist"]).to_dict()
                    else:
                        copied["value"] = series["value"]
                    target["series"].append(copied)
                    by_labels[key] = copied
                elif "hist" in series:
                    pooled = Histogram.from_dict(existing["hist"]).merge(
                        Histogram.from_dict(series["hist"])
                    )
                    existing["hist"] = pooled.to_dict()
                else:
                    existing["value"] += series["value"]
    return merged


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str], extra: tuple[str, str] | None = None) -> str:
    items = sorted((str(k), str(v)) for k, v in labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: Mapping) -> str:
    """Render a snapshot tree in the Prometheus text exposition format.

    Histograms emit the conventional ``_bucket{le=...}`` cumulative series
    plus ``_sum`` and ``_count``; the trailing newline and ``# TYPE`` lines
    follow the format spec so a stock Prometheus scraper ingests the output
    unmodified.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for series in entry["series"]:
            labels = series.get("labels", {})
            if kind == "histogram":
                hist = series["hist"]
                cumulative = 0
                for bound, count in zip(hist["bounds"], hist["counts"]):
                    cumulative += count
                    label_block = _format_labels(labels, ("le", _format_value(float(bound))))
                    lines.append(f"{name}_bucket{label_block} {cumulative}")
                cumulative += hist["counts"][-1]
                label_block = _format_labels(labels, ("le", "+Inf"))
                lines.append(f"{name}_bucket{label_block} {cumulative}")
                lines.append(f"{name}_sum{_format_labels(labels)} {hist['sum']!r}")
                lines.append(f"{name}_count{_format_labels(labels)} {cumulative}")
            else:
                value = series["value"]
                rendered = value if isinstance(value, int) else _format_value(float(value))
                lines.append(f"{name}{_format_labels(labels)} {rendered}")
    return "\n".join(lines) + "\n"
