"""Basic I/O record types: single requests and logical I/O phases.

The tracing layer of the paper (TMIO) records, for every intercepted MPI-IO
call, the issuing rank, the start and end timestamps, and the number of bytes
transferred.  FTIO never needs more than that, so :class:`IORequest` is the
atomic unit of every trace in this library.

An :class:`IOPhase` is the *logical* grouping the introduction of the paper
discusses: a set of requests that conceptually belong together (for instance a
checkpoint written by all ranks).  Phases are only known to the workload
generators (ground truth); the analysis itself never relies on them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class IOKind(str, Enum):
    """Direction of an I/O request."""

    WRITE = "write"
    READ = "read"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class IORequest:
    """A single I/O request as recorded by the (simulated) tracer.

    Attributes
    ----------
    rank:
        MPI rank that issued the request.
    start, end:
        Wall-clock timestamps in seconds.  ``end`` must be >= ``start``.
    nbytes:
        Number of bytes transferred by the request.
    kind:
        Whether the request was a read or a write.
    """

    rank: int
    start: float
    end: float
    nbytes: int
    kind: IOKind = IOKind.WRITE

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"request end ({self.end}) must be >= start ({self.start})"
            )
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")

    @property
    def duration(self) -> float:
        """Duration of the request in seconds."""
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        """Average transfer rate of the request in bytes/s.

        Instantaneous (zero-duration) requests report an infinite rate, which
        the bandwidth-signal construction treats as a point mass.
        """
        if self.duration == 0.0:
            return float("inf")
        return self.nbytes / self.duration

    def to_dict(self) -> dict:
        """Serialize to the plain-dict schema used by the JSONL/MessagePack formats."""
        return {
            "rank": self.rank,
            "start": self.start,
            "end": self.end,
            "bytes": self.nbytes,
            "kind": self.kind.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IORequest":
        """Reconstruct a request from :meth:`to_dict` output."""
        return cls(
            rank=int(data["rank"]),
            start=float(data["start"]),
            end=float(data["end"]),
            nbytes=int(data["bytes"]),
            kind=IOKind(data.get("kind", "write")),
        )


_KIND_OF = {kind.value: kind for kind in IOKind}


def iter_requests(
    ranks: Any, starts: Any, ends: Any, nbytes: Any, kinds: Any
) -> Iterator[IORequest]:
    """The rows of five request columns (numpy arrays), in column order.

    Each column becomes Python values in one ``.tolist()`` and each kind is
    looked up in one table, instead of indexing numpy scalars row by row.
    """
    kind_of = _KIND_OF.get
    for rank, start, end, size, kind in zip(
        ranks.tolist(), starts.tolist(), ends.tolist(), nbytes.tolist(), kinds.tolist()
    ):
        yield IORequest(rank, start, end, size, kind_of(kind) or IOKind(kind))


@dataclass(frozen=True, slots=True)
class IOPhase:
    """Ground-truth logical I/O phase (only known to workload generators).

    Attributes
    ----------
    start, end:
        Boundaries of the phase in seconds.
    nbytes:
        Total bytes transferred during the phase.
    label:
        Free-form tag, e.g. ``"checkpoint"`` or ``"log"``.
    """

    start: float
    end: float
    nbytes: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"phase end ({self.end}) must be >= start ({self.start})")
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")

    @property
    def duration(self) -> float:
        """Length of the phase in seconds."""
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Ground-truth periodicity information attached to generated traces.

    The limitation study (Section III-A) computes the detection error against
    the *average* period of the generated trace, which is only known at
    generation time.  Workload generators attach an instance of this class to
    the traces they emit.
    """

    phases: tuple[IOPhase, ...] = field(default=())
    mean_period: float | None = None

    @property
    def phase_starts(self) -> tuple[float, ...]:
        """Start times of the ground-truth phases."""
        return tuple(p.start for p in self.phases)

    def average_period(self) -> float | None:
        """Average time between consecutive phase starts (the paper's T-bar).

        Falls back to :attr:`mean_period` when fewer than two phases exist.
        """
        starts = self.phase_starts
        if len(starts) >= 2:
            diffs = [b - a for a, b in zip(starts, starts[1:])]
            return sum(diffs) / len(diffs)
        return self.mean_period
