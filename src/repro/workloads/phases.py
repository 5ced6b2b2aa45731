"""Building blocks shared by the workload generators: single I/O phases, as columns.

An I/O phase is a set of requests issued by ``ranks`` processes during one
burst: every process writes ``volume_per_rank`` bytes split into requests of
``request_size`` bytes at a given per-rank bandwidth, back to back.
:func:`generate_phase` builds it as a :class:`Trace` from one 2-D array of
request durations (one row per rank); :func:`phase_of` reads a phase's
ground-truth boundaries off such a trace, and :func:`join_phases` joins the
phases of one application into its trace.  The per-process delays δ_k of
Section III-A are applied where a library phase is placed
(:class:`repro.workloads.synthetic.SemiSyntheticGenerator`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import WorkloadError
from repro.trace.record import GroundTruth, IOKind, IOPhase
from repro.trace.trace import Trace
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


@dataclass(frozen=True)
class PhaseSpec:
    """Specification of one I/O phase.

    Attributes
    ----------
    ranks:
        Number of processes taking part in the phase.
    volume_per_rank:
        Bytes each process transfers during the phase.
    request_size:
        Size of the individual requests each process issues.
    rank_bandwidth:
        Sustained per-rank transfer rate in bytes/s.
    kind:
        Whether the phase reads or writes.
    """

    ranks: int
    volume_per_rank: int
    request_size: int
    rank_bandwidth: float
    kind: IOKind = IOKind.WRITE

    def __post_init__(self) -> None:
        check_positive_int(self.ranks, "ranks")
        check_positive_int(self.volume_per_rank, "volume_per_rank")
        check_positive_int(self.request_size, "request_size")
        check_positive(self.rank_bandwidth, "rank_bandwidth")
        if self.request_size > self.volume_per_rank:
            raise WorkloadError(
                f"request_size ({self.request_size}) cannot exceed "
                f"volume_per_rank ({self.volume_per_rank})"
            )

    @property
    def requests_per_rank(self) -> int:
        """Number of requests each rank issues (last one may be smaller)."""
        return int(np.ceil(self.volume_per_rank / self.request_size))

    @property
    def nominal_duration(self) -> float:
        """Duration of the phase for a perfectly synchronized, noise-free run."""
        return self.volume_per_rank / self.rank_bandwidth


def generate_phase(
    spec: PhaseSpec,
    *,
    start: float = 0.0,
    bandwidth_jitter: float = 0.0,
    seed: SeedLike = None,
) -> Trace:
    """Generate the requests of one I/O phase; every rank starts at ``start``.

    Parameters
    ----------
    spec:
        The phase specification.
    start:
        Wall-clock time at which the phase begins.
    bandwidth_jitter:
        Relative standard deviation applied to each request's duration to
        emulate file-system variability (0 disables it).  The factors are
        drawn in one ``(ranks, requests_per_rank)`` block, rank by rank.
    seed:
        RNG seed / generator for the jitter.
    """
    check_non_negative(start, "start")
    check_non_negative(bandwidth_jitter, "bandwidth_jitter")
    rng = as_generator(seed)
    sizes = request_sizes(spec.volume_per_rank, spec.request_size)
    base_request_time = spec.request_size / spec.rank_bandwidth
    durations = np.tile(base_request_time * (sizes / spec.request_size), (spec.ranks, 1))
    if bandwidth_jitter > 0:
        durations *= np.clip(rng.normal(1.0, bandwidth_jitter, size=durations.shape), 0.2, 5.0)
    # Each rank's requests run back to back: its timestamps are the running
    # sums of [start, d1, d2, ...] (sequential, so each equals cursor += d).
    edges = np.cumsum(np.column_stack([np.full(spec.ranks, start), durations]), axis=1)
    n = sizes.size
    return Trace.from_columns(
        edges[:, :-1].ravel(),
        edges[:, 1:].ravel(),
        np.tile(sizes, spec.ranks),
        np.repeat(np.arange(spec.ranks, dtype=np.int64), n),
        np.full(spec.ranks * n, spec.kind.value),
    )


def request_sizes(volume: int, request_size: int) -> np.ndarray:
    """``volume`` bytes split into requests of ``request_size`` (the last one may be smaller)."""
    full, last = divmod(volume, request_size)
    sizes = np.full(full + (last > 0), request_size, dtype=np.int64)
    if last:
        sizes[-1] = last
    return sizes


def phase_of(*steps: Trace, label: str = "") -> IOPhase:
    """The ground-truth :class:`IOPhase` of one phase's requests: their span and bytes.

    A phase of several steps (HACC-IO's write, then read) passes one trace each.
    """
    return IOPhase(
        start=min(step.t_start for step in steps),
        end=max(step.t_end for step in steps),
        nbytes=sum(step.volume for step in steps),
        label=label,
    )


def join_phases(
    pieces: list[Trace],
    phases: list[IOPhase],
    metadata: dict,
    *,
    mean_period: float | None = None,
) -> Trace:
    """One application trace from its phases' requests and their ground truth."""
    return Trace.from_columns(
        np.concatenate([p.starts for p in pieces]),
        np.concatenate([p.ends for p in pieces]),
        np.concatenate([p.nbytes for p in pieces]),
        np.concatenate([p.ranks for p in pieces]),
        np.concatenate([p.kinds for p in pieces]),
        ground_truth=GroundTruth(phases=tuple(phases), mean_period=mean_period),
        metadata=metadata,
    )
