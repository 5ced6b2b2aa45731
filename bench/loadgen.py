"""The canonical input and the two ways of offering it.

:func:`generate_stream` turns ``(spec, seed)`` into per-job periodic flush
streams with a recorded true period per job, pre-encoded once as FTS1 frame
bytes (plus the decoded records, for rungs below the framing layer).  The
program under test only ever sees those bytes or records.

Flushes are ordered round-major — round ``r`` holds one flush of every job —
so any run of at most ``jobs`` consecutive flushes touches each job once.
Both drivers rely on that to hand the service **at most one flush per job
between two pumps**: a job's flushes are then never coalesced into one
detection, every topology evaluates exactly the same windows whatever its
timing, and results can be compared bit for bit.  A flush held back by this
rule is late, and its latency (counted from when it was *due*) says so.

* :func:`closed_loop` — submit a round, pump, repeat: the capacity phase.
* :func:`open_loop` — flush ``k`` is due at ``t0 + k / rate``; every tick the
  generator submits everything due and pumps.  It never slows down when the
  system does, and it reports its own lateness.

Given a :class:`~bench.hostspeed.HostSpeed`, both take one calibration sample
per round or tick, outside everything they time.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.trace.framing import encode_frame
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest

from bench.hostspeed import REFERENCE_SECONDS, HostSpeed
from bench.spans import Tracer
from bench.workloads import StreamSpec

#: Bytes each request moves; only the timing matters to the detector.
_REQUEST_BYTES = 1 << 20

#: Rounds covered by :attr:`Stream.digest` (every run generates at least these).
DIGEST_ROUNDS = 8


@dataclass
class Stream:
    """A generated workload input (see the module docstring for the order)."""

    spec: StreamSpec
    seed: int
    jobs: list[str]
    #: Ground truth: the period each job was generated with.
    periods: dict[str, float]
    #: Decoded form, ``records[k]`` belongs to ``jobs[k % len(jobs)]``.
    records: list[FlushRecord]
    #: Encoded form, aligned with ``records``.
    frames: list[bytes]
    #: ``rounds[r]`` is round ``r``'s frames joined — what one submit carries.
    rounds: list[bytes]
    #: SHA-256 over the frame bytes of the first ``DIGEST_ROUNDS`` rounds: same
    #: spec and seed, same digest, however many rounds a run generates.
    digest: str

    def key(self, k: int) -> tuple[str, float]:
        """What the covering ``PredictionUpdate`` of flush ``k`` carries."""
        return self.jobs[k % len(self.jobs)], self.records[k].timestamp


#: Calibration time a closed loop adds, as a share of the time its rounds take.
_CALIBRATION_SHARE = 0.05

#: Generated rounds between two calibration samples during set-up.
_CALIBRATE_EVERY = 4


def generate_stream(
    spec: StreamSpec, seed: int, rounds: int, host: HostSpeed | None = None
) -> Stream:
    """Generate ``rounds`` flushes for each of the spec's jobs.

    Periods are spread evenly over the spec's range and the seed only
    shuffles which job gets which (and draws the phase offsets), so the total
    work is the same for every seed.  Each job writes one burst of
    ``requests_per_flush`` requests per period and flushes at its end.
    """
    rng = np.random.default_rng(seed)
    n = spec.jobs
    periods = np.linspace(*spec.period_range, n)
    rng.shuffle(periods)
    offsets = rng.uniform(0.0, 1.0, n) * periods
    jobs = [f"job-{j:03d}" for j in range(n)]
    rpf = spec.requests_per_flush
    slots = np.arange(rpf + 1) / rpf

    records: list[FlushRecord] = []
    frames: list[bytes] = []
    joined: list[bytes] = []
    sha = hashlib.sha256()
    for r in range(rounds):
        if host is not None and r % _CALIBRATE_EVERY == 0:
            host.sample()
        first = len(frames)
        for j in range(n):
            period = float(periods[j])
            edges = (float(offsets[j]) + r * period + (period / 16.0) * slots).tolist()
            flush = FlushRecord(
                flush_index=r,
                timestamp=edges[-1],
                requests=tuple(
                    IORequest(i % 4, edges[i], edges[i + 1], _REQUEST_BYTES)
                    for i in range(rpf)
                ),
                metadata={"application": "bench-loadgen", "seed": seed} if r == 0 else {},
            )
            records.append(flush)
            frames.append(encode_frame(flush, job=jobs[j]))
        joined.append(b"".join(frames[first:]))
        if r < DIGEST_ROUNDS:
            sha.update(joined[-1])
    return Stream(
        spec=spec,
        seed=seed,
        jobs=jobs,
        periods={job: float(p) for job, p in zip(jobs, periods)},
        records=records,
        frames=frames,
        rounds=joined,
        digest=sha.hexdigest(),
    )


# --------------------------------------------------------------------- #
# what the generator observes
# --------------------------------------------------------------------- #
@dataclass
class Ledger:
    """Every ``PredictionUpdate`` seen at the generator, keyed ``(job, time)``."""

    #: ``(job, update.time) -> (index, period, confidence)``
    seen: dict[tuple[str, float], tuple] = field(default_factory=dict)
    #: ``(job, update.time) ->`` wall time the update was observed.
    observed_at: dict[tuple[str, float], float] = field(default_factory=dict)
    duplicates: int = 0

    def observe(self, updates: list[tuple]) -> None:
        for update, when in updates:
            key = (update.job, update.time)
            if key in self.seen:
                self.duplicates += 1
            self.seen[key] = (update.index, update.period, update.confidence)
            self.observed_at[key] = when


def falsify(reference: dict) -> None:
    """Self-test (``--corrupt-reference``): make one expected value wrong; the
    run must notice."""
    key = next(iter(reference))
    index, period, confidence = reference[key]
    reference[key] = (index, period, confidence + 1.0)


def _span(tracer: Tracer | None, name: str, layer: str, count: int):
    return nullcontext() if tracer is None else tracer.span(name, layer, count)


# --------------------------------------------------------------------- #
# closed loop: capacity
# --------------------------------------------------------------------- #
@dataclass
class ClosedLoopResult:
    first_round: int
    #: Wall seconds of each round (submit + pump), in order.
    round_seconds: list[float]

    @property
    def rounds(self) -> int:
        return len(self.round_seconds)


def closed_loop(
    target,
    stream: Stream,
    first_round: int,
    ledger: Ledger,
    *,
    seconds: float | None = None,
    max_rounds: int | None = None,
    tracer: Tracer | None = None,
    host: HostSpeed | None = None,
) -> ClosedLoopResult:
    """Submit a round, pump, repeat — until ``seconds`` passed or rounds ran out."""
    last = len(stream.rounds) if max_rounds is None else min(
        len(stream.rounds), first_round + max_rounds
    )
    n = stream.spec.jobs
    durations: list[float] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    r = first_round
    while r < last and (deadline is None or time.perf_counter() < deadline):
        if host is not None:
            host.sample(_CALIBRATION_SHARE * durations[-1] if durations else 0.0)
        started = time.perf_counter()
        with _span(tracer, "round", "ladder", n):
            with _span(tracer, "submit", target.submit_layer, n):
                target.submit(stream.rounds[r])
            with _span(tracer, "pump", target.pump_layer, n):
                updates = target.pump()
        durations.append(time.perf_counter() - started)
        ledger.observe(updates)
        r += 1
    return ClosedLoopResult(first_round=first_round, round_seconds=durations)


# --------------------------------------------------------------------- #
# open loop: nominal
# --------------------------------------------------------------------- #
@dataclass
class OpenLoopResult:
    first_flush: int
    #: Flushes actually submitted (the stream position afterwards is
    #: ``first_flush + sent``).
    sent: int
    scheduled: int
    #: ``t_due`` of every submitted flush, aligned with the stream order.
    due_at: list[float]
    #: When the tick that carried each flush submitted it, aligned likewise.
    submitted_at: list[float]
    #: How late the generator itself woke for each tick [s]: wake time minus
    #: the later of (scheduled tick, end of the previous pump).  Time the
    #: service kept the thread is the service's latency, not the generator's.
    wake_late: list[float]
    #: Flushes due but not submitted when the phase ended.
    backlog: int
    offered_per_s: float
    stats_rtt: list[float]


#: Ticks past the scheduled end in which a backlog left by a passing stall may
#: still be submitted; an overloaded system's backlog does not fit in them.
_GRACE_TICKS = 4


def open_loop(
    target,
    stream: Stream,
    first_flush: int,
    ledger: Ledger,
    *,
    rate: float,
    tick: float,
    seconds: float,
    stats_every: int = 0,
    tracer: Tracer | None = None,
    host: HostSpeed | None = None,
) -> OpenLoopResult:
    """Offer ``rate`` flushes/s for ``seconds``, pumping every ``tick``.

    Flush ``k`` of the phase is due at ``t0 + k / rate``.  Each tick submits
    what is due (at most one round's worth, see the module docstring) in one
    call, then pumps.  With ``stats_every`` a ``stats()`` read is timed on
    every that-many-th tick, so reads run beside writes.
    """
    n = stream.spec.jobs
    scheduled = min(len(stream.frames) - first_flush, int(rate * seconds))
    due_at: list[float] = []
    submitted_at: list[float] = []
    wake_late: list[float] = []
    stats_rtt: list[float] = []
    sent = 0
    ticks = 0
    if host is not None:
        host.sample()  # at least one, however busy the ticks turn out
    t0 = time.perf_counter() + tick
    previous_end = time.perf_counter()
    last_submit = t0
    while sent < scheduled:
        at = t0 + ticks * tick
        wait = at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        woke = time.perf_counter()
        if woke - t0 > seconds + _GRACE_TICKS * tick:
            break
        wake_late.append(woke - max(at, previous_end))
        due = min(scheduled, int((woke - t0) * rate) + 1)
        take = min(due, sent + n) - sent
        with _span(tracer, "tick", "loadgen", take):
            if take > 0:
                lo = first_flush + sent
                with _span(tracer, "submit", target.submit_layer, take):
                    target.submit(b"".join(stream.frames[lo : lo + take]))
                due_at.extend(t0 + k / rate for k in range(sent, sent + take))
                submitted_at.extend([woke] * take)
                sent += take
                last_submit = woke
            with _span(tracer, "pump", target.pump_layer, take):
                updates = target.pump()
        ledger.observe(updates)
        if stats_every and ticks % stats_every == 0:
            started = time.perf_counter()
            target.stats()
            stats_rtt.append(time.perf_counter() - started)
        ticks += 1
        # Calibrate in the idle part of the tick, when enough of it is left.
        if host is not None and t0 + ticks * tick - time.perf_counter() > 4 * REFERENCE_SECONDS:
            host.sample()
        previous_end = time.perf_counter()
    span_seconds = max(last_submit - t0, tick)
    return OpenLoopResult(
        first_flush=first_flush,
        sent=sent,
        scheduled=scheduled,
        due_at=due_at,
        submitted_at=submitted_at,
        wake_late=wake_late,
        backlog=scheduled - sent,
        offered_per_s=sent / span_seconds,
        stats_rtt=stats_rtt,
    )


def latencies(
    result: OpenLoopResult, stream: Stream, ledger: Ledger, *, scale: float = 1.0
) -> list[float]:
    """Latency [s] of every flush of a nominal phase that got its update.

    Latency = (time the update covering the flush was observed at the
    generator) − ``t_due``.  It includes queue and tick wait and excludes the
    analysis window's length.  (A flush without an update has no latency; the
    run's check counts it as failed.)

    ``scale`` states it for the reference host (see :mod:`bench.hostspeed`):
    the wait for the generator's next tick is the generator's schedule and
    stays as it is, the time from submission to the update is the system's
    and is divided by ``scale``.
    """
    observed = (
        ledger.observed_at.get(stream.key(result.first_flush + i))
        for i in range(result.sent)
    )
    return [
        (submitted - due) + (seen - submitted) / scale
        for seen, due, submitted in zip(observed, result.due_at, result.submitted_at)
        if seen is not None
    ]
