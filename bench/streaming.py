"""End-to-end run of a streaming workload: set-up, capacity, nominal, check.

::

    set-up (x3, median)   generate the stream, start the topology, warm up
    capacity phase        closed loop, as fast as the system goes
    nominal phase         open loop at the workload's fixed rate
    drain
    check                 every flush has its update; sampled jobs replayed
                          through a single-process reference, bit for bit;
                          every job's final period against the generator's

The check runs after the timed phases, over exactly the flushes they
consumed, so it costs neither set-up nor measured time.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np

from repro.service import PredictionService

from bench.hostspeed import HostSpeed
from bench.loadgen import (
    Ledger,
    Stream,
    closed_loop,
    falsify,
    generate_stream,
    latencies,
    open_loop,
)
from bench.result import SETUP_REPEATS, Outcome, scalar, summary
from bench.topology import ClientTarget, EngineTarget, Server, vm_hwm_kb
from bench.workloads import (
    CAPACITY_SHARE,
    PERIOD_ERROR_LIMIT,
    WARM_ROUNDS,
    StreamSpec,
)

#: Ticks between two ``stats()`` reads in the nominal phase.
STATS_EVERY = 10


def nominal_rounds(spec: StreamSpec, seconds: float) -> int:
    """Rounds the open-loop phase consumes (kept back from the capacity phase)."""
    return math.ceil(spec.nominal_rate * seconds * (1.0 - CAPACITY_SHARE) / spec.jobs) + 1


def rounds_needed(spec: StreamSpec, seconds: float) -> int:
    """Rounds to generate so neither timed phase runs out of input."""
    capacity = spec.headroom_rate * seconds * CAPACITY_SHARE
    return WARM_ROUNDS + math.ceil(capacity / spec.jobs) + nominal_rounds(spec, seconds)


def set_up(spec: StreamSpec, seed: int, seconds: float, *, smoke: bool, host: HostSpeed):
    """Topology start + input generation + warm-up; returns the live pieces.

    A stack workload's server subprocess spends its first seconds importing,
    so it is spawned first and the input is generated while it comes up.
    """
    server = Server(spec.name, smoke=smoke) if spec.stack else None
    try:
        stream = generate_stream(spec, seed, rounds_needed(spec, seconds), host)
        if server is not None:
            target = ClientTarget(server)
        else:
            target = EngineTarget(PredictionService(spec.config().service_config()))
    except BaseException:
        if server is not None:
            server.close()
        raise
    try:
        ledger = Ledger()
        closed_loop(target, stream, 0, ledger, max_rounds=WARM_ROUNDS, host=host)
    except BaseException:
        target.close()
        raise
    return stream, target, ledger


def oracle_jobs(stream: Stream) -> list[int]:
    """Indices of the jobs replayed through the reference (evenly spread)."""
    n = stream.spec.jobs
    step = max(1, n // stream.spec.oracle_jobs)
    return list(range(0, n, step))[: stream.spec.oracle_jobs]


def reference_updates(stream: Stream, job_indices: list[int], consumed: int) -> dict:
    """Replay the chosen jobs' first ``consumed`` flushes through a fresh
    single-process inline ``PredictionService``, one pump per round.

    Sessions are independent, so a job's updates do not depend on which other
    jobs share the service: the subset replay is the reference for those jobs
    in any topology.
    """
    n = stream.spec.jobs
    target = EngineTarget(PredictionService(stream.spec.config().service_config()))
    ledger = Ledger()
    try:
        for r in range(math.ceil(consumed / n)):
            frames = [
                stream.frames[r * n + j] for j in job_indices if r * n + j < consumed
            ]
            if frames:
                target.submit(b"".join(frames))
                ledger.observe(target.pump())
        ledger.observe(target.drain())
    finally:
        target.close()
    return ledger.seen


def same_update(seen: tuple, expected: tuple) -> bool:
    """Index and period exactly equal, confidence equal to 1e-12 relative.

    The reference evaluates the sampled jobs alone, the run evaluated them in
    batches with other jobs' windows, and the batched kernels differ from
    row-at-a-time evaluation in the last bit of the confidence of a few
    updates in a hundred (``stream_few_long``, autocorrelation on).  Where
    every topology pumps the same batches — the traced ladder — the comparison
    is exact.
    """
    return seen[:2] == expected[:2] and math.isclose(
        seen[2], expected[2], rel_tol=1e-12, abs_tol=0.0
    )


def check(stream: Stream, ledger: Ledger, consumed: int, *, corrupt: bool = False) -> dict:
    """Compare what the generator saw with what it should have seen."""
    n = stream.spec.jobs
    missing = sum(1 for k in range(consumed) if stream.key(k) not in ledger.seen)

    sampled = oracle_jobs(stream)
    reference = reference_updates(stream, sampled, consumed)
    if corrupt:
        falsify(reference)
    mismatched = sum(
        1 for key, expected in reference.items()
        if key in ledger.seen and not same_update(ledger.seen[key], expected)
    )

    errors: list[float] = []
    undetected = 0
    for j, job in enumerate(stream.jobs):
        last = ((consumed - 1 - j) // n) * n + j  # the job's last consumed flush
        final = ledger.seen.get(stream.key(last)) if last >= 0 else None
        if final is None:
            continue  # already counted as missing
        if final[1] is None:
            undetected += 1
        else:
            truth = stream.periods[job]
            errors.append(abs(final[1] - truth) / truth)
    return {
        "missing": missing,
        "mismatched": mismatched,
        "undetected": undetected,
        "duplicates": ledger.duplicates,
        "reference_updates": len(reference),
        "period_error_mean": float(np.mean(errors)) if errors else float("nan"),
        "period_error_max": float(np.max(errors)) if errors else float("nan"),
    }


def run(
    spec: StreamSpec, seed: int, seconds: float, *, smoke: bool = False, corrupt: bool = False
) -> Outcome:
    """One untraced end-to-end run; see the module docstring."""
    setup_seconds: list[float] = []
    setup_raw: list[float] = []
    for repeat in range(SETUP_REPEATS):
        host = HostSpeed()
        started = time.perf_counter()
        stream, target, ledger = set_up(spec, seed, seconds, smoke=smoke, host=host)
        setup_raw.append(time.perf_counter() - started - host.spent)
        setup_seconds.append(setup_raw[-1] / host.scale)
        if repeat < SETUP_REPEATS - 1:
            target.close()

    capacity_host, nominal_host = HostSpeed(), HostSpeed()
    try:
        capacity = closed_loop(
            target, stream, WARM_ROUNDS, ledger, seconds=seconds * CAPACITY_SHARE,
            max_rounds=len(stream.rounds) - WARM_ROUNDS - nominal_rounds(spec, seconds),
            host=capacity_host,
        )
        position = (WARM_ROUNDS + capacity.rounds) * spec.jobs
        nominal = open_loop(
            target, stream, position, ledger,
            rate=spec.nominal_rate, tick=spec.tick,
            seconds=seconds * (1.0 - CAPACITY_SHARE), stats_every=STATS_EVERY,
            host=nominal_host,
        )
        ledger.observe(target.drain())
        stats = target.stats()
        rss_kb = vm_hwm_kb() + target.rss_kb()
    finally:
        target.close()

    consumed = position + nominal.sent
    verdict = check(stream, ledger, consumed, corrupt=corrupt)
    raw_latency = latencies(nominal, stream, ledger)
    latency = latencies(nominal, stream, ledger, scale=nominal_host.scale)
    # A backlog beyond one tick's worth means the rate was not sustained:
    # every flush still waiting counts as failed.
    backlog_failed = nominal.backlog if nominal.backlog > spec.nominal_rate * spec.tick else 0
    failed = (
        verdict["missing"] + verdict["mismatched"] + verdict["undetected"]
        + verdict["duplicates"] + backlog_failed
    )
    attempted = consumed + backlog_failed

    # Timings are stated for the reference host (bench/hostspeed.py); what
    # the clock read is kept under "raw" in the detail.
    raw_rates = [spec.jobs / seconds_ for seconds_ in capacity.round_seconds]
    rates = [rate * capacity_host.scale for rate in raw_rates]
    metrics = {
        "setup_s": summary(setup_seconds, "s"),
        "flushes_per_s": summary(rates, "flushes/s"),
        "latency_p50_ms": summary(np.asarray(latency) * 1e3, "ms"),
        "period_error_mean": scalar(verdict["period_error_mean"], "fraction"),
        "peak_rss_mb": scalar(rss_kb / 1024.0, "MB"),
    }
    unresolved: dict[str, str] = {}
    late_p99 = float(np.percentile(nominal.wake_late, 99.0)) if nominal.wake_late else 0.0
    if late_p99 > spec.tick:
        # A starved generator must not be read as a slow service.
        reason = f"generator woke {late_p99 * 1e3:.1f} ms late at p99 (tick {spec.tick * 1e3:.0f} ms)"
        unresolved = {"latency_p50_ms": reason}
    correct = failed == 0 and verdict["period_error_mean"] <= PERIOD_ERROR_LIMIT
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        correct=correct,
        unresolved=unresolved,
        detail={
            "stream_sha256": stream.digest,
            "host_scale": {
                "capacity": capacity_host.scale, "nominal": nominal_host.scale,
                "capacity_samples_ms": [round(x * 1e3, 3) for x in capacity_host.samples],
                "nominal_samples_ms": [round(x * 1e3, 3) for x in nominal_host.samples],
            },
            "raw": {
                "setup_s": median(setup_raw),
                "flushes_per_s": median(raw_rates),
                "latency_p50_ms": median(raw_latency) * 1e3,
            },
            "rounds_generated": len(stream.rounds),
            "capacity": {
                "rounds": capacity.rounds,
                "flushes_per_s_overall": capacity.rounds * spec.jobs / sum(capacity.round_seconds),
                "input_exhausted": (
                    WARM_ROUNDS + capacity.rounds + nominal_rounds(spec, seconds)
                    >= len(stream.rounds)
                ),
                "round_seconds": [round(s, 5) for s in capacity.round_seconds],
            },
            "nominal": {
                "rate": spec.nominal_rate, "tick": spec.tick,
                "scheduled": nominal.scheduled, "sent": nominal.sent,
                "backlog_end": nominal.backlog, "offered_per_s": nominal.offered_per_s,
                "late_p99_ms": late_p99 * 1e3,
                "latency_ms": {
                    f"p{q}": float(np.percentile(raw_latency, q)) * 1e3
                    for q in (50, 90, 95, 99, 100)
                },
                "stats_rtt_p50_ms": median(nominal.stats_rtt) * 1e3 if nominal.stats_rtt else None,
            },
            "check": verdict,
            "failed_share": failed / attempted,
            "service_stats": {k: v for k, v in stats.items() if isinstance(v, (int, float))},
        },
    )
