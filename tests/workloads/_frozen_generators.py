"""A frozen copy of the per-request workload generators, the oracle of the columnar ones.

:mod:`repro.workloads` builds every generated trace as columns.  Until it did,
each generator built one :class:`IORequest` per request, with one scalar RNG
draw per jittered request, and turned the list into a :class:`Trace` with a
stable ``lexsort`` on (start, end, rank).  This module keeps that code, as it
was, so ``tests/workloads/test_columnar_generators.py`` can hold the columnar
generators bit-equal to it: columns, dtypes, ground truth, metadata and the
RNG state after the call.  Argument checks are left out: only what decides
the output is kept.  Do not "fix" this file; it is the reference.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MIB
from repro.trace.record import GroundTruth, IOKind, IOPhase, IORequest
from repro.trace.trace import Trace, merge_traces
from repro.workloads.noise import NoiseLevel
from repro.workloads.phases import PhaseSpec


def frozen_from_requests(requests, *, ground_truth=None, metadata=None) -> Trace:
    """``Trace.from_requests`` as it was: columns, then one stable lexsort."""
    reqs = list(requests)
    if reqs:
        starts = np.array([r.start for r in reqs], dtype=np.float64)
        ends = np.array([r.end for r in reqs], dtype=np.float64)
        nbytes = np.array([r.nbytes for r in reqs], dtype=np.int64)
        ranks = np.array([r.rank for r in reqs], dtype=np.int64)
        kinds = np.array([r.kind.value for r in reqs], dtype=np.str_)
        order = np.lexsort((ranks, ends, starts))
        starts, ends, nbytes, ranks, kinds = (
            starts[order], ends[order], nbytes[order], ranks[order], kinds[order]
        )
    else:
        starts = np.zeros(0, dtype=np.float64)
        ends = np.zeros(0, dtype=np.float64)
        nbytes = np.zeros(0, dtype=np.int64)
        ranks = np.zeros(0, dtype=np.int64)
        kinds = np.zeros(0, dtype=np.str_)
    return Trace(
        starts=starts, ends=ends, nbytes=nbytes, ranks=ranks, kinds=kinds,
        ground_truth=ground_truth, metadata=dict(metadata or {}),
    )


def generate_phase(spec: PhaseSpec, *, start=0.0, bandwidth_jitter=0.0, rng) -> list[IORequest]:
    requests: list[IORequest] = []
    base_request_time = spec.request_size / spec.rank_bandwidth
    for local_rank in range(spec.ranks):
        delay = 0.0
        cursor = start + delay
        remaining = spec.volume_per_rank
        while remaining > 0:
            nbytes = min(spec.request_size, remaining)
            duration = base_request_time * (nbytes / spec.request_size)
            if bandwidth_jitter > 0:
                duration *= float(np.clip(rng.normal(1.0, bandwidth_jitter), 0.2, 5.0))
            requests.append(
                IORequest(
                    rank=local_rank,
                    start=cursor,
                    end=cursor + duration,
                    nbytes=int(nbytes),
                    kind=spec.kind,
                )
            )
            cursor += duration
            remaining -= nbytes
    return requests


def ior_phase(*, ranks, volume_per_rank, request_size, aggregate_bandwidth,
              duration_jitter, start, rng) -> list[IORequest]:
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(request_size, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
    )
    return generate_phase(spec, start=start, bandwidth_jitter=duration_jitter, rng=rng)


def ior_trace(*, ranks, iterations, segments, transfer_size, block_size, compute_time,
              compute_jitter, aggregate_bandwidth, io_phase_duration, start_offset,
              duration_jitter, rng) -> Trace:
    volume_per_rank = segments * block_size
    if aggregate_bandwidth is None:
        aggregate_bandwidth = ranks * volume_per_rank / io_phase_duration
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(transfer_size, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
    )
    requests: list[IORequest] = []
    phases: list[IOPhase] = []
    cursor = start_offset
    for _ in range(iterations):
        cursor += float(max(rng.normal(compute_time, compute_time * compute_jitter), 0.0))
        phase_requests = generate_phase(
            spec, start=cursor, bandwidth_jitter=duration_jitter, rng=rng
        )
        requests.extend(phase_requests)
        p_start = min(r.start for r in phase_requests)
        p_end = max(r.end for r in phase_requests)
        phases.append(IOPhase(start=p_start, end=p_end, nbytes=sum(r.nbytes for r in phase_requests)))
        cursor = p_end
    return frozen_from_requests(
        requests,
        ground_truth=GroundTruth(phases=tuple(phases)),
        metadata={
            "application": "ior",
            "ranks": ranks,
            "iterations": iterations,
            "segments": segments,
            "transfer_size": transfer_size,
            "block_size": block_size,
        },
    )


def ior_periodic_job_trace(*, period, io_fraction, iterations, ranks, aggregate_bandwidth,
                           request_size, start_offset, rng) -> Trace:
    io_time = period * io_fraction
    compute_time = period - io_time
    volume_per_rank = max(int(aggregate_bandwidth * io_time / ranks), request_size)
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(request_size, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
    )
    requests: list[IORequest] = []
    phases: list[IOPhase] = []
    cursor = start_offset
    for _ in range(iterations):
        cursor += compute_time
        phase_requests = generate_phase(spec, start=cursor, bandwidth_jitter=0.02, rng=rng)
        requests.extend(phase_requests)
        p_start = min(r.start for r in phase_requests)
        p_end = max(r.end for r in phase_requests)
        phases.append(IOPhase(start=p_start, end=p_end, nbytes=sum(r.nbytes for r in phase_requests)))
        cursor = p_end
    return frozen_from_requests(
        requests,
        ground_truth=GroundTruth(phases=tuple(phases), mean_period=period),
        metadata={
            "application": "ior-periodic-job",
            "ranks": ranks,
            "period": period,
            "io_fraction": io_fraction,
        },
    )


def hacc_io_trace(*, ranks, loops, period, io_fraction, first_phase_delay, aggregate_bandwidth,
                  request_size, period_jitter, include_reads, rng) -> Trace:
    io_time = period * io_fraction
    write_time = io_time * (0.6 if include_reads else 1.0)
    read_time = io_time - write_time if include_reads else 0.0
    compute_time = period - io_time

    write_volume_per_rank = max(int(aggregate_bandwidth * write_time / ranks), request_size)
    write_spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=write_volume_per_rank,
        request_size=min(request_size, write_volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
        kind=IOKind.WRITE,
    )
    read_spec = None
    if include_reads and read_time > 0:
        read_volume_per_rank = max(int(aggregate_bandwidth * read_time / ranks), request_size)
        read_spec = PhaseSpec(
            ranks=ranks,
            volume_per_rank=read_volume_per_rank,
            request_size=min(request_size, read_volume_per_rank),
            rank_bandwidth=aggregate_bandwidth / ranks,
            kind=IOKind.READ,
        )

    requests: list[IORequest] = []
    phases: list[IOPhase] = []
    flush_times: list[float] = []
    cursor = 0.0
    for loop in range(loops):
        jitter = float(np.clip(rng.normal(1.0, period_jitter), 0.5, 2.0))
        this_compute = compute_time * jitter
        if loop == 0:
            this_compute += first_phase_delay
        cursor += this_compute

        stretch = 2.0 if loop == 0 and first_phase_delay > 0 else 1.0
        write_requests = generate_phase(
            PhaseSpec(
                ranks=write_spec.ranks,
                volume_per_rank=write_spec.volume_per_rank,
                request_size=write_spec.request_size,
                rank_bandwidth=write_spec.rank_bandwidth / stretch,
                kind=IOKind.WRITE,
            ),
            start=cursor,
            bandwidth_jitter=0.03,
            rng=rng,
        )
        requests.extend(write_requests)
        phase_start = min(r.start for r in write_requests)
        phase_end = max(r.end for r in write_requests)
        phase_bytes = sum(r.nbytes for r in write_requests)

        if read_spec is not None:
            read_requests = generate_phase(read_spec, start=phase_end, bandwidth_jitter=0.03, rng=rng)
            requests.extend(read_requests)
            phase_end = max(r.end for r in read_requests)
            phase_bytes += sum(r.nbytes for r in read_requests)

        phases.append(IOPhase(start=phase_start, end=phase_end, nbytes=phase_bytes, label=f"loop-{loop}"))
        cursor = phase_end
        flush_times.append(cursor)

    return frozen_from_requests(
        requests,
        ground_truth=GroundTruth(phases=tuple(phases)),
        metadata={
            "application": "hacc-io",
            "ranks": ranks,
            "loops": loops,
            "nominal_period": period,
            "flush_times": flush_times,
        },
    )


def lammps_trace(*, ranks, dumps, dump_interval, dump_volume, aggregate_bandwidth,
                 interval_jitter, straggler_probability, rng) -> Trace:
    volume_per_rank = max(dump_volume // ranks, MIB)
    spec = PhaseSpec(
        ranks=ranks,
        volume_per_rank=volume_per_rank,
        request_size=min(4 * MIB, volume_per_rank),
        rank_bandwidth=aggregate_bandwidth / ranks,
        kind=IOKind.WRITE,
    )
    requests: list[IORequest] = []
    phases: list[IOPhase] = []
    cursor = 0.0
    for dump in range(dumps):
        gap = float(max(rng.normal(dump_interval, dump_interval * interval_jitter), 1.0))
        if rng.uniform() < straggler_probability:
            gap *= float(rng.uniform(1.2, 1.5))
        io_start = cursor + gap - spec.nominal_duration
        io_start = max(io_start, cursor)
        phase_requests = generate_phase(spec, start=io_start, bandwidth_jitter=0.1, rng=rng)
        requests.extend(phase_requests)
        p_start = min(r.start for r in phase_requests)
        p_end = max(r.end for r in phase_requests)
        phases.append(
            IOPhase(start=p_start, end=p_end, nbytes=sum(r.nbytes for r in phase_requests), label=f"dump-{dump}")
        )
        cursor += gap
    return frozen_from_requests(
        requests,
        ground_truth=GroundTruth(phases=tuple(phases)),
        metadata={
            "application": "lammps",
            "ranks": ranks,
            "dumps": dumps,
            "dump_interval": dump_interval,
        },
    )


def miniio_trace(*, ranks, bursts, burst_interval, burst_duration, burst_volume,
                 interval_jitter, rng) -> Trace:
    volume_per_rank = max(burst_volume // ranks, 1)
    requests: list[IORequest] = []
    phases: list[IOPhase] = []
    cursor = 0.0
    for burst in range(bursts):
        cursor += float(max(rng.normal(burst_interval, burst_interval * interval_jitter), 0.01))
        start = cursor
        end = start + burst_duration
        for rank in range(ranks):
            requests.append(
                IORequest(rank=rank, start=start, end=end, nbytes=volume_per_rank, kind=IOKind.WRITE)
            )
        phases.append(IOPhase(start=start, end=end, nbytes=volume_per_rank * ranks, label=f"burst-{burst}"))
        cursor = end
    return frozen_from_requests(
        requests,
        ground_truth=GroundTruth(phases=tuple(phases)),
        metadata={
            "application": "miniio",
            "ranks": ranks,
            "bursts": bursts,
            "burst_interval": burst_interval,
            "burst_duration": burst_duration,
        },
    )


def noise_trace(*, level, periods=10, period_length=2.2, duty_cycle=0.5, rank=0,
                start=0.0, rng) -> Trace:
    level = NoiseLevel(level)
    requests: list[IORequest] = []
    if level is NoiseLevel.NONE:
        return frozen_from_requests([])
    for i in range(periods):
        burst_start = start + i * period_length
        burst_length = period_length * duty_cycle * float(rng.uniform(0.8, 1.2))
        nbytes = int(level.bandwidth * burst_length)
        if nbytes <= 0:
            continue
        cursor = burst_start
        remaining = nbytes
        request_duration = burst_length * MIB / nbytes if nbytes >= MIB else burst_length
        while remaining > 0:
            chunk = min(MIB, remaining)
            duration = request_duration * (chunk / MIB)
            requests.append(
                IORequest(rank=rank, start=cursor, end=cursor + duration, nbytes=chunk, kind=IOKind.WRITE)
            )
            cursor += duration
            remaining -= chunk
    return frozen_from_requests(requests, metadata={"application": "noise", "level": level.value})


def add_noise(trace: Trace, *, level, rng) -> Trace:
    level = NoiseLevel(level)
    if level is NoiseLevel.NONE or trace.is_empty:
        return trace
    noise_rank = int(trace.ranks.max()) + 1 if len(trace) else 0
    pieces: list[Trace] = []
    cursor = trace.t_start
    while cursor < trace.t_end:
        piece = noise_trace(level=level, rank=noise_rank, start=cursor, rng=rng)
        if piece.is_empty:
            break
        pieces.append(piece)
        cursor = piece.t_end + float(rng.uniform(0.0, 1.0))
    merged = merge_traces([trace, *pieces], metadata=dict(trace.metadata))
    return merged.with_ground_truth(trace.ground_truth) if trace.ground_truth else merged


def phase_library(*, n_phases, ranks, volume_per_rank, request_size, aggregate_bandwidth,
                  duration_spread, rng) -> tuple[tuple[IORequest, ...], ...]:
    """``PhaseLibrary.generate``'s phases, each a tuple of requests in generation order."""
    phases: list[tuple[IORequest, ...]] = []
    for _ in range(n_phases):
        factor = float(np.clip(rng.normal(1.0, duration_spread), 0.7, 1.3))
        requests = ior_phase(
            ranks=ranks,
            volume_per_rank=volume_per_rank,
            request_size=request_size,
            aggregate_bandwidth=aggregate_bandwidth * factor,
            duration_jitter=0.05,
            start=0.0,
            rng=rng,
        )
        phases.append(tuple(requests))
    return tuple(phases)


def _truncated_normal(rng, mean, std) -> float:
    if std == 0.0:
        return max(mean, 0.0)
    for _ in range(1000):
        value = float(rng.normal(mean, std))
        if value > 0.0:
            return value
    return abs(float(rng.normal(mean, std))) + 1e-6


def _per_rank_delays(rng, ranks, mean) -> np.ndarray:
    delays = np.zeros(ranks)
    if mean > 0 and ranks > 1:
        delays[1:] = rng.exponential(mean, size=ranks - 1)
    return delays


def _instantiate_phase(base_phase, *, start, delays) -> list[IORequest]:
    origin = min(r.start for r in base_phase)
    placed: list[IORequest] = []
    for request in base_phase:
        delay = float(delays[request.rank]) if request.rank < len(delays) else 0.0
        offset = start - origin + delay
        placed.append(
            IORequest(
                rank=request.rank,
                start=request.start + offset,
                end=request.end + offset,
                nbytes=request.nbytes,
                kind=request.kind,
            )
        )
    return placed


def semi_synthetic(library_phases, library_ranks, config, *, rng) -> Trace:
    """``SemiSyntheticGenerator.generate`` over a library of request tuples."""
    requests: list[IORequest] = []
    phases: list[IOPhase] = []
    cursor = config.start_offset
    for _ in range(config.iterations):
        cursor += _truncated_normal(rng, config.compute_mean, config.compute_std)
        base_phase = library_phases[int(rng.integers(0, len(library_phases)))]
        delays = _per_rank_delays(rng, library_ranks, config.desync_mean)
        phase_requests = _instantiate_phase(base_phase, start=cursor, delays=delays)
        requests.extend(phase_requests)
        p_start = min(r.start for r in phase_requests)
        p_end = max(r.end for r in phase_requests)
        phases.append(IOPhase(start=p_start, end=p_end, nbytes=sum(r.nbytes for r in phase_requests)))
        cursor = p_end
    trace = frozen_from_requests(
        requests,
        ground_truth=GroundTruth(phases=tuple(phases)),
        metadata={
            "application": "semi-synthetic",
            "iterations": config.iterations,
            "compute_mean": config.compute_mean,
            "compute_std": config.compute_std,
            "desync_mean": config.desync_mean,
            "noise": NoiseLevel(config.noise).value,
        },
    )
    if NoiseLevel(config.noise) is not NoiseLevel.NONE:
        trace = add_noise(trace, level=config.noise, rng=rng)
    return trace
