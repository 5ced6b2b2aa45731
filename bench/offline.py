"""``offline_suite``: the paper's own use — finished traces in, a period out.

One *request* is one trace analysed at every sampling frequency of the spec
(``api.detect``, autocorrelation on); its latency is the time to that answer.
The suite is IOR, LAMMPS, HACC-IO, miniIO, the Nek5000 heatmap and a few
hundred semi-synthetic traces whose true period the generator records.  The
second phase replays a HACC-IO trace flush by flush through ``api.predict``
(the library's online path): one *flush* there is one replay step.

The reference is the set-up pass: detection is deterministic, so every timed
pass must reproduce it exactly, and every semi-synthetic period must lie
within the spec's tolerance of the truth.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

import repro.api as api
from repro import workloads
from repro.constants import MIB
from repro.workloads import PhaseLibrary, SemiSyntheticGenerator, SyntheticAppConfig, mean_period

from bench.hostspeed import HostSpeed
from bench.result import SETUP_REPEATS, Outcome, scalar, summary
from bench.topology import vm_hwm_kb
from bench.workloads import CAPACITY_SHARE, PERIOD_ERROR_LIMIT, OfflineSpec


@dataclass
class Suite:
    """The generated inputs of one run."""

    sources: list[object]
    #: The generator's mean period of each semi-synthetic source: its detected
    #: period must lie within tolerance of it.  ``None`` for the application
    #: traces, which are only checked against the set-up pass.
    truths: list[float | None]
    replay_trace: object
    replay_times: list[float]
    digest: str


#: Traces generated or analysed between two calibration samples (a trace
#: takes 2-4 ms, the calibration kernel about as long as one).
_CALIBRATE_EVERY = 4


def build_suite(spec: OfflineSpec, seed: int, host: HostSpeed | None = None) -> Suite:
    """Generate the suite from ``seed``; sizes do not depend on it."""
    rng = np.random.default_rng(seed)
    sources: list[object] = [
        workloads.ior_trace(ranks=8, iterations=8, seed=rng),
        workloads.lammps_trace(ranks=8, seed=rng),
        workloads.hacc_io_trace(ranks=8, loops=10, request_size=256 * MIB, seed=rng),
        workloads.miniio_trace(ranks=8, seed=rng),
        workloads.nek5000_heatmap(seed=rng),
    ]
    truths: list[float | None] = [None] * len(sources)

    # Small phases (4 ranks x 4 requests) keep generation in set-up cheap; the
    # detector only sees the resulting bandwidth signal.
    library = PhaseLibrary.generate(
        n_phases=32, ranks=4, volume_per_rank=1 << 30, request_size=1 << 28, seed=rng
    )
    generator = SemiSyntheticGenerator(library)
    for k, compute in enumerate(np.linspace(*spec.compute_range, spec.synthetic_traces)):
        if host is not None and k % _CALIBRATE_EVERY == 0:
            host.sample()
        trace = generator.generate(
            SyntheticAppConfig(
                iterations=spec.iterations,
                compute_mean=float(compute),
                compute_std=0.03 * float(compute),
            ),
            seed=rng,
        )
        sources.append(trace)
        truths.append(mean_period(trace))

    replay = workloads.hacc_io_trace(
        ranks=8, loops=spec.replay_loops, request_size=256 * MIB, seed=rng
    )
    sha = hashlib.sha256()
    for source in (*sources, replay):
        if hasattr(source, "starts"):
            sha.update(source.starts.tobytes())
            sha.update(source.ends.tobytes())
    return Suite(
        sources=sources, truths=truths,
        replay_trace=replay, replay_times=workloads.hacc_flush_times(replay),
        digest=sha.hexdigest(),
    )


def _configs(spec: OfflineSpec) -> list[api.ReproConfig]:
    return [
        api.ReproConfig().with_analysis(sampling_frequency=fs, use_autocorrelation=True)
        for fs in spec.sampling_frequencies
    ]


def detect_pass(suite: Suite, configs, host: HostSpeed) -> tuple[list[tuple], list[float]]:
    """Analyse every source at every sampling frequency.

    Returns the detected periods (one tuple per source) and each request's
    time to answer [s].
    """
    periods: list[tuple] = []
    seconds: list[float] = []
    for k, source in enumerate(suite.sources):
        if k % _CALIBRATE_EVERY == 0:
            host.sample()
        started = time.perf_counter()
        found = tuple(api.detect(source, config=config).period for config in configs)
        seconds.append(time.perf_counter() - started)
        periods.append(found)
    return periods, seconds


def replay_pass(suite: Suite, config) -> tuple[list[tuple], float]:
    """One flush-by-flush replay; returns the steps' results and the seconds."""
    started = time.perf_counter()
    steps = api.predict(suite.replay_trace, suite.replay_times, config=config)
    elapsed = time.perf_counter() - started
    return [(step.index, step.period, step.confidence) for step in steps], elapsed


def set_up(spec: OfflineSpec, seed: int, host: HostSpeed):
    """Input generation + the reference pass (which also warms every cache)."""
    suite = build_suite(spec, seed, host)
    configs = _configs(spec)
    reference, _ = detect_pass(suite, configs, host)
    replay_reference, _ = replay_pass(suite, configs[0])
    return suite, configs, reference, replay_reference


def period_errors(suite: Suite, periods: list[tuple]) -> list[float]:
    """Relative period error of every semi-synthetic (trace, frequency).

    The application traces stay out of the mean: miniIO's 4 ms bursts alias
    at 10 Hz (the paper's own example), and one spurious 20 s period on a
    0.5 s truth would swamp two hundred honest errors.
    """
    return [
        abs(found - truth) / truth
        for truth, per_fs in zip(suite.truths, periods) if truth is not None
        for found in per_fs if found is not None
    ]


def run(spec: OfflineSpec, seed: int, seconds: float, *, corrupt: bool = False) -> Outcome:
    # Timings are stated for the reference host (bench/hostspeed.py); what
    # the clock read is kept under "raw" in the detail.
    setup_seconds: list[float] = []
    setup_raw: list[float] = []
    for _ in range(SETUP_REPEATS):
        host = HostSpeed()
        started = time.perf_counter()
        suite, configs, reference, replay_reference = set_up(spec, seed, host)
        setup_raw.append(time.perf_counter() - started - host.spent)
        setup_seconds.append(setup_raw[-1] / host.scale)
    if corrupt:  # self-test: the run must notice one wrong expected value
        reference[-1] = tuple(p + 1.0 if p is not None else 1.0 for p in reference[-1])

    attempted = failed = 0
    latency: list[float] = []
    passes = 0
    periods = reference
    detect_host, replay_host = HostSpeed(), HostSpeed()
    deadline = time.perf_counter() + seconds * CAPACITY_SHARE
    while passes == 0 or time.perf_counter() < deadline:
        periods, request_seconds = detect_pass(suite, configs, detect_host)
        latency.extend(request_seconds)
        passes += 1
        attempted += len(periods)
        for found, expected, truth in zip(periods, reference, suite.truths):
            wrong = found != expected
            if truth is not None and not wrong:
                wrong = any(
                    p is None or abs(p - truth) / truth > spec.tolerance for p in found
                )
            failed += wrong

    replay_rates: list[float] = []
    deadline = time.perf_counter() + seconds * (1.0 - CAPACITY_SHARE)
    while not replay_rates or time.perf_counter() < deadline:
        for _ in range(_CALIBRATE_EVERY):  # a pass is long: a few samples per pass
            replay_host.sample()
        steps, elapsed = replay_pass(suite, configs[0])
        replay_rates.append(len(steps) / elapsed)
        attempted += len(replay_reference)
        failed += sum(a != b for a, b in zip(steps, replay_reference))
        failed += abs(len(steps) - len(replay_reference))

    errors = period_errors(suite, periods)
    error_mean = float(np.mean(errors))
    metrics = {
        "setup_s": summary(setup_seconds, "s"),
        "flushes_per_s": summary(np.asarray(replay_rates) * replay_host.scale, "flushes/s"),
        "latency_p50_ms": summary(np.asarray(latency) * 1e3 / detect_host.scale, "ms"),
        "period_error_mean": scalar(error_mean, "fraction"),
        "peak_rss_mb": scalar(vm_hwm_kb() / 1024.0, "MB"),
    }
    return Outcome(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and error_mean <= PERIOD_ERROR_LIMIT,
        detail={
            "suite_sha256": suite.digest,
            "host_scale": {
                "detect": detect_host.scale, "replay": replay_host.scale,
                "detect_samples_ms": [round(x * 1e3, 3) for x in detect_host.samples],
                "replay_samples_ms": [round(x * 1e3, 3) for x in replay_host.samples],
            },
            "raw": {
                "setup_s": float(np.median(setup_raw)),
                "flushes_per_s": float(np.median(replay_rates)),
                "latency_p50_ms": float(np.median(latency)) * 1e3,
            },
            "requests_per_pass": len(suite.sources),
            "sampling_frequencies": list(spec.sampling_frequencies),
            "detect_passes": passes,
            "detect_traces_per_s": len(latency) / sum(latency),
            "latency_p99_ms": float(np.percentile(latency, 99.0)) * 1e3,
            "replay_passes": len(replay_rates),
            "replay_rates_raw": [round(rate, 2) for rate in replay_rates],
            "replay_steps_per_pass": len(replay_reference),
            "period_error_max": float(np.max(errors)),
            "failed_share": failed / attempted,
        },
    )
