"""Shared fixtures of the test suite.

Expensive artefacts (workload traces, phase libraries) are built once per
session and reused; everything is seeded so the suite is deterministic.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.exists() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.constants import MIB  # noqa: E402
from repro.core import Ftio, FtioConfig  # noqa: E402
from repro.trace.jsonl import FlushRecord  # noqa: E402
from repro.trace.record import IOKind, IORequest  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402
from repro.workloads.ior import ior_trace  # noqa: E402
from repro.workloads.synthetic import PhaseLibrary, SemiSyntheticGenerator  # noqa: E402


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session RNG for tests that only need a stream of random numbers."""
    return np.random.default_rng(12345)


@pytest.fixture
def simple_requests() -> list[IORequest]:
    """A small hand-written set of requests covering both ranks and kinds."""
    return [
        IORequest(rank=0, start=0.0, end=1.0, nbytes=100 * MIB, kind=IOKind.WRITE),
        IORequest(rank=1, start=0.5, end=1.5, nbytes=100 * MIB, kind=IOKind.WRITE),
        IORequest(rank=0, start=3.0, end=4.0, nbytes=50 * MIB, kind=IOKind.WRITE),
        IORequest(rank=1, start=3.0, end=3.5, nbytes=10 * MIB, kind=IOKind.READ),
    ]


@pytest.fixture
def simple_trace(simple_requests: list[IORequest]) -> Trace:
    """Trace built from :func:`simple_requests`."""
    return Trace.from_requests(simple_requests, metadata={"application": "unit-test"})


@pytest.fixture(scope="session")
def periodic_trace() -> Trace:
    """A clearly periodic IOR-like trace (period ≈ 100 s, 8 phases)."""
    return ior_trace(ranks=8, iterations=8, compute_time=90.0, seed=7)


@pytest.fixture(scope="session")
def periodic_result(periodic_trace: Trace):
    """FTIO result on :func:`periodic_trace` at fs = 1 Hz."""
    return Ftio(FtioConfig(sampling_frequency=1.0)).detect(periodic_trace)


@pytest.fixture(scope="session")
def small_phase_library() -> PhaseLibrary:
    """A down-scaled phase library so semi-synthetic tests stay fast."""
    return PhaseLibrary.generate(
        n_phases=6,
        ranks=4,
        volume_per_rank=400 * MIB,
        request_size=8 * MIB,
        aggregate_bandwidth=200e6,
        seed=11,
    )


@pytest.fixture(scope="session")
def small_generator(small_phase_library: PhaseLibrary) -> SemiSyntheticGenerator:
    """Semi-synthetic generator over the small phase library."""
    return SemiSyntheticGenerator(library=small_phase_library)


def make_square_wave(
    *,
    period: float,
    duty: float,
    n_periods: int,
    fs: float,
    high: float = 1e9,
    low: float = 0.0,
) -> np.ndarray:
    """Synthesize an ideal square-wave bandwidth signal for spectral tests."""
    n = int(round(period * n_periods * fs))
    t = np.arange(n) / fs
    phase = np.mod(t, period)
    return np.where(phase < duty * period, high, low)


def make_jittered_flushes(
    seed: int, n_flushes: int, *, period: float = 10.0, ranks: int = 8
) -> list[FlushRecord]:
    """A periodic flush stream whose period and burst length jitter per phase.

    At fs = 100 Hz a dozen of these flushes already span > 8 192 samples (the
    window length past which numpy handles large temporaries differently),
    and the jitter makes the ACF peak gaps vary, so the ACF confidence is not
    trivially 1 and last-bit differences in the ACF surface in it.
    """
    rng = np.random.default_rng(seed)
    flushes, t = [], 0.0
    for index in range(n_flushes):
        span = period * (1.0 + 0.08 * float(rng.uniform(-1.0, 1.0)))
        burst = span * float(rng.uniform(0.15, 0.35))
        requests = tuple(
            IORequest(
                rank=r,
                start=t + r * burst / ranks,
                end=t + (r + 1) * burst / ranks,
                nbytes=int(rng.integers(1 << 16, 1 << 22)),
                kind=IOKind.WRITE,
            )
            for r in range(ranks)
        )
        t += span
        flushes.append(FlushRecord(flush_index=index, timestamp=t, requests=requests))
    return flushes
