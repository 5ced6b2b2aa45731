"""Every workload generator, held bit-equal to a frozen copy of its per-request form.

:mod:`repro.workloads` builds a generated trace as columns: one 2-D jitter
draw per phase, row-wise running sums for the timestamps, one add to place a
library phase, and one sort (``Trace.from_columns``).  Before that, each
generator built one ``IORequest`` at a time.  ``_frozen_generators`` keeps that
code.  For every generator, on the same seed, the two must give:

* all five columns, byte for byte, with the same dtypes (``kinds`` stays
  ``<U5`` where writes are present);
* the same ground truth, bit for bit, and the same metadata;
* the same RNG state after the call, so a caller's later draws do not move.

The cases cover jitter on and off, short last requests, read phases,
per-rank delays (ϕ), compute variability (σ), every noise level, empty noise
traces and start offsets.  ``test_the_pinned_cases`` runs one of each so no
draw has to be lucky.  ``REPRO_SOAK=1`` runs the property at 50x (the nightly
CI job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.constants import GIB, MIB
from repro.trace.record import IOKind
from repro.trace.trace import Trace
from repro.workloads import (
    PhaseLibrary,
    PhaseSpec,
    SemiSyntheticGenerator,
    SyntheticAppConfig,
    add_noise,
    generate_phase,
    hacc_io_trace,
    ior_periodic_job_trace,
    ior_phase,
    ior_trace,
    lammps_trace,
    miniio_trace,
    noise_trace,
)
from tests.workloads import _frozen_generators as frozen

_COLUMNS = ("starts", "ends", "nbytes", "ranks", "kinds")


def _bits(trace: Trace) -> dict:
    """Everything a generated trace publishes, in a form ``==`` compares bit for bit."""
    gt = trace.ground_truth
    return {
        "columns": [(getattr(trace, c).dtype.str, getattr(trace, c).tobytes()) for c in _COLUMNS],
        "ground_truth": None if gt is None else (
            [(p.start.hex(), p.end.hex(), p.nbytes, p.label) for p in gt.phases],
            gt.mean_period,
        ),
        "metadata": repr(trace.metadata),
    }


# --------------------------------------------------------------------- #
# each generator, called the new way and the frozen way
# --------------------------------------------------------------------- #
def _library_kwargs(kw: dict) -> dict:
    keys = ("n_phases", "ranks", "volume_per_rank", "request_size", "aggregate_bandwidth",
            "duration_spread")
    return {k: kw[k] for k in keys}


def _app(kw: dict) -> Trace:
    """The application trace ``add_noise`` is laid over (not under test itself)."""
    return miniio_trace(ranks=kw["ranks"], bursts=kw["bursts"], burst_interval=kw["interval"],
                        seed=kw["app_seed"])


def _new(name: str, kw: dict, rng: np.random.Generator) -> list[Trace]:
    if name == "generate_phase":
        spec = PhaseSpec(**kw["spec"])
        return [generate_phase(spec, start=kw["start"], bandwidth_jitter=kw["jitter"], seed=rng)]
    if name == "ior_phase":
        return [ior_phase(**kw, seed=rng)]
    if name == "ior_trace":
        return [ior_trace(**kw, seed=rng)]
    if name == "ior_periodic_job_trace":
        return [ior_periodic_job_trace(**kw, seed=rng)]
    if name == "hacc_io_trace":
        return [hacc_io_trace(**kw, seed=rng)]
    if name == "lammps_trace":
        return [lammps_trace(**kw, seed=rng)]
    if name == "miniio_trace":
        return [miniio_trace(**kw, seed=rng)]
    if name == "noise_trace":
        return [noise_trace(**kw, seed=rng)]
    if name == "add_noise":
        return [add_noise(_app(kw), level=kw["level"], seed=rng)]
    if name == "phase_library":
        library = PhaseLibrary.generate(**_library_kwargs(kw), seed=rng)
        assert library.ranks == kw["ranks"]
        return list(library.phases)
    if name == "semi_synthetic":
        library = PhaseLibrary.generate(**_library_kwargs(kw), seed=kw["library_seed"])
        config = SyntheticAppConfig(**kw["config"])
        return [SemiSyntheticGenerator(library).generate(config, seed=rng)]
    raise AssertionError(name)


def _frozen(name: str, kw: dict, rng: np.random.Generator) -> list[Trace]:
    if name == "generate_phase":
        spec = PhaseSpec(**kw["spec"])
        return [frozen.frozen_from_requests(
            frozen.generate_phase(spec, start=kw["start"], bandwidth_jitter=kw["jitter"], rng=rng)
        )]
    if name == "ior_phase":
        return [frozen.frozen_from_requests(frozen.ior_phase(**kw, rng=rng))]
    if name == "add_noise":
        return [frozen.add_noise(_app(kw), level=kw["level"], rng=rng)]
    if name == "phase_library":
        return [frozen.frozen_from_requests(p)
                for p in frozen.phase_library(**_library_kwargs(kw), rng=rng)]
    if name == "semi_synthetic":
        phases = frozen.phase_library(
            **_library_kwargs(kw), rng=np.random.default_rng(kw["library_seed"])
        )
        config = SyntheticAppConfig(**kw["config"])
        return [frozen.semi_synthetic(phases, kw["ranks"], config, rng=rng)]
    return [getattr(frozen, name)(**_DEFAULTS.get(name, {}) | kw, rng=rng)]


#: The defaults of the public generators, which the frozen copies do not carry.
_DEFAULTS = {
    "ior_trace": dict(ranks=32, iterations=8, segments=2, transfer_size=2 * MIB,
                      block_size=10 * MIB, compute_time=90.0, compute_jitter=0.02,
                      aggregate_bandwidth=None, io_phase_duration=10.0, start_offset=0.0,
                      duration_jitter=0.05),
    "ior_periodic_job_trace": dict(io_fraction=0.0625, iterations=10, ranks=8,
                                   aggregate_bandwidth=5e9, request_size=1 * MIB,
                                   start_offset=0.0),
    "hacc_io_trace": dict(ranks=64, loops=10, period=8.0, io_fraction=0.25,
                          first_phase_delay=6.0, aggregate_bandwidth=40e9,
                          request_size=8 * MIB, period_jitter=0.04, include_reads=True),
    "lammps_trace": dict(ranks=48, dumps=15, dump_interval=27.4, dump_volume=256 * MIB,
                         aggregate_bandwidth=30e6, interval_jitter=0.08,
                         straggler_probability=0.15),
    "miniio_trace": dict(ranks=144, bursts=40, burst_interval=0.5, burst_duration=0.004,
                         burst_volume=8 * MIB, interval_jitter=0.05),
}


def hold_to_frozen(name: str, kw: dict, rng_seed: int) -> None:
    """The new generator and its frozen copy give the same bits and leave the RNG alike."""
    new_rng = np.random.default_rng(rng_seed)
    old_rng = np.random.default_rng(rng_seed)
    new = _new(name, kw, new_rng)
    old = _frozen(name, kw, old_rng)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert _bits(a) == _bits(b)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


# --------------------------------------------------------------------- #
# the strategies: small sizes, every knob that decides a bit
# --------------------------------------------------------------------- #
_jitter = st.one_of(st.just(0.0), st.floats(0.001, 0.5))
_time = st.floats(0.0, 1e4)
_request = st.integers(1, 8 * MIB)


@st.composite
def _volume(draw, request_size: int) -> int:
    """1–12 requests a rank, the last one often short."""
    return request_size * draw(st.integers(1, 12)) - draw(st.integers(0, request_size - 1))


@st.composite
def _bandwidth_for(draw, request_size: int, ranks: int, io_time: float) -> float:
    """An aggregate bandwidth that gives 1–12 requests a rank in ``io_time``."""
    requests = draw(st.floats(0.5, 12.0))
    return requests * request_size * ranks / io_time


@st.composite
def _generate_phase(draw):
    size = draw(_request)
    spec = dict(ranks=draw(st.integers(1, 6)), volume_per_rank=draw(_volume(size)),
                request_size=size, rank_bandwidth=draw(st.floats(1e4, 1e10)),
                kind=draw(st.sampled_from(IOKind)))
    spec["volume_per_rank"] = max(spec["volume_per_rank"], size)
    return {"spec": spec, "start": draw(_time), "jitter": draw(_jitter)}


@st.composite
def _ior_phase(draw):
    size = draw(_request)
    return dict(ranks=draw(st.integers(1, 6)), volume_per_rank=draw(_volume(size)),
                request_size=draw(st.one_of(st.just(size), st.integers(size, 16 * MIB))),
                aggregate_bandwidth=draw(st.floats(1e5, 1e10)),
                duration_jitter=draw(_jitter), start=draw(_time))


@st.composite
def _ior_trace(draw):
    size = draw(_request)
    return dict(ranks=draw(st.integers(1, 4)), iterations=draw(st.integers(1, 4)),
                segments=draw(st.integers(1, 2)), transfer_size=size,
                block_size=draw(_volume(size)),
                compute_time=draw(st.floats(0.01, 100.0)),
                compute_jitter=draw(st.floats(0.0, 0.5)),
                aggregate_bandwidth=draw(st.one_of(st.none(), st.floats(1e5, 1e10))),
                io_phase_duration=draw(st.floats(0.01, 20.0)), start_offset=draw(_time),
                duration_jitter=draw(_jitter))


@st.composite
def _ior_periodic_job_trace(draw):
    ranks, period = draw(st.integers(1, 4)), draw(st.floats(0.1, 200.0))
    io_fraction, size = draw(st.floats(0.01, 0.9)), draw(_request)
    return dict(period=period, io_fraction=io_fraction, iterations=draw(st.integers(1, 4)),
                ranks=ranks,
                aggregate_bandwidth=draw(_bandwidth_for(size, ranks, period * io_fraction)),
                request_size=size, start_offset=draw(_time))


@st.composite
def _hacc_io_trace(draw):
    ranks, period = draw(st.integers(1, 4)), draw(st.floats(0.1, 30.0))
    io_fraction, size = draw(st.floats(0.01, 0.95)), draw(_request)
    return dict(ranks=ranks, loops=draw(st.integers(1, 4)), period=period,
                io_fraction=io_fraction,
                first_phase_delay=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
                aggregate_bandwidth=draw(_bandwidth_for(size, ranks, period * io_fraction)),
                request_size=size, period_jitter=draw(st.floats(0.0, 0.2)),
                include_reads=draw(st.booleans()))


@st.composite
def _lammps_trace(draw):
    ranks = draw(st.integers(1, 4))
    return dict(ranks=ranks, dumps=draw(st.integers(1, 5)),
                dump_interval=draw(st.floats(0.5, 60.0)),
                dump_volume=draw(st.integers(1, 48 * MIB * ranks)),
                aggregate_bandwidth=draw(st.floats(1e5, 1e10)),
                interval_jitter=draw(st.floats(0.0, 0.5)),
                straggler_probability=draw(st.floats(0.0, 1.0)))


@st.composite
def _miniio_trace(draw):
    return dict(ranks=draw(st.integers(1, 16)), bursts=draw(st.integers(1, 12)),
                # Short intervals reach the 0.01 s floor on the gaps.
                burst_interval=draw(st.one_of(st.floats(0.001, 0.02), st.floats(0.001, 2.0))),
                burst_duration=draw(st.floats(1e-5, 0.5)),
                burst_volume=draw(st.integers(1, 1 << 26)),
                interval_jitter=draw(st.floats(0.0, 3.0)))


_levels = st.sampled_from(["none", "low", "high"])


@st.composite
def _noise_trace(draw):
    return dict(level=draw(_levels), periods=draw(st.integers(0, 4)),
                period_length=draw(st.one_of(st.floats(1e-12, 1e-8), st.floats(1e-3, 0.8))),
                duty_cycle=draw(st.floats(0.01, 1.0)), rank=draw(st.integers(0, 5)),
                start=draw(_time))


@st.composite
def _add_noise(draw):
    return dict(level=draw(_levels), ranks=draw(st.integers(1, 4)),
                bursts=draw(st.integers(1, 6)), interval=draw(st.floats(0.5, 4.0)),
                app_seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def _library(draw):
    """Phases of 0.05–5 s, so the noise laid over a trace stays a few thousand requests."""
    size, ranks = draw(_request), draw(st.integers(1, 5))
    volume = max(draw(_volume(size)), size)
    return dict(n_phases=draw(st.integers(1, 4)), ranks=ranks, volume_per_rank=volume,
                request_size=size,
                aggregate_bandwidth=ranks * volume / draw(st.floats(0.05, 5.0)),
                duration_spread=draw(st.floats(0.0, 0.3)))


@st.composite
def _semi_synthetic(draw):
    kw = draw(_library())
    kw["library_seed"] = draw(st.integers(0, 2**32 - 1))
    kw["config"] = dict(
        iterations=draw(st.integers(1, 6)), compute_mean=draw(st.floats(0.0, 20.0)),
        compute_std=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
        desync_mean=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        noise=draw(_levels), start_offset=draw(st.floats(0.0, 100.0)),
    )
    return kw


_STRATEGIES = {
    "generate_phase": _generate_phase(),
    "ior_phase": _ior_phase(),
    "ior_trace": _ior_trace(),
    "ior_periodic_job_trace": _ior_periodic_job_trace(),
    "hacc_io_trace": _hacc_io_trace(),
    "lammps_trace": _lammps_trace(),
    "miniio_trace": _miniio_trace(),
    "noise_trace": _noise_trace(),
    "add_noise": _add_noise(),
    "phase_library": _library(),
    "semi_synthetic": _semi_synthetic(),
}

_cases = st.one_of(
    *[st.tuples(st.just(name), strategy) for name, strategy in _STRATEGIES.items()]
)
_seeds = st.integers(0, 2**32 - 1)


# --------------------------------------------------------------------- #
# the properties
# --------------------------------------------------------------------- #
PROPERTY_EXAMPLES = 150


class TestEveryGeneratorEqualsItsFrozenCopy:
    @given(case=_cases, rng_seed=_seeds)
    @settings(max_examples=PROPERTY_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_every_generator(self, case, rng_seed):
        hold_to_frozen(*case, rng_seed)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @given(case=_cases, rng_seed=_seeds)
    @settings(max_examples=50 * PROPERTY_EXAMPLES, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_every_generator_soak(self, case, rng_seed):
        hold_to_frozen(*case, rng_seed)

    @pytest.mark.parametrize(
        "name, kw",
        [
            ("generate_phase", {"spec": dict(ranks=32, volume_per_rank=int(3.5 * GIB),
                                             request_size=32 * MIB, rank_bandwidth=10e9 / 32),
                                "start": 0.0, "jitter": 0.05}),
            # Three ranks, a short last request, no jitter, and a read phase.
            ("generate_phase", {"spec": dict(ranks=3, volume_per_rank=5 * MIB + 7,
                                             request_size=MIB, rank_bandwidth=1e7,
                                             kind=IOKind.READ),
                                "start": 12.5, "jitter": 0.0}),
            ("ior_trace", {"ranks": 8, "iterations": 8}),
            ("ior_periodic_job_trace", {"period": 100.0, "ranks": 4, "iterations": 5,
                                        "aggregate_bandwidth": 5e7}),
            ("hacc_io_trace", {"ranks": 8, "loops": 10, "request_size": 256 * MIB}),
            ("hacc_io_trace", {"ranks": 4, "loops": 3, "include_reads": False}),
            ("lammps_trace", {"ranks": 8}),
            ("miniio_trace", {"ranks": 8}),
            ("noise_trace", {"level": "low", "periods": 10}),
            ("noise_trace", {"level": "high", "periods": 3, "start": 7.0}),
            ("noise_trace", {"level": "none"}),
            # Every burst too short to carry a byte: an empty trace with metadata.
            ("noise_trace", {"level": "low", "periods": 3, "period_length": 1e-12}),
            ("add_noise", {"level": "high", "ranks": 4, "bursts": 5, "interval": 2.0,
                           "app_seed": 3}),
            ("phase_library", {"n_phases": 3, "ranks": 32, "volume_per_rank": int(3.5 * GIB),
                               "request_size": 32 * MIB, "aggregate_bandwidth": 10e9,
                               "duration_spread": 0.12}),
            ("semi_synthetic", {"n_phases": 8, "ranks": 32, "volume_per_rank": int(3.5 * GIB),
                                "request_size": 32 * MIB, "aggregate_bandwidth": 10e9,
                                "duration_spread": 0.12, "library_seed": 105,
                                "config": dict(iterations=5, compute_mean=11.0,
                                               compute_std=5.5, desync_mean=5.5,
                                               noise="low", start_offset=3.0)}),
            ("semi_synthetic", {"n_phases": 4, "ranks": 4, "volume_per_rank": 1 << 30,
                                "request_size": 1 << 28, "aggregate_bandwidth": 1e9,
                                "duration_spread": 0.12, "library_seed": 1,
                                "config": dict(iterations=10, compute_mean=4.0,
                                               compute_std=0.12, noise="high")}),
        ],
    )
    @pytest.mark.parametrize("rng_seed", [1, 2, 7])
    def test_the_pinned_cases(self, name, kw, rng_seed):
        hold_to_frozen(name, kw, rng_seed)
