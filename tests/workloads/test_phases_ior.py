"""Unit tests for the phase building blocks and the IOR generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import MIB
from repro.exceptions import WorkloadError
from repro.workloads.ior import ior_periodic_job_trace, ior_phase, ior_trace
from repro.workloads.phases import PhaseSpec, generate_phase


class TestPhaseSpec:
    def test_requests_per_rank_and_duration(self):
        spec = PhaseSpec(ranks=4, volume_per_rank=10 * MIB, request_size=3 * MIB, rank_bandwidth=1e6)
        assert spec.requests_per_rank == 4
        assert spec.nominal_duration == pytest.approx(10 * MIB / 1e6)

    def test_request_larger_than_volume_rejected(self):
        with pytest.raises(WorkloadError):
            PhaseSpec(ranks=1, volume_per_rank=MIB, request_size=2 * MIB, rank_bandwidth=1e6)


class TestGeneratePhase:
    def test_volume_and_rank_assignment(self):
        spec = PhaseSpec(ranks=3, volume_per_rank=4 * MIB, request_size=MIB, rank_bandwidth=1e7)
        phase = generate_phase(spec, start=5.0)
        assert phase.volume == 3 * 4 * MIB
        assert set(phase.ranks.tolist()) == {0, 1, 2}
        assert phase.t_start == pytest.approx(5.0)

    def test_jitter_changes_durations_deterministically(self):
        spec = PhaseSpec(ranks=2, volume_per_rank=8 * MIB, request_size=MIB, rank_bandwidth=1e7)
        a = generate_phase(spec, bandwidth_jitter=0.2, seed=1)
        b = generate_phase(spec, bandwidth_jitter=0.2, seed=1)
        c = generate_phase(spec, bandwidth_jitter=0.2, seed=2)
        assert a.ends.tolist() == b.ends.tolist()
        assert a.ends.tolist() != c.ends.tolist()

    def test_phase_lasts_the_volume_at_the_rank_bandwidth(self):
        spec = PhaseSpec(ranks=1, volume_per_rank=2 * MIB, request_size=MIB, rank_bandwidth=1e6)
        assert generate_phase(spec).duration == pytest.approx(2 * MIB / 1e6)


class TestIorPhase:
    def test_default_phase_duration_matches_paper(self):
        phase = ior_phase(seed=0, duration_jitter=0.0)
        # 32 ranks × 3.5 GiB at ~10 GB/s aggregate → 11–12 s.
        assert 9.0 < phase.duration < 15.0
        assert phase.rank_count == 32

    def test_custom_parameters(self):
        phase = ior_phase(
            ranks=4, volume_per_rank=8 * MIB, request_size=2 * MIB, aggregate_bandwidth=16 * MIB, seed=1
        )
        assert phase.volume == 4 * 8 * MIB
        assert phase.duration == pytest.approx(2.0, rel=0.5)


class TestIorTrace:
    def test_ground_truth_period(self):
        trace = ior_trace(ranks=4, iterations=6, compute_time=50.0, io_phase_duration=10.0, seed=2)
        gt = trace.ground_truth
        assert gt is not None
        assert len(gt.phases) == 6
        assert gt.average_period() == pytest.approx(60.0, rel=0.15)
        assert trace.metadata["application"] == "ior"

    def test_volume_scales_with_iterations(self):
        one = ior_trace(ranks=2, iterations=1, seed=3)
        four = ior_trace(ranks=2, iterations=4, seed=3)
        assert four.volume == pytest.approx(4 * one.volume, rel=1e-6)

    def test_explicit_bandwidth_respected(self):
        trace = ior_trace(ranks=2, iterations=2, aggregate_bandwidth=1e6, block_size=MIB, segments=1, seed=4)
        phase = trace.ground_truth.phases[0]
        # 2 ranks × 1 MiB at 1 MB/s aggregate → phase of ≈ 2.1 s.
        assert phase.duration == pytest.approx(2 * MIB / 1e6, rel=0.3)

    def test_reproducibility(self):
        a = ior_trace(ranks=2, iterations=3, seed=5)
        b = ior_trace(ranks=2, iterations=3, seed=5)
        assert np.allclose(a.starts, b.starts)
        assert np.allclose(a.ends, b.ends)


class TestIorPeriodicJobTrace:
    def test_period_and_io_fraction(self):
        trace = ior_periodic_job_trace(period=100.0, io_fraction=0.1, iterations=5, ranks=2, seed=6)
        gt = trace.ground_truth
        assert gt.mean_period == pytest.approx(100.0)
        assert gt.average_period() == pytest.approx(100.0, rel=0.1)
        # Each I/O phase lasts about io_fraction * period.
        durations = [p.duration for p in gt.phases]
        assert np.mean(durations) == pytest.approx(10.0, rel=0.3)

    def test_invalid_io_fraction(self):
        with pytest.raises(ValueError):
            ior_periodic_job_trace(period=10.0, io_fraction=1.5)
