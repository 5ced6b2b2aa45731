"""Unit tests for the basic I/O record types."""

from __future__ import annotations

import pytest

from repro.trace.record import GroundTruth, IOKind, IOPhase, IORequest


class TestIORequest:
    def test_duration_and_bandwidth(self):
        req = IORequest(rank=0, start=1.0, end=3.0, nbytes=2_000_000)
        assert req.duration == pytest.approx(2.0)
        assert req.bandwidth == pytest.approx(1_000_000.0)

    def test_zero_duration_bandwidth_is_infinite(self):
        req = IORequest(rank=0, start=1.0, end=1.0, nbytes=10)
        assert req.duration == 0.0
        assert req.bandwidth == float("inf")

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            IORequest(rank=0, start=2.0, end=1.0, nbytes=10)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            IORequest(rank=0, start=0.0, end=1.0, nbytes=-1)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            IORequest(rank=-1, start=0.0, end=1.0, nbytes=1)

    def test_dict_round_trip(self):
        req = IORequest(rank=2, start=0.25, end=0.75, nbytes=123, kind=IOKind.READ)
        assert IORequest.from_dict(req.to_dict()) == req

    def test_from_dict_defaults_to_write(self):
        restored = IORequest.from_dict({"rank": 0, "start": 0, "end": 1, "bytes": 7})
        assert restored.kind is IOKind.WRITE


class TestIOPhase:
    def test_duration(self):
        phase = IOPhase(start=5.0, end=8.0, nbytes=100)
        assert phase.duration == pytest.approx(3.0)

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            IOPhase(start=2.0, end=1.0, nbytes=1)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            IOPhase(start=0.0, end=1.0, nbytes=-5)


class TestGroundTruth:
    def test_average_period_from_phase_starts(self):
        phases = tuple(IOPhase(start=10.0 * i, end=10.0 * i + 1, nbytes=1) for i in range(5))
        gt = GroundTruth(phases=phases)
        assert gt.average_period() == pytest.approx(10.0)

    def test_average_period_falls_back_to_mean_period(self):
        gt = GroundTruth(phases=(IOPhase(start=0, end=1, nbytes=1),), mean_period=42.0)
        assert gt.average_period() == pytest.approx(42.0)

    def test_average_period_none_when_unknown(self):
        assert GroundTruth().average_period() is None

    def test_phase_starts(self):
        phases = (IOPhase(start=1.0, end=2.0, nbytes=1), IOPhase(start=5.0, end=6.0, nbytes=1))
        assert GroundTruth(phases=phases).phase_starts == (1.0, 5.0)
