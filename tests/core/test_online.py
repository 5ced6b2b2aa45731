"""Unit and integration tests for the online prediction mode."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Ftio, FtioConfig, OnlinePredictor
from repro.core.online import (
    PreparedStep,
    merged_intervals,
    predict_from_file,
    predict_from_flushes,
    replay_online,
)
from repro.exceptions import AnalysisError
from repro.trace import jsonl
from repro.trace.record import IOKind, IORequest
from repro.trace.sampling import DiscreteSignal
from repro.trace.trace import Trace
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace
from repro.workloads.ior import ior_trace


@pytest.fixture(scope="module")
def hacc_trace():
    return hacc_io_trace(ranks=16, loops=10, period=8.0, first_phase_delay=6.0, seed=4)


@pytest.fixture(scope="module")
def online_config():
    return FtioConfig(sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False)


def bursts(n: int, period: float) -> list[IORequest]:
    """``n`` one-second bursts, exactly ``period`` apart."""
    return [
        IORequest(rank=0, start=i * period, end=i * period + 1.0, nbytes=10**8) for i in range(n)
    ]


class TestPeriodIsWindowOverBin:
    """The period is read off a bin, Δt / k, so the analysed span must be Δt itself."""

    #: Not a whole number of 10 Hz samples, so a grid at exactly fs cannot span it.
    PERIOD = 8.3

    def test_online_fixed_point_is_the_period(self, online_config):
        # The next window is 3 · (last period) + one flush gap and the period
        # is that window / 4: a contraction with ratio 3/4 onto P — as long as
        # N / fs is the window.  With n = floor(Δt · fs) + 1 samples at fs the
        # fixed point was P + 1 / fs, an error of 1 / (fs · P) = 1.2 % for ever.
        predictor = OnlinePredictor(config=online_config)
        requests = bursts(60, self.PERIOD)
        errors = []
        for i in range(len(requests)):
            step = predictor.step(Trace.from_requests(requests[: i + 1]), now=requests[i].end)
            if step.period is not None:
                errors.append(abs(step.period - self.PERIOD) / self.PERIOD)
        assert len(errors) >= 55
        assert errors[-1] < 1e-6
        settled = errors[2:]
        assert all(later < earlier for earlier, later in zip(settled, settled[1:]))

    def test_window_of_exactly_k_periods_reads_window_over_k(self):
        k = 5
        window = (0.0, k * self.PERIOD)
        config = FtioConfig(sampling_frequency=10.0, use_autocorrelation=False)
        trace = Trace.from_requests(bursts(k + 1, self.PERIOD))
        result = Ftio(config).detect(trace, window=window)
        assert result.signal.duration == pytest.approx(k * self.PERIOD, rel=1e-15)
        assert result.period == pytest.approx(k * self.PERIOD / k, rel=1e-12)


class TestOnlinePredictor:
    def test_step_on_empty_trace_rejected(self, online_config):
        predictor = OnlinePredictor(config=online_config)
        with pytest.raises(AnalysisError):
            predictor.step(Trace.empty())

    def test_step_indices_count_evaluations_across_a_round_trip(
        self, hacc_trace, online_config
    ):
        predictor = OnlinePredictor(config=online_config)
        flush_times = hacc_flush_times(hacc_trace)[:6]
        steps = [
            predictor.step(hacc_trace.window(hacc_trace.t_start, t), now=t)
            for t in flush_times[:4]
        ]
        assert [s.index for s in steps] == [0, 1, 2, 3]
        assert predictor.evaluations == 4
        restored = OnlinePredictor(config=online_config)
        restored.load_state_dict(predictor.state_dict())
        steps = [
            restored.step(hacc_trace.window(hacc_trace.t_start, t), now=t)
            for t in flush_times[4:]
        ]
        assert [s.index for s in steps] == [4, 5]
        assert restored.evaluations == 6

    def test_predictions_converge_to_true_period(self, hacc_trace, online_config):
        steps = replay_online(hacc_trace, hacc_flush_times(hacc_trace), config=online_config)
        periods = [s.period for s in steps if s.period is not None]
        assert len(periods) >= 3
        true_period = hacc_trace.ground_truth.average_period()
        # The last prediction should be close to the ground truth (Figure 15).
        assert periods[-1] == pytest.approx(true_period, rel=0.2)

    def test_adaptive_window_shrinks(self, hacc_trace, online_config):
        steps = replay_online(
            hacc_trace, hacc_flush_times(hacc_trace), config=online_config, adaptive_window=True
        )
        # After `online_window_hits` consecutive detections the window stops
        # growing with the trace: its length is bounded by hits * period.
        later = [s for s in steps[4:] if s.period is not None]
        assert later, "expected predictions after the warm-up"
        hits = online_config.online_window_hits
        for step in later:
            assert step.window_length <= (hits + 1.5) * step.period

    def test_non_adaptive_window_keeps_growing(self, hacc_trace, online_config):
        steps = replay_online(
            hacc_trace, hacc_flush_times(hacc_trace), config=online_config, adaptive_window=False
        )
        lengths = [s.window_length for s in steps]
        assert lengths == sorted(lengths)

    def test_merged_intervals_cover_true_frequency(self, hacc_trace, online_config):
        predictor = OnlinePredictor(config=online_config)
        steps = []
        for t in hacc_flush_times(hacc_trace):
            visible = hacc_trace.window(hacc_trace.t_start, t)
            if visible.is_empty:
                continue
            steps.append(predictor.step(visible, now=t))
        intervals = merged_intervals(steps)
        assert intervals
        true_freq = 1.0 / hacc_trace.ground_truth.average_period()
        best = intervals[0]
        assert best.probability >= 0.5
        assert best.contains(true_freq, slack=0.05)

    def test_flush_stamped_at_or_before_the_first_request_is_no_result(self, online_config):
        # A rank clock ahead of the flush clock: the window would end before it starts.
        trace = Trace.from_requests(
            [IORequest(rank=0, start=10.0 + i, end=10.5 + i, nbytes=100) for i in range(4)]
        )
        for now in (9.0, 10.0):
            predictor = OnlinePredictor(config=online_config)
            prepared = predictor.prepare_step(trace, now=now)
            assert prepared.signal is None
            assert prepared.time == now
            step = predictor.complete_step(prepared)
            assert step.result is None
            assert predictor.evaluations == 1

    def test_an_empty_window_is_no_result_at_any_timestamp(self, online_config):
        # The adaptive window lands after the last write (a read phase): with
        # Unix-epoch stamps the 1 ns placeholder segment has no width.
        for base in (0.0, 1.7e9):
            writes = [
                IORequest(rank=0, start=base + i, end=base + i + 0.1, nbytes=100)
                for i in range(6)
            ]
            reads = [
                IORequest(rank=0, start=base + 20.0, end=base + 30.0, nbytes=100, kind=IOKind.READ)
            ]
            trace = Trace.from_requests(writes + reads)
            predictor = OnlinePredictor(config=online_config)
            predictor._window_start = base + 15.0  # as a shrunk window leaves it
            prepared = predictor.prepare_step(trace, now=base + 30.0)
            assert prepared.window == (base + 15.0, base + 30.0)
            assert prepared.signal is None

    def test_latest_period_skips_failed_steps(self, online_config):
        trace = ior_trace(ranks=4, iterations=6, compute_time=50.0, seed=9)
        predictor = OnlinePredictor(config=FtioConfig(sampling_frequency=1.0, use_autocorrelation=False))
        # First step sees only a sliver of data: typically no detection.
        early_end = trace.t_start + 30.0
        early = trace.window(trace.t_start, early_end)
        if not early.is_empty:
            predictor.step(early, now=early_end)
        predictor.step(trace, now=trace.t_end)
        assert predictor.latest_period() is not None


#: Windows a predictor is stepped on directly: three periodic ones (hits) and
#: a constant one that is analysed but has no period (a miss with a result).
_HIT_PERIODS = (4.0, 5.0, 8.0)  # whole numbers of periods in the window
_WINDOWS = {
    **{
        f"hit{period:g}": DiscreteSignal(
            (np.arange(400) % int(period * 10) < 10).astype(float) * 1e8, 10.0
        )
        for period in _HIT_PERIODS
    },
    "flat": DiscreteSignal(np.full(400, 3.0), 10.0),
    "none": None,  # too little data to discretize: no result at all
}


def _scanned_latest_period(steps: list) -> float | None:
    """The last hit's period, by walking the returned steps backwards."""
    for step in reversed(steps):
        if step.period is not None:
            return step.period
    return None


class TestLatestPeriodIsTheLastHit:
    """``latest_period()`` returns a field; it must equal a scan of the steps."""

    @settings(max_examples=60, deadline=None)
    @given(moves=st.lists(st.sampled_from([*_WINDOWS, "roundtrip"]), max_size=24))
    def test_equals_the_scan(self, moves):
        config = FtioConfig(
            sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
        )
        predictor = OnlinePredictor(config=config)
        steps = []
        assert predictor.latest_period() is None
        for t, move in enumerate(moves, start=1):
            if move == "roundtrip":
                restored = OnlinePredictor(config=config)
                restored.load_state_dict(predictor.state_dict())
                assert restored.latest_period() == predictor.latest_period()
                predictor = restored
            else:
                step = predictor.complete_step(
                    PreparedStep(time=40.0 * t, window=(40.0 * (t - 1), 40.0 * t),
                                 signal=_WINDOWS[move])
                )
                assert (step.period is not None) == move.startswith("hit"), move
                assert step.index == len(steps)
                steps.append(step)
            assert predictor.latest_period() == _scanned_latest_period(steps)


def _outcome(step) -> tuple:
    """Everything a step publishes, plus its window."""
    return (step.index, step.time, step.window, step.dominant_frequency, step.period,
            step.confidence)


class TestIncrementalHooks:
    def test_evictable_before_tracks_adaptive_window(self, hacc_trace, online_config):
        predictor = OnlinePredictor(config=online_config)
        assert predictor.evictable_before() is None
        for t in hacc_flush_times(hacc_trace):
            last = predictor.step(hacc_trace.completed_before(t), now=t)
        cutoff = predictor.evictable_before()
        assert cutoff is not None
        # The cutoff is exactly the adaptive window start of the next step.
        hits = online_config.online_window_hits
        assert cutoff == pytest.approx(last.time - hits * last.period)

    def test_evictable_before_stays_none_without_adaptation(self, hacc_trace, online_config):
        predictor = OnlinePredictor(config=online_config, adaptive_window=False)
        for t in hacc_flush_times(hacc_trace):
            predictor.step(hacc_trace.completed_before(t), now=t)
        assert predictor.evictable_before() is None

    def test_state_dict_round_trip(self, hacc_trace, online_config):
        times = hacc_flush_times(hacc_trace)
        predictor = OnlinePredictor(config=online_config)
        for t in times[:-1]:
            predictor.step(hacc_trace.completed_before(t), now=t)

        restored = OnlinePredictor(config=online_config)
        restored.load_state_dict(predictor.state_dict())

        assert restored.state_dict() == predictor.state_dict()
        assert restored.latest_period() == predictor.latest_period()
        assert restored.evictable_before() == predictor.evictable_before()
        # Either one takes the next evaluation to the same step.
        trace = hacc_trace.completed_before(times[-1])
        assert _outcome(restored.step(trace, now=times[-1])) == _outcome(
            predictor.step(trace, now=times[-1])
        )

    def test_load_state_dict_restores_adaptive_flag(self, hacc_trace, online_config):
        source = OnlinePredictor(config=online_config, adaptive_window=False)
        for t in hacc_flush_times(hacc_trace)[:4]:
            source.step(hacc_trace.completed_before(t), now=t)
        restored = OnlinePredictor(config=online_config, adaptive_window=True)
        restored.load_state_dict(source.state_dict())
        assert restored.adaptive_window is False
        assert restored.evictable_before() is None

    def test_restored_predictor_continues_identically(self, hacc_trace, online_config):
        times = hacc_flush_times(hacc_trace)
        full = OnlinePredictor(config=online_config)
        expected = [full.step(hacc_trace.completed_before(t), now=t) for t in times]

        middle = len(times) // 2
        half = OnlinePredictor(config=online_config)
        steps = [half.step(hacc_trace.completed_before(t), now=t) for t in times[:middle]]
        resumed = OnlinePredictor(config=online_config)
        resumed.load_state_dict(half.state_dict())
        steps += [resumed.step(hacc_trace.completed_before(t), now=t) for t in times[middle:]]

        assert [_outcome(s) for s in steps] == [_outcome(s) for s in expected]


class TestReplayHelpers:
    def test_predict_from_flushes(self, hacc_trace, online_config, tmp_path):
        path = tmp_path / "hacc.jsonl"
        jsonl.write_trace(hacc_trace, path, requests_per_flush=max(len(hacc_trace) // 10, 1))
        flushes = list(jsonl.iter_flushes(path))
        steps = predict_from_flushes(flushes, config=online_config)
        assert len(steps) >= 5
        assert any(s.period is not None for s in steps)

    def test_predict_from_flushes_merges_metadata_once_per_carrying_flush(
        self, hacc_trace, online_config
    ):
        from repro.trace.jsonl import FlushRecord, trace_to_flushes

        flushes = trace_to_flushes(hacc_trace, hacc_flush_times(hacc_trace))
        # Only the first flush carries metadata; a later metadata-only flush
        # updates a counter without carrying requests.
        flushes.append(
            FlushRecord(
                flush_index=len(flushes),
                timestamp=flushes[-1].timestamp + 1.0,
                requests=(),
                metadata={"ranks": 999},
            )
        )
        steps = predict_from_flushes(flushes, config=online_config)
        assert steps
        assert any(s.period is not None for s in steps)

    def test_predict_from_file(self, hacc_trace, online_config, tmp_path):
        path = tmp_path / "hacc.jsonl"
        jsonl.write_trace(hacc_trace, path, requests_per_flush=max(len(hacc_trace) // 6, 1))
        steps = predict_from_file(path, config=online_config)
        assert steps
        assert steps[-1].period is not None
