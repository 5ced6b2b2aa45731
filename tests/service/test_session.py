"""Unit tests for bounded-memory job sessions and the ring column store."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import FtioConfig
from repro.exceptions import TraceError
from repro.service import (
    JobSession,
    PredictionService,
    RingColumnStore,
    ServiceConfig,
    SessionConfig,
)
from repro.service.session import MAX_WINDOW_SAMPLES
from repro.trace.columns import FlushColumns
from repro.trace.framing import FrameDecoder, encode_frame
from repro.trace.jsonl import FlushRecord, trace_to_flushes
from repro.trace.record import IOKind, IORequest
from repro.trace.trace import Trace
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace


@pytest.fixture(scope="module")
def online_config():
    return FtioConfig(
        sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
    )


def chunk(start: float, n: int = 4, *, gap: float = 1.0) -> Trace:
    return Trace.from_requests(
        [
            IORequest(rank=0, start=start + i * gap, end=start + i * gap + 0.5, nbytes=100)
            for i in range(n)
        ]
    )


class TestRingColumnStore:
    def test_append_and_trace_round_trip(self):
        store = RingColumnStore(initial_capacity=2)
        store.append(chunk(0.0))
        store.append(chunk(10.0))
        assert len(store) == 8
        trace = store.trace(metadata={"a": 1})
        assert list(trace.starts) == sorted(trace.starts)
        assert trace.metadata == {"a": 1}
        assert trace.volume == 800

    def test_growth_is_geometric(self):
        store = RingColumnStore(initial_capacity=4)
        for i in range(64):
            store.append(chunk(float(i * 10), 4))
        assert len(store) == 256
        assert store.capacity >= 256
        # Power-of-two growth from the initial capacity.
        assert store.capacity & (store.capacity - 1) == 0

    def test_out_of_order_chunk_is_merged_sorted(self):
        store = RingColumnStore()
        store.append(chunk(10.0))
        store.append(chunk(0.0))
        trace = store.trace()
        assert list(trace.starts) == sorted(trace.starts)
        assert len(trace) == 8

    def test_evict_completed_before(self):
        store = RingColumnStore()
        store.append(chunk(0.0, 10))
        dropped = store.evict_completed_before(4.0)
        assert dropped == 4
        assert len(store) == 6
        assert store.evicted == 4
        assert float(store.trace().starts.min()) == 4.0

    def test_evict_to_cap_drops_oldest(self):
        store = RingColumnStore()
        store.append(chunk(0.0, 10))
        assert store.evict_to_cap(3) == 7
        trace = store.trace()
        assert len(trace) == 3
        assert float(trace.starts.min()) == 7.0

    def test_trace_is_a_stable_copy(self):
        store = RingColumnStore()
        store.append(chunk(0.0))
        before = store.trace()
        store.evict_to_cap(1)
        store.append(chunk(100.0, 8))
        assert len(before) == 4
        assert float(before.starts.min()) == 0.0


class TestJobSession:
    def test_memory_plateaus_at_cap(self, online_config):
        """Acceptance criterion: resident size plateaus at the window cap."""
        cap = 400
        session = JobSession(
            "long-runner",
            SessionConfig(config=online_config, max_samples=cap),
        )
        resident_after_each_flush = []
        for i in range(60):
            requests = tuple(
                IORequest(rank=r, start=i * 8.0 + r * 0.01, end=i * 8.0 + 0.5, nbytes=1024)
                for r in range(50)
            )
            session.ingest(
                FlushRecord(flush_index=i, timestamp=i * 8.0 + 1.0, requests=requests)
            )
            resident_after_each_flush.append(session.resident_samples)
            session.detect()
        assert session.ingested_requests == 3000
        assert max(resident_after_each_flush) <= cap
        # The tail of the run sits exactly at the plateau, not below-and-oscillating.
        assert all(r <= cap for r in resident_after_each_flush[-10:])
        assert session.evicted_samples >= session.ingested_requests - cap

    def test_adaptive_window_eviction_reduces_memory(self, online_config):
        trace = hacc_io_trace(ranks=8, loops=10, period=8.0, first_phase_delay=6.0, seed=5)
        flushes = trace_to_flushes(trace, hacc_flush_times(trace))
        session = JobSession("hacc", SessionConfig(config=online_config))
        for flush in flushes:
            session.ingest(flush)
            session.detect()
        # The adaptive window shrank to ~3 periods, so about half of the
        # 10-loop history must have been evicted without any cap pressure.
        assert session.evicted_samples > 0
        assert session.resident_samples <= session.ingested_requests * 0.6

    def test_min_requests_skips_early_detections(self, online_config):
        session = JobSession("tiny", SessionConfig(config=online_config, min_requests=10))
        session.ingest(
            FlushRecord(
                flush_index=0,
                timestamp=1.0,
                requests=(IORequest(rank=0, start=0.0, end=0.5, nbytes=10),),
            )
        )
        assert session.due()
        assert session.detect() is None
        assert session.detections == 0
        assert not session.due()

    def test_rate_limit_in_trace_time(self, online_config):
        session = JobSession(
            "chatty",
            SessionConfig(config=online_config, min_detection_interval=5.0),
        )
        req = IORequest(rank=0, start=0.0, end=0.5, nbytes=10)
        session.ingest(FlushRecord(flush_index=0, timestamp=1.0, requests=(req,)))
        assert session.due()
        session.detect()
        # 2 seconds later: rate-limited.
        session.ingest(FlushRecord(flush_index=1, timestamp=3.0, requests=(req,)))
        assert not session.due()
        # 6 seconds after the first evaluation: due again, and the evaluation
        # covers both pending flushes at once (coalescing).
        session.ingest(FlushRecord(flush_index=2, timestamp=7.0, requests=(req,)))
        assert session.due()
        step = session.detect()
        assert step is not None and step.time == 7.0

    def test_finished_session_bypasses_rate_limit(self, online_config):
        session = JobSession(
            "ending",
            SessionConfig(config=online_config, min_detection_interval=100.0),
        )
        req = IORequest(rank=0, start=0.0, end=0.5, nbytes=10)
        session.ingest(FlushRecord(flush_index=0, timestamp=1.0, requests=(req,)))
        session.detect()
        # The final flush lands inside the rate-limit interval...
        session.ingest(FlushRecord(flush_index=1, timestamp=2.0, requests=(req,)))
        assert not session.due()
        # ... but once the job is finished no later flush will carry it past
        # the interval, so it must become due immediately.
        session.mark_finished()
        assert session.due()
        step = session.detect()
        assert step is not None and step.time == 2.0
        assert not session.due()

    def test_metadata_merged_across_flushes(self, online_config):
        session = JobSession("meta", SessionConfig(config=online_config))
        req = IORequest(rank=0, start=0.0, end=0.5, nbytes=10)
        session.ingest(
            FlushRecord(flush_index=0, timestamp=1.0, requests=(req,), metadata={"app": "x"})
        )
        session.ingest(
            FlushRecord(flush_index=1, timestamp=2.0, requests=(), metadata={"ranks": 4})
        )
        assert session.metadata == {"app": "x", "ranks": 4}

    def test_session_matches_unbounded_replay(self, online_config):
        """Eviction must not change the prediction sequence (margin at work)."""
        from repro.core.online import replay_online

        trace = hacc_io_trace(ranks=8, loops=12, period=8.0, first_phase_delay=6.0, seed=9)
        times = hacc_flush_times(trace)
        reference = replay_online(trace, times, config=online_config)

        session = JobSession(
            "hacc", SessionConfig(config=online_config, max_samples=500_000)
        )
        steps = []
        for flush in trace_to_flushes(trace, times):
            session.ingest(flush)
            step = session.detect()
            if step is not None:
                steps.append(step)
        assert [s.period for s in steps] == [s.period for s in reference]
        assert [s.window for s in steps] == [s.window for s in reference]
        assert np.isclose(
            session.latest_period(), reference[-1].period, rtol=0, atol=0
        )

    def test_records_and_decoded_columns_leave_the_same_state(self, online_config):
        """One stream, ingested row-wise and column-wise: identical sessions."""

        def burst(t: float, ranks=(0, 1, 2, 3)) -> tuple[IORequest, ...]:
            return tuple(
                IORequest(rank=r, start=t + 0.1 * r, end=t + 0.5 + 0.1 * r, nbytes=1 << 20)
                for r in ranks
            )

        bursts = [
            # requests written out of start order
            tuple(reversed(burst(0.0))),
            # equal starts (and ends), ranks descending, mixed kinds
            tuple(
                IORequest(rank=r, start=8.0, end=8.5, nbytes=512, kind=kind)
                for r, kind in (
                    (5, IOKind.READ), (2, IOKind.WRITE), (9, IOKind.READ), (0, IOKind.WRITE)
                )
            ),
            burst(16.0),
            (),  # empty flush
            burst(24.0),
            burst(4.0, ranks=(7, 6)),  # older than the resident tail
            burst(32.0),
            burst(40.0),
        ]
        records = [
            FlushRecord(
                flush_index=i,
                timestamp=8.0 * i + 1.0,
                requests=requests,
                metadata={"application": "mixed", "ranks": 10} if i == 0 else {},
            )
            for i, requests in enumerate(bursts)
        ]
        # a metadata-only flush
        records.insert(
            4, FlushRecord(flush_index=99, timestamp=26.0, requests=(), metadata={"ranks": 12})
        )

        decoder = FrameDecoder()
        decoder.feed(b"".join(encode_frame(record, job="mixed") for record in records))
        decoded = [frame.flush for frame in decoder.frames()]
        assert all(isinstance(flush, FlushColumns) for flush in decoded)
        assert decoded == records

        def run(flushes) -> list[tuple]:
            session = JobSession("mixed", SessionConfig(config=online_config))
            states = []
            for flush in flushes:
                session.ingest(flush)
                step = session.detect()
                assert step is not None
                states.append(
                    ((step.index, step.window, step.period, step.confidence), session.state_dict())
                )
            return states

        by_record, by_columns = run(records), run(decoded)
        assert by_record == by_columns
        last_state = by_record[-1][1]
        assert last_state["ingested_requests"] == sum(len(r.requests) for r in records)
        assert last_state["metadata"] == {"application": "mixed", "ranks": 12}


def _burst_flush(i: int, metadata: dict | None = None, *, n: int = 16) -> FlushRecord:
    t = i * 8.0
    return FlushRecord(
        flush_index=i,
        timestamp=t + 1.0,
        requests=tuple(
            IORequest(rank=r % 4, start=t + r / n, end=t + (r + 1) / n, nbytes=1 << 20)
            for r in range(n)
        ),
        metadata=metadata or {},
    )


class TestClaimedTask:
    """What a claim hands out: a private copy of the ring, built without re-checking it."""

    @pytest.mark.parametrize(
        "max_samples, expect", [(200, "_compact"), (65_536, "_grow")], ids=["compact", "grow"]
    )
    def test_claimed_task_survives_what_happens_to_the_ring(
        self, online_config, monkeypatch, max_samples, expect
    ):
        """A pool thread may prepare while the broker keeps appending: compaction
        moves rows inside the very arrays a view would alias, growth swaps them."""
        calls = {"_compact": 0, "_grow": 0}
        for name in calls:
            original = getattr(RingColumnStore, name)

            def spy(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(RingColumnStore, name, spy)

        session = JobSession(
            "claimed", SessionConfig(config=online_config, max_samples=max_samples)
        )
        # 208 of 256 slots used; with the cap at 200 the head has moved to 8.
        for i in range(13):
            session.ingest(_burst_flush(i, {"application": "bursts"}))
        task = session.begin_batch_detect()
        assert task is not None
        before = session.predictor.prepare_step(task.trace, now=task.now)
        columns = [
            np.array(getattr(task.trace, name))
            for name in ("starts", "ends", "nbytes", "ranks", "kinds")
        ]
        metadata = dict(task.trace.metadata)

        calls.update(_compact=0, _grow=0)
        for i in range(13, 40):
            session.ingest(_burst_flush(i, {"round": i}))
        assert calls[expect] > 0

        for name, column in zip(("starts", "ends", "nbytes", "ranks", "kinds"), columns):
            assert np.array_equal(getattr(task.trace, name), column)
        assert task.trace.metadata == metadata
        after = session.predictor.prepare_step(task.trace, now=task.now)
        assert after.window == before.window
        assert after.signal.t_start == before.signal.t_start
        assert after.signal.abstraction_error == before.signal.abstraction_error
        assert np.array_equal(after.signal.samples, before.signal.samples)

    def test_one_detection_validates_no_trace(self, online_config, monkeypatch):
        """Every row in the ring was checked on its way in; a detection on an
        all-write stream builds its window without checking any of them again."""
        session = JobSession("trusted", SessionConfig(config=online_config))
        for i in range(6):
            session.ingest(_burst_flush(i))
            session.detect()
        session.ingest(_burst_flush(6))
        outside = chunk(0.0)

        checked = []
        original = Trace.__post_init__

        def counting(self):
            checked.append(len(self))
            original(self)

        monkeypatch.setattr(Trace, "__post_init__", counting)
        step = session.detect()
        assert step is not None and step.result is not None
        assert checked == []

        # ... while anything built from outside still goes through the check.
        with pytest.raises(TraceError):
            Trace(
                outside.starts, outside.ends[:-1], outside.nbytes, outside.ranks, outside.kinds
            )
        assert checked == [4]


def _lone_flush(index: int, t: float) -> FlushRecord:
    request = IORequest(rank=0, start=t, end=t + 1.0, nbytes=1 << 20)
    return FlushRecord(flush_index=index, timestamp=t + 1.0, requests=(request,))


class TestQuietTenant:
    """The resident span is bounded in sampling intervals, not only in requests.

    Before, one job flushing twice 2·10⁵ s apart at fs = 100 Hz spent 26.7 s and
    3.5 GB in one 20-million-sample detection — at that job's every later
    flush, on the thread all the other jobs of the shard wait for.
    """

    GAP = 2.0e5
    FS = 100.0

    def _config(self) -> FtioConfig:
        return FtioConfig(
            sampling_frequency=self.FS, use_autocorrelation=False, compute_characterization=False
        )

    def test_history_from_before_the_gap_is_dropped_at_ingest(self):
        assert self.GAP * self.FS > 10 * MAX_WINDOW_SAMPLES
        session = JobSession("quiet", SessionConfig(config=self._config()))
        session.ingest(_lone_flush(0, 0.0))
        session.detect()
        session.ingest(_lone_flush(1, self.GAP))
        assert session.resident_samples == 1
        assert session.evicted_samples == 1
        started = time.perf_counter()
        step = session.detect()
        assert time.perf_counter() - started < 1.0
        assert step.window == (self.GAP, self.GAP + 1.0)
        assert step.result is not None and step.result.signal.n_samples <= 128

    def test_requests_inside_the_span_stay(self):
        session = JobSession("steady", SessionConfig(config=self._config()))
        span = MAX_WINDOW_SAMPLES / self.FS
        session.ingest(_lone_flush(0, 0.0))
        session.ingest(_lone_flush(1, span - 1.0))  # the first one ended span - 1 s ago
        assert session.resident_samples == 2
        session.ingest(_lone_flush(2, span + 0.5))  # ... and now more than span ago
        assert session.resident_samples == 2
        assert session.evicted_samples == 1

    def test_other_tenants_publish_unchanged(self):
        config = ServiceConfig(session=SessionConfig(config=self._config()))
        rounds, tenants = 6, 63
        flushes = {
            f"job-{j}": [_burst_flush(i, n=4) for i in range(rounds)] for j in range(tenants)
        }

        def run(with_quiet_tenant: bool) -> tuple[list[tuple], float]:
            service = PredictionService(config)
            updates: list[tuple] = []
            service.publisher.subscribe(
                lambda u: updates.append((u.job, u.time, u.period, u.confidence)),
                jobs=list(flushes),
            )
            slowest = 0.0
            try:
                for i in range(rounds):
                    for job, stream in flushes.items():
                        service.ingest_flush(job, stream[i])
                    if with_quiet_tenant and i in (0, rounds - 1):
                        service.ingest_flush("quiet", _lone_flush(i, i * self.GAP))
                    started = time.perf_counter()
                    service.pump()
                    slowest = max(slowest, time.perf_counter() - started)
                return updates, slowest
            finally:
                service.close()

        expected, _ = run(False)
        assert len(expected) == rounds * tenants
        seen, slowest_pump = run(True)
        assert seen == expected
        assert slowest_pump < 2.0

    # One request *spanning* the gap: it completed at the flush, so a bound on
    # completion times kept the whole span resident — 3 000 000 samples at
    # 10 Hz against the stated 2²⁰, analysed (below the 2²⁶ refusal) on the
    # shared thread at that job's every later flush.  Resident means *started*
    # within the span.
    SPAN_FS = 10.0

    def _spanning_flush(self, index: int, t: float) -> FlushRecord:
        long = IORequest(rank=0, start=0.0, end=t, nbytes=1 << 30)
        short = IORequest(rank=1, start=t - 1.0, end=t, nbytes=1 << 20)
        return FlushRecord(flush_index=index, timestamp=t, requests=(long, short))

    def _span_config(self) -> FtioConfig:
        return FtioConfig(
            sampling_frequency=self.SPAN_FS,
            use_autocorrelation=False,
            compute_characterization=False,
        )

    def test_a_request_spanning_the_gap_is_dropped_at_ingest(self):
        t = 3.0e5
        assert 2 * MAX_WINDOW_SAMPLES < t * self.SPAN_FS < 1 << 26
        session = JobSession("spanning", SessionConfig(config=self._span_config()))
        session.ingest(self._spanning_flush(0, t))
        assert session.resident_samples == 1
        assert session.evicted_samples == 1
        started = time.perf_counter()
        step = session.detect()
        assert time.perf_counter() - started < 1.0
        assert step.window == (t - 1.0, t)
        assert step.result is not None and step.result.signal.n_samples <= 128
        # The invariant of every claimed window: Δt · fs <= MAX_WINDOW_SAMPLES.
        assert (step.window[1] - step.window[0]) * self.SPAN_FS <= MAX_WINDOW_SAMPLES

    def test_other_tenants_publish_unchanged_beside_a_spanning_request(self):
        config = ServiceConfig(session=SessionConfig(config=self._span_config()))
        rounds, tenants = 4, 63
        flushes = {
            f"job-{j}": [_burst_flush(i, n=4) for i in range(rounds)] for j in range(tenants)
        }

        def run(with_spanning_tenant: bool) -> tuple[list[tuple], float]:
            service = PredictionService(config)
            updates: list[tuple] = []
            service.publisher.subscribe(
                lambda u: updates.append((u.job, u.time, u.period, u.confidence)),
                jobs=list(flushes),
            )
            slowest = 0.0
            try:
                for i in range(rounds):
                    for job, stream in flushes.items():
                        service.ingest_flush(job, stream[i])
                    if with_spanning_tenant:
                        service.ingest_flush("spanning", self._spanning_flush(i, 6.0e5 + i))
                    started = time.perf_counter()
                    service.pump()
                    slowest = max(slowest, time.perf_counter() - started)
                if with_spanning_tenant:
                    step = service.session("spanning").detect(now=6.0e5 + rounds - 1)
                    t0, t1 = step.window
                    assert (t1 - t0) * self.SPAN_FS <= MAX_WINDOW_SAMPLES
                return updates, slowest
            finally:
                service.close()

        expected, _ = run(False)
        assert len(expected) == rounds * tenants
        seen, slowest_pump = run(True)
        assert seen == expected
        assert slowest_pump < 2.0
