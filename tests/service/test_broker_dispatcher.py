"""Unit tests for the flush broker and the detection dispatcher."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import FtioConfig
from repro.obs import Histogram
from repro.service import (
    DetectionDispatcher,
    FlushBroker,
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
    ThreadBackend,
)
from repro.trace.framing import FrameWriter, encode_frame
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest
from tests.service.conftest import UpdateLedger


@pytest.fixture(scope="module")
def online_config():
    return FtioConfig(
        sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
    )


def make_flush(index: int, *, t0: float = 0.0) -> FlushRecord:
    start = t0 + index * 8.0
    requests = tuple(
        IORequest(rank=r, start=start + r * 0.05, end=start + 0.5, nbytes=1024) for r in range(4)
    )
    return FlushRecord(flush_index=index, timestamp=start + 1.0, requests=requests)


class TestFlushBroker:
    def test_frames_demultiplex_to_per_job_sessions(self, online_config):
        broker = FlushBroker(session_config=SessionConfig(config=online_config))
        data = b""
        for i in range(9):
            data += encode_frame(make_flush(i // 3), job=f"job-{i % 3}")
        # Feed in awkward chunk sizes: framing must reassemble.
        for offset in range(0, len(data), 37):
            broker.feed_bytes(data[offset : offset + 37])
        assert sorted(broker.jobs) == ["job-0", "job-1", "job-2"]
        for job in broker.jobs:
            assert broker.session(job).ingested_flushes == 3
        stats = broker.stats
        assert stats.jobs == 3 and stats.flushes == 9 and stats.requests == 36

    def test_sessions_created_on_demand_with_shared_config(self, online_config):
        config = SessionConfig(config=online_config, max_samples=77)
        broker = FlushBroker(session_config=config)
        session = broker.session("fresh")
        assert session.config.max_samples == 77
        assert broker.session("fresh") is session

    def test_session_factory_overrides_config(self, online_config):
        sizes = {"small": 10, "big": 10_000}

        def factory(job):
            from repro.service import JobSession

            return JobSession(
                job, SessionConfig(config=online_config, max_samples=sizes.get(job, 100))
            )

        broker = FlushBroker(session_factory=factory)
        assert broker.session("small").config.max_samples == 10
        assert broker.session("big").config.max_samples == 10_000

    def test_tail_feeds_broker(self, online_config, tmp_path):
        broker = FlushBroker(session_config=SessionConfig(config=online_config))
        path = tmp_path / "spool.fts"
        writer = FrameWriter(path)
        reader = broker.tail(path)
        writer.write(make_flush(0), job="a")
        writer.write(make_flush(0), job="b")
        assert len(reader.poll()) == 2
        assert sorted(broker.jobs) == ["a", "b"]
        writer.write(make_flush(1), job="a")
        assert len(reader.poll()) == 1
        assert broker.session("a").ingested_flushes == 2


class TestOnePumpAtATime:
    """The pump lock is the only thing that keeps one job from being claimed
    by two evaluations at once."""

    JOBS = [f"job-{j}" for j in range(12)]
    ROUNDS = 6

    @staticmethod
    def _service(online_config, backend=None) -> PredictionService:
        return PredictionService(
            ServiceConfig(session=SessionConfig(config=online_config), metrics=False),
            backend=backend,
        )

    def _reference(self, online_config) -> UpdateLedger:
        service = self._service(online_config)
        ledger = UpdateLedger(service.publisher)
        for r in range(self.ROUNDS):
            for j, job in enumerate(self.JOBS):
                service.ingest_flush(job, make_flush(r, t0=0.1 * j))
            service.pump()
        service.close()
        assert ledger.published == len(self.JOBS) * self.ROUNDS
        return ledger

    def test_threads_pumping_publish_each_update_once(self, online_config):
        pumpers = 4  # more than the cores a CI runner has
        service = self._service(online_config)
        ledger = UpdateLedger(service.publisher)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r in range(self.ROUNDS):
                for j, job in enumerate(self.JOBS):
                    service.ingest_flush(job, make_flush(r, t0=0.1 * j))
                start = threading.Barrier(pumpers, timeout=30)
                submitted: list[int] = []

                def pump():
                    start.wait()
                    submitted.append(service.pump())

                threads = [threading.Thread(target=pump) for _ in range(pumpers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                # One pump took every due job; the others found none left.
                assert sorted(submitted) == [0] * (pumpers - 1) + [len(self.JOBS)]
        finally:
            sys.setswitchinterval(interval)
        service.close()
        assert ledger.published == len(ledger.entries)
        ledger.assert_matches(self._reference(online_config))

    def test_a_pump_waits_for_the_batch_in_progress(self, online_config):
        """A flush lands and a second pump starts between one batch's claim and
        its commit: the second pump must wait, then evaluate the new flush
        from the committed state — exactly the sequential updates."""
        service: PredictionService | None = None
        late: list[threading.Thread] = []

        def mid_batch(stage, group_size, seconds):
            if late or stage != "rfft":
                return
            # Every job of this batch is claimed and none is committed yet.
            for j, job in enumerate(self.JOBS):
                service.ingest_flush(job, make_flush(1, t0=0.1 * j))
            thread = threading.Thread(target=service.pump)
            late.append(thread)
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive(), "a second pump ran beside the batch in progress"

        backend = ThreadBackend()
        backend.observer = mid_batch
        service = self._service(online_config, backend=backend)
        ledger = UpdateLedger(service.publisher)
        for j, job in enumerate(self.JOBS):
            service.ingest_flush(job, make_flush(0, t0=0.1 * j))
        assert service.pump() == len(self.JOBS)
        late[0].join(timeout=30)
        assert not late[0].is_alive()
        for r in range(2, self.ROUNDS):
            for j, job in enumerate(self.JOBS):
                service.ingest_flush(job, make_flush(r, t0=0.1 * j))
            service.pump()
        service.close()
        assert ledger.published == len(ledger.entries)
        ledger.assert_matches(self._reference(online_config))


class TestDetectionDispatcher:
    def test_inline_and_threaded_results_agree(self, online_config):
        """Evaluation runs in whichever thread pumps: pumping from a thread of
        its own (as a gateway or a shard worker does) publishes what pumping
        in the caller's thread does."""

        def run(threaded):
            service = PredictionService(ServiceConfig(session=SessionConfig(config=online_config)))
            ledger = UpdateLedger(service.publisher)
            for i in range(6):
                for job in ("a", "b", "c"):
                    service.ingest_flush(job, make_flush(i))
                if threaded:
                    thread = threading.Thread(target=service.pump)
                    thread.start()
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                else:
                    service.pump()
            periods = {job: service.publisher.latest_period(job) for job in service.jobs}
            service.close()
            assert ledger.published == 3 * 6
            return periods, ledger

        inline_periods, inline_ledger = run(False)
        threaded_periods, threaded_ledger = run(True)
        assert inline_periods == threaded_periods
        threaded_ledger.assert_matches(inline_ledger)

    def test_rate_limited_sessions_coalesce(self, online_config):
        service = PredictionService(
            ServiceConfig(
                session=SessionConfig(config=online_config, min_detection_interval=100.0)
            )
        )
        for i in range(5):
            service.ingest_flush("slow", make_flush(i))
            service.pump()
        # First flush evaluates; the rest (within 100 s of trace time) coalesce.
        assert service.session("slow").detections == 1
        assert service.session("slow").ingested_flushes == 5

    def test_failure_is_counted_and_raised(self, online_config):
        broker = FlushBroker(session_config=SessionConfig(config=online_config))
        session = broker.session("boom")
        session.ingest(make_flush(0))

        def explode(**kwargs):
            raise RuntimeError("injected")

        session.begin_batch_detect = explode
        dispatcher = DetectionDispatcher(broker)
        with pytest.raises(RuntimeError):
            dispatcher.pump()
        assert dispatcher.stats.failures == 1

    def test_reap_finished_releases_sessions(self, online_config):
        service = PredictionService(ServiceConfig(session=SessionConfig(config=online_config)))
        for job in ("done", "alive"):
            service.ingest_flush(job, make_flush(0))
        service.drain()
        service.finish_job("done")
        assert service.reap_finished() == ("done",)
        # The finished job left the broker; its last prediction is retained.
        assert service.jobs == ("alive",)
        assert service.publisher.latest("done") is not None
        # forget_predictions drops the published state as well.
        service.finish_job("alive")
        assert service.reap_finished(forget_predictions=True) == ("alive",)
        assert service.jobs == ()
        assert service.publisher.latest("alive") is None

    def test_reap_skips_finished_sessions_with_pending_data(self, online_config):
        service = PredictionService(ServiceConfig(session=SessionConfig(config=online_config)))
        service.ingest_flush("late", make_flush(0))
        service.finish_job("late")
        # Unevaluated data: the session must survive the reap, get evaluated,
        # and only then be released.
        assert service.reap_finished() == ()
        service.drain()
        assert service.reap_finished() == ("late",)

    @pytest.mark.parametrize("metrics", [True, False])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_latency_percentiles_read_the_detect_histogram(
        self, online_config, sharded, metrics
    ):
        """One meaning on every topology: the stats percentiles are quantiles of
        the deployment's own ``repro_dispatcher_detect_seconds`` — which the
        dispatcher keeps (unregistered) with metrics off too."""
        config = ServiceConfig(session=SessionConfig(config=online_config), metrics=metrics)
        service = ShardedService(1, config) if sharded else PredictionService(config)
        keys = ("p50_detection_latency_seconds", "p99_detection_latency_seconds")
        try:
            before = service.stats()
            assert [before[key] for key in keys] == [None, None]
            for i in range(6):
                service.ingest_flush("x", make_flush(i))
                service.pump()
            stats = service.stats()
            assert stats["detections"] == 6
            p50, p99 = (stats[key] for key in keys)
            assert p50 is not None and p99 is not None and p99 >= p50 > 0.0
            if metrics:
                family = service.metrics_snapshot()["repro_dispatcher_detect_seconds"]
                hist = Histogram.from_dict(family["series"][0]["hist"])
                assert hist.count == 6
                assert (p50, p99) == (hist.quantile(0.5), hist.quantile(0.99))
            else:
                assert service.metrics_snapshot() == {}
        finally:
            service.close()

    def test_pump_after_close_raises_cleanly(self, online_config):
        service = PredictionService(ServiceConfig(session=SessionConfig(config=online_config)))
        service.ingest_flush("x", make_flush(0))
        service.drain()
        service.close()
        assert service.dispatcher.closed
        service.ingest_flush("x", make_flush(1))  # ingestion still works...
        with pytest.raises(RuntimeError):  # ...but evaluation does not
            service.pump()
        service.close()  # close is idempotent

    def test_dispatcher_constructor_validation(self, online_config):
        """The pool's arguments are gone, not ignored."""
        broker = FlushBroker(session_config=SessionConfig(config=online_config))
        for removed in ("max_workers", "max_pending"):
            with pytest.raises(TypeError):
                DetectionDispatcher(broker, **{removed: 0})
