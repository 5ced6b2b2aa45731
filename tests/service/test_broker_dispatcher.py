"""Unit tests for the flush broker and the detection dispatcher."""

from __future__ import annotations

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
)
from repro.trace.framing import FrameWriter, encode_frame
from repro.trace.jsonl import FlushRecord
from repro.trace.record import IORequest


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


class TestDetectionDispatcher:
    def test_inline_and_threaded_results_agree(self, online_config):
        def run(max_workers):
            service = PredictionService(
                ServiceConfig(
                    session=SessionConfig(config=online_config), max_workers=max_workers
                )
            )
            for i in range(6):
                for job in ("a", "b", "c"):
                    service.ingest_flush(job, make_flush(i))
                service.pump(wait_for_batch=True)
            service.dispatcher.join()
            periods = {job: service.publisher.latest_period(job) for job in service.jobs}
            service.close()
            return periods

        assert run(0) == run(4)

    def test_backpressure_defers_when_saturated(self, online_config):
        service = PredictionService(
            ServiceConfig(
                session=SessionConfig(config=online_config), max_workers=1, max_pending=1
            )
        )
        # Make many jobs due at once; with a single slot most must be deferred.
        for job_index in range(8):
            service.ingest_flush(f"job-{job_index}", make_flush(0))
        service.pump()
        service.dispatcher.join()
        stats = service.dispatcher.stats
        assert stats.deferred > 0
        # Deferred sessions stay due: draining catches them all up.
        service.drain()
        assert not service.broker.due_sessions()
        assert service.dispatcher.stats.completed == 8
        service.close()

    def test_rate_limited_sessions_coalesce(self, online_config):
        service = PredictionService(
            ServiceConfig(
                session=SessionConfig(config=online_config, min_detection_interval=100.0)
            )
        )
        for i in range(5):
            service.ingest_flush("slow", make_flush(i))
            service.pump(wait_for_batch=True)
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
        for max_workers in (0, 2):
            service = PredictionService(
                ServiceConfig(session=SessionConfig(config=online_config), max_workers=max_workers)
            )
            service.ingest_flush("x", make_flush(0))
            service.drain()
            service.close()
            assert service.dispatcher.closed
            service.ingest_flush("x", make_flush(1))  # ingestion still works...
            with pytest.raises(RuntimeError):  # ...but evaluation does not
                service.pump(wait_for_batch=True)
            # close is idempotent and join on a closed dispatcher is a no-op.
            service.close()
            service.dispatcher.join()

    def test_dispatcher_constructor_validation(self, online_config):
        broker = FlushBroker(session_config=SessionConfig(config=online_config))
        with pytest.raises(ValueError):
            DetectionDispatcher(broker, max_workers=-1)
        with pytest.raises(ValueError):
            DetectionDispatcher(broker, max_pending=0)
