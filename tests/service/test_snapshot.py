"""Snapshot/restore tests: a restored service continues as if it never crashed."""

from __future__ import annotations

import pytest

from repro.core import FtioConfig
from repro.exceptions import TraceFormatError
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    load_snapshot,
    restore_state,
    save_snapshot,
    snapshot_state,
)
from repro.service.session import JobSession
from repro.service.snapshot import SNAPSHOT_VERSION
from repro.trace.jsonl import trace_to_flushes
from repro.trace.msgpack import packb, unpackb
from repro.workloads import synthetic_flush_streams
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace
from tests.service.conftest import UpdateLedger, sessions_by_job


@pytest.fixture(scope="module")
def online_config():
    return FtioConfig(
        sampling_frequency=10.0, use_autocorrelation=False, compute_characterization=False
    )


@pytest.fixture(scope="module")
def service_config(online_config):
    return ServiceConfig(session=SessionConfig(config=online_config))


@pytest.fixture(scope="module")
def streams():
    jobs = {}
    for j in range(3):
        trace = hacc_io_trace(
            ranks=4, loops=8, period=7.0 + j, first_phase_delay=4.0, seed=40 + j
        )
        jobs[f"job-{j}"] = trace_to_flushes(trace, hacc_flush_times(trace))
    return jobs


def stream_through(service, streams, *, start=0, stop=None):
    for job, flushes in streams.items():
        for flush in flushes[start:stop]:
            service.ingest_flush(job, flush)
            service.pump()
    return service


class TestSnapshotRestore:
    def test_restored_service_continues_identically(self, service_config, streams, tmp_path):
        uninterrupted = PredictionService(service_config)
        expected = UpdateLedger(uninterrupted.publisher)
        stream_through(uninterrupted, streams)

        crashed = stream_through(PredictionService(service_config), streams, stop=4)
        path = save_snapshot(crashed, tmp_path / "service.snapshot")
        assert path.exists() and path.stat().st_size > 0

        restored = load_snapshot(path, config=service_config)
        resumed = UpdateLedger(restored.publisher)
        stream_through(restored, streams, start=4)

        # Every update after the restore — its index continuing the crashed
        # run's count — is the one the uninterrupted service published.
        assert resumed.conflicts == [] and resumed.entries
        assert resumed.entries == {
            key: value
            for key, value in expected.entries.items()
            if key[1] >= crashed.session(key[0]).detections
        }
        for job in streams:
            a = uninterrupted.session(job)
            b = restored.session(job)
            assert uninterrupted.publisher.latest_period(
                job
            ) == restored.publisher.latest_period(job), job
            assert a.ingested_flushes == b.ingested_flushes
            assert a.detections == b.detections

    def test_restore_into_a_running_service_keeps_other_jobs(self, service_config, streams):
        """An older snapshot rolls its own jobs back; a job it does not carry
        keeps its session and its last period."""
        a, b = "job-0", "job-2"
        service = stream_through(PredictionService(service_config), {a: streams[a]}, stop=4)
        older = snapshot_state(service)
        stream_through(service, {b: streams[b]})
        stream_through(service, {a: streams[a]}, start=4)
        kept = service.session(b).state_dict()
        period = service.publisher.latest_period(b)
        assert period is not None and kept["buffer"]["n"] > 0

        service.restore_state(older)
        assert service.publisher.latest_period(b) == period
        assert service.session(b).state_dict() == kept
        assert service.session(a).state_dict() == sessions_by_job(older)[a]
        assert service.publisher.latest(a).index == older["publisher"]["latest"][a]["index"]
        service.close()

    def test_snapshot_preserves_published_predictions(self, service_config, streams):
        service = stream_through(PredictionService(service_config), streams)
        restored = restore_state(snapshot_state(service), config=service_config)
        for job in streams:
            before = service.publisher.latest(job)
            after = restored.publisher.latest(job)
            assert before is not None and after is not None
            assert (before.index, before.time, before.period) == (
                after.index,
                after.time,
                after.period,
            )

    def test_snapshot_is_plain_msgpack(self, service_config, streams, tmp_path):
        service = stream_through(PredictionService(service_config), streams, stop=2)
        path = save_snapshot(service, tmp_path / "service.snapshot")
        decoded = unpackb(path.read_bytes())
        assert decoded["snapshot_version"] == SNAPSHOT_VERSION
        assert {s["job"] for s in decoded["sessions"]} == set(streams)

    def test_unknown_snapshot_version_rejected(self, service_config):
        with pytest.raises(TraceFormatError):
            restore_state({"snapshot_version": 999, "sessions": [], "publisher": {}})

    def test_corrupt_snapshot_file_rejected(self, tmp_path, service_config):
        path = tmp_path / "bad.snapshot"
        path.write_bytes(packb([1, 2, 3]))
        with pytest.raises(TraceFormatError):
            load_snapshot(path, config=service_config)

    def test_version_1_state_with_steps_rejected(self, service_config, streams):
        service = stream_through(PredictionService(service_config), streams, stop=2)
        state = snapshot_state(service)
        state["snapshot_version"] = 1
        for session in state["sessions"]:
            session["detections"] = session["predictor"].pop("evaluations")
            session["predictor"]["steps"] = []
        with pytest.raises(TraceFormatError, match="version 1"):
            restore_state(state, config=service_config)


#: A session state's keys: the resident buffer, the counters, the predictor.
SESSION_KEYS = frozenset(
    {
        "job",
        "metadata",
        "pending_time",
        "last_detection_time",
        "ingested_flushes",
        "ingested_requests",
        "evicted",
        "finished",
        "buffer",
        "predictor",
    }
)

#: A predictor state's keys: the adaptive window and the evaluation count.
PREDICTOR_KEYS = frozenset(
    {"evaluations", "consecutive_hits", "last_period", "window_start", "adaptive_window"}
)


class TestSessionStateSchema:
    """A session's state is its window: it does not grow with the job's runtime."""

    def test_state_keys_are_pinned(self, online_config):
        session = JobSession("job", SessionConfig(config=online_config))
        for flush in synthetic_flush_streams(1, flushes_per_job=4, seed=1)["job-000"]:
            session.ingest(flush)
            session.detect()
        state = session.state_dict()
        assert frozenset(state) == SESSION_KEYS
        assert frozenset(state["predictor"]) == PREDICTOR_KEYS
        assert state["predictor"]["evaluations"] == session.detections == 4

    def test_state_size_is_flat_in_runtime(self, online_config):
        (flushes,) = synthetic_flush_streams(
            1, flushes_per_job=800, requests_per_flush=16, seed=1
        ).values()
        session = JobSession("job", SessionConfig(config=online_config))
        states = {}
        for flush in flushes:
            session.ingest(flush)
            session.detect()
            if session.detections in (100, 800):
                states[session.detections] = session.state_dict()
        early, late = states[100], states[800]
        # The predictor packs to the same size but for its two integer
        # counters' own MessagePack width (a fixint at 100, a uint16 at 800).
        counters = ("evaluations", "consecutive_hits")
        width = sum(
            len(packb(late["predictor"][k])) - len(packb(early["predictor"][k])) for k in counters
        )
        assert width <= 4
        assert len(packb(late["predictor"])) - len(packb(early["predictor"])) == width
        assert abs(len(packb(late)) - len(packb(early))) < 1024
