"""Tests of the unified ``repro.api`` facade and the compatibility shims.

The facade must be sugar, never semantics: ``api.detect`` / ``api.predict``
must return exactly what the layer APIs return, ``api.serve`` +
``api.connect`` must stand up the same gateway/client pair the service layer
exposes, and every pre-redesign public import and constructor signature must
keep working (with a ``DeprecationWarning`` where it was superseded).
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
import repro.api as api
from repro.core import FtioConfig, detect as core_detect
from repro.core.online import replay_online
from repro.workloads.hacc import hacc_flush_times, hacc_io_trace


@pytest.fixture(scope="module")
def trace():
    return hacc_io_trace(ranks=2, loops=6, period=5.0, first_phase_delay=3.0, seed=9)


class TestReproConfig:
    def test_frozen(self):
        config = api.ReproConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.shards = 2

    def test_with_replaces_top_level_fields(self):
        config = api.ReproConfig().with_(shards=4, token=7, max_samples=99)
        assert (config.shards, config.token, config.max_samples) == (4, 7, 99)
        assert api.ReproConfig().shards == 0, "the original is untouched"

    def test_max_workers_accepts_only_zero(self):
        """The detection pool is gone: 0 (what the benchmark passes) is the
        only value, and it reaches no layer config."""
        assert api.ReproConfig(max_workers=0).max_workers == 0
        assert not hasattr(api.ReproConfig().service_config(), "max_workers")
        for workers in (1, 2, -1):
            with pytest.raises(ValueError, match="pool was removed"):
                api.ReproConfig(max_workers=workers)
        with pytest.raises(ValueError, match="pool was removed"):
            api.ReproConfig().with_(max_workers=1)

    def test_with_analysis_replaces_ftio_fields(self):
        config = api.ReproConfig().with_analysis(
            sampling_frequency=1.0, use_autocorrelation=False
        )
        assert config.analysis.sampling_frequency == 1.0
        assert config.analysis.use_autocorrelation is False
        # Untouched analysis fields keep their FtioConfig defaults.
        assert config.analysis.tolerance == FtioConfig().tolerance

    def test_lowering_to_layer_configs(self):
        config = api.ReproConfig(
            max_samples=123,
            min_requests=3,
            token=9,
            auto_revive=True,
        )
        session = config.session_config()
        assert session.max_samples == 123 and session.min_requests == 3
        assert session.config is config.analysis
        service = config.service_config()
        assert service.token == 9 and service.auto_revive is True
        assert service.session == session

    def test_build_service_shapes(self):
        from repro.service import PredictionService, ShardedService

        single = api.ReproConfig().build_service()
        assert isinstance(single, PredictionService)
        single.close()
        sharded = api.ReproConfig(shards=2).build_service()
        assert isinstance(sharded, ShardedService)
        assert sharded.n_shards == 2
        sharded.close()


class TestVerbs:
    def test_detect_matches_core(self, trace):
        config = api.ReproConfig().with_analysis(
            sampling_frequency=10.0, use_autocorrelation=False
        )
        ours = api.detect(trace, config=config)
        reference = core_detect(trace, sampling_frequency=10.0, use_autocorrelation=False)
        assert ours.dominant_frequency == reference.dominant_frequency
        assert ours.period == reference.period
        assert ours.confidence == reference.confidence

    def test_detect_accepts_bare_overrides(self, trace):
        ours = api.detect(trace, sampling_frequency=10.0, use_autocorrelation=False)
        reference = core_detect(trace, sampling_frequency=10.0, use_autocorrelation=False)
        assert ours.period == reference.period

    def test_predict_matches_replay_online(self, trace):
        times = hacc_flush_times(trace)
        config = api.ReproConfig(adaptive_window=False).with_analysis(
            sampling_frequency=10.0,
            use_autocorrelation=False,
            compute_characterization=False,
        )
        ours = api.predict(trace, times, config=config)
        reference = replay_online(
            trace, times, config=config.analysis, adaptive_window=False
        )
        assert [s.period for s in ours] == [s.period for s in reference]
        assert [s.window for s in ours] == [s.window for s in reference]

    def test_serve_and_connect_round_trip(self, trace):
        from repro.trace.jsonl import trace_to_flushes

        config = api.ReproConfig(token=3).with_analysis(
            sampling_frequency=10.0,
            use_autocorrelation=False,
            compute_characterization=False,
        )
        flushes = trace_to_flushes(trace, hacc_flush_times(trace))
        with api.serve(config) as gateway:
            with api.connect(gateway.address, token=3) as client:
                for flush in flushes:
                    client.submit_flush("job-a", flush)
                client.drain()
                stats = client.stats()
                assert stats["jobs"] == 1
                assert stats["detections"] > 0

    def test_connect_parses_host_port(self):
        with pytest.raises(ValueError):
            api.connect("no-port-here")
        with pytest.raises(ValueError):
            api.connect(":123")


class TestCompatibility:
    def test_token_flows_from_service_config(self):
        from repro.service import ServiceConfig, ShardedService

        with ShardedService(1, ServiceConfig(token=6)) as service:
            assert service.token == 6

    def test_every_pre_redesign_import_still_works(self):
        # The import surface of PRs 1-3 (minus the retired perf harness).
        from repro import Ftio, FtioConfig, OnlinePredictor, Trace  # noqa: F401
        from repro.scheduling.periods import ServicePeriodProvider  # noqa: F401
        from repro.service import (  # noqa: F401
            BrokerStats,
            DetectionDispatcher,
            FlushBroker,
            HashRing,
            JobSession,
            PhaseFlushBridge,
            PredictionPublisher,
            PredictionService,
            PredictionUpdate,
            RingColumnStore,
            ServiceConfig,
            SessionConfig,
            ShardedService,
            ThreadBackend,
            apply_state,
            load_snapshot,
            merge_states,
            restore_state,
            save_snapshot,
            snapshot_state,
            split_state,
        )
        from repro.service.snapshot import SNAPSHOT_VERSION  # noqa: F401
        from repro.trace.framing import (  # noqa: F401
            FrameDecoder,
            FrameReader,
            FrameSplitter,
            FrameWriter,
            encode_frame,
            iter_frames,
        )

    def test_legacy_constructors_unchanged(self):
        # Positional/keyword shapes that PR-2/PR-3 era code used.
        from repro.service import (
            PredictionService,
            ServiceConfig,
            SessionConfig,
            ShardedService,
        )

        config = ServiceConfig(session=SessionConfig(max_samples=100))
        service = PredictionService(config)
        service.close()
        with ShardedService(1, config, replicas=16) as sharded:
            assert sharded.n_shards == 1

    def test_new_surface_is_exported(self):
        assert repro.ReproConfig is api.ReproConfig
        from repro.client import ServiceClient  # noqa: F401
        from repro.service import ThreadedGateway, protocol  # noqa: F401

        # One protocol generation: every peer in the repo ships v3.
        assert protocol.PROTOCOL_VERSION == 3
        assert protocol.SUPPORTED_VERSIONS == (3,)
