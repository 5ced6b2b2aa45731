"""Pins the merged stats-tree key schema across topologies.

``PredictionService.stats()`` and ``ShardedService.stats()`` are scraped by
dashboards and the gateway's ``/status`` endpoint, so their key sets are a
public contract: a sharded deployment must expose exactly the single-process
keys plus a pinned set of topology counters — at any shard count, and
unchanged by a live reshard.  A new key is fine (add it to the pin below); a
key that appears only at some shard counts, or vanishes during a reshard, is
a dashboard-breaking bug.
"""

from __future__ import annotations

import pytest

from repro.core import FtioConfig
from repro.obs import Histogram
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ShardedService,
)
from repro.trace.framing import encode_frame
from repro.workloads import synthetic_flush_streams

#: The single-process stats schema (the merged tree sums these over shards).
SERVICE_KEYS = frozenset(
    {
        "jobs",
        "frames",
        "flushes",
        "requests",
        "detections",
        "failures",
        "published",
        "evicted_samples",
        "resident_samples",
        "bytes_copied_per_frame",
        "p50_detection_latency_seconds",
        "p99_detection_latency_seconds",
    }
)

#: Keys only a sharded deployment reports (topology and migration counters).
SHARDED_ONLY_KEYS = frozenset(
    {
        "shards",
        "dead_shards",
        "revived_shards",
        "reshards",
        "sessions_moved",
        "resharding_in_progress",
        "double_routed_frames",
    }
)


@pytest.fixture(scope="module")
def config():
    return ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        )
    )


@pytest.fixture(scope="module")
def streams():
    return synthetic_flush_streams(4, flushes_per_job=2, requests_per_flush=8, seed=11)


def feed_and_pump(service, streams) -> None:
    for round_index in range(2):
        for job, flushes in streams.items():
            if round_index < len(flushes):
                service.feed_bytes(encode_frame(flushes[round_index], job=job))
        service.pump()
    service.drain()


def test_single_process_stats_schema_is_pinned(config, streams):
    service = PredictionService(config)
    try:
        assert set(service.stats()) == SERVICE_KEYS  # idle schema
        feed_and_pump(service, streams)
        assert set(service.stats()) == SERVICE_KEYS  # active schema
    finally:
        service.close()


@pytest.mark.parametrize("n_shards", [1, 4])
def test_sharded_stats_schema_matches_single_plus_topology(config, streams, n_shards):
    service = ShardedService(n_shards, config)
    try:
        assert set(service.stats()) == SERVICE_KEYS | SHARDED_ONLY_KEYS
        feed_and_pump(service, streams)
        assert set(service.stats()) == SERVICE_KEYS | SHARDED_ONLY_KEYS
    finally:
        service.close()


def test_stats_schema_survives_reshard(config, streams):
    service = ShardedService(2, config)
    try:
        feed_and_pump(service, streams)
        before = set(service.stats())
        service.reshard(4)
        after_grow = set(service.stats())
        service.reshard(1)
        after_shrink = set(service.stats())
        assert before == after_grow == after_shrink == SERVICE_KEYS | SHARDED_ONLY_KEYS
    finally:
        service.close()


# --------------------------------------------------------------------- #
# cross-shard percentile merge (the unbiased histogram path)
# --------------------------------------------------------------------- #
def _shard_reply(hist: Histogram) -> dict:
    """The slice of a shard Stats reply ``_percentile`` consumes."""
    return {"detect_hist": hist.to_dict()}


def _hist_of(values) -> Histogram:
    hist = Histogram()  # the default latency buckets the dispatcher uses
    for value in values:
        hist.observe(value)
    return hist


class TestPercentileMerge:
    """Pins ``ShardedService._percentile``: a volume-weighted histogram merge.

    Every shard ships its full detection histogram, so a shard's weight in
    the merged percentile is the number of detections it ran.
    """

    def test_merges_histograms_volume_weighted(self):
        # Shard A: 900 fast detections; shard B: 100 slow ones.  The merged
        # p50 must land in a fast bucket (A dominates by volume) even though
        # an equal-weight average of the two shards would not.
        fast, slow = 0.001, 0.9
        stats_list = [
            _shard_reply(_hist_of([fast] * 900)),
            _shard_reply(_hist_of([slow] * 100)),
        ]
        merged = _hist_of([fast] * 900).merge(_hist_of([slow] * 100))
        p50 = ShardedService._percentile(stats_list, 50.0)
        assert p50 == pytest.approx(merged.quantile(0.5))
        assert p50 is not None and p50 < 0.01
        p99 = ShardedService._percentile(stats_list, 99.0)
        assert p99 == pytest.approx(merged.quantile(0.99))

    def test_empty_merged_histogram_is_none(self):
        stats_list = [
            _shard_reply(_hist_of([])),
            _shard_reply(_hist_of([])),
        ]
        assert ShardedService._percentile(stats_list, 99.0) is None

    def test_live_sharded_p99_comes_from_histograms(self, config, streams):
        service = ShardedService(2, config)
        try:
            feed_and_pump(service, streams)
            stats_list = service._stats_responses()
            assert all(reply.get("detect_hist") is not None for reply in stats_list)
            merged = Histogram.from_dict(stats_list[0]["detect_hist"])
            for reply in stats_list[1:]:
                merged = merged.merge(Histogram.from_dict(reply["detect_hist"]))
            assert merged.count > 0
            expected = float(merged.quantile(0.99))
            assert service.stats()["p99_detection_latency_seconds"] == pytest.approx(expected)
        finally:
            service.close()
