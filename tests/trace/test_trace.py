"""Unit tests for the Trace container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import MIB
from repro.exceptions import EmptyTraceError, TraceError
from repro.trace.record import GroundTruth, IOKind, IOPhase, IORequest
from repro.trace.trace import Trace, merge_traces


class TestConstruction:
    def test_from_requests_sorts_by_start(self, simple_requests):
        shuffled = list(reversed(simple_requests))
        trace = Trace.from_requests(shuffled)
        assert np.all(np.diff(trace.starts) >= 0)

    def test_from_columns_sorts_by_start_end_rank_and_keeps_ties_in_order(self):
        # Rows 1 and 3 tie on (start, end, rank); their given order is kept.
        trace = Trace.from_columns(
            np.array([2.0, 1.0, 1.0, 1.0, 1.0]),
            np.array([3.0, 2.0, 1.5, 2.0, 2.0]),
            np.array([10, 20, 30, 40, 50]),
            np.array([0, 1, 4, 1, 0]),
            np.array(["write", "read", "write", "write", "read"]),
            metadata={"application": "unit-test"},
        )
        assert trace.nbytes.tolist() == [30, 50, 20, 40, 10]
        assert trace.kinds.tolist() == ["write", "read", "read", "write", "write"]
        assert trace.kinds.dtype == np.dtype("<U5")
        assert trace.metadata == {"application": "unit-test"}

    def test_from_requests_is_from_columns_of_the_requests(self, simple_requests):
        requests = list(reversed(simple_requests))
        by_requests = Trace.from_requests(requests)
        by_columns = Trace.from_columns(
            np.array([r.start for r in requests]),
            np.array([r.end for r in requests]),
            np.array([r.nbytes for r in requests]),
            np.array([r.rank for r in requests]),
            np.array([r.kind.value for r in requests]),
        )
        for column in ("starts", "ends", "nbytes", "ranks", "kinds"):
            assert getattr(by_requests, column).tobytes() == getattr(by_columns, column).tobytes()

    def test_empty_trace(self):
        trace = Trace.empty()
        assert trace.is_empty
        assert len(trace) == 0
        assert trace.volume == 0
        assert trace.duration == 0.0

    def test_len_and_iteration(self, simple_trace, simple_requests):
        assert len(simple_trace) == len(simple_requests)
        assert sorted(r.nbytes for r in simple_trace) == sorted(r.nbytes for r in simple_requests)

    def test_request_round_trip(self, simple_trace):
        first = simple_trace.request(0)
        assert isinstance(first, IORequest)
        assert first.start == simple_trace.t_start

    def test_mismatched_columns_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                starts=np.array([0.0, 1.0]),
                ends=np.array([1.0]),
                nbytes=np.array([1, 2]),
                ranks=np.array([0, 0]),
                kinds=np.array(["write", "write"]),
            )


class TestAggregates:
    def test_volume_and_duration(self, simple_trace):
        assert simple_trace.volume == 260 * MIB
        assert simple_trace.t_start == pytest.approx(0.0)
        assert simple_trace.t_end == pytest.approx(4.0)
        assert simple_trace.duration == pytest.approx(4.0)

    def test_rank_count(self, simple_trace):
        assert simple_trace.rank_count == 2

    def test_empty_trace_raises_on_boundaries(self):
        with pytest.raises(EmptyTraceError):
            _ = Trace.empty().t_start


class TestTransformations:
    def test_filter_kind(self, simple_trace):
        writes = simple_trace.filter_kind("write")
        reads = simple_trace.filter_kind(IOKind.READ)
        assert len(writes) == 3
        assert len(reads) == 1
        assert len(writes) + len(reads) == len(simple_trace)

    def test_filter_ranks(self, simple_trace):
        only_zero = simple_trace.filter_ranks([0])
        assert set(only_zero.ranks.tolist()) == {0}

    def test_window_keeps_overlapping_requests(self, simple_trace):
        window = simple_trace.window(0.75, 3.25)
        # Requests [0,1], [0.5,1.5], [3,4] and [3,3.5] all overlap (0.75, 3.25).
        assert len(window) == 4
        narrow = simple_trace.window(1.6, 2.9)
        assert narrow.is_empty

    def test_window_invalid_bounds(self, simple_trace):
        with pytest.raises(TraceError):
            simple_trace.window(2.0, 1.0)

    def test_completed_before_keeps_only_finished_requests(self, simple_trace):
        # Requests end at 1.0, 1.5, 4.0 and 3.5 respectively.
        completed = simple_trace.completed_before(1.5)
        assert len(completed) == 2
        assert completed.ends.max() <= 1.5
        assert simple_trace.completed_before(0.5).is_empty
        assert len(simple_trace.completed_before(4.0)) == len(simple_trace)

    def test_completed_before_boundary_is_inclusive(self, simple_trace):
        # A request ending exactly at t has been flushed at t.
        assert len(simple_trace.completed_before(1.0)) == 1

    def test_completed_before_on_empty_trace(self):
        empty = Trace.empty()
        assert empty.completed_before(10.0) is empty

    def test_completed_before_preserves_metadata(self, simple_trace):
        assert simple_trace.completed_before(1.5).metadata == simple_trace.metadata

    def test_shifted(self, simple_trace):
        moved = simple_trace.shifted(100.0)
        assert moved.t_start == pytest.approx(simple_trace.t_start + 100.0)
        assert moved.volume == simple_trace.volume

    def test_with_ground_truth_and_metadata(self, simple_trace):
        gt = GroundTruth(phases=(IOPhase(start=0.0, end=1.0, nbytes=1),))
        updated = simple_trace.with_ground_truth(gt).with_metadata(extra=1)
        assert updated.ground_truth is gt
        assert updated.metadata["extra"] == 1
        assert updated.metadata["application"] == "unit-test"


class TestSelections:
    """``window``, ``completed_before``, ``filter_kind`` and ``filter_ranks`` take rows
    of a validated trace: the rows are not checked again, the ground truth is
    carried and the metadata copied."""

    @pytest.fixture
    def labelled(self, simple_trace):
        gt = GroundTruth(phases=(IOPhase(start=0.0, end=1.0, nbytes=1),), mean_period=3.0)
        return simple_trace.with_ground_truth(gt)

    @pytest.fixture(
        params=[
            ("window", lambda t: t.window(1.2, 3.2)),
            ("completed_before", lambda t: t.completed_before(1.5)),
            ("filter_kind", lambda t: t.filter_kind("read")),
            ("filter_ranks", lambda t: t.filter_ranks([1])),
        ],
        ids=lambda param: param[0],
    )
    def selection(self, request, labelled):
        return request.param[1](labelled)

    def test_is_a_proper_subset(self, selection, labelled):
        assert 0 < len(selection) < len(labelled)
        for column in ("starts", "ends", "nbytes", "ranks", "kinds"):
            assert getattr(selection, column).dtype == getattr(labelled, column).dtype
            assert np.isin(getattr(selection, column), getattr(labelled, column)).all()

    def test_carries_the_ground_truth(self, selection, labelled):
        assert selection.ground_truth is labelled.ground_truth

    def test_owns_its_metadata(self, selection, labelled):
        assert selection.metadata == labelled.metadata
        assert selection.metadata is not labelled.metadata
        selection.metadata["extra"] = 1
        assert "extra" not in labelled.metadata

    def test_selects_the_rows_the_constructor_would_accept(self, selection):
        rebuilt = Trace(
            starts=selection.starts,
            ends=selection.ends,
            nbytes=selection.nbytes,
            ranks=selection.ranks,
            kinds=selection.kinds,
        )
        assert rebuilt.requests() == selection.requests()


class TestMergeAndConcatenate:
    def test_merge_traces_preserves_requests(self, simple_trace):
        other = simple_trace.shifted(10.0)
        merged = merge_traces([simple_trace, other])
        assert len(merged) == 2 * len(simple_trace)
        assert merged.volume == 2 * simple_trace.volume
        assert np.all(np.diff(merged.starts) >= 0)

    def test_merge_sorts_ties_on_start_as_from_columns_does(self):
        first = Trace.from_columns(
            np.array([0.0]), np.array([2.0]), np.array([1]), np.array([0]), np.array(["write"])
        )
        second = Trace.from_columns(
            np.array([0.0]), np.array([1.0]), np.array([1]), np.array([1]), np.array(["write"])
        )
        merged = merge_traces([first, second])
        assert merged.ends.tolist() == [1.0, 2.0]
        assert merged.ranks.tolist() == [1, 0]

    def test_merge_empty_list(self):
        assert merge_traces([]).is_empty

    def test_merge_keeps_single_ground_truth(self, simple_trace):
        gt = GroundTruth(phases=(IOPhase(start=0.0, end=1.0, nbytes=1),))
        merged = merge_traces([simple_trace.with_ground_truth(gt), simple_trace.shifted(50.0)])
        assert merged.ground_truth is gt

    def test_merge_drops_conflicting_ground_truths(self, simple_trace):
        gt = GroundTruth(phases=(IOPhase(start=0.0, end=1.0, nbytes=1),))
        merged = merge_traces(
            [simple_trace.with_ground_truth(gt), simple_trace.shifted(1.0).with_ground_truth(gt)]
        )
        assert merged.ground_truth is None
