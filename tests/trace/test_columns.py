"""Unit tests for the columnar flush container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TraceFormatError
from repro.trace.columns import FlushColumns, as_flush_columns, decode_flush_columns
from repro.trace.jsonl import FlushRecord
from repro.trace.msgpack import packb
from repro.trace.record import IOKind, IORequest
from repro.trace.trace import Trace


def make_record() -> FlushRecord:
    requests = (
        IORequest(rank=4, start=2.0, end=2.5, nbytes=100, kind=IOKind.READ),
        IORequest(rank=1, start=1.0, end=3.0, nbytes=2**40),
        IORequest(rank=0, start=1.0, end=3.0, nbytes=0),
        IORequest(rank=300, start=1.0, end=1.5, nbytes=7),
    )
    return FlushRecord(flush_index=3, timestamp=4.0, requests=requests, metadata={"app": "x"})


class TestFlushColumns:
    def test_columns_keep_wire_order_and_dtypes(self):
        columns = FlushColumns.from_record(make_record())
        assert len(columns) == 4
        assert columns.starts.tolist() == [2.0, 1.0, 1.0, 1.0]
        assert columns.ranks.tolist() == [4, 1, 0, 300]
        assert columns.kinds.tolist() == ["read", "write", "write", "write"]
        assert columns.starts.dtype == columns.ends.dtype == np.float64
        assert columns.nbytes.dtype == columns.ranks.dtype == np.int64
        assert columns.kinds.dtype == np.dtype("<U8")

    def test_equal_to_the_record_and_to_itself(self):
        record = make_record()
        columns = FlushColumns.from_record(record)
        assert columns == record and record == columns
        assert columns == FlushColumns.from_record(record)
        assert columns.to_record() == record
        other = FlushRecord(flush_index=3, timestamp=4.0, requests=record.requests[:3])
        assert columns != other and other != columns
        assert columns != FlushColumns.from_record(other)
        assert columns != "a flush"

    def test_requests_are_built_once_on_demand(self):
        columns = decode_flush_columns(packb(make_record().to_dict()))
        assert "requests" not in vars(columns)
        assert columns.requests == make_record().requests
        assert columns.requests is columns.requests

    def test_time_ordered_matches_trace_from_requests(self):
        record = make_record()
        ordered = FlushColumns.from_record(record).time_ordered()
        reference = Trace.from_requests(record.requests)
        for name in ("starts", "ends", "nbytes", "ranks", "kinds"):
            assert getattr(ordered, name).tolist() == getattr(reference, name).tolist()

    def test_as_flush_columns_converts_once(self):
        columns = as_flush_columns(make_record())
        assert isinstance(columns, FlushColumns)
        assert as_flush_columns(columns) is columns

    def test_empty_flush(self):
        columns = FlushColumns.from_record(FlushRecord(flush_index=0, timestamp=1.0, requests=()))
        assert len(columns) == 0 and columns.requests == ()
        assert [len(column) for column in columns.time_ordered()] == [0] * 5

    @pytest.mark.parametrize(
        "change",
        [
            {"ends": np.array([0.5])},
            {"nbytes": np.array([-1])},
            {"ranks": np.array([-1])},
            {"ranks": np.array([0, 1])},
        ],
    )
    def test_constructor_validates_like_iorequest(self, change):
        columns = {
            "starts": np.array([1.0]),
            "ends": np.array([2.0]),
            "nbytes": np.array([8]),
            "ranks": np.array([0]),
            "kinds": np.array(["write"]),
        }
        FlushColumns(flush_index=0, timestamp=1.0, metadata={}, **columns)
        with pytest.raises(TraceFormatError):
            FlushColumns(flush_index=0, timestamp=1.0, metadata={}, **{**columns, **change})

    def test_record_with_an_integer_beyond_int64_is_rejected(self):
        request = IORequest(rank=0, start=0.0, end=1.0, nbytes=2**63)
        with pytest.raises(TraceFormatError):
            FlushColumns.from_record(
                FlushRecord(flush_index=0, timestamp=1.0, requests=(request,))
            )
