"""Unit tests for the trace file formats: JSON Lines, MessagePack, Darshan, Recorder."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.constants import MIB
from repro.exceptions import TraceFormatError
from repro.trace import jsonl, msgpack
from repro.trace.columns import _encode_canonical
from repro.trace.darshan import (
    DarshanHeatmap,
    heatmap_from_trace,
    heatmap_to_signal,
    read_heatmap,
    write_heatmap,
)
from repro.trace.record import IOKind, IORequest
from repro.trace.recorder import read_recorder_directory, write_recorder_directory
from repro.trace.trace import Trace
from repro.tracer.tmio import TmioTracer, TraceFileFormat
from repro.workloads import hacc_io_trace


class TestJsonLines:
    def test_round_trip_single_flush(self, simple_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        flushes = jsonl.write_trace(simple_trace, path)
        assert flushes == 1
        restored = jsonl.read_trace(path)
        assert len(restored) == len(simple_trace)
        assert restored.volume == simple_trace.volume
        assert restored.metadata["application"] == "unit-test"

    def test_round_trip_multiple_flushes(self, simple_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        flushes = jsonl.write_trace(simple_trace, path, requests_per_flush=2)
        assert flushes == 2
        records = list(jsonl.iter_flushes(path))
        assert [r.flush_index for r in records] == [0, 1]
        assert jsonl.read_trace(path).volume == simple_trace.volume

    def test_writer_appends(self, simple_requests, tmp_path):
        path = tmp_path / "append.jsonl"
        writer = jsonl.JsonLinesTraceWriter(path)
        writer.append(simple_requests[:2], timestamp=1.5)
        writer.append(simple_requests[2:], timestamp=4.0)
        assert writer.flush_count == 2
        assert len(list(jsonl.iter_flushes(path))) == 2

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceFormatError):
            list(jsonl.iter_flushes(path))

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "incomplete.jsonl"
        path.write_text(json.dumps({"flush_index": 0}) + "\n")
        with pytest.raises(TraceFormatError):
            list(jsonl.iter_flushes(path))

    def test_empty_lines_skipped(self, simple_trace, tmp_path):
        path = tmp_path / "gaps.jsonl"
        jsonl.write_trace(simple_trace, path)
        with path.open("a") as handle:
            handle.write("\n\n")
        assert len(jsonl.read_trace(path)) == len(simple_trace)


class TestMsgpack:
    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            127,
            128,
            -1,
            -33,
            2**40,
            -(2**40),
            3.14159,
            "",
            "hello",
            "x" * 300,
            b"\x00\x01binary",
            [1, "two", 3.0, None],
            list(range(100)),
            {"a": 1, "nested": {"b": [1, 2, 3]}},
        ],
    )
    def test_scalar_and_container_round_trip(self, obj):
        assert msgpack.unpackb(msgpack.packb(obj)) == obj

    def test_large_collections_round_trip(self):
        big_list = list(range(70_000))
        assert msgpack.unpackb(msgpack.packb(big_list)) == big_list
        big_map = {f"key-{i}": i for i in range(20_000)}
        assert msgpack.unpackb(msgpack.packb(big_map)) == big_map

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            msgpack.packb(object())

    def test_trailing_bytes_rejected(self):
        data = msgpack.packb(1) + msgpack.packb(2)
        with pytest.raises(TraceFormatError):
            msgpack.unpackb(data)
        assert list(msgpack.unpack_stream(data)) == [1, 2]

    def test_truncated_data_rejected(self):
        data = msgpack.packb("hello world")
        with pytest.raises(TraceFormatError):
            msgpack.unpackb(data[:-3])

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\xc1",  # the one never-used type code
            b"\xa2\xff\xfe",  # a string that is not UTF-8
            b"\x81\x90\x01",  # a map keyed by an array
            b"\xcb\x00\x00",  # a float64 cut short
            b"\xdd\xff\xff\xff\xff\x01",  # four billion elements announced, one sent
            b"\x91" * 100_000 + b"\x01",  # nested past the interpreter's stack
        ],
        ids=["empty", "reserved", "utf8", "unhashable-key", "cut", "count", "depth"],
    )
    def test_malformed_input_raises_only_trace_format_error(self, data):
        for buffer in (data, memoryview(data)):
            with pytest.raises(TraceFormatError):
                msgpack.unpackb(buffer)

    def test_trace_round_trip(self, simple_trace, tmp_path):
        path = tmp_path / "trace.msgpack"
        msgpack.write_trace(simple_trace, path)
        restored = msgpack.read_trace(path)
        assert len(restored) == len(simple_trace)
        assert restored.volume == simple_trace.volume

    def test_writer_appends(self, simple_requests, tmp_path):
        path = tmp_path / "append.msgpack"
        writer = msgpack.MsgpackTraceWriter(path)
        writer.append(simple_requests[:1], timestamp=1.0)
        writer.append(simple_requests[1:], timestamp=4.0)
        assert len(list(msgpack.iter_flushes(path))) == 2

    def test_tmio_run_writes_the_bytes_packb_writes(self, tmp_path):
        """Golden: an online TMIO run over HACC-IO (reads and writes, ranks past
        127, 64 MiB requests, 128 per flush) writes, flush for flush, the bytes of
        ``packb(record.to_dict())`` — and writes them from the layout table."""
        trace = hacc_io_trace(ranks=160, loops=2, request_size=64 * MIB, seed=3)
        metadata = {"app": "hacc-io", "ranks": 160}
        path = tmp_path / "hacc.msgpack"
        tracer = TmioTracer(path=path, file_format=TraceFileFormat.MSGPACK, metadata=metadata)
        requests = trace.requests()
        expected = []
        for index, first in enumerate(range(0, len(requests), 128)):
            chunk = tuple(requests[first : first + 128])
            for request in chunk:
                tracer.record(request)
            tracer.flush()
            expected.append(
                jsonl.FlushRecord(index, max(r.end for r in chunk), chunk, dict(metadata))
            )
        assert {r.kind for r in requests} == set(IOKind)
        assert max(r.rank for r in requests) > 127
        assert len(expected) == 20
        assert path.read_bytes() == b"".join(msgpack.packb(r.to_dict()) for r in expected)
        assert all(_encode_canonical(r) == msgpack.packb(r.to_dict()) for r in expected)


class TestMsgpackBoundaries:
    """Boundary values of the wire format, through packb/unpackb and the framed codec."""

    BOUNDARY_VALUES = [
        ("uint64_max", 2**64 - 1),
        ("uint32_max_plus_one", 2**32),
        ("int64_min", -(2**63)),
        ("int32_min_minus_one", -(2**31) - 1),
        ("fixint_edges", [127, 128, -32, -33]),
        ("bin8_max", b"\xff" * 255),
        ("bin8_boundary", b"\x00" * 256),  # first size needing bin16
        ("bin16_max", b"\xab" * 0xFFFF),
        ("str8_at_255", "s" * 255),
        ("fixstr_max", "f" * 31),
        ("str16_boundary", "t" * 256),
    ]

    @pytest.mark.parametrize("name,value", BOUNDARY_VALUES, ids=[n for n, _ in BOUNDARY_VALUES])
    def test_packb_round_trip(self, name, value):
        assert msgpack.unpackb(msgpack.packb(value)) == value

    def test_uint64_overflow_rejected(self):
        with pytest.raises(OverflowError):
            msgpack.packb(2**64)
        with pytest.raises(OverflowError):
            msgpack.packb(-(2**63) - 1)

    def test_wire_format_sizes(self):
        # uint64: 1 type byte + 8 payload bytes.
        assert len(msgpack.packb(2**64 - 1)) == 9
        # int64 min: 1 type byte + 8 payload bytes.
        assert len(msgpack.packb(-(2**63))) == 9
        # bin8 at 255 bytes: 2 header bytes; bin16 at 256: 3 header bytes.
        assert len(msgpack.packb(b"x" * 255)) == 257
        assert len(msgpack.packb(b"x" * 256)) == 259
        # str8 at 255 bytes: 2 header bytes (0xd9 + length).
        packed = msgpack.packb("s" * 255)
        assert packed[0] == 0xD9 and len(packed) == 257

    def test_boundary_values_survive_framed_codec(self):
        """The same boundary values round-trip inside a framed flush's metadata."""
        from repro.trace.framing import FrameDecoder, encode_frame

        metadata = {name: value for name, value in self.BOUNDARY_VALUES}
        flush = jsonl.FlushRecord(
            flush_index=2**31,
            timestamp=1.5,
            requests=(IORequest(rank=0, start=0.0, end=1.0, nbytes=2**62),),
            metadata=metadata,
        )
        decoder = FrameDecoder()
        decoder.feed(encode_frame(flush, job="boundary"))
        (frame,) = list(decoder.frames())
        assert frame.flush.flush_index == 2**31
        assert frame.flush.requests[0].nbytes == 2**62
        restored = frame.flush.metadata
        for name, value in self.BOUNDARY_VALUES:
            assert restored[name] == value, name


class TestDarshanHeatmap:
    def make_heatmap(self) -> DarshanHeatmap:
        return DarshanHeatmap(
            bin_width=10.0,
            write_bins=np.array([0.0, 100.0, 0.0, 100.0]),
            read_bins=np.array([1.0, 2.0, 3.0, 4.0]),
            metadata={"application": "test"},
        )

    def test_basic_properties(self):
        heatmap = self.make_heatmap()
        assert heatmap.n_bins == 4
        assert heatmap.duration == pytest.approx(40.0)
        assert heatmap.sampling_frequency == pytest.approx(0.1)
        assert heatmap.total_bytes(kind="write") == pytest.approx(200.0)
        assert heatmap.total_bytes(kind="read") == pytest.approx(10.0)

    def test_file_round_trip(self, tmp_path):
        heatmap = self.make_heatmap()
        path = tmp_path / "profile.json"
        write_heatmap(heatmap, path)
        restored = read_heatmap(path)
        assert restored.bin_width == heatmap.bin_width
        assert np.allclose(restored.write_bins, heatmap.write_bins)
        assert restored.metadata == heatmap.metadata

    def test_invalid_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(TraceFormatError):
            read_heatmap(path)

    def test_heatmap_to_signal_sets_fs_to_bin_width(self):
        heatmap = self.make_heatmap()
        signal = heatmap_to_signal(heatmap)
        assert signal.sampling_frequency == pytest.approx(0.1)
        assert signal.volume() == pytest.approx(200.0)

    def test_heatmap_from_trace_conserves_volume(self, periodic_trace):
        heatmap = heatmap_from_trace(periodic_trace, bin_width=5.0)
        assert heatmap.total_bytes(kind="write") == pytest.approx(periodic_trace.volume, rel=1e-6)

    def test_mismatched_bins_rejected(self):
        with pytest.raises(TraceFormatError):
            DarshanHeatmap(
                bin_width=1.0,
                write_bins=np.array([1.0, 2.0]),
                read_bins=np.array([1.0]),
            )


class TestRecorder:
    def test_directory_round_trip(self, simple_trace, tmp_path):
        directory = write_recorder_directory(simple_trace, tmp_path / "recorder")
        restored = read_recorder_directory(directory)
        assert len(restored) == len(simple_trace)
        assert restored.volume == simple_trace.volume
        assert restored.metadata["application"] == "unit-test"
        # Kinds survive the round trip.
        assert len(restored.filter_kind(IOKind.READ)) == 1

    def test_unknown_functions_ignored(self, tmp_path):
        directory = tmp_path / "recorder"
        directory.mkdir()
        (directory / "rank_0.csv").write_text(
            "function,start,end,bytes\n"
            "MPI_File_open,0.0,0.1,0\n"
            "MPI_File_write_all,1.0,2.0,100\n"
        )
        trace = read_recorder_directory(directory)
        assert len(trace) == 1
        assert trace.volume == 100

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            read_recorder_directory(tmp_path / "does-not-exist")

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(TraceFormatError):
            read_recorder_directory(empty)

    def test_malformed_row_rejected(self, tmp_path):
        directory = tmp_path / "recorder"
        directory.mkdir()
        (directory / "rank_0.csv").write_text(
            "function,start,end,bytes\nMPI_File_write_all,zero,1.0,100\n"
        )
        with pytest.raises(TraceFormatError):
            read_recorder_directory(directory)
