"""Trace substrate: request records, traces, bandwidth signals, file formats."""

from repro.trace.bandwidth import BandwidthSignal, bandwidth_signal, phase_boundaries
from repro.trace.columns import FlushColumns, decode_flush_columns
from repro.trace.darshan import (
    DarshanHeatmap,
    heatmap_from_trace,
    heatmap_to_signal,
    read_heatmap,
    write_heatmap,
)
from repro.trace.framing import (
    FlushFrame,
    FrameDecoder,
    FrameReader,
    FrameWriter,
    encode_frame,
    iter_frames,
)
from repro.trace.jsonl import (
    FlushRecord,
    JsonLinesTraceWriter,
    flushes_to_trace,
    trace_to_flushes,
)
from repro.trace.jsonl import iter_flushes as iter_jsonl_flushes
from repro.trace.jsonl import read_trace as read_jsonl_trace
from repro.trace.jsonl import write_trace as write_jsonl_trace
from repro.trace.msgpack import MsgpackTraceWriter, packb, unpackb
from repro.trace.msgpack import iter_flushes as iter_msgpack_flushes
from repro.trace.msgpack import read_trace as read_msgpack_trace
from repro.trace.msgpack import write_trace as write_msgpack_trace
from repro.trace.record import GroundTruth, IOKind, IOPhase, IORequest
from repro.trace.recorder import read_recorder_directory, write_recorder_directory
from repro.trace.sampling import (
    DiscreteSignal,
    TraceWindow,
    discretize_signal,
    discretize_trace,
    discretize_windows,
    recommend_sampling_frequency,
)
from repro.trace.trace import Trace, merge_traces

__all__ = [
    "BandwidthSignal",
    "bandwidth_signal",
    "phase_boundaries",
    "FlushColumns",
    "decode_flush_columns",
    "DarshanHeatmap",
    "heatmap_from_trace",
    "heatmap_to_signal",
    "read_heatmap",
    "write_heatmap",
    "FlushFrame",
    "FrameDecoder",
    "FrameReader",
    "FrameWriter",
    "encode_frame",
    "iter_frames",
    "FlushRecord",
    "JsonLinesTraceWriter",
    "flushes_to_trace",
    "trace_to_flushes",
    "iter_jsonl_flushes",
    "read_jsonl_trace",
    "write_jsonl_trace",
    "MsgpackTraceWriter",
    "packb",
    "unpackb",
    "iter_msgpack_flushes",
    "read_msgpack_trace",
    "write_msgpack_trace",
    "GroundTruth",
    "IOKind",
    "IOPhase",
    "IORequest",
    "read_recorder_directory",
    "write_recorder_directory",
    "DiscreteSignal",
    "discretize_signal",
    "discretize_trace",
    "discretize_windows",
    "TraceWindow",
    "recommend_sampling_frequency",
    "Trace",
    "merge_traces",
]
