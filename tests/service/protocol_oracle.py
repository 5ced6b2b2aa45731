"""Frozen oracle: the 38 hand-written FTC1 body parsers the table-driven one replaced.

A verbatim copy of ``repro.service.protocol`` as it stood at commit ``8053a70``:
the private helpers, the body of every per-class ``from_payload`` (each now a
function ``(cls, payload)`` registered under the class it parsed),
``Message.to_payload`` and the envelope packing of ``encode_message`` — less
the ring-weight fields (``BeginHandover.old_weights`` / ``new_weights``,
``RegisterShard.weight``) and their helper, which left the messages
themselves.
``tests/service/test_protocol.py`` holds :meth:`Message.from_payload` to these;
nothing under ``src/`` imports them.  Do not edit to follow a change of the
parser: a difference is either a defect or a ledgered behaviour change, and
the ledger lives in the test.

:data:`REJECTS` is what ``decode_body`` mapped to ``ProtocolError`` at that
commit; anything else a parser raised went through ``Channel.recv`` untyped.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Mapping
from dataclasses import fields
from typing import Any

from repro.exceptions import ProtocolError
from repro.service import protocol as proto
from repro.service.protocol import CHUNK_KINDS, MAX_CHUNK_BYTES
from repro.trace.msgpack import packb

#: message class -> its frozen parser.
PARSERS: dict[type[proto.Message], Callable[[Mapping], proto.Message]] = {}
#: The exceptions the frozen ``decode_body`` turned into ``ProtocolError``.
REJECTS = (ProtocolError, KeyError, TypeError, ValueError)


def frozen_parse(cls: type[proto.Message], payload: Mapping) -> proto.Message:
    """``cls.from_payload(payload)`` as the hand-written parser of ``cls`` read it."""
    return PARSERS[cls](cls, payload)


def frozen_encode(message: proto.Message) -> bytes:
    """``encode_message``: the field map in declaration order, enveloped."""
    code = next(code for code, cls in proto.MESSAGE_TYPES.items() if cls is type(message))
    body = packb({f.name: getattr(message, f.name) for f in fields(message)})
    return struct.pack(">4sBI", b"FTC1", code, len(body)) + body


def _parses(cls: type[proto.Message]):
    def register(parser):
        PARSERS[cls] = parser
        return parser

    return register


# --------------------------------------------------------------------- #
# the five helpers, verbatim
# --------------------------------------------------------------------- #
def _opt_int(value: Any) -> int | None:
    return None if value is None else int(value)


def _str_tuple(value: Any) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"expected a string list, got {type(value).__name__}")
    return tuple(str(item) for item in value)


def _dict_tuple(value: Any) -> tuple[dict, ...]:
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"expected a map list, got {type(value).__name__}")
    out = []
    for item in value:
        if not isinstance(item, dict):
            raise ProtocolError(f"expected a map, got {type(item).__name__}")
        out.append(item)
    return tuple(out)


def _require_dict(value: Any, field: str) -> dict:
    if not isinstance(value, dict):
        raise ProtocolError(f"field {field!r} must be a map, got {type(value).__name__}")
    return value


# --------------------------------------------------------------------- #
# the 38 from_payload bodies, verbatim
# --------------------------------------------------------------------- #
@_parses(proto.Hello)
def _Hello(cls, payload: Mapping) -> Any:
    versions = payload.get("versions")
    if not isinstance(versions, (list, tuple)) or not versions:
        raise ProtocolError("hello must offer at least one protocol version")
    return cls(
        versions=tuple(int(v) for v in versions),
        token=_opt_int(payload.get("token")),
        client=str(payload.get("client", "")),
    )


@_parses(proto.HelloReply)
def _HelloReply(cls, payload: Mapping) -> Any:
    return cls(
        version=int(payload["version"]),
        server=str(payload.get("server", "")),
        shards=int(payload.get("shards", 0)),
    )


@_parses(proto.Error)
def _Error(cls, payload: Mapping) -> Any:
    return cls(message=str(payload["message"]), code=str(payload.get("code", "error")))


@_parses(proto.SubmitFrames)
def _SubmitFrames(cls, payload: Mapping) -> Any:
    data = payload["data"]
    if not isinstance(data, (bytes, bytearray)):
        raise ProtocolError(f"frame data must be binary, got {type(data).__name__}")
    return cls(data=bytes(data))


@_parses(proto.SubmitReply)
def _SubmitReply(cls, payload: Mapping) -> Any:
    return cls(frames=int(payload["frames"]))


@_parses(proto.Pump)
def _Pump(cls, payload: Mapping) -> Any:
    return cls(expected_bytes=_opt_int(payload.get("expected_bytes")))


@_parses(proto.PumpReply)
def _PumpReply(cls, payload: Mapping) -> Any:
    return cls(
        submitted=int(payload["submitted"]),
        updates=_dict_tuple(payload.get("updates", ())),
    )


@_parses(proto.Drain)
def _Drain(cls, payload: Mapping) -> Any:
    return cls(expected_bytes=_opt_int(payload.get("expected_bytes")))


@_parses(proto.DrainReply)
def _DrainReply(cls, payload: Mapping) -> Any:
    return cls(updates=_dict_tuple(payload.get("updates", ())))


@_parses(proto.FinishJob)
def _FinishJob(cls, payload: Mapping) -> Any:
    return cls(job=str(payload["job"]))


@_parses(proto.FinishJobReply)
def _FinishJobReply(cls, payload: Mapping) -> Any:
    return cls(job=str(payload["job"]))


@_parses(proto.Stats)
def _Stats(cls, payload: Mapping) -> Any:
    return cls()


@_parses(proto.StatsReply)
def _StatsReply(cls, payload: Mapping) -> Any:
    return cls(stats=_require_dict(payload["stats"], "stats"))


@_parses(proto.Snapshot)
def _Snapshot(cls, payload: Mapping) -> Any:
    return cls(expected_bytes=_opt_int(payload.get("expected_bytes")))


@_parses(proto.RestoreReply)
def _RestoreReply(cls, payload: Mapping) -> Any:
    return cls(restored=int(payload["restored"]))


@_parses(proto.Subscribe)
def _Subscribe(cls, payload: Mapping) -> Any:
    jobs = payload.get("jobs")
    return cls(jobs=None if jobs is None else _str_tuple(jobs))


@_parses(proto.SubscribeReply)
def _SubscribeReply(cls, payload: Mapping) -> Any:
    return cls(subscription=int(payload["subscription"]))


@_parses(proto.PredictionEvent)
def _PredictionEvent(cls, payload: Mapping) -> Any:
    return cls(update=_require_dict(payload["update"], "update"))


@_parses(proto.SnapshotChunk)
def _SnapshotChunk(cls, payload: Mapping) -> Any:
    kind = str(payload["kind"])
    if kind not in CHUNK_KINDS:
        raise ProtocolError(f"unknown snapshot-chunk kind {kind!r}")
    data = payload["data"]
    if not isinstance(data, (bytes, bytearray)):
        raise ProtocolError(f"chunk data must be binary, got {type(data).__name__}")
    if len(data) > MAX_CHUNK_BYTES:
        raise ProtocolError(
            f"snapshot chunk of {len(data)} bytes exceeds the {MAX_CHUNK_BYTES}-byte bound"
        )
    seq = int(payload["seq"])
    if seq < 0:
        raise ProtocolError(f"chunk seq must be >= 0, got {seq}")
    return cls(kind=kind, seq=seq, data=bytes(data), last=bool(payload.get("last", False)))


@_parses(proto.ResizeShards)
def _ResizeShards(cls, payload: Mapping) -> Any:
    n_shards = int(payload["n_shards"])
    if n_shards < 1:
        raise ProtocolError(f"n_shards must be >= 1, got {n_shards}")
    return cls(n_shards=n_shards)


@_parses(proto.ResizeShardsReply)
def _ResizeShardsReply(cls, payload: Mapping) -> Any:
    return cls(
        n_shards=int(payload["n_shards"]),
        moved_sessions=int(payload.get("moved_sessions", 0)),
        moved_jobs=_str_tuple(payload.get("moved_jobs", ())),
    )


@_parses(proto.ExtractJobs)
def _ExtractJobs(cls, payload: Mapping) -> Any:
    return cls(
        jobs=_str_tuple(payload["jobs"]),
        expected_bytes=_opt_int(payload.get("expected_bytes")),
    )


@_parses(proto.MetricsReport)
def _MetricsReport(cls, payload: Mapping) -> Any:
    return cls(metrics=_require_dict(payload.get("metrics", {}), "metrics"))


@_parses(proto.BeginHandover)
def _BeginHandover(cls, payload: Mapping) -> Any:
    old_shards = int(payload["old_shards"])
    new_shards = int(payload["new_shards"])
    replicas = int(payload["replicas"])
    if old_shards < 1 or new_shards < 1:
        raise ProtocolError(
            f"handover shard counts must be >= 1, got {old_shards} -> {new_shards}"
        )
    if replicas < 1:
        raise ProtocolError(f"replicas must be >= 1, got {replicas}")
    return cls(
        shard=int(payload["shard"]),
        old_shards=old_shards,
        new_shards=new_shards,
        replicas=replicas,
    )


@_parses(proto.BeginHandoverReply)
def _BeginHandoverReply(cls, payload: Mapping) -> Any:
    return cls(shard=int(payload["shard"]))


@_parses(proto.CompleteHandover)
def _CompleteHandover(cls, payload: Mapping) -> Any:
    drops = _require_dict(payload.get("drop_counts", {}), "drop_counts")
    return cls(
        expected_bytes=_opt_int(payload.get("expected_bytes")),
        drop_counts={str(job): int(count) for job, count in drops.items()},
    )


@_parses(proto.CompleteHandoverReply)
def _CompleteHandoverReply(cls, payload: Mapping) -> Any:
    return cls(
        replayed=int(payload.get("replayed", 0)),
        dropped=int(payload.get("dropped", 0)),
    )


@_parses(proto.AbortHandover)
def _AbortHandover(cls, payload: Mapping) -> Any:
    return cls(expected_bytes=_opt_int(payload.get("expected_bytes")))


@_parses(proto.AbortHandoverReply)
def _AbortHandoverReply(cls, payload: Mapping) -> Any:
    return cls(discarded=int(payload.get("discarded", 0)))


@_parses(proto.ReapFinished)
def _ReapFinished(cls, payload: Mapping) -> Any:
    return cls(forget_predictions=bool(payload.get("forget_predictions", False)))


@_parses(proto.ReapFinishedReply)
def _ReapFinishedReply(cls, payload: Mapping) -> Any:
    return cls(jobs=tuple(str(job) for job in payload.get("jobs", ())))


@_parses(proto.Close)
def _Close(cls, payload: Mapping) -> Any:
    return cls()


@_parses(proto.CloseReply)
def _CloseReply(cls, payload: Mapping) -> Any:
    return cls(closed=bool(payload.get("closed", True)))


@_parses(proto.RegisterShard)
def _RegisterShard(cls, payload: Mapping) -> Any:
    return cls(
        name=str(payload.get("name", "")),
        host=str(payload.get("host", "")),
        pid=int(payload.get("pid", 0)),
        cpu_count=int(payload.get("cpu_count", 0)),
    )


@_parses(proto.RegisterShardReply)
def _RegisterShardReply(cls, payload: Mapping) -> Any:
    return cls(
        shard=int(payload["shard"]),
        config=_require_dict(payload.get("config", {}), "config"),
        data_key=str(payload.get("data_key", "")),
    )


@_parses(proto.AttachChannel)
def _AttachChannel(cls, payload: Mapping) -> Any:
    channel = str(payload.get("channel", "data"))
    if channel not in ("data", "read"):
        raise ProtocolError(f"unknown channel kind {channel!r}")
    return cls(key=str(payload.get("key", "")), channel=channel)


@_parses(proto.Heartbeat)
def _Heartbeat(cls, payload: Mapping) -> Any:
    return cls(seq=int(payload.get("seq", 0)), sent_at=float(payload.get("sent_at", 0.0)))


@_parses(proto.HeartbeatReply)
def _HeartbeatReply(cls, payload: Mapping) -> Any:
    return cls(seq=int(payload.get("seq", 0)), sent_at=float(payload.get("sent_at", 0.0)))
