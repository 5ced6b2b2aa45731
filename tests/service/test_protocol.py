"""Unit and property tests of the versioned control-plane protocol.

The hypothesis round-trips cover every registered message type: whatever a
peer encodes, the decoder must rebuild bit-identically — including through
arbitrary TCP-style re-chunking of the byte stream, read by the one stream
reader there is (:class:`~repro.service.transport.Channel`).  Corruption (bad
magic, unknown type codes, oversized bodies, undecodable payloads) must raise
:class:`~repro.exceptions.ProtocolError` instead of mis-framing, and a
truncated message must simply stay in the channel — never produce garbage,
never busy-loop.

The one body parser, :meth:`~repro.service.protocol.Message.from_payload`, is
held to a frozen copy of the 38 hand-written parsers it replaced
(``protocol_oracle.py``) and to the promise that no body raises anything but
``ProtocolError``; ``REPRO_SOAK=1`` widens the first of the two 50-fold
(``REPRO_SOAK_SEED`` seeds it, as it does the chaos soaks).
"""

from __future__ import annotations

import os
import socket
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from protocol_oracle import PARSERS, REJECTS, frozen_encode, frozen_parse

from repro.exceptions import ProtocolError
from repro.service import protocol as proto
from repro.service.transport import Channel
from repro.trace.msgpack import packb

# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
token_st = st.one_of(st.none(), st.integers(min_value=0, max_value=15))
name_st = st.text(max_size=16)
job_st = st.text(min_size=1, max_size=16)
scalar_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
    st.binary(max_size=12),
)
flat_map_st = st.dictionaries(st.text(max_size=8), scalar_st, max_size=4)
nested_map_st = st.dictionaries(
    st.text(max_size=8),
    st.one_of(scalar_st, st.lists(scalar_st, max_size=3), flat_map_st),
    max_size=4,
)
update_st = st.fixed_dictionaries(
    {
        "job": job_st,
        "index": st.integers(min_value=0, max_value=2**20),
        "time": st.floats(allow_nan=False, allow_infinity=False, width=64),
        "frequency": st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False)),
        "period": st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False)),
        "confidence": st.floats(0.0, 1.0, allow_nan=False),
        "latency": st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
    }
)
updates_st = st.lists(update_st, max_size=3).map(tuple)
expected_bytes_st = st.one_of(st.none(), st.integers(min_value=0, max_value=2**48))

#: The field strategies of every registered message class;
#: ``test_every_registered_message_has_a_strategy`` holds the keys to the
#: registry, so a message added without an entry here fails.
FIELD_STRATEGIES: dict[type[proto.Message], dict[str, st.SearchStrategy]] = {
    proto.Hello: dict(
        versions=st.lists(st.integers(1, 255), min_size=1, max_size=4).map(tuple),
        token=token_st,
        client=name_st,
    ),
    proto.HelloReply: dict(
        version=st.integers(1, 255),
        server=name_st,
        shards=st.integers(0, 64),
    ),
    proto.Error: dict(message=st.text(max_size=64), code=st.text(min_size=1, max_size=16)),
    proto.SubmitFrames: dict(data=st.binary(max_size=256)),
    proto.SubmitReply: dict(frames=st.integers(0, 2**20)),
    proto.Pump: dict(expected_bytes=expected_bytes_st),
    proto.PumpReply: dict(submitted=st.integers(0, 2**20), updates=updates_st),
    proto.Drain: dict(expected_bytes=expected_bytes_st),
    proto.DrainReply: dict(updates=updates_st),
    proto.Stats: dict(),
    proto.StatsReply: dict(stats=nested_map_st),
    proto.Snapshot: dict(expected_bytes=expected_bytes_st),
    proto.RestoreReply: dict(restored=st.integers(0, 2**20)),
    proto.Subscribe: dict(
        jobs=st.one_of(st.none(), st.lists(job_st, max_size=3).map(tuple)),
    ),
    proto.SubscribeReply: dict(subscription=st.integers(0, 2**31 - 1)),
    proto.PredictionEvent: dict(update=update_st),
    proto.FinishJob: dict(job=job_st),
    proto.FinishJobReply: dict(job=job_st),
    proto.Close: dict(),
    proto.CloseReply: dict(closed=st.booleans()),
    # --- protocol version 2 ------------------------------------------- #
    proto.SnapshotChunk: dict(
        kind=st.sampled_from(proto.CHUNK_KINDS),
        seq=st.integers(0, 2**20),
        data=st.binary(max_size=256),
        last=st.booleans(),
    ),
    proto.ResizeShards: dict(n_shards=st.integers(1, 64)),
    proto.ResizeShardsReply: dict(
        n_shards=st.integers(1, 64),
        moved_sessions=st.integers(0, 2**20),
        moved_jobs=st.lists(job_st, max_size=3).map(tuple),
    ),
    proto.ExtractJobs: dict(
        jobs=st.lists(job_st, max_size=4).map(tuple),
        expected_bytes=expected_bytes_st,
    ),
    proto.MetricsReport: dict(metrics=nested_map_st),
    # --- zero-pause handover (double-routed migrations) ----------------- #
    proto.BeginHandover: dict(
        shard=st.integers(0, 63),
        old_shards=st.integers(1, 64),
        new_shards=st.integers(1, 64),
        replicas=st.integers(1, 256),
    ),
    proto.BeginHandoverReply: dict(shard=st.integers(0, 63)),
    proto.CompleteHandover: dict(
        expected_bytes=expected_bytes_st,
        drop_counts=st.dictionaries(job_st, st.integers(0, 2**20), max_size=4),
    ),
    proto.CompleteHandoverReply: dict(
        replayed=st.integers(0, 2**20),
        dropped=st.integers(0, 2**20),
    ),
    proto.AbortHandover: dict(expected_bytes=expected_bytes_st),
    proto.AbortHandoverReply: dict(discarded=st.integers(0, 2**20)),
    proto.ReapFinished: dict(forget_predictions=st.booleans()),
    proto.ReapFinishedReply: dict(jobs=st.lists(job_st, max_size=4).map(tuple)),
    # --- multi-host federation ----------------------------------------- #
    proto.RegisterShard: dict(
        name=name_st,
        host=name_st,
        pid=st.integers(0, 2**22),
        cpu_count=st.integers(0, 256),
    ),
    proto.RegisterShardReply: dict(
        shard=st.integers(0, 63),
        config=nested_map_st,
        data_key=st.text(max_size=32),
    ),
    proto.AttachChannel: dict(
        key=st.text(max_size=32),
        channel=st.sampled_from(["data", "read"]),
    ),
    proto.Heartbeat: dict(
        seq=st.integers(0, 2**31 - 1),
        sent_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
    proto.HeartbeatReply: dict(
        seq=st.integers(0, 2**31 - 1),
        sent_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
}
message_st = st.one_of(*(st.builds(cls, **kw) for cls, kw in FIELD_STRATEGIES.items()))


def _normalize(message: proto.Message) -> proto.Message:
    """Canonical form for equality: msgpack decodes arrays as lists."""
    return type(message).from_payload(
        {k: _as_lists(v) for k, v in message.to_payload().items()}
    )


def _as_lists(value):
    if isinstance(value, tuple):
        return [_as_lists(v) for v in value]
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


@contextmanager
def dribbled_channel():
    """A channel and the raw socket a test dribbles its byte stream into."""
    ours, writer = socket.socketpair()
    channel = Channel(ours)
    try:
        yield channel, writer
    finally:
        channel.close()
        writer.close()


def whole_messages(channel: Channel) -> list:
    """Every message the bytes written so far complete (a socketpair delivers
    synchronously, so a zero deadline sees all of them)."""
    messages = []
    while True:
        try:
            messages.append(channel.recv(0))
        except TimeoutError:
            return messages


# --------------------------------------------------------------------- #
# property tests
# --------------------------------------------------------------------- #
class TestRoundTrip:
    @given(message=message_st)
    @settings(max_examples=300, deadline=None)
    def test_every_message_round_trips(self, message):
        decoded = proto.decode_message(proto.encode_message(message))
        assert type(decoded) is type(message)
        assert decoded == _normalize(message)

    @given(
        messages=st.lists(message_st, min_size=1, max_size=5),
        chunk=st.integers(min_value=1, max_value=37),
    )
    @settings(max_examples=100, deadline=None)
    def test_rechunked_stream_decodes_identically(self, messages, chunk):
        stream = b"".join(proto.encode_message(m) for m in messages)
        decoded = []
        with dribbled_channel() as (channel, writer):
            for start in range(0, len(stream), chunk):
                writer.sendall(stream[start : start + chunk])
                decoded.extend(whole_messages(channel))
            assert len(channel._partial) == 0
        assert [type(m) for m in decoded] == [type(m) for m in messages]
        assert decoded == [_normalize(m) for m in messages]

    @given(message=message_st, cut=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_truncated_message_stays_buffered(self, message, cut):
        encoded = proto.encode_message(message)
        cut = min(cut, len(encoded) - 1)
        with dribbled_channel() as (channel, writer):
            writer.sendall(encoded[:-cut])
            assert whole_messages(channel) == []
            assert len(channel._partial) == len(encoded) - cut
            writer.sendall(encoded[-cut:])
            assert whole_messages(channel) == [_normalize(message)]


class TestVersioning:
    def test_current_version_is_supported(self):
        assert proto.PROTOCOL_VERSION in proto.SUPPORTED_VERSIONS
        assert proto.SUPPORTED_VERSIONS == (3,)

    def test_negotiation_picks_highest_common(self):
        assert proto.negotiate_version([3]) == 3
        assert proto.negotiate_version([2, 3]) == 3
        assert proto.negotiate_version([3, 99]) == 3
        assert proto.negotiate_version(proto.SUPPORTED_VERSIONS) == proto.PROTOCOL_VERSION

    def test_negotiation_rejects_unknown_only(self):
        # The retired v1 and v2 are as unknown as a generation from the future.
        assert proto.negotiate_version([1]) is None
        assert proto.negotiate_version([2]) is None
        assert proto.negotiate_version([1, 2, 99]) is None
        assert proto.negotiate_version([99]) is None
        assert proto.negotiate_version([0, 4, 255]) is None
        assert proto.negotiate_version([]) is None

    def test_answer_hello_is_the_one_negotiation(self):
        accepted = proto.answer_hello(
            proto.Hello(versions=(2, 3), token=5), token=5, server="s", shards=4
        )
        assert accepted == proto.HelloReply(version=3, server="s", shards=4)
        # No token configured: whatever the peer presents is accepted.
        assert isinstance(
            proto.answer_hello(proto.Hello(token=9), token=None, server="s"),
            proto.HelloReply,
        )
        old = proto.answer_hello(proto.Hello(versions=(2,), token=5), token=5, server="s")
        assert isinstance(old, proto.Error) and old.code == "unsupported-version"
        for presented in (None, 6):
            wrong = proto.answer_hello(proto.Hello(token=presented), token=5, server="s")
            assert isinstance(wrong, proto.Error) and wrong.code == "unauthorized"

    def test_hello_requires_versions(self):
        with pytest.raises(ProtocolError):
            proto.Hello.from_payload({"versions": []})
        with pytest.raises(ProtocolError):
            proto.Hello.from_payload({"token": 3})


class TestCorruption:
    def test_bad_magic_raises(self):
        encoded = bytearray(proto.encode_message(proto.Stats()))
        encoded[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            proto.decode_message(bytes(encoded))

    def test_unknown_type_code_raises(self):
        encoded = bytearray(proto.encode_message(proto.Stats()))
        encoded[4] = 0xEE
        with pytest.raises(ProtocolError, match="type code"):
            proto.decode_message(bytes(encoded))

    def test_oversized_body_length_raises_immediately(self):
        import struct

        header = struct.pack(">4sBI", proto.PROTOCOL_MAGIC, 10, proto.MAX_MESSAGE_BYTES + 1)
        # The length field alone condemns the stream: a reader holding just
        # the header never waits for a body that would never arrive (the
        # anti-deadlock property) ...
        with pytest.raises(ProtocolError, match="exceeds the limit"):
            proto.decode_header(header)
        # ... and that reader is the channel.
        with dribbled_channel() as (channel, writer):
            writer.sendall(header)
            with pytest.raises(ProtocolError, match="exceeds the limit"):
                channel.recv(5.0)

    def test_undecodable_body_raises(self):
        import struct

        body = b"\xc1\xc1\xc1"  # 0xC1 is the one never-used msgpack byte
        header = struct.pack(">4sBI", proto.PROTOCOL_MAGIC, 10, len(body))
        with pytest.raises(ProtocolError):
            proto.decode_message(header + body)
        # Through the channel the fault costs that one envelope only.
        with dribbled_channel() as (channel, writer):
            writer.sendall(header + body + proto.encode_message(proto.Stats()))
            with pytest.raises(ProtocolError):
                channel.recv(5.0)
            assert channel.recv(5.0) == proto.Stats()

    def test_non_map_body_raises(self):
        import struct

        from repro.trace.msgpack import packb

        body = packb([1, 2, 3])
        header = struct.pack(">4sBI", proto.PROTOCOL_MAGIC, 10, len(body))
        with pytest.raises(ProtocolError, match="must be a map"):
            proto.decode_message(header + body)

    def test_decode_message_rejects_trailing_bytes(self):
        encoded = proto.encode_message(proto.Stats())
        with pytest.raises(ProtocolError):
            proto.decode_message(encoded + b"x")
        with pytest.raises(ProtocolError):
            proto.decode_message(encoded[:-1])

    def test_registry_codes_are_stable(self):
        # Codes are wire format: changing one breaks cross-version peers.
        assert proto.MESSAGE_TYPES[1] is proto.Hello
        assert proto.MESSAGE_TYPES[3] is proto.Error
        assert proto.MESSAGE_TYPES[12] is proto.Snapshot
        assert proto.MESSAGE_TYPES[15] is proto.RestoreReply
        assert proto.MESSAGE_TYPES[18] is proto.PredictionEvent
        # The v2 block is append-only on top of the 22 v1 codes.
        assert proto.MESSAGE_TYPES[23] is proto.SnapshotChunk
        assert proto.MESSAGE_TYPES[24] is proto.ResizeShards
        assert proto.MESSAGE_TYPES[25] is proto.ResizeShardsReply
        assert proto.MESSAGE_TYPES[26] is proto.ExtractJobs
        assert proto.MESSAGE_TYPES[28] is proto.MetricsReport
        # The zero-pause handover block (double-routed migrations).
        assert proto.MESSAGE_TYPES[29] is proto.BeginHandover
        assert proto.MESSAGE_TYPES[30] is proto.BeginHandoverReply
        assert proto.MESSAGE_TYPES[31] is proto.CompleteHandover
        assert proto.MESSAGE_TYPES[32] is proto.CompleteHandoverReply
        assert proto.MESSAGE_TYPES[33] is proto.AbortHandover
        assert proto.MESSAGE_TYPES[34] is proto.AbortHandoverReply
        assert proto.MESSAGE_TYPES[35] is proto.ReapFinished
        assert proto.MESSAGE_TYPES[36] is proto.ReapFinishedReply
        # The multi-host federation block (remote shards, registry, liveness).
        assert proto.MESSAGE_TYPES[37] is proto.RegisterShard
        assert proto.MESSAGE_TYPES[38] is proto.RegisterShardReply
        assert proto.MESSAGE_TYPES[39] is proto.AttachChannel
        assert proto.MESSAGE_TYPES[40] is proto.Heartbeat
        assert proto.MESSAGE_TYPES[41] is proto.HeartbeatReply
        # 13, 14 and 27 (v2's whole-state bodies) are retired, never reused.
        assert sorted(proto.MESSAGE_TYPES) == [
            code for code in range(1, 42) if code not in (13, 14, 27)
        ]
        assert len(proto.MESSAGE_TYPES) == 38

    def test_retired_codes_are_rejected_as_unknown(self):
        import struct

        from repro.trace.msgpack import packb

        # What a v2 peer would send: a whole state in one SnapshotReply (13),
        # Restore (14) or ExtractJobsReply (27) body.
        body = packb({"state": {"sessions": {}}})
        for code in (13, 14, 27):
            envelope = struct.pack(">4sBI", proto.PROTOCOL_MAGIC, code, len(body)) + body
            with pytest.raises(ProtocolError, match=f"type code {code}"):
                proto.decode_message(envelope)
        assert not hasattr(proto, "Restore")


class TestChunkedTransfer:
    @given(
        state=nested_map_st,
        max_chunk=st.integers(min_value=1, max_value=64),
        kind=st.sampled_from(proto.CHUNK_KINDS),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunk_round_trip(self, state, max_chunk, kind):
        chunks = list(proto.iter_state_chunks(state, kind=kind, max_chunk=max_chunk))
        # Bounded size, contiguous seq, exactly one terminal chunk.
        assert all(len(c.data) <= max_chunk for c in chunks)
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        assert [c.last for c in chunks].count(True) == 1 and chunks[-1].last
        assembler = proto.ChunkAssembler()
        rebuilt = None
        for chunk in chunks:
            # ... and every chunk survives the wire codec on the way.
            decoded = proto.decode_message(proto.encode_message(chunk))
            result = assembler.feed(decoded)
            assert (result is not None) == chunk.last
            if result is not None:
                rebuilt = result
        assert rebuilt == _as_lists(state)

    @given(state=nested_map_st, max_chunk=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_truncated_chunk_stream_never_yields_state(self, state, max_chunk):
        chunks = list(proto.iter_state_chunks(state, kind="snapshot", max_chunk=max_chunk))
        assembler = proto.ChunkAssembler()
        for chunk in chunks[:-1]:
            assert assembler.feed(chunk) is None
        assert assembler.receiving == (len(chunks) > 1)

    def test_out_of_order_chunk_raises(self):
        chunks = list(
            proto.iter_state_chunks({"k": b"x" * 64}, kind="restore", max_chunk=16)
        )
        assert len(chunks) > 2
        assembler = proto.ChunkAssembler()
        assembler.feed(chunks[0])
        with pytest.raises(ProtocolError, match="out of order"):
            assembler.feed(chunks[2])

    def test_kind_change_mid_transfer_raises(self):
        assembler = proto.ChunkAssembler()
        assembler.feed(proto.SnapshotChunk(kind="restore", seq=0, data=b"ab"))
        with pytest.raises(ProtocolError, match="kind changed"):
            assembler.feed(proto.SnapshotChunk(kind="merge", seq=1, data=b"cd"))

    def test_unexpected_kind_raises(self):
        assembler = proto.ChunkAssembler(expected_kind="snapshot")
        with pytest.raises(ProtocolError, match="expected"):
            assembler.feed(proto.SnapshotChunk(kind="merge", seq=0, data=b""))
        with pytest.raises(ProtocolError, match="kind"):
            proto.SnapshotChunk.from_payload({"kind": "exotic", "seq": 0, "data": b""})

    def test_oversized_chunk_rejected_at_decode(self):
        payload = {
            "kind": "snapshot",
            "seq": 0,
            "data": b"x" * (proto.MAX_CHUNK_BYTES + 1),
            "last": True,
        }
        with pytest.raises(ProtocolError, match="bound"):
            proto.SnapshotChunk.from_payload(payload)

    def test_undecodable_reassembled_state_raises(self):
        assembler = proto.ChunkAssembler()
        with pytest.raises(ProtocolError, match="undecodable"):
            assembler.feed(
                proto.SnapshotChunk(kind="restore", seq=0, data=b"\xc1\xc1", last=True)
            )

    def test_resize_shards_validates_count(self):
        with pytest.raises(ProtocolError):
            proto.ResizeShards.from_payload({"n_shards": 0})

    def test_requests_carry_no_chunk_bound(self):
        # The bound is the constant, not a field a peer could set to 0 to
        # make the serving side emit one envelope per state byte.
        assert [f.name for f in fields(proto.Snapshot)] == ["expected_bytes"]
        assert [f.name for f in fields(proto.ExtractJobs)] == ["jobs", "expected_bytes"]
        assert proto.Snapshot.from_payload({"max_chunk": 0}) == proto.Snapshot()


# --------------------------------------------------------------------- #
# the one parser: declarations, value rules, the frozen oracle
# --------------------------------------------------------------------- #
REGISTERED = [proto.MESSAGE_TYPES[code] for code in sorted(proto.MESSAGE_TYPES)]


def envelope(code: int, payload) -> bytes:
    """An envelope as a peer that does not go through the dataclasses builds it."""
    body = packb(payload)
    return struct.pack(">4sBI", proto.PROTOCOL_MAGIC, code, len(body)) + body


class TestDeclarations:
    def test_every_registered_message_has_a_strategy(self):
        # message_st "covers every registered message type": held here, field
        # by field, so a message or a field added without a strategy fails.
        assert set(FIELD_STRATEGIES) == set(proto.MESSAGE_TYPES.values())
        assert set(PARSERS) == set(proto.MESSAGE_TYPES.values())
        for cls, strategies in FIELD_STRATEGIES.items():
            assert list(strategies) == [f.name for f in fields(cls)], cls.__name__

    def test_a_field_type_without_a_coercion_fails_at_import(self):
        @dataclass(frozen=True)
        class Stamped(proto.Message):
            job: str
            at: complex = 0j

        # The registry's rows are built by this call, per class, as the
        # module is imported: what it raises, the import raises.
        with pytest.raises(TypeError, match=r"Stamped\.at: no wire coercion .*complex"):
            proto._field_rows(Stamped)
        assert set(proto._FIELD_ROWS) == set(proto.MESSAGE_TYPES.values())
        assert {f.type for cls in REGISTERED for f in fields(cls)} == set(proto._COERCIONS)

    def test_string_lists_are_lists(self):
        # A bare string is not its characters, a map not its keys.
        for jobs in ("abc", {"a": 1}, b"ab", 7):
            with pytest.raises(ProtocolError, match=r"ReapFinishedReply\.jobs"):
                proto.ReapFinishedReply.from_payload({"jobs": jobs})
        assert proto.ReapFinishedReply.from_payload({"jobs": ["a", 1]}).jobs == ("a", "1")
        assert proto.ReapFinishedReply.from_payload({}) == proto.ReapFinishedReply()

    def test_drop_counts_are_a_string_to_int_map(self):
        parsed = proto.CompleteHandover.from_payload({"drop_counts": {"j": "3", 4: 5.0}})
        assert parsed.drop_counts == {"j": 3, "4": 5}
        for drops in ([("j", 3)], {"j": "many"}, {"j": None}, {"j": float("inf")}):
            with pytest.raises(ProtocolError, match=r"CompleteHandover\.drop_counts"):
                proto.CompleteHandover.from_payload({"drop_counts": drops})

    def test_a_default_does_not_excuse_a_peer(self):
        # Each has a dataclass default, for messages built locally; on the
        # wire the field is the point of the message.
        assert proto.Hello().versions == proto.SUPPORTED_VERSIONS
        assert proto.HelloReply().version == proto.PROTOCOL_VERSION
        assert proto.RegisterShardReply().shard == 0
        for cls, payload, missing in (
            (proto.Hello, {"token": 3}, "versions"),
            (proto.HelloReply, {}, "version"),
            (proto.RegisterShardReply, {"config": {}}, "shard"),
        ):
            with pytest.raises(ProtocolError, match=rf"{cls.__name__}\.{missing} is missing"):
                cls.from_payload(payload)

    def test_an_older_peers_ring_weights_still_decode(self):
        # An older router arms a handover with both rings' weights, and an
        # older worker advertises a weight when it registers; the fields are
        # gone, and a body that carries them decodes like one that does not.
        def from_older_peer(cls, body):
            code = next(code for code, known in proto.MESSAGE_TYPES.items() if known is cls)
            return proto.decode_body(code, packb(body))

        handover = dict(shard=1, old_shards=2, new_shards=3, replicas=64)
        assert from_older_peer(
            proto.BeginHandover, {**handover, "old_weights": None, "new_weights": [1.0, 2.0, 0.5]}
        ) == proto.BeginHandover(**handover)
        identity = dict(name="w", host="h", pid=7, cpu_count=8)
        assert from_older_peer(
            proto.RegisterShard, {**identity, "weight": 2.0}
        ) == proto.RegisterShard(**identity)

    def test_value_rules_bind_local_messages_too(self):
        # Said once, in __post_init__: what a peer may not send, this side
        # may not build.
        for build in (
            lambda: proto.Hello(versions=()),
            lambda: proto.SnapshotChunk(kind="exotic", seq=0, data=b""),
            lambda: proto.SnapshotChunk(kind="merge", seq=-1, data=b""),
            lambda: proto.ResizeShards(n_shards=0),
            lambda: proto.BeginHandover(shard=0, old_shards=0, new_shards=2, replicas=8),
            lambda: proto.BeginHandover(shard=0, old_shards=2, new_shards=2, replicas=0),
            lambda: proto.AttachChannel(key="k", channel="control"),
            lambda: list(proto.iter_state_chunks({}, kind="exotic")),
        ):
            with pytest.raises(ProtocolError):
                build()


# What a field of each declared type looks like when the peer is well-behaved
# (value rules deliberately straddled: -2 .. for a count).
WELL_FORMED = {
    "int": st.integers(-2, 2**40),
    "float": st.floats(width=64),
    "str": st.one_of(st.sampled_from(("snapshot", "merge", "data", "read")), name_st),
    "bool": st.booleans(),
    "bytes": st.binary(max_size=16),
    "dict": nested_map_st,
    "int | None": st.one_of(st.none(), st.integers(-2, 2**48)),
    "tuple[int, ...]": st.lists(st.integers(0, 255), max_size=3),
    "tuple[str, ...]": st.lists(job_st, max_size=3),
    "tuple[str, ...] | None": st.one_of(st.none(), st.lists(job_st, max_size=3)),
    "tuple[dict, ...]": st.lists(update_st, max_size=2),
    "dict[str, int]": st.dictionaries(job_st, st.integers(0, 2**20), max_size=3),
}
# ... and when it is not.  Whatever a coercion makes of a value here is still
# MessagePack-encodable (an accepted message is also encoded), and no string
# reads as a NaN, so ``==`` can compare what two parsers made of one payload.
JUNK = (
    None, True, False, 0, -1, 7, 2**63, 1.5, -0.0, float("nan"), float("inf"),
    float("-inf"), "", "x", "12", "1.5", b"", b"\x00\xff", [], [3], ["a", "b"],
    [1, "a", None], [0.0, 2.5], [float("inf")], [[1], {"k": 1}], [{"job": "j"}, 4],
    {}, {"a": 1}, {"j": "3"}, {"j": float("inf")}, {1: [2]},
)  # fmt: skip


@st.composite
def parser_input_st(draw):
    """A registered class and a body for it: each field well-formed, junk or
    absent, and now and then a key the class does not declare."""
    cls = draw(st.sampled_from(REGISTERED))
    payload = {}
    for f in fields(cls):
        shape = draw(st.integers(0, 5))
        if shape == 0:
            payload[f.name] = draw(st.sampled_from(JUNK))
        elif shape > 1:
            payload[f.name] = draw(WELL_FORMED[f.type])
    if draw(st.integers(0, 7)) == 0:
        payload["not_a_field"] = draw(st.sampled_from(JUNK))
    return cls, payload


def hold_to_the_oracle(cls, payload) -> None:
    """Both accept, to ``==`` messages and equal envelopes, or both reject —
    but for the two ledgered differences, spelled out here and nowhere else."""
    try:
        expected = frozen_parse(cls, payload)
    except REJECTS:
        expected = None
    except OverflowError:
        # Ledger 1: the frozen parsers let int(inf) / float(10**400) through
        # decode_body untyped; the one parser answers ProtocolError.
        expected = None
    if cls is proto.ReapFinishedReply and not isinstance(payload.get("jobs", []), (list, tuple)):
        # Ledger 2: the frozen parser iterated whatever it was given (a
        # string into characters, a map into keys); a job list is a list.
        expected = None
    if expected is None:
        with pytest.raises(ProtocolError, match=cls.__name__):
            cls.from_payload(payload)
        return
    parsed = cls.from_payload(payload)
    assert type(parsed) is type(expected) is cls
    assert parsed == expected
    # No byte on the wire moved: the parent's to_payload and envelope.
    assert proto.encode_message(parsed) == frozen_encode(expected)


ORACLE_EXAMPLES = 2000


class TestFrozenOracle:
    @given(case=parser_input_st())
    @settings(max_examples=ORACLE_EXAMPLES, deadline=None)
    def test_one_parser_agrees_with_the_38_it_replaced(self, case):
        hold_to_the_oracle(*case)

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK"),
        reason="soak test only runs when REPRO_SOAK=1 (CI nightly job)",
    )
    @seed(int(os.environ.get("REPRO_SOAK_SEED", "0")))
    @given(case=parser_input_st())
    @settings(max_examples=50 * ORACLE_EXAMPLES, deadline=None, database=None)
    def test_one_parser_agrees_with_the_38_it_replaced_soak(self, case):
        hold_to_the_oracle(*case)

    def test_the_ledger_is_live(self):
        # Both ledgered differences really are differences (the oracle would
        # otherwise pass for a copy of the parser under test).
        with pytest.raises(OverflowError):
            frozen_parse(proto.ResizeShards, {"n_shards": float("inf")})
        assert frozen_parse(proto.ReapFinishedReply, {"jobs": "abc"}).jobs == ("a", "b", "c")


#: The floats and integers Python's own coercions choke on or round.
SPECIALS = (float("inf"), float("-inf"), float("nan"), -0.0, 2**63, 2**64 - 1, -(2**63))
wild_value_st = st.recursive(
    st.one_of(scalar_st, st.sampled_from(SPECIALS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def wild_body_st(draw):
    """A registered code and any map body — ``nested_map_st`` widened: keys
    from the fields of that message as often as not, values anything
    MessagePack can carry, the specials as often as the rest together."""
    code = draw(st.sampled_from(sorted(proto.MESSAGE_TYPES)))
    names = [f.name for f in fields(proto.MESSAGE_TYPES[code])]
    keys = st.one_of(st.sampled_from(names), st.text(max_size=8)) if names else st.text(max_size=8)
    values = st.one_of(st.sampled_from(SPECIALS), wild_value_st)
    return code, draw(st.dictionaries(keys, values, max_size=6))


class TestEveryBodyFaultIsTyped:
    @given(case=wild_body_st())
    @settings(max_examples=600, deadline=None)
    def test_any_map_body_decodes_or_raises_protocol_error(self, case):
        code, body = case
        try:
            message = proto.decode_message(envelope(code, body))
        except ProtocolError:
            return
        assert type(message) is proto.MESSAGE_TYPES[code]

    def test_a_wire_float_that_is_no_integer_is_a_protocol_error(self):
        # int(inf) is an OverflowError, int(nan) a ValueError: one answer.
        for code, body in (
            (1, {"versions": [float("inf")]}),
            (1, {"versions": [3], "token": float("nan")}),
            (24, {"n_shards": float("inf")}),
            (37, {"pid": float("-inf")}),
        ):
            name = proto.MESSAGE_TYPES[code].__name__
            with pytest.raises(ProtocolError, match=rf"{name}\.\w+: "):
                proto.decode_message(envelope(code, body))
