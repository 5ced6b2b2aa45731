"""Typed, versioned control-plane protocol of the prediction service.

Every control surface of the service speaks one message layer: the shard
channels of :class:`~repro.service.sharding.ShardedService`, the TCP gateway
(:mod:`repro.service.gateway`) and the :class:`~repro.client.ServiceClient`
all exchange the dataclasses defined here, encoded canonically with the
library's own MessagePack implementation and wrapped in a tiny
length-prefixed envelope.  One reader takes envelopes off a stream,
:meth:`repro.service.transport.Channel.recv`, through :func:`decode_header`
and :func:`decode_body`.

Envelope layout (all integers big-endian)::

    offset  size  field
    0       4     magic  b"FTC1"
    4       1     message type code (see the registry below)
    5       4     body length B
    9       B     body: the message payload as one MessagePack map

The *envelope* is unversioned and stable; the *conversation* is versioned
through the :class:`Hello` handshake: the connecting side offers the protocol
versions it speaks, the serving side picks the highest common one
(:func:`negotiate_version`) and answers with :class:`HelloReply` — or an
:class:`Error` when no common version exists, so an incompatible peer is
rejected cleanly instead of mis-parsed.  :data:`PROTOCOL_VERSION` is the
one version every peer in this repository speaks.

A message is its declaration.  Each is a frozen dataclass; the one body
parser, :meth:`Message.from_payload`, reads the fields off a table built at
import from :data:`MESSAGE_TYPES` — per field a coercion picked by the
declared type (:data:`_COERCIONS`) and whether a peer must send it — and what
a message requires of its values it checks itself, in ``__post_init__``.
Adding a message is a dataclass and a registry line, adding a field one line;
a body can fail in one way only, :class:`~repro.exceptions.ProtocolError`.

Snapshot states always travel as a stream of :class:`SnapshotChunk` messages
of at most :data:`DEFAULT_CHUNK_BYTES` payload bytes, never as one giant body
(:func:`iter_state_chunks` / :class:`ChunkAssembler`; a state that fits is a
single chunk with ``last=True``), per-job session state moves between shards
via :class:`ExtractJobs`, and :class:`ResizeShards` drives a live
:meth:`~repro.service.sharding.ShardedService.reshard`.

Data-plane payloads do not travel here: flush frames keep their FTS1 wire
format (:mod:`repro.trace.framing`) and ride inside :class:`SubmitFrames`
verbatim, so a gateway or router still classifies them header-only and a
payload is decoded exactly once, in the session that owns the job.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, TypeVar

from repro.exceptions import ProtocolError
from repro.trace.msgpack import packb, unpackb

#: First bytes of every control-plane envelope.
PROTOCOL_MAGIC = b"FTC1"
#: Current control-plane protocol version.
PROTOCOL_VERSION = 3
#: Every version this implementation can speak.
SUPPORTED_VERSIONS: tuple[int, ...] = (3,)
#: Upper bound on one message body; a corrupt length field must never make a
#: reader wait for gigabytes that will not arrive.  Snapshots are the largest
#: messages (bounded session buffers), far below this.
MAX_MESSAGE_BYTES = 1 << 30
#: Payload size of one :class:`SnapshotChunk` on every state transfer.
DEFAULT_CHUNK_BYTES = 256 * 1024
#: Hard upper bound on one chunk's payload — the whole point of chunking is
#: that no single control message is ever huge, so the bound is enforced at
#: decode time too.
MAX_CHUNK_BYTES = 8 * 1024 * 1024

_ENVELOPE = struct.Struct(">4sBI")
#: Envelope header size: magic (4) + type code (1) + body length (4).
HEADER_BYTES = _ENVELOPE.size

M = TypeVar("M", bound="Message")


class Message:
    """Base class of every control-plane message.

    A subclass is a frozen dataclass and nothing more: its fields, in order,
    are the keys of the body map, and their declared types are how
    :meth:`from_payload` reads them.  A rule on a field's *value* goes in
    ``__post_init__`` and raises :class:`~repro.exceptions.ProtocolError`, so
    it binds a message built locally exactly as one parsed from a peer.
    """

    def to_payload(self) -> dict:
        """The message body as a MessagePack-serializable map."""
        return {f.name: getattr(self, f.name) for f in fields(self)}  # type: ignore[arg-type]

    @classmethod
    def from_payload(cls: type[M], payload: Mapping) -> M:
        """Rebuild the message from a decoded body map.

        Each declared field is coerced by its declared type when its key is
        present, defaulted when absent — or refused when it has no default
        (or is marked :data:`_ON_WIRE`); unknown keys are ignored.  Whatever
        a coercion or a value rule makes of a peer's value (``int(inf)`` is
        an ``OverflowError``) surfaces as a
        :class:`~repro.exceptions.ProtocolError` naming ``Message.field``.
        """
        values: dict[str, Any] = {}
        name = ""
        try:
            for name, coerce, required in _FIELD_ROWS[cls]:
                if name in payload:
                    values[name] = coerce(payload[name])
                elif required:
                    raise ProtocolError(f"{cls.__name__}.{name} is missing")
            name = "__post_init__"
            return cls(**values)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ProtocolError(f"{cls.__name__}.{name}: {exc}") from exc


def _binary(value: Any) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"expected binary, got {type(value).__name__}")
    return bytes(value)


def _map(value: Any) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a map, got {type(value).__name__}")
    return value


def _optional(coerce: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else coerce(value)


def _tuple_of(coerce: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def coerce_list(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(map(coerce, value))

    return coerce_list


#: How a body value becomes a field, keyed by the field's declared type (the
#: annotation as written).  A type missing here fails the import of this
#: module (:data:`_FIELD_ROWS`), not the first peer that sends the field.
_COERCIONS: dict[str, Callable[[Any], Any]] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
    "bytes": _binary,
    "dict": _map,
    "int | None": _optional(int),
    "tuple[int, ...]": _tuple_of(int),
    "tuple[str, ...]": _tuple_of(str),
    "tuple[str, ...] | None": _optional(_tuple_of(str)),
    "tuple[dict, ...]": _tuple_of(_map),
    "dict[str, int]": lambda value: {str(k): int(v) for k, v in _map(value).items()},
}
#: Field metadata: a peer must send the field although it has a default (the
#: default serves messages built locally).
_ON_WIRE = {"on_wire": True}


def _field_rows(cls: type[Message]) -> tuple[tuple[str, Callable[[Any], Any], bool], ...]:
    """``(name, coercion, required)`` per declared field of one message class."""
    rows = []
    for f in fields(cls):  # type: ignore[arg-type]
        coerce = _COERCIONS.get(str(f.type))
        if coerce is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no wire coercion for type {f.type!r}")
        defaulted = f.default is not MISSING or f.default_factory is not MISSING
        rows.append((f.name, coerce, not defaulted or "on_wire" in f.metadata))
    return tuple(rows)


# --------------------------------------------------------------------- #
# handshake
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Hello(Message):
    """First message of every conversation: offer versions, present a token.

    ``token`` is the wire-level tenant/auth nibble (the same 0..15 secret the
    FTS1 frame flags carry); a server configured with a token rejects a hello
    that does not present it.
    """

    versions: tuple[int, ...] = field(default=SUPPORTED_VERSIONS, metadata=_ON_WIRE)
    token: int | None = None
    client: str = ""

    def __post_init__(self) -> None:
        if not self.versions:
            raise ProtocolError("Hello.versions must offer at least one protocol version")


@dataclass(frozen=True)
class HelloReply(Message):
    """Successful handshake: the negotiated version plus server facts."""

    version: int = field(default=PROTOCOL_VERSION, metadata=_ON_WIRE)
    server: str = ""
    shards: int = 0


@dataclass(frozen=True)
class Error(Message):
    """Failure reply; ``code`` is a stable machine-readable discriminator."""

    message: str
    code: str = "error"


# --------------------------------------------------------------------- #
# data ingestion and evaluation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SubmitFrames(Message):
    """Raw FTS1-framed bytes to ingest (one or more complete or partial frames)."""

    data: bytes


@dataclass(frozen=True)
class SubmitReply(Message):
    """Frames completed (routed) by the submitted bytes."""

    frames: int


@dataclass(frozen=True)
class Pump(Message):
    """Evaluate every due session.

    ``expected_bytes`` carries the sender's data-plane byte count when data
    and control travel on different channels (the shard socketpair): the
    receiver drains its data stream up to that mark before pumping, which
    re-orders the two planes deterministically.  ``None`` when both planes
    share one ordered channel (the TCP gateway).
    """

    expected_bytes: int | None = None


@dataclass(frozen=True)
class PumpReply(Message):
    """Evaluations submitted, plus the updates published during the pump."""

    submitted: int
    updates: tuple[dict, ...] = ()


@dataclass(frozen=True)
class Drain(Message):
    """Pump until nothing is due and nothing is in flight."""

    expected_bytes: int | None = None


@dataclass(frozen=True)
class DrainReply(Message):
    """Drain finished; carries the updates published while draining."""

    updates: tuple[dict, ...] = ()


@dataclass(frozen=True)
class FinishJob(Message):
    """Mark one job finished (pending data is still evaluated, then idle)."""

    job: str


@dataclass(frozen=True)
class FinishJobReply(Message):
    """The job was marked finished."""

    job: str


# --------------------------------------------------------------------- #
# introspection, snapshot, subscription, lifecycle
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Stats(Message):
    """Request the service-wide counters."""


@dataclass(frozen=True)
class StatsReply(Message):
    """One JSON-friendly map of counters (shape owned by the serving side)."""

    stats: dict


@dataclass(frozen=True)
class Snapshot(Message):
    """Capture the full service state (see :mod:`repro.service.snapshot`).

    The state streams back as ``kind="snapshot"`` :class:`SnapshotChunk`
    messages.
    """

    expected_bytes: int | None = None


@dataclass(frozen=True)
class RestoreReply(Message):
    """Sessions applied by a completed ``restore`` / ``merge`` chunk stream."""

    restored: int


@dataclass(frozen=True)
class Subscribe(Message):
    """Stream every published prediction back as :class:`PredictionEvent`.

    ``jobs`` restricts the stream to the given job ids (``None`` = all).
    """

    jobs: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SubscribeReply(Message):
    """Subscription established; events follow asynchronously."""

    subscription: int


@dataclass(frozen=True)
class PredictionEvent(Message):
    """One published prediction, pushed to a subscribed peer.

    ``update`` is the :meth:`~repro.service.publisher.PredictionUpdate.
    to_dict` map.
    """

    update: dict


# --------------------------------------------------------------------- #
# chunked snapshot transfer and elastic resharding
# --------------------------------------------------------------------- #
#: Valid ``SnapshotChunk.kind`` discriminators.  ``snapshot`` and ``extract``
#: flow from the serving side (the replies to :class:`Snapshot` /
#: :class:`ExtractJobs`); ``restore`` and ``merge`` flow *to* it (the final
#: chunk triggers the apply and is answered with :class:`RestoreReply`).
#: Both apply alike (:func:`~repro.service.snapshot.apply_state`: the
#: carried sessions are loaded, the publisher entries merged, other jobs
#: untouched); a client sends ``restore``, the router sends its shards
#: ``merge``.
CHUNK_KINDS: tuple[str, ...] = ("snapshot", "extract", "restore", "merge")


@dataclass(frozen=True)
class SnapshotChunk(Message):
    """One bounded slice of a msgpack-encoded snapshot state.

    A transfer is a ``seq = 0, 1, ...`` ordered run of chunks of one
    ``kind``; ``last=True`` marks the final chunk, after which the
    concatenated ``data`` decodes to one snapshot-state map
    (:class:`ChunkAssembler` does the bookkeeping).  Non-final chunks are
    never individually acknowledged — the stream rides an ordered,
    flow-controlled channel, and only the completed transfer gets a reply.
    """

    kind: str
    seq: int
    data: bytes
    last: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CHUNK_KINDS:
            raise ProtocolError(f"unknown SnapshotChunk.kind {self.kind!r}")
        if self.seq < 0:
            raise ProtocolError(f"SnapshotChunk.seq must be >= 0, got {self.seq}")
        if len(self.data) > MAX_CHUNK_BYTES:
            raise ProtocolError(
                f"SnapshotChunk.data of {len(self.data)} bytes exceeds the "
                f"{MAX_CHUNK_BYTES}-byte bound"
            )


@dataclass(frozen=True)
class ResizeShards(Message):
    """Live-reshard the serving engine to ``n_shards`` worker shards."""

    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ProtocolError(f"ResizeShards.n_shards must be >= 1, got {self.n_shards}")


@dataclass(frozen=True)
class ResizeShardsReply(Message):
    """The reshard finished: the new topology plus what the migration moved."""

    n_shards: int
    moved_sessions: int = 0
    moved_jobs: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExtractJobs(Message):
    """Capture *and remove* the given jobs' sessions (the migration source).

    The serving side drains its data plane to ``expected_bytes`` first (the
    same two-plane re-ordering every state-bearing request uses), captures
    the listed jobs' session + publisher state, forgets them, and replies
    with a ``kind="extract"`` :class:`SnapshotChunk` stream.
    """

    jobs: tuple[str, ...]
    expected_bytes: int | None = None


@dataclass(frozen=True)
class MetricsReport(Message):
    """Metric registry snapshot, or a poll for one (empty ``metrics``).

    The router polls each shard with an empty report on its read channel;
    the shard replies with its :meth:`~repro.obs.MetricRegistry.collect`
    tree.  The tree is plain msgpack types and merges across shards with
    :func:`repro.obs.merge_snapshots` — histograms merge bucket-wise, so
    cross-shard quantiles survive aggregation.
    """

    metrics: dict = field(default_factory=dict)


# --------------------------------------------------------------------- #
# zero-pause handover (double-routed migration)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BeginHandover(Message):
    """Arm a migration target: stage incoming frames for moving jobs.

    Carries both ring parameterizations (shard counts and the replica
    budget) plus the receiving shard's own index, so the shard rebuilds the
    two rings locally and computes its *own* staging predicate — a frame is
    staged iff its job changes owner between the two rings **and** the new
    owner is this shard.  Shipping the rings instead of
    a job list makes the predicate correct even for job ids the router has
    never seen (a brand-new job submitted mid-migration) and independent of
    control/data channel ordering.

    From the reply until :class:`CompleteHandover` (or
    :class:`AbortHandover`), matching frames are buffered in arrival order
    instead of ingested; everything else flows normally — this is what makes
    the double-routed handover zero-pause.
    """

    shard: int
    old_shards: int
    new_shards: int
    replicas: int

    def __post_init__(self) -> None:
        if self.old_shards < 1 or self.new_shards < 1 or self.replicas < 1:
            raise ProtocolError(
                f"BeginHandover shard counts and replicas must be >= 1, got "
                f"{self.old_shards} -> {self.new_shards} x {self.replicas}"
            )


@dataclass(frozen=True)
class BeginHandoverReply(Message):
    """Staging is armed; double-routing may start."""

    shard: int


@dataclass(frozen=True)
class CompleteHandover(Message):
    """Finish a handover: dedup the staged frames, ingest the remainder.

    The shard first drains its data plane to ``expected_bytes`` (so every
    double-routed frame has been staged), then — per job — drops the first
    ``drop_counts[job]`` staged frames: those were *also* delivered to the
    old owner before its state was extracted, so their effect already arrived
    inside the merged session state.  The surviving staged frames (delivered
    only here) are ingested in arrival order, which keeps the whole handover
    exactly-once.
    """

    expected_bytes: int | None = None
    drop_counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CompleteHandoverReply(Message):
    """Handover done: staged frames deduplicated and ingested."""

    replayed: int = 0
    dropped: int = 0


@dataclass(frozen=True)
class AbortHandover(Message):
    """Roll a handover back: discard the staged frames, stop staging.

    Sent when a failed reshard leaves the *old* ring in charge — the router
    re-routes its own copies of the undelivered frames toward the old
    owners, so the staged copies here must be dropped, not ingested.  The
    shard drains its data plane to ``expected_bytes`` before disarming, so a
    double-routed frame still in flight lands in the buffer (and is
    discarded with it) instead of surviving as a stray ingest.
    """

    expected_bytes: int | None = None


@dataclass(frozen=True)
class AbortHandoverReply(Message):
    """Staging is disarmed; ``discarded`` staged frames were dropped."""

    discarded: int = 0


@dataclass(frozen=True)
class ReapFinished(Message):
    """Release the sessions of finished, fully evaluated jobs on a shard.

    The sharded mirror of :meth:`~repro.service.service.PredictionService.
    reap_finished` — without it a long-running sharded deployment can mark
    jobs finished but never free their sessions, so resident load (and the
    autoscaler's sessions-per-shard signal) only ever grows.
    """

    forget_predictions: bool = False


@dataclass(frozen=True)
class ReapFinishedReply(Message):
    """The job identifiers this shard reaped."""

    jobs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Close(Message):
    """End the conversation (and, on a shard control channel, shut the shard down)."""


@dataclass(frozen=True)
class CloseReply(Message):
    """Acknowledged; the peer is about to go away."""

    closed: bool = True


# --------------------------------------------------------------------- #
# multi-host federation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RegisterShard(Message):
    """A dial-home shard worker introduces itself after the Hello handshake.

    Sent by ``repro-shard`` (:mod:`repro.shard`) on its control connection,
    immediately after :class:`Hello`/:class:`HelloReply`.  Carries the
    worker's identity and capabilities so the router's shard registry can
    label its liveness metrics (``name``/``host``/``pid``).
    """

    name: str = ""
    host: str = ""
    pid: int = 0
    cpu_count: int = 0


@dataclass(frozen=True)
class RegisterShardReply(Message):
    """The router adopted the worker as shard ``shard``.

    ``config`` is the engine's :class:`~repro.service.service.ServiceConfig`
    in wire form (:func:`~repro.service.transport.config_to_wire`) so the
    remote worker builds exactly the same sessions the local forks do.
    ``data_key`` is an opaque one-time key the worker must echo in an
    :class:`AttachChannel` on each of its data-plane and read-plane
    connections, pairing them to this control connection.
    """

    shard: int = field(default=0, metadata=_ON_WIRE)
    config: dict = field(default_factory=dict)
    data_key: str = ""


@dataclass(frozen=True)
class AttachChannel(Message):
    """First envelope on a worker's secondary connection: pair it by key.

    ``channel`` names the plane this connection will carry: ``"data"``
    (framed FTS1 flush bytes, the remote stand-in for the local socketpair)
    or ``"read"`` (Heartbeat/Stats/MetricsReport served without touching the
    router's control plane).
    """

    key: str = ""
    channel: str = "data"

    def __post_init__(self) -> None:
        if self.channel not in ("data", "read"):
            raise ProtocolError(f"unknown AttachChannel.channel {self.channel!r}")


@dataclass(frozen=True)
class Heartbeat(Message):
    """Liveness probe; generalizes waitpid kill detection to remote shards.

    ``sent_at`` is the sender's monotonic clock — echoed verbatim in
    :class:`HeartbeatReply` so the sender computes the round trip without
    any cross-host clock agreement.
    """

    seq: int = 0
    sent_at: float = 0.0


@dataclass(frozen=True)
class HeartbeatReply(Message):
    """Echo of a :class:`Heartbeat` (same ``seq``, same ``sent_at``)."""

    seq: int = 0
    sent_at: float = 0.0


# --------------------------------------------------------------------- #
# registry and codec
# --------------------------------------------------------------------- #
#: Stable wire codes; append-only — codes are part of the wire format.  13, 14
#: and 27 (version 2's whole-state snapshot / restore / extract bodies) are
#: retired and stay unassigned: never reused, rejected as unknown.
MESSAGE_TYPES: dict[int, type[Message]] = {
    1: Hello,
    2: HelloReply,
    3: Error,
    4: SubmitFrames,
    5: SubmitReply,
    6: Pump,
    7: PumpReply,
    8: Drain,
    9: DrainReply,
    10: Stats,
    11: StatsReply,
    12: Snapshot,
    15: RestoreReply,
    16: Subscribe,
    17: SubscribeReply,
    18: PredictionEvent,
    19: FinishJob,
    20: FinishJobReply,
    21: Close,
    22: CloseReply,
    # --- chunked transfer, resharding, handover ----------------------- #
    23: SnapshotChunk,
    24: ResizeShards,
    25: ResizeShardsReply,
    26: ExtractJobs,
    28: MetricsReport,
    29: BeginHandover,
    30: BeginHandoverReply,
    31: CompleteHandover,
    32: CompleteHandoverReply,
    33: AbortHandover,
    34: AbortHandoverReply,
    35: ReapFinished,
    36: ReapFinishedReply,
    # --- multi-host federation ----------------------------------------- #
    37: RegisterShard,
    38: RegisterShardReply,
    39: AttachChannel,
    40: Heartbeat,
    41: HeartbeatReply,
}
_TYPE_CODES: dict[type[Message], int] = {cls: code for code, cls in MESSAGE_TYPES.items()}
#: The parser's table: one row per declared field of each registered message.
_FIELD_ROWS = {cls: _field_rows(cls) for cls in _TYPE_CODES}


def negotiate_version(offered: Iterable[int]) -> int | None:
    """Highest offered version this implementation speaks, or ``None``."""
    common = set(int(v) for v in offered) & set(SUPPORTED_VERSIONS)
    return max(common) if common else None


def answer_hello(
    hello: Hello, *, token: int | None, server: str, shards: int = 0
) -> HelloReply | Error:
    """The serving side's answer to a :class:`Hello`.

    An :class:`Error` (no common version, or ``token`` is set and the hello
    does not present it) means the peer is refused: send it and hang up.
    """
    version = negotiate_version(hello.versions)
    if version is None:
        return Error(
            message=(
                f"no common protocol version ({server} speaks "
                f"{SUPPORTED_VERSIONS}, peer offered {hello.versions})"
            ),
            code="unsupported-version",
        )
    if token is not None and hello.token != token:
        return Error(message="tenant token mismatch", code="unauthorized")
    return HelloReply(version=version, server=server, shards=shards)


def encode_message(message: Message) -> bytes:
    """Encode one message as a length-prefixed envelope."""
    try:
        code = _TYPE_CODES[type(message)]
    except KeyError:
        raise ProtocolError(f"{type(message).__name__} is not a registered message type") from None
    body = packb(message.to_payload())
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message body of {len(body)} bytes exceeds the protocol limit")
    return _ENVELOPE.pack(PROTOCOL_MAGIC, code, len(body)) + body


def decode_header(header: bytes | bytearray | memoryview) -> tuple[int, int]:
    """Validate one envelope header; returns ``(type code, body length)``.

    The header says everything a reader needs before it touches the body:
    a bad magic, an unassigned type code or a length over
    :data:`MAX_MESSAGE_BYTES` raises :class:`~repro.exceptions.ProtocolError`
    here, before one body byte is awaited.
    """
    magic, code, body_len = _ENVELOPE.unpack_from(header)
    if magic != PROTOCOL_MAGIC:
        raise ProtocolError(
            f"bad control-message magic {bytes(magic)!r}; the stream is not "
            f"FTC1-enveloped or is corrupt"
        )
    if code not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown control-message type code {code}")
    if body_len > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"control-message body length {body_len} exceeds the limit")
    return code, body_len


def decode_body(code: int, body: bytes | memoryview) -> Message:
    """Decode the body of an envelope whose header :func:`decode_header` passed."""
    cls = MESSAGE_TYPES[code]
    try:
        payload = unpackb(body)
    except Exception as exc:
        raise ProtocolError(f"undecodable {cls.__name__} body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"{cls.__name__} body must be a map, got {type(payload).__name__}")
    return cls.from_payload(payload)


def decode_message(data: bytes | bytearray | memoryview) -> Message:
    """Decode exactly one enveloped message (missing or trailing bytes are an error)."""
    if len(data) < HEADER_BYTES:
        raise ProtocolError(f"{len(data)} bytes are less than an envelope header")
    code, body_len = decode_header(data)
    if len(data) != HEADER_BYTES + body_len:
        raise ProtocolError(
            f"expected exactly one message of {HEADER_BYTES + body_len} bytes, got {len(data)}"
        )
    return decode_body(code, memoryview(data)[HEADER_BYTES:])


def iter_state_chunks(
    state: Mapping, *, kind: str, max_chunk: int | None = None
) -> Iterator[SnapshotChunk]:
    """Slice one snapshot state into an ordered :class:`SnapshotChunk` run.

    The state is encoded once; each chunk carries at most ``max_chunk``
    payload bytes (:data:`DEFAULT_CHUNK_BYTES`, read at call time, when
    ``None`` — what every transfer in the service uses).  Yields at least
    one chunk; the final one has ``last=True``.
    """
    payload = packb(dict(state))
    if max_chunk is None:
        max_chunk = DEFAULT_CHUNK_BYTES
    max_chunk = max(1, min(int(max_chunk), MAX_CHUNK_BYTES))
    total = len(payload)
    seq = 0
    offset = 0
    while True:
        piece = payload[offset : offset + max_chunk]
        offset += len(piece)
        yield SnapshotChunk(kind=kind, seq=seq, data=piece, last=offset >= total)
        if offset >= total:
            return
        seq += 1


class ChunkAssembler:
    """Reassemble one :class:`SnapshotChunk` run back into a state map.

    Feed chunks in arrival order; :meth:`feed` returns ``None`` until the
    ``last`` chunk lands, then the decoded state dict.  Out-of-order
    sequence numbers, a kind change mid-transfer, or an undecodable body all
    raise :class:`~repro.exceptions.ProtocolError` — a receiver can reject
    the peer instead of applying a torn state.
    """

    def __init__(self, *, expected_kind: str | None = None) -> None:
        self._expected_kind = expected_kind
        self._kind: str | None = None
        self._next_seq = 0
        self._parts: list[bytes] = []

    @property
    def receiving(self) -> bool:
        """Whether a transfer is in progress (chunks fed, no ``last`` yet)."""
        return bool(self._parts)

    @property
    def kind(self) -> str | None:
        """Kind of the in-progress transfer (``None`` between transfers)."""
        return self._kind

    def feed(self, chunk: SnapshotChunk) -> dict | None:
        """Accept the next chunk; returns the decoded state when complete."""
        if self._expected_kind is not None and chunk.kind != self._expected_kind:
            raise ProtocolError(
                f"expected {self._expected_kind!r} snapshot chunks, got {chunk.kind!r}"
            )
        if self._kind is None:
            self._kind = chunk.kind
        elif chunk.kind != self._kind:
            raise ProtocolError(
                f"snapshot-chunk kind changed mid-transfer ({self._kind!r} -> {chunk.kind!r})"
            )
        if chunk.seq != self._next_seq:
            raise ProtocolError(
                f"snapshot chunk out of order: expected seq {self._next_seq}, got {chunk.seq}"
            )
        self._next_seq += 1
        self._parts.append(chunk.data)
        if not chunk.last:
            return None
        payload = b"".join(self._parts)
        self._kind = None
        self._next_seq = 0
        self._parts = []
        try:
            state = unpackb(payload)
        except Exception as exc:
            raise ProtocolError(f"undecodable chunked snapshot state: {exc}") from exc
        if not isinstance(state, dict):
            raise ProtocolError(
                f"chunked snapshot state must be a map, got {type(state).__name__}"
            )
        return state
