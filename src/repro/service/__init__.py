"""Streaming prediction service: live multi-job FTIO predictions.

The service turns the offline replay pipeline into an online subsystem: many
concurrent jobs flush measurements as length-prefixed frames (spool files or
sockets), a broker demultiplexes them into bounded-memory per-job sessions, a
dispatcher evaluates the due ones as one batch in the pumping thread with
per-job rate limiting, and a publisher exposes the live predictions — both to
subscribers and, through :class:`PhaseFlushBridge` and
:class:`~repro.scheduling.periods.ServicePeriodProvider`, to the Set-10
scheduler: Figure 17's FTIO configurations run on this path.

Past one process, :class:`ShardedService` consistent-hashes jobs onto N
worker shards — each a full service in its own subprocess fed FTS1 frames
through a shared-memory ring (:mod:`repro.service.shm_ring`; the socketpair
is just its doorbell) — with a header-only router, aggregated stats,
merged snapshot/restore, crash recovery, and *elastic live resharding*
(:meth:`ShardedService.reshard` grows or shrinks the topology mid-stream
with minimal session movement).  The sharded form is five modules, each
importing only the ones before it: :mod:`~repro.service.ring` (who owns a
job), :mod:`~repro.service.shard_worker` (the loop a shard runs),
:mod:`~repro.service.supervisor` (spawn / adopt / channels / heartbeat /
revive), :mod:`~repro.service.migration` (live reshard) and
:mod:`~repro.service.sharding` (the router facade).  Every evaluation, on
every topology, runs through the one batch loop of
:mod:`repro.service.batch` into the kernels offline detection runs too
(:mod:`repro.core.kernels`).

Every control surface — the shard channels, the TCP gateway
(:class:`ThreadedGateway`) and the :class:`~repro.client.ServiceClient` —
speaks the one typed, versioned message layer of
:mod:`repro.service.protocol` through the one endpoint of
:mod:`repro.service.transport`.
"""

from repro.service import protocol
from repro.service.autoscaler import (
    AutoscaleConfig,
    AutoscaleDecision,
    AutoscaleSignals,
    Autoscaler,
    HysteresisPolicy,
)
from repro.service.backend import ThreadBackend
from repro.service.batch import BatchReport, compute_batch_kernels, detect_sessions_inline
from repro.service.bridge import PhaseFlushBridge
from repro.service.gateway import ThreadedGateway
from repro.service.broker import BrokerStats, FlushBroker
from repro.service.dispatcher import DetectionDispatcher, DispatcherStats
from repro.service.publisher import PredictionPublisher, PredictionUpdate
from repro.service.ring import HashRing
from repro.service.service import PredictionService, ServiceConfig
from repro.service.session import DetectionTask, JobSession, RingColumnStore, SessionConfig
from repro.service.sharding import ShardedService
from repro.service.shm_ring import RingHandle, ShmRingReader, ShmRingWriter
from repro.service.snapshot import (
    apply_state,
    load_snapshot,
    merge_states,
    restore_state,
    save_snapshot,
    snapshot_state,
    split_state,
)

__all__ = [
    "AutoscaleConfig",
    "AutoscaleDecision",
    "AutoscaleSignals",
    "Autoscaler",
    "HysteresisPolicy",
    "PhaseFlushBridge",
    "BatchReport",
    "BrokerStats",
    "ThreadedGateway",
    "protocol",
    "FlushBroker",
    "DetectionDispatcher",
    "DetectionTask",
    "DispatcherStats",
    "HashRing",
    "PredictionPublisher",
    "PredictionUpdate",
    "PredictionService",
    "RingHandle",
    "ServiceConfig",
    "ShardedService",
    "ShmRingReader",
    "ShmRingWriter",
    "JobSession",
    "RingColumnStore",
    "SessionConfig",
    "ThreadBackend",
    "apply_state",
    "compute_batch_kernels",
    "detect_sessions_inline",
    "load_snapshot",
    "merge_states",
    "restore_state",
    "save_snapshot",
    "snapshot_state",
    "split_state",
]
