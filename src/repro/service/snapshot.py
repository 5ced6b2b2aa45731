"""Snapshot/restore of service state for crash recovery.

A snapshot captures, per job, the resident window of the columnar buffer,
the predictor's adaptive-window state and evaluation count, the merged
metadata and counters, plus the publisher's latest predictions — in short,
everything needed so that a service restarted from the snapshot continues
producing the same predictions as one that never crashed (the property the
snapshot round-trip test asserts).  None of it grows with the job's runtime.

Snapshots are encoded with the library's own MessagePack implementation
(binary columns stay binary), so a snapshot file is compact and readable by
any compliant MessagePack decoder.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import TraceFormatError
from repro.service.service import PredictionService, ServiceConfig
from repro.trace.msgpack import packb, unpackb

if TYPE_CHECKING:
    from repro.service.sharding import ShardedService

#: Bumped whenever the snapshot layout changes incompatibly.
SNAPSHOT_VERSION = 2


def check_snapshot_version(state: dict) -> None:
    """Reject snapshots from an incompatible layout (or that aren't snapshots)."""
    version = state.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise TraceFormatError(
            f"unsupported service snapshot version {version!r} (expected {SNAPSHOT_VERSION})"
        )


def snapshot_state(service: PredictionService) -> dict:
    """Capture the full service state as a MessagePack-serializable dict."""
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "sessions": [session.state_dict() for session in service.broker.sessions()],
        "publisher": service.publisher.state_dict(),
    }


def apply_state(service: PredictionService, state: dict) -> PredictionService:
    """Load a :func:`snapshot_state` dict into a running service; the one
    way a state is loaded.

    The snapshot's sessions are (re)created and its publisher entries are
    **merged**: the carried jobs roll back to the snapshot, while sessions and
    predictions the service holds for other jobs stay as they are.  A shard
    applies every state pushed to it (a revive, a restore, a migration) this
    way.
    """
    check_snapshot_version(state)
    for session_state in state["sessions"]:
        session = service.broker.session(str(session_state["job"]))
        session.load_state_dict(session_state)
    service.publisher.merge_state_dict(state["publisher"])
    return service


def restore_state(state: dict, *, config: ServiceConfig | None = None) -> PredictionService:
    """Rebuild a service from a :func:`snapshot_state` dict:
    :func:`apply_state` on a fresh :class:`PredictionService`.

    The analysis/memory configuration is *not* part of the snapshot — pass
    the same :class:`ServiceConfig` the crashed service ran with (or an
    updated one, e.g. to change the worker count on the replacement host).
    """
    return apply_state(PredictionService(config), state)


def merge_states(states: Iterable[dict]) -> dict:
    """Merge per-shard snapshot states into one single-schema state.

    Shards partition the job space, so the merge is a plain concatenation of
    the session lists and a union of the publisher maps.  The result is a
    valid :func:`restore_state` input — a sharded deployment can be restored
    into a single-process service (or re-split onto a different shard count
    with :func:`split_state`).
    """
    states = list(states)
    for state in states:
        check_snapshot_version(state)
    merged_sessions: list[dict] = []
    latest: dict = {}
    latest_period: dict = {}
    for state in states:
        merged_sessions.extend(state["sessions"])
        publisher = state.get("publisher", {})
        latest.update(publisher.get("latest", {}))
        latest_period.update(publisher.get("latest_period", {}))
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "sessions": merged_sessions,
        "publisher": {"latest": latest, "latest_period": latest_period},
    }


def split_state(state: dict, owner: Callable[[str], int], n_shards: int) -> list[dict]:
    """Split one merged state into per-shard states by job ownership.

    ``owner`` maps a job id to its shard index (the sharded service passes
    its hash ring), so a snapshot taken from any deployment shape can be
    restored onto any shard count.
    """
    check_snapshot_version(state)
    shards: list[dict] = [
        {
            "snapshot_version": SNAPSHOT_VERSION,
            "sessions": [],
            "publisher": {"latest": {}, "latest_period": {}},
        }
        for _ in range(n_shards)
    ]
    for session_state in state["sessions"]:
        shards[owner(str(session_state["job"]))]["sessions"].append(session_state)
    publisher = state.get("publisher", {})
    for job, entry in publisher.get("latest", {}).items():
        shards[owner(str(job))]["publisher"]["latest"][job] = entry
    for job, period in publisher.get("latest_period", {}).items():
        shards[owner(str(job))]["publisher"]["latest_period"][job] = period
    return shards


def state_jobs(state: dict) -> set[str]:
    """Every job a snapshot state carries — sessions *and* publisher-only
    entries (a reaped job keeps its last prediction; it must stay tracked
    so a later reshard still migrates that entry with its owner)."""
    publisher = state.get("publisher", {})
    return (
        {str(session["job"]) for session in state["sessions"]}
        | {str(job) for job in publisher.get("latest", {})}
        | {str(job) for job in publisher.get("latest_period", {})}
    )


def extract_service_jobs(service: PredictionService, jobs: Iterable[str]) -> dict:
    """Capture *and remove* the given jobs from a live service.

    The migration source of a live reshard: the jobs' full session state and
    publisher entries are snapshotted, then the sessions are dropped from the
    broker and the publisher forgets them — the service no longer owns those
    jobs.  Jobs the service never saw are skipped (their state is empty).
    """
    jobs = list(jobs)  # may be a generator; it is iterated twice below
    present = set(service.broker.jobs)
    selected = [job for job in jobs if job in present]
    publisher = service.publisher.state_dict()
    wanted = set(jobs)
    state = {
        "snapshot_version": SNAPSHOT_VERSION,
        "sessions": [service.broker.session(job).state_dict() for job in selected],
        "publisher": {
            "latest": {
                job: entry for job, entry in publisher["latest"].items() if job in wanted
            },
            "latest_period": {
                job: period
                for job, period in publisher["latest_period"].items()
                if job in wanted
            },
        },
    }
    for job in selected:
        service.broker.remove(job)
    for job in wanted:
        service.publisher.forget(job)
    return state


def save_snapshot(service: PredictionService | ShardedService, path: str | Path) -> Path:
    """Write a snapshot file; returns its path.

    Goes through the service's :meth:`~repro.service.service.
    PredictionService.snapshot_state` method (rather than the bare
    :func:`snapshot_state` capture), so a single-process *or sharded* service
    can be saved, and the checkpoint it records — the spool marks
    ``compact_spools()`` retires up to, the sharded revive's recovery point —
    is taken exactly as for an in-memory snapshot.
    """
    path = Path(path)
    path.write_bytes(packb(service.snapshot_state()))
    return path


def load_snapshot(path: str | Path, *, config: ServiceConfig | None = None) -> PredictionService:
    """Restore a service from a snapshot file written by :func:`save_snapshot`."""
    state = unpackb(Path(path).read_bytes())
    if not isinstance(state, dict):
        raise TraceFormatError(f"{path}: snapshot must decode to a map")
    return restore_state(state, config=config)
