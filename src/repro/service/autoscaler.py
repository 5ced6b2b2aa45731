"""Autoscaling control loop for the sharded prediction service.

The autoscaler closes the loop the elastic machinery opened: PR 5 gave the
router :meth:`~repro.service.sharding.ShardedService.reshard` and
:meth:`~repro.service.sharding.ShardedService.revive_shard`; this module
drives them from the stats the service already exposes, so the topology
tracks offered load with no operator.  It is a classic master/worker
supervision loop — one thread, owned by the serving process (the gateway
starts it next to its accept thread), waking every
:attr:`AutoscaleConfig.interval_seconds` to:

1. read one :class:`AutoscaleSignals` snapshot from ``stats()`` — per-shard
   session count and the merged ``p99_detection_latency_seconds``;
2. feed it to the :class:`HysteresisPolicy` state machine, which turns the
   noisy signal stream into at most one action: *grow*, *shrink*, *revive*
   or *hold*;
3. apply the action through ``reshard()`` / ``revive_shard()`` (or through
   the locked callables a gateway injects).

The policy is deliberately boring and fully deterministic — that is what
makes it testable and what keeps it from flapping:

* **hysteresis bands** — scaling up needs any *high* band breached; scaling
  down needs **every** *low* band clear.  Between the bands (the dead band)
  nothing happens and both pressure streaks reset, so a load level that
  hovers at a band edge cannot alternate grow/shrink.
* **consecutive-tick streaks** — a breach must persist for
  ``up_consecutive`` (or ``down_consecutive``) ticks before it counts; a
  single spiky scrape is ignored.
* **cooldown** — after any resize, further resizes are blocked for
  ``cooldown_seconds`` (streaks keep accumulating, so a persistent breach
  acts on the first tick after the cooldown expires).
* **clamps** — the shard count never leaves
  ``[min_shards, max_shards]``.

Every piece takes an injectable clock, so the chaos/load-ramp harness
(``tests/service/test_autoscaler.py``) drives the whole loop with
:meth:`Autoscaler.tick` under a scripted fake clock and asserts that
autoscaled runs stay bit-identical to fixed-topology ones — the zero-pause
double-routed handover in :mod:`repro.service.migration` is what makes the
mid-traffic resizes invisible.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.sharding import ShardedService


@dataclass(frozen=True)
class AutoscaleConfig:
    """Policy knobs of the autoscaling control loop.

    Attributes
    ----------
    min_shards / max_shards:
        Hard clamps on the shard count; no decision ever leaves the range.
    interval_seconds:
        Supervision-thread wake period (ignored by the deterministic
        :meth:`Autoscaler.tick` path the tests drive).
    cooldown_seconds:
        Minimum time between two resizes.  Pressure streaks keep
        accumulating while the cooldown runs, so a persistent breach acts on
        the first tick after it expires.
    high_sessions_per_shard / low_sessions_per_shard:
        Hysteresis band on resident sessions per live shard.
    high_p99_latency_seconds / low_p99_latency_seconds:
        Hysteresis band on the merged p99 detection latency.
    up_consecutive / down_consecutive:
        Ticks a breach must persist before the policy acts.  Scaling down is
        conventionally slower than scaling up.
    step_shards:
        Shards added/removed per decision.
    """

    min_shards: int = 1
    max_shards: int = 8
    interval_seconds: float = 2.0
    cooldown_seconds: float = 10.0
    high_sessions_per_shard: float = 48.0
    low_sessions_per_shard: float = 12.0
    high_p99_latency_seconds: float = 0.25
    low_p99_latency_seconds: float = 0.05
    up_consecutive: int = 2
    down_consecutive: int = 3
    step_shards: int = 1

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards ({self.max_shards}) must be >= min_shards "
                f"({self.min_shards})"
            )
        if self.step_shards < 1:
            raise ValueError(f"step_shards must be >= 1, got {self.step_shards}")
        if self.up_consecutive < 1 or self.down_consecutive < 1:
            raise ValueError("consecutive-tick thresholds must be >= 1")
        for low, high, name in (
            (self.low_sessions_per_shard, self.high_sessions_per_shard, "sessions"),
            (self.low_p99_latency_seconds, self.high_p99_latency_seconds, "p99"),
        ):
            if low > high:
                raise ValueError(
                    f"{name} hysteresis band is inverted (low {low} > high {high})"
                )


@dataclass(frozen=True)
class AutoscaleSignals:
    """One scrape of the decision inputs (a canned one in the unit tests)."""

    shards: int
    dead_shards: int = 0
    sessions: int = 0
    p99_latency_seconds: float | None = None

    @classmethod
    def from_stats(cls, stats: dict) -> "AutoscaleSignals":
        """Build signals from a ``ShardedService.stats()`` document."""
        return cls(
            shards=int(stats.get("shards", 1)),
            dead_shards=int(stats.get("dead_shards", 0)),
            sessions=int(stats.get("jobs", 0)),
            p99_latency_seconds=stats.get("p99_detection_latency_seconds"),
        )


@dataclass(frozen=True)
class AutoscaleDecision:
    """One tick's outcome: what the policy chose and why."""

    action: str  # "hold" | "grow" | "shrink" | "revive"
    from_shards: int
    to_shards: int
    reason: str
    at: float

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "from_shards": self.from_shards,
            "to_shards": self.to_shards,
            "reason": self.reason,
            "at": self.at,
        }


class HysteresisPolicy:
    """The pure decision state machine — no threads, no service, no clock.

    Feed it one :class:`AutoscaleSignals` snapshot per tick together with
    the tick's timestamp; it returns an :class:`AutoscaleDecision`.  All
    state (pressure streaks, cooldown anchor) lives here, which is what the
    table-driven unit tests exercise in isolation.
    """

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        self._up_streak = 0
        self._down_streak = 0
        self._last_resize_at: float | None = None

    def note_resize(self, now: float) -> None:
        """Anchor the cooldown at ``now`` (an externally driven resize)."""
        self._last_resize_at = now
        self._up_streak = 0
        self._down_streak = 0

    def _pressures(self, signals: AutoscaleSignals) -> tuple[list[str], bool]:
        """Returns (high-band breaches, all-low-bands-clear)."""
        config = self.config
        shards = max(1, signals.shards)
        sessions_per_shard = signals.sessions / shards
        p99 = signals.p99_latency_seconds
        breaches: list[str] = []
        if sessions_per_shard > config.high_sessions_per_shard:
            breaches.append(f"sessions/shard {sessions_per_shard:.1f}")
        if p99 is not None and p99 > config.high_p99_latency_seconds:
            breaches.append(f"p99 {p99:.3f}s")
        all_low = (
            sessions_per_shard < config.low_sessions_per_shard
            and (p99 is None or p99 < config.low_p99_latency_seconds)
        )
        return breaches, all_low

    def decide(self, signals: AutoscaleSignals, now: float) -> AutoscaleDecision:
        config = self.config
        shards = signals.shards

        def decision(action: str, target: int, reason: str) -> AutoscaleDecision:
            return AutoscaleDecision(
                action=action,
                from_shards=shards,
                to_shards=target,
                reason=reason,
                at=now,
            )

        # A dead shard is a correctness problem before it is a capacity one:
        # revive first, scale later.  Revives do not consume the cooldown —
        # they restore capacity, they do not churn the topology.
        if signals.dead_shards > 0:
            return decision(
                "revive", shards, f"{signals.dead_shards} dead shard(s)"
            )
        breaches, all_low = self._pressures(signals)
        if breaches:
            self._up_streak += 1
            self._down_streak = 0
            pressure = "up"
            reason = ", ".join(breaches)
        elif all_low:
            self._down_streak += 1
            self._up_streak = 0
            pressure = "down"
            reason = "all signals below the low bands"
        else:
            # Dead band: the load sits between the bands.  Resetting both
            # streaks here is the flap suppression — hovering at a band edge
            # can never alternate grow/shrink decisions.
            self._up_streak = 0
            self._down_streak = 0
            return decision("hold", shards, "within hysteresis bands")
        in_cooldown = (
            self._last_resize_at is not None
            and now - self._last_resize_at < config.cooldown_seconds
        )
        if pressure == "up":
            if self._up_streak < config.up_consecutive:
                return decision("hold", shards, f"up pressure ({reason}), streak building")
            if in_cooldown:
                return decision("hold", shards, f"up pressure ({reason}), in cooldown")
            if shards >= config.max_shards:
                return decision("hold", shards, f"up pressure ({reason}), at max_shards")
            target = min(config.max_shards, shards + config.step_shards)
            self.note_resize(now)
            return decision("grow", target, reason)
        if self._down_streak < config.down_consecutive:
            return decision("hold", shards, "down pressure, streak building")
        if in_cooldown:
            return decision("hold", shards, "down pressure, in cooldown")
        if shards <= config.min_shards:
            return decision("hold", shards, "down pressure, at min_shards")
        target = max(config.min_shards, shards - config.step_shards)
        self.note_resize(now)
        return decision("shrink", target, reason)


class Autoscaler:
    """Supervision loop binding a :class:`HysteresisPolicy` to a service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.sharding.ShardedService` to scale.
    config:
        Policy knobs; defaults to ``AutoscaleConfig()``.
    clock:
        Injectable monotonic clock — the chaos tests script it.
    resize:
        Override for applying a grow/shrink (receives the target shard
        count).  The gateway injects its engine-locked ``resize`` here;
        the default calls ``service.reshard`` directly with this
        autoscaler's ``on_phase`` hook.
    revive:
        Override for healing one dead shard (receives the shard index).
        The gateway injects its engine-locked revive here, for the same
        reason; the default revives from the service's last snapshot.
    on_phase:
        Forwarded to ``service.reshard(on_phase=...)`` on the default
        resize path — the chaos harness injects kill-9s into
        autoscaler-initiated reshards through it.
    timeline_capacity:
        Decisions retained for the ``/status`` ops surface.
    """

    def __init__(
        self,
        service: "ShardedService",
        config: AutoscaleConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        resize: Callable[[int], object] | None = None,
        revive: Callable[[int], object] | None = None,
        on_phase: Callable[[str], None] | None = None,
        timeline_capacity: int = 256,
    ) -> None:
        self.service = service
        self.config = config or AutoscaleConfig()
        self.policy = HysteresisPolicy(self.config)
        self._clock = clock
        self._resize = resize
        self._revive = revive
        self._on_phase = on_phase
        self._timeline: deque[AutoscaleDecision] = deque(maxlen=timeline_capacity)
        self._decisions = {"grow": 0, "shrink": 0, "revive": 0, "hold": 0}
        self._errors = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        metrics = getattr(service, "metrics", None)
        if metrics is not None:
            for action in ("grow", "shrink", "revive", "hold"):
                metrics.register_view(
                    "repro_autoscaler_decisions_total",
                    "counter",
                    lambda action=action: self._decisions[action],
                    {"action": action},
                    help="Autoscaler decisions by action",
                )
            metrics.register_view(
                "repro_autoscaler_errors_total",
                "counter",
                lambda: self._errors,
                help="Autoscaler ticks that raised (the loop keeps running)",
            )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def decision_counts(self) -> dict[str, int]:
        """Decisions taken so far, by action (includes holds)."""
        with self._lock:
            return dict(self._decisions)

    def timeline(self) -> list[dict]:
        """Recent acted decisions (grow/shrink/revive), oldest first."""
        with self._lock:
            return [decision.to_dict() for decision in self._timeline]

    def status(self) -> dict:
        """JSON-friendly summary for the gateway ``/status`` document."""
        with self._lock:
            timeline = [decision.to_dict() for decision in self._timeline]
            decisions = dict(self._decisions)
        return {
            "enabled": True,
            "running": self._thread is not None and self._thread.is_alive(),
            "min_shards": self.config.min_shards,
            "max_shards": self.config.max_shards,
            "interval_seconds": self.config.interval_seconds,
            "cooldown_seconds": self.config.cooldown_seconds,
            "decisions": decisions,
            "errors": self._errors,
            "timeline": timeline[-32:],
        }

    # ------------------------------------------------------------------ #
    # the control loop
    # ------------------------------------------------------------------ #
    def signals(self) -> AutoscaleSignals:
        """One scrape of the decision inputs from the live service.

        Liveness is probed first: a heartbeat round convicts shards
        ``waitpid`` cannot see — a kill-9'd *remote* worker (connection
        loss) or a process that still holds its channels while wedged
        (SIGSTOP) — so ``dead_shards`` reflects them and the revive-first
        policy heals them this same tick.
        """
        heartbeat = getattr(self.service, "heartbeat", None)
        if heartbeat is not None:
            try:
                heartbeat()
            except Exception:  # noqa: BLE001 - the probe is advisory
                pass
        return AutoscaleSignals.from_stats(self.service.stats())

    def tick(self, now: float | None = None) -> AutoscaleDecision:
        """Run one deterministic control iteration and apply its decision.

        ``now`` overrides the clock (the fake-clock tests pass scripted
        times).  Raises whatever the applied action raises — the supervision
        thread catches and counts, the tests see the failure.
        """
        now = self._clock() if now is None else now
        decision = self.policy.decide(self.signals(), now)
        self._apply(decision)
        with self._lock:
            self._decisions[decision.action] += 1
            if decision.action != "hold":
                self._timeline.append(decision)
        return decision

    def _apply(self, decision: AutoscaleDecision) -> None:
        if decision.action == "revive":
            for index in self.service.dead_shards():
                if self._revive is not None:
                    self._revive(index)
                else:
                    self.service.revive_shard(index)
            return
        if decision.action in ("grow", "shrink"):
            if self._resize is not None:
                self._resize(decision.to_shards)
            else:
                self.service.reshard(decision.to_shards, on_phase=self._on_phase)

    # ------------------------------------------------------------------ #
    # supervision thread
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the supervision thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-autoscaler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the thread and join it (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_seconds):
            try:
                self.tick()
            except Exception:
                # The supervision loop must outlive any one bad tick (a
                # shard crash mid-scrape, a reshard racing a manual resize);
                # the error count is on the ops surface.
                with self._lock:
                    self._errors += 1


__all__ = [
    "AutoscaleConfig",
    "AutoscaleDecision",
    "AutoscaleSignals",
    "Autoscaler",
    "HysteresisPolicy",
]
