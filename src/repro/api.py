"""The unified public API of the FTIO reproduction.

One frozen configuration object and four verbs cover the library's offline
and streaming entry points::

    import repro.api as api

    config = api.ReproConfig().with_analysis(sampling_frequency=10.0)

    result = api.detect(trace, config=config)          # offline detection
    steps = api.predict(trace, flush_times, config=config)  # online replay

    with api.serve(config.with_(shards=2)) as gateway:  # TCP service
        with api.connect(gateway.address) as client:    # blocking client
            client.submit_flush("job-0", flush)
            client.pump()

:class:`ReproConfig` subsumes the constructor kwargs previously scattered
across :class:`~repro.core.config.FtioConfig`,
:class:`~repro.service.session.SessionConfig`,
:class:`~repro.service.service.ServiceConfig` and the
:class:`~repro.service.sharding.ShardedService` /
:class:`~repro.service.gateway.ThreadedGateway` constructors.  It is frozen;
derive variants with :meth:`ReproConfig.with_` /
:meth:`ReproConfig.with_analysis`, and lower it to the layer-specific
configs with :meth:`ReproConfig.session_config` /
:meth:`ReproConfig.service_config` when working with those layers directly
(they all remain public and fully supported).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.config import FtioConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.client import ServiceClient
    from repro.core.ftio import FtioResult
    from repro.core.online import PredictionStep
    from repro.service.autoscaler import AutoscaleConfig
    from repro.service.gateway import ThreadedGateway
    from repro.service.service import PredictionService, ServiceConfig
    from repro.service.session import SessionConfig
    from repro.service.sharding import ShardedService


@dataclass(frozen=True)
class ReproConfig:
    """Every knob of the detect → predict → serve pipeline, in one place.

    Attributes
    ----------
    analysis:
        The FTIO analysis configuration (sampling frequency, outlier method,
        autocorrelation refinement, ...).
    adaptive_window:
        Online mode: enable the adaptive analysis window (Section II-D).
    max_samples:
        Per-job hard cap on resident requests in a streaming session.
    min_detection_interval:
        Minimum trace-time seconds between evaluations of one job.
    min_requests:
        Evaluations are skipped while fewer requests are resident.
    max_workers:
        Must be ``0``.  The detection worker pool was removed: every
        evaluation runs inline in the thread that pumps.  Any other value
        raises ``ValueError``.
    shards:
        Worker shards of the service; 0 runs single-process, N >= 1 spawns a
        :class:`~repro.service.sharding.ShardedService` of N subprocesses
        (the count is live-resizable afterwards — see
        :meth:`~repro.service.sharding.ShardedService.reshard` and
        :meth:`~repro.client.ServiceClient.resize`).
    replicas:
        Virtual nodes per shard on the consistent-hash ring.
    token:
        Wire-level tenant/auth nibble (0..15) required of frames and peers.
    auto_revive:
        Transparently revive crashed shards from the last snapshot.
    revive_budget:
        Maximum automatic revives before crashes surface again.
    metrics:
        Maintain the unified metrics registry (counters, gauges, latency
        histograms; see :mod:`repro.obs`).
    spans:
        Record frame-lifecycle spans into a bounded journal (off by default;
        a debugging aid, not a production counter).
    host, port:
        TCP listen address of :func:`serve` (port 0 picks a free port).
    ops_port:
        When not ``None``, :func:`serve` also exposes the HTTP ops surface
        (``/healthz``, ``/status``, ``/metrics``) on this port (0 picks a
        free one; read ``gateway.ops_port`` afterwards).
    autoscale:
        When not ``None`` (and ``shards > 0``), :func:`serve` runs an
        :class:`~repro.service.autoscaler.Autoscaler` with this
        :class:`~repro.service.autoscaler.AutoscaleConfig`, growing and
        shrinking the shard topology with the offered load (zero-pause
        double-routed migrations; decisions on ``/status``).
    shard_port:
        When not ``None`` (and ``shards > 0``), the router listens on this
        TCP port for dial-home ``repro-shard`` workers (``python -m
        repro.shard --connect host:port``) so shards can run on other
        machines.
    placement:
        Per-shard placement (``"local"`` / ``"remote"``); remote slots adopt
        dial-home workers from ``shard_port``.  ``None`` = all local.
    heartbeat_timeout:
        Seconds without a read-plane heartbeat answer before a shard is
        declared dead (catches hung workers and lost connections, not just
        local process exits).
    """

    analysis: FtioConfig = field(default_factory=FtioConfig)
    # --- streaming session ------------------------------------------------ #
    adaptive_window: bool = True
    max_samples: int = 65_536
    min_detection_interval: float = 0.0
    min_requests: int = 1
    # --- service ----------------------------------------------------------- #
    max_workers: int = 0
    shards: int = 0
    replicas: int = 64
    token: int | None = None
    auto_revive: bool = False
    revive_budget: int = 3
    # --- federation --------------------------------------------------------- #
    shard_port: int | None = None
    placement: tuple[str, ...] | None = None
    heartbeat_timeout: float = 5.0
    # --- observability ------------------------------------------------------ #
    metrics: bool = True
    spans: bool = False
    # --- gateway ----------------------------------------------------------- #
    host: str = "127.0.0.1"
    port: int = 0
    ops_port: int | None = None
    autoscale: "AutoscaleConfig | None" = None

    def __post_init__(self) -> None:
        if self.max_workers != 0:
            raise ValueError(
                f"max_workers must be 0, got {self.max_workers}: the detection "
                "worker pool was removed; evaluations run inline in the pumping thread"
            )

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    def with_(self, **changes: Any) -> "ReproConfig":
        """A copy with the given top-level fields replaced."""
        return replace(self, **changes)

    def with_analysis(self, **changes: Any) -> "ReproConfig":
        """A copy with the given :class:`FtioConfig` fields replaced."""
        return replace(self, analysis=self.analysis.with_updates(**changes))

    # ------------------------------------------------------------------ #
    # lowering to the layer configs
    # ------------------------------------------------------------------ #
    def session_config(self) -> "SessionConfig":
        """The per-job :class:`SessionConfig` this configuration describes."""
        from repro.service.session import SessionConfig

        return SessionConfig(
            config=self.analysis,
            adaptive_window=self.adaptive_window,
            max_samples=self.max_samples,
            min_detection_interval=self.min_detection_interval,
            min_requests=self.min_requests,
        )

    def service_config(self) -> "ServiceConfig":
        """The :class:`ServiceConfig` this configuration describes."""
        from repro.service.service import ServiceConfig

        return ServiceConfig(
            session=self.session_config(),
            token=self.token,
            auto_revive=self.auto_revive,
            revive_budget=self.revive_budget,
            metrics=self.metrics,
            spans=self.spans,
            shard_port=self.shard_port,
            heartbeat_timeout=self.heartbeat_timeout,
        )

    def build_service(self) -> "PredictionService | ShardedService":
        """Build the configured engine: single-process or sharded."""
        from repro.service.service import PredictionService
        from repro.service.sharding import ShardedService

        if self.shards > 0:
            return ShardedService(
                self.shards,
                self.service_config(),
                replicas=self.replicas,
                placement=None if self.placement is None else list(self.placement),
            )
        return PredictionService(self.service_config())


def _analysis_config(
    config: "ReproConfig | FtioConfig | None", overrides: dict[str, Any]
) -> FtioConfig:
    if config is None:
        return FtioConfig(**overrides)
    if isinstance(config, ReproConfig):
        config = config.analysis
    return config.with_updates(**overrides) if overrides else config


# --------------------------------------------------------------------- #
# the four verbs
# --------------------------------------------------------------------- #
def detect(
    source: Any, *, config: "ReproConfig | FtioConfig | None" = None, **overrides: Any
) -> "FtioResult":
    """Offline FTIO detection over a finished trace or signal.

    ``source`` is anything :meth:`repro.core.ftio.Ftio.detect` accepts (a
    :class:`~repro.trace.trace.Trace`, a bandwidth or discrete signal, a
    Darshan heatmap).  ``overrides`` tweak individual analysis fields on top
    of ``config`` — ``detect(trace, sampling_frequency=1.0)`` works without
    building any config object.
    """
    from repro.core.ftio import Ftio

    return Ftio(_analysis_config(config, overrides)).detect(source)


def predict(
    trace: Any,
    prediction_times: list[float],
    *,
    config: "ReproConfig | FtioConfig | None" = None,
    **overrides: Any,
) -> "list[PredictionStep]":
    """Online prediction replay: reveal ``trace`` flush by flush.

    Runs :func:`repro.core.online.replay_online` with the analysis settings
    of ``config`` (adaptive window included when a :class:`ReproConfig` is
    given).
    """
    from repro.core.online import replay_online

    adaptive = config.adaptive_window if isinstance(config, ReproConfig) else True
    return replay_online(
        trace,
        prediction_times,
        config=_analysis_config(config, overrides),
        adaptive_window=adaptive,
    )


def serve(
    config: "ReproConfig | None" = None,
    *,
    service: "PredictionService | ShardedService | None" = None,
) -> "ThreadedGateway":
    """Start a TCP gateway serving the configured prediction service.

    Builds the engine from ``config`` (single-process, or sharded when
    ``config.shards > 0``) — or fronts an existing ``service`` — and returns
    a started :class:`~repro.service.gateway.ThreadedGateway` listening on
    ``config.host`` / ``config.port``, with the HTTP ops surface on
    ``config.ops_port`` and an autoscaler when ``config.autoscale`` is set.
    The gateway owns an engine it built (closing the gateway closes it) but
    never an engine that was passed in.

    For a sharded engine the shard count is only the *initial* topology:
    it is mutable at runtime, locally via
    :meth:`~repro.service.gateway.ThreadedGateway.resize` or from any
    connected client via :meth:`~repro.client.ServiceClient.resize` — a
    live, minimal-movement reshard (sessions migrate over the chunked
    snapshot transfer; in-flight frames are double-routed, never paused).

    Use as a context manager::

        with api.serve(api.ReproConfig(shards=2)) as gateway:
            client = api.connect(gateway.address)
            client.resize(4)          # grow the live service to 4 shards

    Set ``autoscale=AutoscaleConfig(...)`` on the config
    (``config.with_(autoscale=...)``) to let the service drive those resizes
    itself from its own load signals.
    """
    from repro.service.gateway import ThreadedGateway

    config = config or ReproConfig()
    own_engine = service is None
    engine = config.build_service() if service is None else service
    gateway = ThreadedGateway(
        engine,
        host=config.host,
        port=config.port,
        token=config.token,
        ops_port=config.ops_port,
        own_engine=own_engine,
        autoscale=config.autoscale,
    )
    return gateway.start()


def connect(
    address: str,
    port: int | None = None,
    *,
    token: int | None = None,
    timeout: float = 30.0,
    name: str = "repro-client",
) -> "ServiceClient":
    """Connect a blocking :class:`~repro.client.ServiceClient` to a gateway.

    ``address`` is either a ``"host:port"`` string (the
    :attr:`~repro.service.gateway.ThreadedGateway.address` of a running
    gateway) or a bare host with ``port`` passed separately.
    """
    from repro.client import ServiceClient

    if port is None:
        host, _, port_text = address.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(
                f"connect() needs 'host:port' or (host, port), got {address!r}"
            )
        address, port = host, int(port_text)
    return ServiceClient(address, port, token=token, timeout=timeout, name=name)


__all__ = ["ReproConfig", "detect", "predict", "serve", "connect"]
