"""Connection-loss behavior of :class:`~repro.client.ServiceClient`.

The contract: a dropped TCP connection is *transparent* for idempotent
control calls (``stats``, ``snapshot``, ``subscribe``, ``resize`` — the
client reconnects, re-handshakes, re-subscribes and retries once) and a
*typed, immediate* failure — :class:`~repro.exceptions.ConnectionLostError`,
never a hang, never a silent double-apply — for calls whose server-side
effect is unknowable after the drop (``submit``, ``pump``, ``drain``,
``restore``).
"""

from __future__ import annotations

import socket

import pytest

from repro.client import ServiceClient
from repro.core import FtioConfig
from repro.exceptions import ConnectionLostError
from repro.service import (
    PredictionService,
    ServiceConfig,
    SessionConfig,
    ThreadedGateway,
)

@pytest.fixture()
def service_config():
    return ServiceConfig(
        session=SessionConfig(
            config=FtioConfig(
                sampling_frequency=10.0,
                use_autocorrelation=False,
                compute_characterization=False,
            )
        ),
    )


@pytest.fixture()
def gateway(service_config):
    with ThreadedGateway(PredictionService(service_config), own_engine=True) as gw:
        yield gw


@pytest.fixture()
def job_flushes():
    from repro.workloads import synthetic_flush_streams

    return synthetic_flush_streams(1, flushes_per_job=6, requests_per_flush=8, seed=1)[
        "job-000"
    ]


def drop_connection(client: ServiceClient) -> None:
    """Sever the client's TCP connection out from under it (network fault)."""
    try:
        client._sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already torn down by the previous fault
        pass


class TestIdempotentRetry:
    def test_stats_survives_a_dropped_connection(self, gateway, job_flushes):
        with ServiceClient(gateway.host, gateway.port) as client:
            client.submit_flush("job-000", job_flushes[0])
            client.pump()
            before = client.stats()
            drop_connection(client)
            after = client.stats()  # transparent reconnect + retry
            assert after == before
            assert client.reconnects == 1

    def test_snapshot_survives_a_dropped_connection(self, gateway, job_flushes):
        with ServiceClient(gateway.host, gateway.port) as client:
            client.submit_flush("job-000", job_flushes[0])
            client.drain()
            drop_connection(client)
            state = client.snapshot()
            assert {s["job"] for s in state["sessions"]} == {"job-000"}
            assert client.reconnects == 1

    def test_reconnect_can_be_disabled(self, gateway):
        with ServiceClient(gateway.host, gateway.port, reconnect=False) as client:
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.stats()

    def test_server_gone_surfaces_typed_not_raw_oserror(self, service_config):
        # When the reconnect itself fails (server down), the retry contract
        # stays typed: ConnectionLostError, never a bare ConnectionRefusedError
        # out of socket.create_connection.
        gw = ThreadedGateway(PredictionService(service_config), own_engine=True).start()
        client = ServiceClient(gw.host, gw.port)
        gw.close()
        try:
            with pytest.raises(ConnectionLostError):
                client.stats()
        finally:
            client.close()

    def test_each_call_retries_at_most_once(self, gateway, monkeypatch):
        # If the *reconnected* socket dies too, the typed error surfaces
        # instead of an unbounded retry loop.
        with ServiceClient(gateway.host, gateway.port) as client:
            drop_connection(client)
            original = ServiceClient._reconnect

            def reconnect_then_drop(self):
                original(self)
                drop_connection(self)

            monkeypatch.setattr(ServiceClient, "_reconnect", reconnect_then_drop)
            with pytest.raises(ConnectionLostError):
                client.stats()


class TestHandshakeFailures:
    """A rejected Hello must never bind a dead socket or escape untyped."""

    @pytest.fixture()
    def token_gateway(self, service_config):
        engine = PredictionService(service_config)
        with ThreadedGateway(engine, own_engine=True, token=5) as gw:
            yield gw

    def test_rejected_hello_at_construction_raises_service_error(self, token_gateway):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError, match="token"):
            ServiceClient(token_gateway.host, token_gateway.port, token=3)

    def test_reconnect_handshake_rejection_surfaces_typed(self, token_gateway):
        # Credential rotation mid-session: the server now rejects the Hello
        # of the transparent reconnect.  The retry contract stays typed —
        # ConnectionLostError, never the raw ServiceError/ProtocolError from
        # inside the handshake.
        client = ServiceClient(token_gateway.host, token_gateway.port, token=5)
        try:
            client._token = 3  # simulate rotated server credentials
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.stats()
            assert client.reconnects == 0
            # The failed reconnect closed the old socket: a poll on it is the
            # same typed error, not a raw EBADF out of the timed wait.
            with pytest.raises(ConnectionLostError):
                client.poll_predictions(timeout=0.05)
        finally:
            client._closed = True
            client._sock.close()

    def test_failed_handshake_never_rebinds_the_socket(self, token_gateway):
        # _connect must bind self._sock only after a *successful* handshake;
        # a rejected reconnect must not leave the client holding the fresh
        # -but-already-closed socket in place of the old one.
        client = ServiceClient(token_gateway.host, token_gateway.port, token=5)
        try:
            before = client._sock
            client._token = 3
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.stats()
            assert client._sock is before
        finally:
            client._closed = True
            client._sock.close()


class TestNonIdempotentTypedError:
    def test_submit_and_pump_raise_typed_error(self, gateway, job_flushes):
        with ServiceClient(gateway.host, gateway.port) as client:
            client.submit_flush("job-000", job_flushes[0])
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.submit_flush("job-000", job_flushes[1])
            # The failure poisons nothing permanently: the next idempotent
            # call reconnects, and the session's earlier data is intact.
            assert client.stats()["flushes"] == 1
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.pump()
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.drain()

    def test_restore_raises_typed_error(self, gateway, job_flushes):
        with ServiceClient(gateway.host, gateway.port) as client:
            client.submit_flush("job-000", job_flushes[0])
            client.drain()
            state = client.snapshot()
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.restore(state)


class TestSubscriptionReconnect:
    def test_mid_subscription_drop_is_transparent(
        self, gateway, job_flushes, service_config
    ):
        monitor = ServiceClient(gateway.host, gateway.port, name="monitor")
        try:
            monitor.subscribe(["job-000"])
            drop_connection(monitor)
            with ServiceClient(gateway.host, gateway.port, name="driver") as driver:
                for flush in job_flushes[:4]:
                    driver.submit_flush("job-000", flush)
                    driver.pump()
                # The monitor notices the dead socket inside the poll,
                # reconnects, re-subscribes, and keeps streaming.
                events = []
                for _ in range(10):
                    driver.pump()
                    events = monitor.poll_predictions(timeout=1.0, min_events=1)
                    if events:
                        break
                    driver.submit_flush("job-000", job_flushes[4])
            assert monitor.reconnects >= 1
            assert events and all(e.job == "job-000" for e in events)
        finally:
            monitor.close()

    def test_unsubscribed_drop_mid_poll_raises(self, gateway):
        # Without a subscription there is nothing to restore: the drop is a
        # real error, not something to silently paper over.
        with ServiceClient(gateway.host, gateway.port) as client:
            drop_connection(client)
            with pytest.raises(ConnectionLostError):
                client.poll_predictions(timeout=2.0)
