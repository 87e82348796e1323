"""Pooled-connection staleness: evict broken sockets, retry once, transparently.

A connection that dies while idle in the LIFO pool (server restart being
the canonical cause) used to surface a raw socket error on its next use.
The client now evicts the broken socket and replays the exchange once on
a fresh connection.  The asyncio client redials its dead pool on the
next call instead — which is what lets a restarted remote shard rejoin a
cluster through :class:`~repro.cluster.aio.AsyncRemoteShard`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConnectionClosedError
from repro.net.client import AsyncStegFSClient, StegFSClient
from repro.net.server import start_in_thread

USER = "alice"
UAK = b"A" * 32


def _break_idle_connection(client: StegFSClient) -> None:
    """Simulate a connection dying while parked in the pool."""
    conn = client._idle.get_nowait()
    conn.sock.close()
    client._idle.put(conn)


class TestStaleEviction:
    def test_idle_death_is_transparent(self, address):
        with StegFSClient(*address) as client:
            assert client.ping()  # pools one healthy connection
            _break_idle_connection(client)
            assert client.ping()  # evict + retry on a fresh socket

    def test_operations_retry_too(self, address):
        with StegFSClient(*address) as client:
            client.login(USER, UAK)
            client.steg_create("persistent", data=b"payload")
            _break_idle_connection(client)
            assert client.steg_read("persistent") == b"payload"

    def test_login_survives_stale_connection(self, address):
        with StegFSClient(*address) as client:
            assert client.ping()
            _break_idle_connection(client)
            client.login(USER, UAK)
            assert client.steg_list() == []

    def test_pool_does_not_leak_slots(self, address):
        """Eviction must free the slot so the pool can rebuild it."""
        with StegFSClient(*address, pool_size=1) as client:
            for _ in range(3):
                assert client.ping()
                _break_idle_connection(client)
            assert client.ping()
            assert client._created == 1

    def test_repeated_failure_still_raises(self, address):
        """Retry is once: a second consecutive transport death surfaces."""
        with StegFSClient(*address) as client:
            assert client.ping()
            server_gone = StegFSClient(address[0], 1, timeout=0.5)
            with pytest.raises(OSError):
                server_gone.ping()
            server_gone.close()

    def test_fresh_connection_failure_not_retried(self):
        """A brand-new connection that cannot reach the server fails fast
        (connection refused), with no retry storm."""
        client = StegFSClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(OSError):
            client.ping()
        client.close()


class TestServerRestart:
    def test_client_survives_server_restart(self, service):
        """The canonical scenario: the server process bounces between two
        calls on the same pooled client."""
        handle = start_in_thread(service, credentials={USER: UAK})
        host, port = handle.address
        client = StegFSClient(host, port)
        try:
            assert client.ping()
            handle.stop()
            # Rebind the same port with a fresh server over the same
            # (still-open) service.
            handle = start_in_thread(
                service, host=host, port=port, credentials={USER: UAK}
            )
            assert client.ping()
        finally:
            client.close()
            handle.stop()

    def test_async_client_redials_after_server_restart(self, service):
        """The async pool has no retry-once: the call that meets the
        outage fails, the next one redials."""
        handle = start_in_thread(service, credentials={USER: UAK})
        host, port = handle.address

        async def scenario() -> None:
            nonlocal handle
            async with AsyncStegFSClient(host, port, pool_size=2) as client:
                await client.create("/kept", b"across the restart")
                handle.stop()
                await asyncio.wait_for(client._reader_task, timeout=30)
                with pytest.raises(ConnectionClosedError):
                    await client.ping()
                handle = start_in_thread(
                    service, host=host, port=port, credentials={USER: UAK}
                )
                assert await client.ping()
                assert await client.read("/kept") == b"across the restart"

        try:
            asyncio.run(scenario())
        finally:
            handle.stop()

    def test_pending_call_during_outage_raises_cleanly(self, service):
        handle = start_in_thread(service, credentials={USER: UAK})
        host, port = handle.address
        client = StegFSClient(host, port)
        try:
            assert client.ping()
            handle.stop()
            with pytest.raises((ConnectionClosedError, OSError)):
                client.ping()
        finally:
            client.close()
