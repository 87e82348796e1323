"""Pooled-connection staleness and the one failure policy: at most once.

A connection that dies while idle in the pool (server restart being the
canonical cause) is found *before* the next request is sent — the
blocking pool tests a socket as it leaves the idle queue, the asyncio
pool skips connections whose reader has exited and redials once all are
gone, which is what lets a restarted remote shard rejoin a cluster
through :class:`~repro.cluster.aio.AsyncRemoteShard` — so it costs the
caller nothing.  A call whose connection dies or times out *in flight*
raises its typed error once and is never replayed: a mutation whose
reply is lost is applied at most once, on both clients, and the next
call dials fresh.  A request refused locally leaves no state behind.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.errors import ConnectionClosedError, FrameTooLargeError
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
            assert client.ping()  # found dead at checkout: evict, dial fresh

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
        """A server that cannot be reached surfaces, and poisons no other client."""
        with StegFSClient(*address) as client:
            assert client.ping()
            server_gone = StegFSClient(address[0], 1, timeout=0.5)
            with pytest.raises(OSError):
                server_gone.ping()
            server_gone.close()

    def test_fresh_connection_failure_not_retried(self):
        """A brand-new connection that cannot reach the server fails fast
        (connection refused)."""
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
        """The call that meets the outage fails, the next one redials."""
        handle = start_in_thread(service, credentials={USER: UAK})
        host, port = handle.address

        async def scenario() -> None:
            nonlocal handle
            async with AsyncStegFSClient(host, port, pool_size=2) as client:
                await client.create("/kept", b"across the restart")
                handle.stop()
                await asyncio.wait_for(client._conns[0].reader_task, timeout=30)
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


class TestAtMostOnce:
    """A mutation whose reply is lost is applied at most once."""

    def test_lost_reply_is_not_replayed(self, address, kill_switch_proxy):
        proxy = kill_switch_proxy(address)
        with StegFSClient(*proxy.address) as client, StegFSClient(*address) as direct:
            client.create("/log", b"A")  # the socket has carried an exchange
            proxy.arm(0, client_to_server=False)
            with pytest.raises((ConnectionClosedError, OSError)):
                client.append("/log", b"B")
            assert direct.read("/log") == b"AB"
            # The next call dials fresh, inside the pool's bound.
            proxy.disarm()
            assert client.read("/log") == b"AB"
            assert client._created == 1

    def test_slow_reply_times_out_once(self, address, service, monkeypatch):
        applied = []
        first_done = threading.Event()
        append = service.append

        def slow_append(path, data):
            applied.append(data)
            time.sleep(0.6)  # longer than the client waits
            append(path, data)
            first_done.set()

        monkeypatch.setattr(service, "append", slow_append)
        with StegFSClient(*address, timeout=0.2) as client:
            client.create("/log", b"A")
            with pytest.raises(TimeoutError):
                client.append("/log", b"B")
            # A replay would have reached the server well before the
            # first application finished.
            assert first_done.wait(timeout=30)
            assert applied == [b"B"]
            assert client.read("/log") == b"AB"
            assert client._created == 1

    def test_async_lost_reply_is_not_replayed(self, address, kill_switch_proxy):
        """The pipelined client has no socket timeout; the policy is shared."""
        proxy = kill_switch_proxy(address)

        async def scenario() -> bytes:
            async with AsyncStegFSClient(*proxy.address) as client:
                await client.create("/log", b"A")
                proxy.arm(0, client_to_server=False)
                with pytest.raises((ConnectionClosedError, OSError)):
                    await client.append("/log", b"B")
                proxy.disarm()
                return await client.read("/log")  # redials

        assert asyncio.run(scenario()) == b"AB"
        with StegFSClient(*address) as direct:
            assert direct.read("/log") == b"AB"


class TestRefusedRequestLeavesNoState:
    """Only a broken exchange costs a connection; a refusal costs nothing."""

    def test_async_local_refusal_registers_nothing(self, address):
        unretrieved = []

        async def scenario() -> None:
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _loop, ctx: unretrieved.append(ctx))
            client = AsyncStegFSClient(*address, max_frame=4096, max_message=8192)
            await client.open()
            with pytest.raises(FrameTooLargeError):
                await client.create("/big", b"x" * 100_000)
            assert client._conns[0].pending == {}
            assert await client.ping()
            await client.close()

        asyncio.run(scenario())
        assert unretrieved == []

    def test_local_refusal_keeps_the_socket(self, address):
        with StegFSClient(*address, max_frame=4096, max_message=8192) as client:
            assert client.ping()
            (conn,) = client._idle.queue
            with pytest.raises(FrameTooLargeError):
                client.create("/big", b"x" * 100_000)
            assert client.ping()
            assert list(client._idle.queue) == [conn]
            assert client._created == 1

    def test_remote_protocol_error_keeps_the_socket(self, address):
        """A typed *remote* error is a complete exchange even when its
        class subclasses ProtocolError, the local desynchronization signal."""
        with StegFSClient(*address, max_frame=1024) as client:
            assert client.ping()
            (conn,) = client._idle.queue
            with pytest.raises(FrameTooLargeError, match="does not accept"):
                client.mkdir("/" + "d" * 4096)
            assert client.ping()
            assert list(client._idle.queue) == [conn]
            assert client._created == 1
