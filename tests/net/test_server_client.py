"""End-to-end server + client tests over real localhost sockets."""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import threading

import pytest

from repro.errors import (
    ConnectionClosedError,
    FileNotFoundError_,
    HandshakeError,
    HiddenObjectNotFoundError,
    SessionAuthError,
    UnknownOperationError,
)
from repro.fs.inode import FileType
from repro.net.client import AsyncStegFSClient, StegFSClient
from repro.net.protocol import (
    FrameReceiver,
    Request,
    encode_frame_vectored,
    sendmsg_all,
)

# Must match the credentials tests/net/conftest.py registers on the server.
USER = "alice"
UAK = b"A" * 32


@pytest.fixture
def client(address):
    with StegFSClient(*address, pool_size=2) as c:
        yield c


@pytest.fixture
def logged_in(client):
    client.login(USER, UAK)
    return client


class TestPlainNamespace:
    def test_create_read_write_roundtrip(self, client):
        client.create("/a.txt", b"one")
        assert client.read("/a.txt") == b"one"
        client.write("/a.txt", b"two")
        assert client.read("/a.txt") == b"two"
        client.append("/a.txt", b" three")
        assert client.read("/a.txt") == b"two three"

    def test_dirs_listdir_exists_stat(self, client):
        client.mkdir("/d")
        client.create("/d/f", b"x" * 600)
        assert client.exists("/d/f") and not client.exists("/d/g")
        assert client.listdir("/d") == ["f"]
        stat = client.stat("/d/f")
        assert stat.size == 600 and stat.type == FileType.REGULAR
        assert client.stat("/d").is_dir
        client.unlink("/d/f")
        client.rmdir("/d")
        assert not client.exists("/d")

    def test_typed_error_for_missing_file(self, client):
        with pytest.raises(FileNotFoundError_):
            client.read("/nope")

    def test_flush_and_ping(self, client):
        client.create("/f", b"data")
        client.flush()
        assert client.ping() is True


class TestHandshake:
    def test_login_then_hidden_ops(self, logged_in):
        logged_in.steg_create("secret", data=b"payload")
        assert logged_in.steg_read("secret") == b"payload"

    def test_hidden_op_without_login_is_typed_error(self, client):
        with pytest.raises(HandshakeError):
            client.steg_read("secret")

    def test_wrong_key_rejected(self, address):
        with StegFSClient(*address) as impostor:
            with pytest.raises(SessionAuthError):
                impostor.login(USER, b"B" * 32)

    def test_unknown_user_rejected_identically(self, address):
        with StegFSClient(*address) as impostor:
            with pytest.raises(SessionAuthError) as unknown:
                impostor.login("mallory", UAK)
            with pytest.raises(SessionAuthError) as wrong_key:
                impostor.login(USER, b"B" * 32)
        # Same class; messages differ only by user id (no oracle on which
        # users exist).
        assert type(unknown.value) is type(wrong_key.value)

    def test_stale_token_after_logout(self, logged_in):
        token = logged_in._token
        logged_in.logout()
        logged_in._token = token
        with pytest.raises(SessionAuthError):
            logged_in.connected_names()

    def test_auth_failure_counted(self, server, address):
        with StegFSClient(*address) as impostor:
            with pytest.raises(SessionAuthError):
                impostor.login(USER, b"B" * 32)
        assert server.server.stats.auth_failures == 1


class TestHiddenNamespace:
    def test_full_lifecycle(self, logged_in):
        c = logged_in
        c.steg_create("doc", data=b"v1")
        c.steg_write("doc", b"version-two")
        assert c.steg_read("doc") == b"version-two"
        assert c.steg_list() == ["doc"]
        c.steg_delete("doc")
        with pytest.raises(HiddenObjectNotFoundError):
            c.steg_read("doc")

    def test_extent_io(self, logged_in):
        c = logged_in
        c.steg_create("big", data=b"\x00" * 3000)
        c.steg_write_extent("big", 1000, b"MIDDLE")
        assert c.steg_read_extent("big", 1000, 6) == b"MIDDLE"
        assert c.steg_read_extent("big", 998, 10) == b"\x00\x00MIDDLE\x00\x00"
        # growth past the end
        c.steg_write_extent("big", 3000, b"TAIL")
        assert c.steg_read("big")[-4:] == b"TAIL"

    def test_hide_and_unhide(self, logged_in):
        c = logged_in
        c.create("/visible", b"now you see me")
        c.steg_hide("/visible", "gone")
        assert not c.exists("/visible")
        assert c.steg_read("gone") == b"now you see me"
        c.steg_unhide("/back", "gone")
        assert c.read("/back") == b"now you see me"

    def test_directories_and_revoke(self, logged_in):
        c = logged_in
        c.steg_create("vault", objtype="d")
        c.steg_create("vault/key1", data=b"k1")
        assert c.steg_list("vault") == ["key1"]
        c.steg_revoke("vault/key1")
        assert c.steg_read("vault/key1") == b"k1"


class TestSessionNamespace:
    def test_connect_read_write_disconnect(self, logged_in):
        c = logged_in
        c.steg_create("notes", data=b"original")
        c.connect("notes")
        assert c.connected_names() == ["notes"]
        assert c.session_read("notes") == b"original"
        c.session_write("notes", b"updated")
        assert c.session_read("notes") == b"updated"
        c.disconnect("notes")
        assert c.connected_names() == []

    def test_logout_invalidates_token(self, logged_in):
        logged_in.logout()
        with pytest.raises(HandshakeError):
            logged_in.steg_read("anything")


class TestDispatchHardening:
    def test_unknown_op_is_typed_error(self, client):
        with pytest.raises(UnknownOperationError):
            client._call("no_such_op")

    def test_local_only_op_refused_on_wire(self, logged_in):
        with pytest.raises(UnknownOperationError):
            logged_in._call("steg_update", logged_in._token, "x")

    def test_open_session_not_wire_callable(self, client):
        # The raw-UAK session opener must not be reachable remotely; the
        # handshake is the only door.
        with pytest.raises(UnknownOperationError):
            client._call("open_session", USER, UAK)

    def test_too_many_args_rejected(self, client):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            client._call("read", "/a", "/b", "/c")

    def test_oversized_frame_refused_by_server(self, address):
        # Hand-roll a length prefix over the server's limit: the server
        # must answer with a typed error frame, then drop the connection.
        host, port = address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(struct.pack("<I", 512 * 1024 * 1024))
            frame = FrameReceiver().recv_message(sock)
        from repro.net.protocol import ErrorFrame

        assert isinstance(frame, ErrorFrame)
        assert frame.error_class == "FrameTooLargeError"

    def test_oversized_request_streams_within_message_limit(self, address):
        # A request over max_frame no longer fails: it streams as CHUNK
        # frames (create is a streaming-capable op) and lands intact.
        # Read back through a default-limit client: the fixture server's
        # own max_frame is the default, so it answers a small client's
        # read with one whole frame that client would refuse.
        with StegFSClient(*address, max_frame=1024) as small:
            small.create("/big-streamed", b"x" * 4096)
        with StegFSClient(*address) as normal:
            assert normal.read("/big-streamed") == b"x" * 4096
            normal.unlink("/big-streamed")

    def test_client_side_max_message_enforced(self, address):
        # The ceiling moved from per-frame to per-message: a payload over
        # max_message is refused client-side before any bytes are sent.
        with StegFSClient(*address, max_frame=1024, max_message=2048) as small:
            from repro.errors import FrameTooLargeError

            with pytest.raises(FrameTooLargeError):
                small.create("/too-big", b"x" * 4096)

    def test_chunked_control_plane_request_refused(self, address):
        # Only ops flagged streams=True accept a streamed request: an
        # oversized mkdir path must bounce with a typed error, after
        # reassembly but before dispatch.
        with StegFSClient(*address, max_frame=1024) as small:
            from repro.errors import FrameTooLargeError

            with pytest.raises(FrameTooLargeError, match="does not accept"):
                small.mkdir("/" + "d" * 4096)

    def test_garbage_frame_gets_protocol_error(self, address):
        host, port = address
        with socket.create_connection((host, port), timeout=10) as sock:
            receiver = FrameReceiver()
            ping = Request(request_id=1, op="ping", args=())
            sendmsg_all(sock, encode_frame_vectored(ping))
            receiver.recv_message(sock)  # healthy exchange first
            sock.sendall(struct.pack("<I", 3) + b"\xff\xff\xff")
            frame = receiver.recv_message(sock)
        from repro.net.protocol import ErrorFrame

        assert isinstance(frame, ErrorFrame)
        assert frame.error_class == "ProtocolError"


class TestConnectionPool:
    def test_threaded_callers_share_pool(self, address, logged_in):
        logged_in.steg_create("shared", data=b"pooled")
        errors: list[Exception] = []

        def reader() -> None:
            try:
                for _ in range(5):
                    assert logged_in.steg_read("shared") == b"pooled"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_closed_client_raises_typed_error(self, address):
        client = StegFSClient(*address)
        client.ping()
        client.close()
        with pytest.raises(ConnectionClosedError):
            client.ping()


class TestConcurrentSessions:
    N_CLIENTS = 4
    ROUNDS = 6

    def test_separate_logins_run_a_mixed_loop_at_once(self, address, server, service):
        # Each thread owns its connection and its login.  Shared objects
        # are read and rewritten by everyone (a read must be one writer's
        # whole fill, never a blend); private ones are created, verified
        # and deleted; nothing may raise.
        shared = [f"shared-{i}" for i in range(3)]
        with StegFSClient(*address) as setup:
            setup.login(USER, UAK)
            for name in shared:
                setup.steg_create(name, data=b"\xff" * 512)
            setup.logout()
        errors: list[BaseException] = []
        barrier = threading.Barrier(self.N_CLIENTS)

        def client(tid: int) -> None:
            rng = random.Random(700 + tid)
            try:
                with StegFSClient(*address) as c:
                    c.login(USER, UAK)
                    barrier.wait(timeout=60)
                    for round_ in range(self.ROUNDS):
                        data = c.steg_read(rng.choice(shared))
                        assert len(data) == 512 and len(set(data)) == 1
                        c.steg_write(rng.choice(shared), bytes([tid]) * 512)
                        mine = f"c{tid}-{round_}"
                        payload = rng.randbytes(rng.randint(100, 700))
                        c.steg_create(mine, data=payload)
                        assert c.steg_read(mine) == payload
                        c.steg_delete(mine)
                    c.logout()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(tid,), name=f"wire-{tid}")
            for tid in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert server.server.stats.sessions_opened == self.N_CLIENTS + 1
        assert service.sessions.active_count() == 0
        with StegFSClient(*address) as check:
            check.login(USER, UAK)
            assert sorted(check.steg_list()) == shared


class TestAsyncClient:
    def test_async_lifecycle_and_pipelining(self, address):
        host, port = address

        async def scenario():
            async with AsyncStegFSClient(host, port) as c:
                await c.login(USER, UAK)
                await c.steg_create("async-doc", data=b"async payload")
                reads = await asyncio.gather(
                    *[c.steg_read("async-doc") for _ in range(12)]
                )
                assert set(reads) == {b"async payload"}
                await c.create("/via-async", b"plain too")
                assert await c.read("/via-async") == b"plain too"
                stat = await c.stat("/via-async")
                assert stat.size == 9
                with pytest.raises(HiddenObjectNotFoundError):
                    await c.steg_read("missing")
                await c.logout()

        asyncio.run(scenario())

    def test_async_and_blocking_clients_interoperate(self, address, logged_in):
        host, port = address
        logged_in.steg_create("cross", data=b"written by blocking")

        async def read_back():
            async with AsyncStegFSClient(host, port) as c:
                await c.login(USER, UAK)
                value = await c.steg_read("cross")
                await c.steg_write("cross", b"written by async")
                await c.logout()
                return value

        assert asyncio.run(read_back()) == b"written by blocking"
        assert logged_in.steg_read("cross") == b"written by async"

    def test_call_before_open_is_typed_error(self, address):
        client = AsyncStegFSClient(*address)

        async def call():
            await client.ping()

        with pytest.raises(ConnectionClosedError):
            asyncio.run(call())


class TestReviewRegressions:
    """Regression coverage for review findings on the first cut."""

    def test_pool_of_one_survives_typed_errors_under_contention(self, address):
        # Finding: a blocking pool once deadlocked here.  With one
        # pooled connection and several threads provoking typed errors,
        # every call must still complete.
        with StegFSClient(*address, pool_size=1) as client:
            client.login(USER, UAK)
            client.steg_create("contended", data=b"ok")
            failures: list[Exception] = []

            def hammer() -> None:
                try:
                    for _ in range(10):
                        assert client.steg_read("contended") == b"ok"
                        with pytest.raises(HiddenObjectNotFoundError):
                            client.steg_read("absent")
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads), "pool deadlocked"
            assert not failures

    def test_typed_error_does_not_drop_the_connection(self, address, server):
        with StegFSClient(*address) as client:
            client.login(USER, UAK)
            before = server.server.stats.connections_total
            for _ in range(5):
                with pytest.raises(HiddenObjectNotFoundError):
                    client.steg_read("still-absent")
            assert client.steg_list() == []
            # A complete ERROR-frame exchange leaves the stream healthy:
            # no reconnects should have happened.
            assert server.server.stats.connections_total == before

    def test_async_call_after_connection_death_fails_fast(self, address, server):
        host, port = address

        async def scenario():
            client = AsyncStegFSClient(host, port)
            await client.open()
            assert await client.ping() is True
            server.stop()  # kills the server and every live connection
            # Wait for the reader task to observe the close, then a new
            # call must fail immediately rather than await forever.
            await asyncio.wait_for(client._conns[0].reader_task, timeout=30)
            with pytest.raises(ConnectionClosedError):
                await asyncio.wait_for(client.ping(), timeout=30)
            await client.close()

        asyncio.run(scenario())
