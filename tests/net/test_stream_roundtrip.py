"""Streamed extent transfers over real TCP, including mid-stream death.

The fixture server runs with a deliberately small ``max_frame`` so every
multi-kilobyte transfer genuinely exercises the CHUNK path in both
directions — requests chunk on the client, responses chunk on the
server.  The byte-budgeted kill-switch proxy (``conftest.py``) then
proves the failure contract: a connection that dies mid-stream surfaces
a typed transport error and never half-applies a write.
"""

from __future__ import annotations

import asyncio
import random
import tracemalloc

import pytest

from repro.errors import NetworkError
from repro.net.client import AsyncStegFSClient, StegFSClient
from repro.net.server import start_in_thread

USER = "alice"
UAK = b"A" * 32

# Small enough that a few-KiB payload streams as many chunks, large
# enough for the handshake and control ops to stay single-frame.
SMALL_FRAME = 2048


@pytest.fixture
def small_server(service):
    handle = start_in_thread(
        service, credentials={USER: UAK}, max_frame=SMALL_FRAME
    )
    yield handle
    handle.stop()


@pytest.fixture
def small_address(small_server):
    return small_server.address


@pytest.fixture
def client(small_address):
    with StegFSClient(*small_address, pool_size=2, max_frame=SMALL_FRAME) as c:
        c.login(USER, UAK)
        yield c


def _pattern(n: int) -> bytes:
    return bytes((i * 131 + 17) & 0xFF for i in range(n))


class TestStreamedExtents:
    """Extent ops larger than max_frame round-trip over real TCP."""

    def test_hidden_write_read_beyond_max_frame(self, client):
        payload = _pattern(8 * SMALL_FRAME)
        client.steg_create("big", data=payload)
        assert client.steg_read("big") == payload

    def test_extent_ops_beyond_max_frame(self, client):
        base = _pattern(10 * SMALL_FRAME)
        client.steg_create("doc", data=base)
        # Read an extent that spans several wire frames.
        offset, length = SMALL_FRAME // 2, 6 * SMALL_FRAME
        assert client.steg_read_extent("doc", offset, length) == base[offset : offset + length]
        # Overwrite an extent larger than a frame, then verify the splice.
        patch = _pattern(5 * SMALL_FRAME)[::-1]
        client.steg_write_extent("doc", offset, patch)
        expect = base[:offset] + patch + base[offset + len(patch) :]
        assert client.steg_read("doc") == expect

    def test_plain_namespace_streams_too(self, client):
        payload = _pattern(6 * SMALL_FRAME)
        client.create("/big.bin", payload)
        assert client.read("/big.bin") == payload

    def test_read_stream_iterator_matches_whole_read(self, client):
        payload = _pattern(7 * SMALL_FRAME + 123)
        client.steg_create("it", data=payload)
        pieces = list(client.steg_read_stream("it"))
        assert len(pieces) > 1, "payload this size must arrive as chunks"
        assert all(len(p) <= SMALL_FRAME for p in pieces)
        assert b"".join(pieces) == payload

    def test_read_stream_extent_slice(self, client):
        payload = _pattern(6 * SMALL_FRAME)
        client.steg_create("sl", data=payload)
        offset, length = 777, 4 * SMALL_FRAME
        got = b"".join(client.steg_read_stream("sl", offset, length))
        assert got == payload[offset : offset + length]

    def test_read_stream_offset_without_length_rejected(self, client):
        client.steg_create("x", data=b"abc")
        with pytest.raises(ValueError):
            next(iter(client.steg_read_stream("x", offset=1)))

    def test_abandoned_stream_leaves_client_usable(self, client):
        payload = _pattern(8 * SMALL_FRAME)
        client.steg_create("ab", data=payload)
        stream = client.steg_read_stream("ab")
        next(stream)
        stream.close()  # abandon mid-stream: that socket must be dropped
        # The pool replaces the evicted connection transparently.
        assert client.steg_read("ab") == payload
        assert client.ping() is True

    def test_async_client_streams_beyond_max_frame(self, small_address):
        host, port = small_address
        payload = _pattern(9 * SMALL_FRAME)

        async def scenario():
            async with AsyncStegFSClient(host, port, max_frame=SMALL_FRAME) as c:
                await c.login(USER, UAK)
                await c.steg_create("aio", data=payload)
                whole = await c.steg_read("aio")
                part = await c.steg_read_extent("aio", 100, 5 * SMALL_FRAME)
                return whole, part

        whole, part = asyncio.run(scenario())
        assert whole == payload
        assert part == payload[100 : 100 + 5 * SMALL_FRAME]


def test_streamed_read_peak_allocation_is_bounded_by_the_frame(service):
    """Consuming a 1 MiB object piece by piece holds a few frames, never
    the object: the streaming path's memory claim as an absolute bound.

    Tracing starts once the first piece is in hand.  The server shares
    this process and has unsealed the object by then, so what is traced is
    the wire path alone — the server framing views of that buffer, the
    client handing out pieces.  Reassembling the object anywhere on that
    path would cost 16 frames; measured, it is 2.
    """
    frame = 64 * 1024
    payload = random.Random(7).randbytes(1 << 20)
    expected = memoryview(payload)
    handle = start_in_thread(service, credentials={USER: UAK}, max_frame=frame)
    try:
        with StegFSClient(*handle.address, max_frame=frame) as c:
            c.login(USER, UAK)
            c.steg_create("mib", data=payload)
            stream = c.steg_read_stream("mib")
            first = next(stream)
            assert first == expected[: len(first)]
            received = len(first)
            tracemalloc.start()
            try:
                for piece in stream:
                    assert len(piece) <= frame
                    assert piece == expected[received : received + len(piece)]
                    received += len(piece)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        handle.stop()
    assert received == len(payload)
    assert peak <= 4 * frame


@pytest.fixture
def proxied(small_address, kill_switch_proxy):
    proxy = kill_switch_proxy(small_address)
    client = StegFSClient(*proxy.address, pool_size=1, max_frame=SMALL_FRAME)
    try:
        client.login(USER, UAK)
        yield proxy, client
    finally:
        client.close()


class TestMidStreamDeath:
    def test_killed_upload_is_typed_and_not_half_applied(self, proxied, client):
        proxy, victim = proxied
        before = _pattern(4 * SMALL_FRAME)
        client.steg_create("victim", data=before)
        # Let roughly one chunk through, then cut the wire: the server
        # sees a half-finished CHUNK run that never dispatches.
        proxy.arm(SMALL_FRAME, client_to_server=True)
        with pytest.raises((NetworkError, OSError)):
            victim.steg_write("victim", _pattern(8 * SMALL_FRAME)[::-1])
        # No half-applied write: the direct client sees the old bytes.
        assert client.steg_read("victim") == before

    def test_killed_download_is_typed(self, proxied, client):
        proxy, victim = proxied
        payload = _pattern(8 * SMALL_FRAME)
        client.steg_create("down", data=payload)
        proxy.arm(2 * SMALL_FRAME, client_to_server=False)
        with pytest.raises((NetworkError, OSError)):
            victim.steg_read("down")

    def test_killed_stream_iterator_is_typed(self, proxied, client):
        proxy, victim = proxied
        payload = _pattern(8 * SMALL_FRAME)
        client.steg_create("iter", data=payload)
        proxy.arm(3 * SMALL_FRAME, client_to_server=False)
        with pytest.raises((NetworkError, OSError)):
            for _ in victim.steg_read_stream("iter"):
                pass
