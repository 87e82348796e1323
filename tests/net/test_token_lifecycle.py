"""Session tokens die with their service sessions (idle eviction)."""

from __future__ import annotations

import random

import pytest

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.errors import SessionAuthError
from repro.net.client import StegFSClient
from repro.net.server import start_in_thread
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

USER = "alice"
UAK = b"A" * 32


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def evicting_service(clock):
    steg = StegFS.mkfs(
        RamDevice(block_size=512, total_blocks=4096),
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=random.Random(31),
        auto_flush=False,
    )
    svc = StegFSService(steg, max_workers=4, idle_timeout=60.0, clock=clock)
    yield svc
    if not svc.closed:
        svc.close()


@pytest.fixture
def evicting_server(evicting_service):
    handle = start_in_thread(evicting_service, credentials={USER: UAK})
    yield handle
    handle.stop()


def test_token_dies_with_idle_evicted_session(evicting_server, clock):
    with StegFSClient(*evicting_server.address) as client:
        client.login(USER, UAK)
        client.steg_create("doc", data=b"fresh")
        assert client.steg_read("doc") == b"fresh"
        clock.advance(61.0)
        # The service session behind the token has been idle past the
        # timeout: the token must stop injecting the UAK, exactly like a
        # logout (§4), instead of granting hidden access forever.
        with pytest.raises(SessionAuthError):
            client.steg_read("doc")
        # Re-authenticating restores access.
        client.login(USER, UAK)
        assert client.steg_read("doc") == b"fresh"


def test_activity_keeps_token_alive(evicting_server, clock):
    with StegFSClient(*evicting_server.address) as client:
        client.login(USER, UAK)
        client.steg_create("doc", data=b"alive")
        for _ in range(4):
            clock.advance(59.0)
            assert client.steg_read("doc") == b"alive"  # touches the session


def test_authenticate_prunes_tokens_of_vanished_clients(
    evicting_server, evicting_service, clock
):
    ghost = StegFSClient(*evicting_server.address)
    ghost.login(USER, UAK)
    ghost.close()  # vanished without logout
    assert evicting_service.sessions.active_count() == 1
    clock.advance(61.0)  # ghost's session gets idle-evicted
    with StegFSClient(*evicting_server.address) as client:
        client.login(USER, UAK)  # opening a session reaps the idle ones
        # The token is the session: there is no second table for a dead
        # client's entry (and its UAK) to linger in.
        assert evicting_service.sessions.active_count() == 1
