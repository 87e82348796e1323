"""A cluster spanning real StegFSServer processes via AsyncRemoteShard.

The backend protocol is transport-neutral: here two shards are genuine
asyncio TCP servers (each over its own volume) and one is in-process,
proving the coordinator composes the net and service tiers.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.cluster.aio import (
    AsyncClusterClient,
    AsyncRemoteShard,
    AsyncServiceShard,
    BlockingClusterClient,
)
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.errors import ClusterError
from repro.net.server import start_in_thread
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

USER = "alice"
UAK = b"A" * 32


def _service(seed: int) -> StegFSService:
    steg = StegFS.mkfs(
        RamDevice(block_size=512, total_blocks=4096),
        params=StegFSParams.for_tests(),
        inode_count=128,
        rng=random.Random(seed),
        auto_flush=False,
    )
    return StegFSService(steg, max_workers=4)


@pytest.fixture
def mixed_cluster():
    """Two remote shards (real TCP servers) + one embedded shard."""
    services = [_service(31), _service(32), _service(33)]
    handles = [
        start_in_thread(services[0], credentials={USER: UAK}),
        start_in_thread(services[1], credentials={USER: UAK}),
    ]

    async def factory() -> AsyncClusterClient:
        # Remote shards dial on the loop that will drive them.
        shards = {
            "remote-0": await AsyncRemoteShard.connect(
                *handles[0].address, user_id=USER, uak=UAK
            ),
            "remote-1": await AsyncRemoteShard.connect(
                *handles[1].address, user_id=USER, uak=UAK
            ),
            "local-0": AsyncServiceShard(services[2], owns_service=True),
        }
        return AsyncClusterClient(
            shards, replication=2, write_quorum=1, owns_backends=True
        )

    cluster = BlockingClusterClient(factory)
    yield cluster, handles
    cluster.close()
    for handle in handles:
        handle.stop()
    for service in services:
        if not service.closed:
            service.close()


class TestMixedTransports:
    def test_hidden_roundtrip_across_servers(self, mixed_cluster):
        cluster, _handles = mixed_cluster
        for i in range(6):
            cluster.steg_create(f"doc-{i}", UAK, data=f"payload {i}".encode() * 8)
        for i in range(6):
            assert cluster.steg_read(f"doc-{i}", UAK) == f"payload {i}".encode() * 8

    def test_plain_roundtrip_across_servers(self, mixed_cluster):
        cluster, _handles = mixed_cluster
        cluster.create("/spanning", b"bytes on two machines")
        assert cluster.read("/spanning") == b"bytes on two machines"

    def test_server_shutdown_fails_over(self, mixed_cluster):
        cluster, handles = mixed_cluster
        payloads = {}
        for i in range(8):
            data = f"replicated {i}".encode() * 8
            cluster.steg_create(f"ha-{i}", UAK, data=data)
            payloads[f"ha-{i}"] = data
        # Stop one real server process mid-flight.
        handles[1].stop()
        for name, expected in payloads.items():
            assert cluster.steg_read(name, UAK) == expected
        health = cluster.health.snapshot()
        assert any(not record.state.value == "alive" for record in health.values())

    def test_remote_shard_rejects_foreign_key(self, mixed_cluster):
        cluster, _handles = mixed_cluster
        shard = cluster.async_client.shards["remote-0"]
        with pytest.raises(ClusterError):
            asyncio.run(shard.steg_read("anything", b"B" * 32))
