"""Fixtures for the cluster tier: in-process shard farms, fault injection."""

from __future__ import annotations

import asyncio
import random
from collections import Counter
from typing import Any, Awaitable, Callable

import pytest

from repro.cluster.aio import (
    AsyncClusterClient,
    AsyncServiceShard,
    BlockingClusterClient,
)
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.errors import NoSpaceError
from repro.obs.metrics import get_registry
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

UAK = b"C" * 32


@pytest.fixture(autouse=True)
def cold_hedge_delay():
    """Every test's coordinators start on the cold-start hedge delay.

    The delay is the p99 of the process-wide ``cluster.async.read_leg_ms``
    histogram once it holds enough samples; dropping the instrument keeps
    one test's injected stalls out of the next test's hedge timing.
    """
    get_registry().unregister("cluster.async.read_leg_ms")


def make_shard_service(seed: int, total_blocks: int = 4096) -> StegFSService:
    """One independent StegFS volume wrapped in a service."""
    steg = StegFS.mkfs(
        RamDevice(block_size=512, total_blocks=total_blocks),
        params=StegFSParams.for_tests(),
        inode_count=128,
        rng=random.Random(seed),
        auto_flush=False,
    )
    return StegFSService(steg, max_workers=4)


class FaultyShard:
    """An ``AsyncServiceShard`` proxy with injectable faults.

    * ``kill()`` makes every call raise ``ConnectionError`` — the
      volume's data stays intact, exactly like a crashed-but-recoverable
      server — until ``revive()``.
    * ``fail_puts`` makes only the upsert paths raise ``NoSpaceError``
      while the shard stays alive and readable (a full disk, not a dead
      machine).
    * ``delays[op]`` makes ``op`` sleep first (a delayed leg that also
      faults does so *after* the sleep: a slow failure) — and if the leg is
      *cancelled* during that sleep, ``error_on_cancel`` (when set) is
      raised in place of ``CancelledError``: the misbehaving-backend
      edge where a losing leg errors only after the race was decided.

    ``calls[op]`` counts every call that reached the proxy, faulted or
    not.  ``service`` is the volume underneath: tests inspect what a
    shard really stores through it, past every injected fault.
    """

    def __init__(self, inner: AsyncServiceShard) -> None:
        self._inner = inner
        self.killed = False
        self.fail_puts = False
        self.delays: dict[str, float] = {}
        self.error_on_cancel: Exception | None = None
        self.calls: Counter[str] = Counter()

    def kill(self) -> None:
        self.killed = True

    def revive(self) -> None:
        self.killed = False

    @property
    def service(self) -> StegFSService:
        return self._inner.service

    async def close(self) -> None:
        await self._inner.close()

    def __getattr__(self, name: str) -> Callable[..., Awaitable[Any]]:
        method = getattr(self._inner, name)

        async def guarded(*args: Any, **kwargs: Any) -> Any:
            self.calls[name] += 1
            delay = self.delays.get(name, 0.0)
            if delay:
                try:
                    await asyncio.sleep(delay)
                except asyncio.CancelledError:
                    if self.error_on_cancel is not None:
                        raise self.error_on_cancel from None
                    raise
            if self.killed:
                raise ConnectionError("shard transport cut by test")
            if self.fail_puts and name in ("put", "steg_put"):
                raise NoSpaceError("shard volume full (injected)")
            return await method(*args, **kwargs)

        return guarded


@pytest.fixture
def shard_farm():
    """Factory: build n faulty in-process shards; closed on teardown."""
    services: list[StegFSService] = []

    def build(n: int, seed: int = 7) -> dict[str, FaultyShard]:
        shards: dict[str, FaultyShard] = {}
        for i in range(n):
            service = make_shard_service(seed + i)
            services.append(service)
            shards[f"shard-{i}"] = FaultyShard(
                AsyncServiceShard(service, owns_service=True)
            )
        return shards

    yield build
    for service in services:
        if not service.closed:
            service.close()


@pytest.fixture
def make_cluster(shard_farm):
    """Factory: a BlockingClusterClient over n fresh faulty shards.

    Ring and shard inspection go through ``cluster.async_client``.
    """
    clusters: list[BlockingClusterClient] = []

    def build(n: int = 4, **kwargs) -> BlockingClusterClient:
        shards = shard_farm(n, seed=kwargs.pop("seed", 7))
        cluster = BlockingClusterClient(lambda: AsyncClusterClient(shards, **kwargs))
        clusters.append(cluster)
        return cluster

    yield build
    for cluster in clusters:
        cluster.close()
