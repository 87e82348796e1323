"""Async data-plane edge cases: cancellation, failover, stragglers.

The edges the benchmark never hits on purpose: a hedged-over read leg
that errors *after* the hedge won, a caller cancelled mid-fan-out,
early-acked write legs still draining when the next same-key mutation
arrives — plus round trips through both redundancy modes and the
blocking facade.

This repo has no pytest-asyncio; each test drives its scenario with
``asyncio.run``.  The ``_run`` harness additionally installs a loop
exception handler and forces a GC pass, so a task whose exception was
never retrieved (asyncio only reports those when the task is collected)
fails the test instead of printing a warning nobody reads.
"""

from __future__ import annotations

import asyncio
import gc
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable

import pytest

from repro.cluster.aio import AsyncClusterClient, BlockingClusterClient, hidden_key
from repro.cluster.fragment import MODE_IDA, decode_fragment
from repro.errors import HiddenObjectNotFoundError

UAK = b"C" * 32


def _run(scenario: Callable[[], Awaitable[None]]) -> None:
    """Run ``scenario``; fail if any task exception went unretrieved."""
    reports: list[dict[str, Any]] = []

    async def wrapped() -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reports.append(context)
        )
        await scenario()
        # "Task exception was never retrieved" only fires when the task
        # is garbage-collected; force that while our handler is live.
        gc.collect()
        await asyncio.sleep(0)
        gc.collect()

    asyncio.run(wrapped())
    assert not reports, [r.get("message") for r in reports]


class TestFirstAckCancellation:
    """A leg loses when a hedge launched over it answers first."""

    def test_losing_leg_error_after_loss_is_contained(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(3)
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=3, owns_backends=True
            ) as cluster:
                payload = b"race me" * 40
                await cluster.steg_create("doc", UAK, data=payload)
                # The two preferred replicas stall and refuse to die
                # quietly: cancelling them mid-sleep surfaces a non-Repro
                # error instead of CancelledError, after the second hedge
                # (the one healthy replica) already won the read.
                slow = cluster.placement(hidden_key("doc", UAK))[:2]
                for shard_id in slow:
                    shards[shard_id].delays["steg_read"] = 1.0
                    shards[shard_id].error_on_cancel = ValueError(
                        "late loser blew up"
                    )
                assert await cluster.steg_read("doc", UAK) == payload
                stats = cluster.stats
                assert stats["async.hedged_reads"] == 2
                assert stats["async.cancelled_legs"] == 2
                # The late errors were swallowed, not recorded as shard
                # failures: everyone is still routable.
                assert all(
                    cluster.health.is_alive(shard_id) for shard_id in shards
                )
                for shard_id in slow:
                    shards[shard_id].delays.clear()
                    shards[shard_id].error_on_cancel = None
                assert await cluster.steg_read("doc", UAK) == payload

        _run(scenario)

    def test_losing_leg_transport_error_counts_as_failover(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(3)
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=3, owns_backends=True
            ) as cluster:
                payload = b"transport" * 30
                await cluster.steg_create("doc", UAK, data=payload)
                victim = cluster.placement(hidden_key("doc", UAK))[0]
                shards[victim].delays["steg_read"] = 1.0
                shards[victim].error_on_cancel = ConnectionError(
                    "socket died during cancellation"
                )
                assert await cluster.steg_read("doc", UAK) == payload
                assert cluster.stats["async.hedged_reads"] == 1
                # The transport error from the cancelled leg went through
                # the normal failover accounting rather than vanishing.
                assert cluster.stats["async.failovers"] >= 1
                assert not cluster.health.is_alive(victim)

        _run(scenario)

    def test_caller_cancelled_mid_race_leaves_client_usable(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(3)
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=3, owns_backends=True
            ) as cluster:
                payload = b"interrupt" * 30
                await cluster.steg_create("doc", UAK, data=payload)
                for shard in shards.values():
                    shard.delays["steg_read"] = 0.5
                reader = asyncio.ensure_future(cluster.steg_read("doc", UAK))
                await asyncio.sleep(0.05)
                reader.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await reader
                for shard in shards.values():
                    shard.delays.clear()
                # The abandoned race was reaped: the client still works
                # and no leg task leaked its exception (checked by _run).
                assert await cluster.steg_read("doc", UAK) == payload

        _run(scenario)


class TestFailoverAndProbe:
    def test_ops_survive_dead_shard(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(4)
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=2, owns_backends=True
            ) as cluster:
                names = [f"doc-{i}" for i in range(6)]
                payloads = {name: name.encode() * 30 for name in names}
                for name, data in payloads.items():
                    await cluster.steg_create(name, UAK, data=data)
                await cluster.flush()
                shards["shard-1"].kill()
                for name in names[:3]:
                    payloads[name] = b"after the kill " + name.encode()
                    await cluster.steg_write(name, UAK, payloads[name])
                for name, expected in payloads.items():
                    assert await cluster.steg_read(name, UAK) == expected
                assert cluster.stats["async.failovers"] >= 1
                assert not cluster.health.is_alive("shard-1")

        _run(scenario)

    def test_probe_revives_dead_shard(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(4)
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=2, owns_backends=True
            ) as cluster:
                await cluster.steg_create("doc", UAK, data=b"probe me")
                shards["shard-2"].kill()
                cluster.health.mark_dead("shard-2")
                # Dead-shards-only contract: alive shards are not pinged.
                assert await cluster.probe_dead_shards() == {"shard-2": False}
                shards["shard-2"].revive()
                assert await cluster.probe_dead_shards() == {"shard-2": True}
                assert cluster.health.is_alive("shard-2")
                assert await cluster.probe_dead_shards() == {}

        _run(scenario)


class TestIdaMode:
    def test_round_trip_with_slow_share_holder(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(4)
            async with AsyncClusterClient(
                shards,
                mode=MODE_IDA,
                ida_m=2,
                ida_n=4,
                owns_backends=True,
            ) as cluster:
                payload = b"dispersed secret" * 25
                await cluster.steg_create("doc", UAK, data=payload)
                await cluster.flush()
                # A first-wave share holder stalls; reconstruction must go
                # early from m fast shares and shed the slow leg.
                slow = cluster.placement(hidden_key("doc", UAK))[0]
                shards[slow].delays["steg_read"] = 0.5
                assert await cluster.steg_read("doc", UAK) == payload
                stats = cluster.stats
                assert stats["async.reconstructions"] >= 1
                assert stats["async.cancelled_legs"] >= 1
                shards[slow].delays.clear()
                rewritten = b"rewritten" * 30
                await cluster.steg_write("doc", UAK, rewritten)
                assert await cluster.steg_read("doc", UAK) == rewritten
                await cluster.steg_delete("doc", UAK)
                with pytest.raises(HiddenObjectNotFoundError):
                    await cluster.steg_read("doc", UAK)

        _run(scenario)


class TestWriteStragglers:
    def test_early_ack_then_same_key_drain(self, shard_farm):
        async def scenario() -> None:
            shards = shard_farm(3)
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=2, owns_backends=True
            ) as cluster:
                slow = list(shards)[0]
                shards[slow].delays["steg_put"] = 0.15
                first = b"first version" * 20
                await cluster.steg_create("doc", UAK, data=first)
                assert cluster.stats["async.early_acks"] >= 1
                # The second same-key mutation serializes behind the
                # still-draining leg, so versions cannot interleave.
                final = b"final version" * 20
                await cluster.steg_write("doc", UAK, final)
                shards[slow].delays.clear()
                await cluster.flush()
                # After the drain every replica, the laggard included,
                # holds the final version.
                for shard in shards.values():
                    fragment = decode_fragment(await shard.steg_read("doc", UAK))
                    assert fragment.payload == final
                assert await cluster.steg_read("doc", UAK) == final

        _run(scenario)


class TestBlockingFacade:
    def test_sync_round_trip_over_async_plane(self, shard_farm):
        def factory() -> AsyncClusterClient:
            return AsyncClusterClient(
                shard_farm(3), replication=3, write_quorum=2, owns_backends=True
            )

        with BlockingClusterClient(factory) as cluster:
            cluster.create("/a.txt", b"plain payload")
            assert cluster.read("/a.txt") == b"plain payload"
            cluster.write("/a.txt", b"rewritten")
            assert cluster.read("/a.txt") == b"rewritten"
            assert cluster.exists("/a.txt")
            cluster.steg_create("doc", UAK, data=b"hidden payload")
            assert cluster.steg_read("doc", UAK) == b"hidden payload"
            assert cluster.steg_list(UAK) == ["doc"]
            cluster.steg_delete("doc", UAK)
            cluster.unlink("/a.txt")
            assert not cluster.exists("/a.txt")
            assert cluster.stats["async.reads"] >= 1

    def test_many_threads_share_one_loop(self, shard_farm):
        def factory() -> AsyncClusterClient:
            return AsyncClusterClient(
                shard_farm(3), replication=3, write_quorum=2, owns_backends=True
            )

        with BlockingClusterClient(factory) as cluster:
            def worker(index: int) -> None:
                name = f"doc-{index}"
                data = name.encode() * 25
                cluster.steg_create(name, UAK, data=data)
                assert cluster.steg_read(name, UAK) == data

            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(worker, i) for i in range(16)]:
                    future.result()
            assert cluster.steg_list(UAK) == sorted(
                f"doc-{i}" for i in range(16)
            )
