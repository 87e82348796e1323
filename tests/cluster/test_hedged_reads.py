"""The one read policy: the legs a read needs, then one more for a reason.

Deterministic through ``FaultyShard`` delays and per-shard call counts:
a healthy read issues exactly ``need`` legs; a leg that came back short
is replaced at once (a widening), one that is merely slow is hedged
after the hedge delay; replica order avoids shards this coordinator
knows miss the acked version, and those shards are read-repaired.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import Counter
from dataclasses import replace
from typing import Awaitable, Callable

import pytest

from repro.cluster.aio import _HEDGE_DELAY_S, AsyncClusterClient, hidden_key
from repro.cluster.fragment import MODE_IDA, decode_fragment, encode_fragment
from repro.obs.metrics import get_registry

UAK = b"C" * 32
STALL = 10 * _HEDGE_DELAY_S

#: mode → (shards, constructor kwargs, legs a healthy read issues).  Write
#: quorums are the full width so a write leaves no straggler behind.
GEOMETRY = {
    "replicate": (3, dict(replication=3, write_quorum=3), 1),
    "ida": (4, dict(mode=MODE_IDA, ida_m=2, ida_n=4, ida_write_quorum=4), 2),
}
MODES = pytest.mark.parametrize("mode", sorted(GEOMETRY))


def _drive(
    shard_farm, mode: str, scenario: Callable[..., Awaitable[None]], **overrides
) -> None:
    """Run ``scenario(cluster, shards, order, need)`` on a fresh cluster
    holding ``doc`` at version 2; ``order`` is its placement."""
    n_shards, kwargs, need = GEOMETRY[mode]

    async def main() -> None:
        shards = shard_farm(n_shards)
        async with AsyncClusterClient(
            shards, owns_backends=True, **{**kwargs, **overrides}
        ) as cluster:
            await cluster.steg_create("doc", UAK, data=b"v1 " * 50)
            await cluster.steg_write("doc", UAK, b"v2 " * 50)
            await cluster.flush()
            for shard in shards.values():
                shard.calls.clear()
            order = cluster.placement(hidden_key("doc", UAK))
            await scenario(cluster, shards, order, need)

    asyncio.run(main())


def _read_calls(shards) -> dict[str, int]:
    return {sid: shard.calls["steg_read"] for sid, shard in shards.items()}


def _stored(shard) -> bytes:
    return shard.service.steg_read("doc", UAK)


@MODES
def test_healthy_read_issues_exactly_the_legs_it_needs(shard_farm, mode):
    async def scenario(cluster, shards, order, need) -> None:
        for _ in range(5):
            assert await cluster.steg_read("doc", UAK) == b"v2 " * 50
        stats = cluster.stats_snapshot()["counters"]
        assert stats["async.read_legs"] == 5 * need
        for counter in ("cancelled_legs", "hedged_reads", "quorum_widenings"):
            assert stats.get(f"async.{counter}", 0) == 0
        # Every completed leg fed the histogram the hedge delay is read from.
        registry = get_registry()
        assert registry.get("cluster.async.read_leg_ms").count == 5 * need
        assert registry.counter("cluster.async.read_legs").value >= 5 * need
        # Always the ring-first replicas, nobody else.
        expected = {sid: (5 if sid in order[:need] else 0) for sid in shards}
        assert _read_calls(shards) == expected

    _drive(shard_farm, mode, scenario)


@MODES
def test_slow_preferred_replica_is_hedged_not_waited_for(shard_farm, mode):
    async def scenario(cluster, shards, order, need) -> None:
        slow = shards[order[0]]
        slow.delays["steg_read"] = STALL
        slow.error_on_cancel = ValueError("late loser blew up")
        started = time.perf_counter()
        assert await cluster.steg_read("doc", UAK) == b"v2 " * 50
        elapsed = time.perf_counter() - started
        # One hedge delay, not the stall.
        assert _HEDGE_DELAY_S <= elapsed < STALL / 2
        stats = cluster.stats.snapshot()
        assert stats["async.hedged_reads"] == 1
        assert stats["async.read_legs"] == need + 1
        assert stats["async.cancelled_legs"] == 1
        # A slow shard is not a disagreeing one, and its late error on
        # cancellation was swallowed: still routable, nothing repaired.
        assert stats.get("async.quorum_widenings", 0) == 0
        assert stats.get("async.read_repairs", 0) == 0
        assert cluster.health.is_alive(order[0])

    _drive(shard_farm, mode, scenario)


def _stale(blob: bytes) -> bytes:
    old = replace(decode_fragment(blob), version=1)
    return encode_fragment(old)


def _corrupt(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0xFF])


# A share carries no digest of its own, so "corrupt" is a replicate-only case.
@pytest.mark.parametrize(
    "mode,damage",
    [(mode, damage) for mode in sorted(GEOMETRY) for damage in ("stale", "missing", "garbage")]
    + [("replicate", "corrupt")],
)
def test_short_leg_is_replaced_at_once_and_repaired(shard_farm, mode, damage):
    async def scenario(cluster, shards, order, need) -> None:
        victim = shards[order[0]]
        healthy = _stored(victim)
        if damage == "missing":
            victim.service.steg_delete("doc", UAK)
        else:
            blob = {"stale": _stale, "corrupt": _corrupt, "garbage": lambda b: b"junk"}[
                damage
            ](healthy)
            victim.service.steg_write("doc", UAK, blob)
        assert await cluster.steg_read("doc", UAK) == b"v2 " * 50
        stats = cluster.stats.snapshot()
        # Replaced on the spot — a leg launched by the hedge timer would
        # have counted as a hedge, not as a widening.
        assert stats["async.quorum_widenings"] == 1
        assert stats.get("async.hedged_reads", 0) == 0
        assert stats["async.read_legs"] == need + 1
        assert stats["async.read_repairs"] == 1
        assert _stored(victim) == healthy

    _drive(shard_farm, mode, scenario)


def test_read_after_early_ack_avoids_the_straggler(shard_farm):
    async def scenario(cluster, shards, order, need) -> None:
        straggler = shards[order[0]]
        straggler.delays["steg_put"] = STALL
        await cluster.steg_write("doc", UAK, b"v3 " * 50)
        pending = get_registry().gauge("cluster.async.stragglers.pending")
        assert pending.value == 1
        assert await cluster.steg_read("doc", UAK) == b"v3 " * 50
        # Served by a replica that has the bytes, without touching the
        # ring-first one and without waiting for its write leg to land.
        assert pending.value == 1
        assert straggler.calls["steg_read"] == 0
        assert cluster.stats["async.read_legs"] == 1
        assert cluster.stats["async.hedged_reads"] == 0
        await cluster.flush()
        # Landed: the ring-first replica holds v3 and is preferred again.
        assert decode_fragment(_stored(straggler)).version == 3
        assert await cluster.steg_read("doc", UAK) == b"v3 " * 50
        assert straggler.calls["steg_read"] == 1
        assert cluster.stats["async.read_repairs"] == 0

    _drive(shard_farm, "replicate", scenario, write_quorum=2)


@MODES
def test_killed_preferred_replica_fails_over(shard_farm, mode):
    async def scenario(cluster, shards, order, need) -> None:
        shards[order[0]].kill()
        assert await cluster.steg_read("doc", UAK) == b"v2 " * 50
        assert cluster.stats["async.failovers"] >= 1
        assert cluster.stats["async.quorum_widenings"] == 1
        assert not cluster.health.is_alive(order[0])
        # Now routed around: the next read is back to exactly `need` legs.
        assert await cluster.steg_read("doc", UAK) == b"v2 " * 50
        assert cluster.stats["async.read_legs"] == 2 * need + 1
        assert shards[order[0]].calls["steg_read"] == 1

    _drive(shard_farm, mode, scenario)


@MODES
def test_fresh_coordinator_reads_in_placement_order(shard_farm, mode):
    async def scenario(cluster, shards, order, need) -> None:
        n_shards, kwargs, _ = GEOMETRY[mode]
        fresh = AsyncClusterClient(shards, **kwargs)
        assert await fresh.steg_read("doc", UAK) == b"v2 " * 50
        assert fresh.stats["async.read_legs"] == need
        expected = {sid: int(sid in order[:need]) for sid in shards}
        assert _read_calls(shards) == expected
        # It learned the version but not who else holds it: no repair.
        assert fresh.stats["async.read_repairs"] == 0
        await fresh.close()

    _drive(shard_farm, mode, scenario)


@MODES
def test_rebalancer_fetch_consults_the_whole_placement_in_one_wave(shard_farm, mode):
    async def scenario(cluster, shards, order, need) -> None:
        data, version = await cluster.fetch(cluster.hidden("doc", UAK), order)
        assert (data, version) == (b"v2 " * 50, 2)
        assert _read_calls(shards) == {sid: 1 for sid in order}
        stats = cluster.stats.snapshot()
        assert stats["async.read_legs"] == len(order)
        for counter in ("cancelled_legs", "hedged_reads", "quorum_widenings"):
            assert stats.get(f"async.{counter}", 0) == 0

    _drive(shard_farm, mode, scenario)


class TestKnownStaleReplicaIsRepaired:
    """A replica the coordinator *knows* missed a write is rewritten by the
    next read of the key, without being read first."""

    def test_failed_straggler_leg(self, shard_farm):
        async def scenario(cluster, shards, order, need) -> None:
            laggard = shards[order[2]]
            laggard.delays["steg_put"] = _HEDGE_DELAY_S
            laggard.fail_puts = True
            await cluster.steg_write("doc", UAK, b"v3 " * 50)
            assert cluster.stats["async.early_acks"] >= 1
            await cluster.flush()
            assert cluster.stats["async.straggler_failures"] == 1
            laggard.delays.clear()
            laggard.fail_puts = False
            assert decode_fragment(_stored(laggard)).version == 2
            await self._one_read_heals(cluster, shards, laggard)

        _drive(shard_farm, "replicate", scenario, write_quorum=2)

    def test_replica_dead_at_write_time_then_revived(self, shard_farm):
        async def scenario(cluster, shards, order, need) -> None:
            laggard = shards[order[0]]
            laggard.kill()
            await cluster.steg_write("doc", UAK, b"v3 " * 50)
            await cluster.flush()
            laggard.revive()
            assert await cluster.probe_dead_shards() == {order[0]: True}
            await self._one_read_heals(cluster, shards, laggard)

        _drive(shard_farm, "replicate", scenario, write_quorum=2)

    @staticmethod
    async def _one_read_heals(cluster, shards, laggard) -> None:
        legs = cluster.stats["async.read_legs"]
        repairs = cluster.stats["async.read_repairs"]
        assert await cluster.steg_read("doc", UAK) == b"v3 " * 50
        assert cluster.stats["async.read_legs"] == legs + 1
        assert laggard.calls["steg_read"] == 0
        assert cluster.stats["async.read_repairs"] == repairs + 1
        await cluster.flush()
        for shard in shards.values():
            fragment = decode_fragment(_stored(shard))
            assert (fragment.version, fragment.payload) == (3, b"v3 " * 50)
        # Healed means known-good: the next read repairs nothing.
        assert await cluster.steg_read("doc", UAK) == b"v3 " * 50
        assert cluster.stats["async.read_repairs"] == repairs + 1


class _LoggingShard:
    """Call-counting proxy: appends its id to a shared log per read leg."""

    def __init__(self, shard_id: str, inner, log: list[str]) -> None:
        self._shard_id = shard_id
        self._inner = inner
        self._log = log

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    async def steg_read(self, objname: str, uak: bytes) -> bytes:
        self._log.append(self._shard_id)
        return await self._inner.steg_read(objname, uak)


class TestOneLegPerReadGate:
    """Tier-1 count gate: CI sees a return to racing before stegbench does.

    The shape of stegbench's ``cluster_rf3`` (four in-process shards,
    replicate N=3 W=2, one closed-loop client, 50/50 read/write) on RAM
    devices.  Each write's early-acked third leg is drained before the
    next op, so which replica is ring-first and current is a function of
    the seed alone.
    """

    N_OPS = 300
    N_OBJECTS = 8

    def _run(self, shard_farm, seed: int) -> tuple[dict[str, int], Counter, int]:
        async def main() -> tuple[dict[str, int], Counter, int]:
            rng = random.Random(seed)
            log: list[str] = []
            shards = {
                sid: _LoggingShard(sid, shard, log)
                for sid, shard in shard_farm(4, seed=seed).items()
            }
            first_wave: Counter[str] = Counter()
            async with AsyncClusterClient(
                shards, replication=3, write_quorum=2, owns_backends=True
            ) as cluster:
                names = [f"obj-{i}" for i in range(self.N_OBJECTS)]
                contents = {}
                for name in names:
                    contents[name] = rng.randbytes(2048)
                    await cluster.steg_create(name, UAK, data=contents[name])
                for _ in range(self.N_OPS):
                    name = rng.choice(names)
                    if rng.random() < 0.5:
                        contents[name] = rng.randbytes(2048)
                        await cluster.steg_write(name, UAK, contents[name])
                        async with cluster.exclusive(hidden_key(name, UAK)):
                            pass  # the write's straggler leg has landed
                    else:
                        mark = len(log)
                        assert await cluster.steg_read(name, UAK) == contents[name]
                        first_wave[log[mark]] += 1
                return cluster.stats.snapshot(), first_wave, len(log)

        return asyncio.run(main())

    def test_every_read_is_one_first_wave_leg(self, shard_farm):
        stats, first_wave, legs = self._run(shard_farm, seed=2003)
        reads = stats["async.reads"]
        hedged = stats.get("async.hedged_reads", 0)
        widened = stats.get("async.quorum_widenings", 0)
        assert 100 < reads < 200
        assert legs == stats["async.read_legs"]
        assert legs - hedged - widened == reads
        assert widened == 0
        # Hedges are timing: reported, and bounded only loosely so a slow
        # stretch of a CI box cannot flake the gate.
        print(f"hedged legs: {hedged} over {reads} reads")
        assert hedged <= reads // 10
        again, first_wave_again, _ = self._run(shard_farm, seed=2003)
        assert again["async.reads"] == reads
        assert first_wave_again == first_wave
        assert len(first_wave) == 4  # the ring spreads first legs over every shard
