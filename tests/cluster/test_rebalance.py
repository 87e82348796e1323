"""Rebalance: add/remove/replace shards, minimal migration, verified bytes."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import rebalance
from repro.cluster.aio import AsyncClusterClient, hidden_key
from repro.cluster.fragment import decode_fragment
from repro.errors import ClusterError

from repro.crypto.ida import Share, reconstruct

UAK = b"C" * 32


def _populate(cluster, n_plain: int = 6, n_hidden: int = 8) -> dict:
    contents = {}
    for i in range(n_plain):
        path = f"/plain-{i}"
        data = f"plain contents {i}".encode() * 10
        cluster.create(path, data)
        contents[("plain", path)] = data
    for i in range(n_hidden):
        name = f"hidden-{i}"
        data = f"hidden contents {i}".encode() * 10
        cluster.steg_create(name, UAK, data=data)
        contents[("hidden", name)] = data
    return contents


def _fresh_shard(shard_farm):
    return next(iter(shard_farm(1, seed=1009).values()))


class TestAddShard:
    def test_add_migrates_only_affected_objects(self, make_cluster, shard_farm):
        cluster = make_cluster(3, replication=2)
        contents = _populate(cluster)
        backend = _fresh_shard(shard_farm)
        report = cluster.add_shard("shard-new", backend, uaks=(UAK,))
        assert report.examined == len(contents)
        assert 0 < report.moved < report.examined, report
        assert report.verified == report.moved
        assert not report.failed
        # The new shard holds fragments for exactly the objects whose new
        # placement includes it — nothing else was copied onto it.
        for (kind, name), _ in contents.items():
            key = (
                hidden_key(name, UAK)
                if kind == "hidden"
                else f"p:{name.lstrip('/')}"
            )
            on_new = "shard-new" in cluster.async_client.placement(key)
            if kind == "plain":
                assert backend.service.exists(name) == on_new, name
            else:
                assert (name in backend.service.steg_list(UAK)) == on_new, name

    def test_contents_byte_identical_after_add(self, make_cluster, shard_farm):
        cluster = make_cluster(3, replication=2)
        contents = _populate(cluster)
        cluster.add_shard("shard-new", _fresh_shard(shard_farm), uaks=(UAK,))
        for (kind, name), expected in contents.items():
            if kind == "plain":
                assert cluster.read(name) == expected
            else:
                assert cluster.steg_read(name, UAK) == expected

    def test_new_shard_actually_holds_fragments(self, make_cluster, shard_farm):
        cluster = make_cluster(3, replication=2)
        _populate(cluster)
        backend = _fresh_shard(shard_farm)
        report = cluster.add_shard("shard-new", backend, uaks=(UAK,))
        assert report.moved > 0
        migrated_hidden = backend.service.steg_list(UAK)
        migrated_plain = backend.service.listdir("/")
        assert migrated_hidden or migrated_plain

    def test_departed_placements_are_purged(self, make_cluster, shard_farm):
        cluster = make_cluster(3, replication=2)
        _populate(cluster)
        report = cluster.add_shard(
            "shard-new", _fresh_shard(shard_farm), uaks=(UAK,)
        )
        assert report.purged_fragments > 0


    def test_add_right_after_early_acked_write_migrates_the_new_bytes(
        self, make_cluster, shard_farm
    ):
        """An early-acked write leaves a leg in flight.  Migration must
        wait it out before it reads and rewrites the object, or the late
        leg lands on top of the migrated fragment and that replica ends
        up a version behind."""
        cluster = make_cluster(3, replication=3, write_quorum=2)
        client = cluster.async_client
        names = [f"doc-{i}" for i in range(3)]
        for name in names:
            cluster.steg_create(name, UAK, data=b"old " + name.encode())
        cluster.flush()
        grown = client.ring_copy()
        grown.add_node("shard-new")
        # An object the new shard takes a replica of, the shard that loses
        # it, and one that keeps it.
        name = next(
            name
            for name in names
            if "shard-new" in grown.nodes_for(hidden_key(name, UAK), 3)
        )
        after = grown.nodes_for(hidden_key(name, UAK), 3)
        (leaver,) = set(client.placement(hidden_key(name, UAK))) - set(after)
        stayer = next(sid for sid in after if sid != "shard-new")
        client.shards[stayer].delays["steg_put"] = 0.6
        fresh = b"written just before the ring changed " * 8
        before = cluster.stats["async.early_acks"]
        cluster.steg_write(name, UAK, fresh)
        assert cluster.stats["async.early_acks"] == before + 1
        client.shards[stayer].delays.clear()  # the leg in flight sleeps on

        report = cluster.add_shard("shard-new", _fresh_shard(shard_farm), uaks=(UAK,))
        assert report.moved >= 1 and report.verified == report.moved
        assert not report.failed
        assert cluster.steg_read(name, UAK) == fresh
        placement = client.placement(hidden_key(name, UAK))
        assert "shard-new" in placement and leaver not in placement
        fragments = [
            decode_fragment(client.shards[sid].service.steg_read(name, UAK))
            for sid in placement
        ]
        assert {f.payload for f in fragments} == {fresh}
        assert len({f.version for f in fragments}) == 1
        assert name not in client.shards[leaver].service.steg_list(UAK)


class TestRemoveShard:
    def test_remove_live_shard_drains_it(self, make_cluster):
        cluster = make_cluster(4, replication=2)
        contents = _populate(cluster)
        report, backend = cluster.remove_shard("shard-3", uaks=(UAK,))
        assert "shard-3" not in cluster.async_client.shards
        assert report.verified == report.moved
        assert not report.failed
        for (kind, name), expected in contents.items():
            if kind == "plain":
                assert cluster.read(name) == expected
            else:
                assert cluster.steg_read(name, UAK) == expected
        backend.service.close()

    def test_cannot_remove_last_shard(self, make_cluster):
        cluster = make_cluster(1, replication=1, write_quorum=1)
        with pytest.raises(ClusterError):
            cluster.async_client.detach_shard("shard-0")


class TestReplaceDeadShard:
    def test_replace_restores_full_redundancy_replicated(
        self, make_cluster, shard_farm
    ):
        """The acceptance path: kill → rebalance onto a replacement →
        every object back at full replication, byte-identical."""
        cluster = make_cluster(4, replication=3, write_quorum=2)
        contents = _populate(cluster)
        cluster.async_client.shards["shard-2"].kill()
        # Mid-outage traffic still works.
        cluster.steg_write("hidden-0", UAK, b"updated mid-outage")
        contents[("hidden", "hidden-0")] = b"updated mid-outage"

        replacement = _fresh_shard(shard_farm)
        report = cluster.replace_shard(
            "shard-2", "shard-R", replacement, uaks=(UAK,)
        )
        assert not report.failed
        assert report.verified == report.moved
        # Byte-identical through the new ring.
        for (kind, name), expected in contents.items():
            if kind == "plain":
                assert cluster.read(name) == expected
            else:
                assert cluster.steg_read(name, UAK) == expected
        # Full redundancy: every placement shard holds an intact current
        # fragment (no shard in any placement is missing its replica).
        for (kind, name), expected in contents.items():
            if kind == "plain":
                key = f"p:{name.lstrip('/')}"
                for sid in cluster.async_client.placement(key):
                    fragment = decode_fragment(cluster.async_client.shards[sid].service.read(name))
                    assert fragment.payload == expected
            else:
                key = hidden_key(name, UAK)
                for sid in cluster.async_client.placement(key):
                    fragment = decode_fragment(
                        cluster.async_client.shards[sid].service.steg_read(name, UAK)
                    )
                    assert fragment.payload == expected

    def test_replace_restores_full_redundancy_ida(self, make_cluster, shard_farm):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        payloads = {}
        for i in range(6):
            name = f"shared-{i}"
            data = f"dispersed {i}".encode() * 20
            cluster.steg_create(name, UAK, data=data)
            payloads[name] = data
        cluster.async_client.shards["shard-1"].kill()
        replacement = _fresh_shard(shard_farm)
        report = cluster.replace_shard(
            "shard-1", "shard-R", replacement, uaks=(UAK,)
        )
        assert not report.failed
        for name, expected in payloads.items():
            assert cluster.steg_read(name, UAK) == expected
            # Every placement shard holds a share, and ANY m of them
            # reconstruct: redundancy is fully restored.
            placement = cluster.async_client.placement(hidden_key(name, UAK))
            fragments = [
                decode_fragment(cluster.async_client.shards[sid].service.steg_read(name, UAK))
                for sid in placement
            ]
            assert len(fragments) == 4
            version = max(f.version for f in fragments)
            current = [f for f in fragments if f.version == version]
            assert len(current) == 4
            for a in range(len(current)):
                for b in range(a + 1, len(current)):
                    shares = [
                        Share(current[a].index, current[a].payload),
                        Share(current[b].index, current[b].payload),
                    ]
                    assert reconstruct(shares, 2) == expected


class TestRepair:
    def test_repair_heals_a_revived_stale_shard(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        contents = _populate(cluster, n_plain=2, n_hidden=4)
        victim = cluster.async_client.shards["shard-0"]
        victim.kill()
        for i in range(4):
            name = f"hidden-{i}"
            data = f"outage edit {i}".encode() * 10
            cluster.steg_write(name, UAK, data)
            contents[("hidden", name)] = data
        victim.revive()
        cluster.probe_dead_shards()
        report = cluster.repair(uaks=(UAK,))
        assert not report.failed
        for (kind, name), expected in contents.items():
            if kind == "hidden":
                key = hidden_key(name, UAK)
                for sid in cluster.async_client.placement(key):
                    fragment = decode_fragment(
                        cluster.async_client.shards[sid].service.steg_read(name, UAK)
                    )
                    assert fragment.payload == expected


class TestNativeAsyncVerbs:
    @pytest.mark.parametrize(
        "geometry",
        [
            {"replication": 3, "write_quorum": 2},
            {"mode": "ida", "ida_m": 2, "ida_n": 4},
        ],
        ids=["replicate", "ida"],
    )
    def test_all_four_verbs_on_the_event_loop(self, shard_farm, geometry):
        """add → remove → replace-a-dead-shard → repair as coroutines,
        every object byte-identical through each ring."""

        async def scenario() -> None:
            shards = shard_farm(4)
            async with AsyncClusterClient(shards, **geometry) as cluster:
                contents = {}
                for i in range(3):
                    contents[f"/plain-{i}"] = f"plain {i}".encode() * 10
                    await cluster.create(f"/plain-{i}", contents[f"/plain-{i}"])
                    contents[f"hidden-{i}"] = f"hidden {i}".encode() * 10
                    await cluster.steg_create(
                        f"hidden-{i}", UAK, data=contents[f"hidden-{i}"]
                    )

                async def check(report) -> None:
                    assert not report.failed
                    assert report.verified == report.moved
                    for name, expected in contents.items():
                        if name.startswith("/"):
                            assert await cluster.read(name) == expected
                        else:
                            assert await cluster.steg_read(name, UAK) == expected

                spare, replacement = shard_farm(2, seed=1009).values()
                await check(
                    await rebalance.add_shard(cluster, "shard-4", spare, (UAK,))
                )
                report, _backend = await rebalance.remove_shard(
                    cluster, "shard-0", (UAK,)
                )
                await check(report)
                shards["shard-1"].kill()
                await check(
                    await rebalance.replace_shard(
                        cluster, "shard-1", "shard-R", replacement, (UAK,)
                    )
                )
                assert sorted(cluster.shards) == [
                    "shard-2", "shard-3", "shard-4", "shard-R"
                ]
                await check(await rebalance.repair(cluster, (UAK,)))

        asyncio.run(scenario())
