"""Coordinator semantics: routing, quorum, read-repair, IDA privacy."""

from __future__ import annotations

import pytest

from repro.cluster.aio import AsyncClusterClient, hidden_key
from repro.cluster.fragment import decode_fragment
from repro.errors import (
    ClusterError,
    FileExistsError_,
    FileNotFoundError_,
    HiddenObjectExistsError,
    HiddenObjectNotFoundError,
)

UAK = b"C" * 32


class TestPlainNamespace:
    def test_create_read_roundtrip(self, make_cluster):
        cluster = make_cluster(4)
        cluster.create("/report.txt", b"quarterly numbers")
        assert cluster.read("/report.txt") == b"quarterly numbers"

    def test_create_existing_rejected(self, make_cluster):
        cluster = make_cluster(3)
        cluster.create("/a", b"x")
        with pytest.raises(FileExistsError_):
            cluster.create("/a", b"y")

    def test_write_requires_existing(self, make_cluster):
        cluster = make_cluster(3)
        with pytest.raises(FileNotFoundError_):
            cluster.write("/missing", b"data")

    def test_write_then_read_sees_new_contents(self, make_cluster):
        cluster = make_cluster(4)
        cluster.create("/f", b"v1")
        cluster.write("/f", b"v2")
        assert cluster.read("/f") == b"v2"

    def test_unlink_removes_everywhere(self, make_cluster):
        cluster = make_cluster(4)
        cluster.create("/gone", b"data")
        cluster.unlink("/gone")
        assert not cluster.exists("/gone")
        with pytest.raises(FileNotFoundError_):
            cluster.read("/gone")

    def test_unlink_missing_raises(self, make_cluster):
        cluster = make_cluster(3)
        with pytest.raises(FileNotFoundError_):
            cluster.unlink("/never")

    def test_listdir_unions_shards(self, make_cluster):
        cluster = make_cluster(4)
        for i in range(8):
            cluster.create(f"/file-{i}", b"x")
        assert cluster.listdir("/") == [f"file-{i}" for i in range(8)]

    def test_replicas_land_on_placement_shards(self, make_cluster):
        cluster = make_cluster(4, replication=3)
        cluster.create("/placed", b"payload")
        cluster.flush()  # the write early-acked at W: drain the last leg
        placement = cluster.async_client.placement("p:placed")
        shards = cluster.async_client.shards
        holders = [
            sid for sid, shard in shards.items() if shard.service.exists("/placed")
        ]
        assert sorted(holders) == sorted(placement)

    def test_fragments_are_versioned_envelopes(self, make_cluster):
        cluster = make_cluster(3)
        cluster.create("/env", b"first")
        cluster.write("/env", b"second")
        cluster.flush()
        placement = cluster.async_client.placement("p:env")
        raw = cluster.async_client.shards[placement[0]].service.read("/env")
        fragment = decode_fragment(raw)
        assert fragment.payload == b"second"
        assert fragment.version == 2


class TestHiddenReplicated:
    def test_create_read_roundtrip(self, make_cluster):
        cluster = make_cluster(4)
        cluster.steg_create("secret", UAK, data=b"hidden payload")
        assert cluster.steg_read("secret", UAK) == b"hidden payload"

    def test_create_existing_rejected(self, make_cluster):
        cluster = make_cluster(3)
        cluster.steg_create("dup", UAK, data=b"x")
        with pytest.raises(HiddenObjectExistsError):
            cluster.steg_create("dup", UAK, data=b"y")

    def test_hidden_dirs_unsupported(self, make_cluster):
        cluster = make_cluster(2)
        with pytest.raises(ClusterError):
            cluster.steg_create("d", UAK, objtype="d")

    def test_write_requires_existing(self, make_cluster):
        cluster = make_cluster(3)
        with pytest.raises(HiddenObjectNotFoundError):
            cluster.steg_write("ghost", UAK, b"data")

    def test_delete_then_read_raises(self, make_cluster):
        cluster = make_cluster(4)
        cluster.steg_create("ephemeral", UAK, data=b"x")
        cluster.steg_delete("ephemeral", UAK)
        with pytest.raises(HiddenObjectNotFoundError):
            cluster.steg_read("ephemeral", UAK)
        assert "ephemeral" not in cluster.steg_list(UAK)

    def test_steg_list_unions_and_dedups(self, make_cluster):
        cluster = make_cluster(4)
        names = [f"obj-{i}" for i in range(6)]
        for name in names:
            cluster.steg_create(name, UAK, data=name.encode())
        assert cluster.steg_list(UAK) == names

    def test_recreate_after_delete_gets_fresh_contents(self, make_cluster):
        cluster = make_cluster(4)
        cluster.steg_create("phoenix", UAK, data=b"old life")
        cluster.steg_delete("phoenix", UAK)
        cluster.steg_create("phoenix", UAK, data=b"new life")
        assert cluster.steg_read("phoenix", UAK) == b"new life"

    def test_read_repair_heals_stale_replica(self, make_cluster):
        cluster = make_cluster(4, replication=3)
        cluster.steg_create("heal", UAK, data=b"version one")
        placement = cluster.async_client.placement(hidden_key("heal", UAK))
        # Cut one replica's shard off, update the object, reconnect it:
        # that shard now holds a stale version.
        lagging = cluster.async_client.shards[placement[0]]
        lagging.kill()
        cluster.steg_write("heal", UAK, b"version two")
        lagging.revive()
        cluster.probe_dead_shards()
        # Only legs that completed are judged stale: slow the fresh
        # replicas so the lagging one answers before the race is decided.
        for sid in placement[1:]:
            cluster.async_client.shards[sid].delays["steg_read"] = 0.05

        before = cluster.stats["async.read_repairs"]
        assert cluster.steg_read("heal", UAK) == b"version two"
        assert cluster.stats["async.read_repairs"] > before
        # The lagging replica was rewritten to the winning version.
        fragment = decode_fragment(lagging.service.steg_read("heal", UAK))
        assert fragment.payload == b"version two"

    def test_empty_and_large_payloads(self, make_cluster):
        cluster = make_cluster(3, seed=11)
        cluster.steg_create("empty", UAK, data=b"")
        assert cluster.steg_read("empty", UAK) == b""
        big = bytes(range(256)) * 64  # 16 KiB
        cluster.steg_create("big", UAK, data=big)
        assert cluster.steg_read("big", UAK) == big


class TestHiddenDispersed:
    def test_roundtrip(self, make_cluster):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.steg_create("dispersed", UAK, data=b"the real secret")
        assert cluster.steg_read("dispersed", UAK) == b"the real secret"
        assert cluster.stats["async.reconstructions"] >= 1

    def test_shares_are_smaller_than_data(self, make_cluster):
        data = b"D" * 4000
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.steg_create("sized", UAK, data=data)
        cluster.flush()
        placement = cluster.async_client.placement(hidden_key("sized", UAK))
        shards = cluster.async_client.shards
        for sid in placement:
            fragment = decode_fragment(shards[sid].service.steg_read("sized", UAK))
            # Each share is ~1/m of the data (factor n/m total), not a copy.
            assert len(fragment.payload) < len(data) * 0.6

    def test_single_share_reveals_nothing_extra(self, make_cluster):
        secret = b"MEETING AT MIDNIGHT, DOCK 7"
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.steg_create("private", UAK, data=secret)
        cluster.flush()
        placement = cluster.async_client.placement(hidden_key("private", UAK))
        shards = cluster.async_client.shards
        for sid in placement[:1]:  # fewer than m shards
            fragment = decode_fragment(shards[sid].service.steg_read("private", UAK))
            assert secret not in fragment.payload
            for window in range(0, len(secret) - 8):
                assert secret[window : window + 8] not in fragment.payload

    def test_update_and_delete(self, make_cluster):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.steg_create("mut", UAK, data=b"one")
        cluster.steg_write("mut", UAK, b"two")
        assert cluster.steg_read("mut", UAK) == b"two"
        cluster.steg_delete("mut", UAK)
        with pytest.raises(HiddenObjectNotFoundError):
            cluster.steg_read("mut", UAK)

    def test_rejects_impossible_geometry(self, make_cluster):
        with pytest.raises(ClusterError):
            make_cluster(4, mode="ida", ida_m=5, ida_n=4)


class TestValidation:
    def test_unknown_mode(self, make_cluster):
        with pytest.raises(ClusterError):
            make_cluster(2, mode="raid")

    def test_quorum_bounds(self, make_cluster):
        with pytest.raises(ClusterError):
            make_cluster(3, replication=3, write_quorum=4)

    def test_needs_a_shard(self):
        with pytest.raises(ClusterError):
            AsyncClusterClient({})
