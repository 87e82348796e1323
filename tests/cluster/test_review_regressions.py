"""Regressions from the PR-5 review: cache poisoning, upsert duplicates,
tombstoned plain listings."""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.aio import AsyncServiceShard, hidden_key, plain_key
from repro.errors import ClusterQuorumError, FileNotFoundError_
from repro.service.service import StegFSService

UAK = b"C" * 32


class TestFailedWriteDoesNotPoisonVersionCache:
    def test_quorum_refused_create_can_be_retried(self, make_cluster):
        """A create whose every put is refused (full disks, zero fragments
        stored) must not mark the object as existing — freeing capacity
        and retrying has to work."""
        cluster = make_cluster(4, replication=3, write_quorum=2)
        victims = [
            cluster.async_client.shards[sid]
            for sid in cluster.async_client.placement(hidden_key("retry-me", UAK))
        ]
        for shard in victims:
            shard.fail_puts = True
        with pytest.raises(ClusterQuorumError):
            cluster.steg_create("retry-me", UAK, data=b"first attempt")
        for shard in victims:
            shard.fail_puts = False
        # Nothing was stored anywhere, so the retry must succeed — the
        # failed attempt must not have cached exists=True.
        cluster.steg_create("retry-me", UAK, data=b"second attempt")
        assert cluster.steg_read("retry-me", UAK) == b"second attempt"

    def test_quorum_refused_plain_create_can_be_retried(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        victims = [
            cluster.async_client.shards[sid]
            for sid in cluster.async_client.placement(plain_key("/f"))
        ]
        for shard in victims:
            shard.fail_puts = True
        with pytest.raises(ClusterQuorumError):
            cluster.create("/f", b"first")
        for shard in victims:
            shard.fail_puts = False
        cluster.create("/f", b"second")
        assert cluster.read("/f") == b"second"


class TestUpsertToleratesDuplicateCreate:
    def test_steg_put_converges_when_object_appears_concurrently(self):
        """A concurrent repair or a second coordinator can create the object
        between the legs; the upsert must fall back to a write instead of
        surfacing Exists."""

        class FlakyService:
            """steg_write says NotFound once, then the create collides."""

            OPS = StegFSService.OPS
            executor = None  # the loop's default pool

            def __init__(self):
                from repro.errors import (
                    HiddenObjectExistsError,
                    HiddenObjectNotFoundError,
                )

                self._exists_exc = HiddenObjectExistsError
                self._missing_exc = HiddenObjectNotFoundError
                self.calls = []
                self.stored = None

            def steg_write(self, objname, uak, data):
                self.calls.append("write")
                if self.calls.count("write") == 1:
                    raise self._missing_exc(objname)
                self.stored = data

            def steg_create(self, objname, uak, data=b"", **kwargs):
                self.calls.append("create")
                raise self._exists_exc(objname)

        service = FlakyService()
        shard = AsyncServiceShard(service)
        asyncio.run(shard.steg_put("obj", UAK, b"payload"))
        assert service.calls == ["write", "create", "write"]
        assert service.stored == b"payload"

    def test_put_converges_when_file_appears_concurrently(self):
        class FlakyService:
            OPS = StegFSService.OPS
            executor = None  # the loop's default pool

            def __init__(self):
                from repro.errors import FileExistsError_, FileNotFoundError_

                self._exists_exc = FileExistsError_
                self._missing_exc = FileNotFoundError_
                self.calls = []
                self.stored = None

            def write(self, path, data):
                self.calls.append("write")
                if self.calls.count("write") == 1:
                    raise self._missing_exc(path)
                self.stored = data

            def create(self, path, data=b""):
                self.calls.append("create")
                raise self._exists_exc(path)

        service = FlakyService()
        shard = AsyncServiceShard(service)
        asyncio.run(shard.put("/f", b"payload"))
        assert service.calls == ["write", "create", "write"]
        assert service.stored == b"payload"


class TestTombstonedPlainListings:
    def test_deleted_plain_file_stays_out_of_listdir(self, make_cluster):
        """A stale replica on a dead-then-revived shard must not resurrect
        a deleted name in listdir (mirrors the steg_list guarantee)."""
        cluster = make_cluster(4, replication=2)
        cluster.create("/keep", b"stays")
        cluster.create("/gone", b"goes")
        victim_id = cluster.async_client.placement(plain_key("/gone"))[0]
        victim = cluster.async_client.shards[victim_id]
        victim.kill()
        cluster.unlink("/gone")  # removed from the reachable replica only
        victim.revive()
        cluster.probe_dead_shards()
        assert victim.service.exists("/gone")  # the stale fragment is really there
        assert cluster.listdir("/") == ["keep"]
        with pytest.raises(FileNotFoundError_):
            cluster.read("/gone")
