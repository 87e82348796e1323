"""Failover acceptance: a 4-shard cluster survives any single shard kill.

The ISSUE 5 acceptance scenario: with replication factor 3 and W=2,
killing any single shard mid-workload loses no acknowledged write and
reads keep succeeding; in IDA mode (m=2, n=4) the same kill leaves every
hidden file reconstructible.
"""

from __future__ import annotations

import pytest

from repro.cluster.aio import hidden_key
from repro.errors import ClusterQuorumError, ShardUnavailableError

UAK = b"C" * 32


def _workload_names(n: int = 10) -> list[str]:
    return [f"doc-{i:03d}" for i in range(n)]


class TestReplicatedFailover:
    @pytest.mark.parametrize("victim_index", [0, 1, 2, 3])
    def test_single_kill_loses_no_acked_write(self, make_cluster, victim_index):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        acked: dict[str, bytes] = {}
        names = _workload_names()
        # Phase 1: populate while everything is healthy.
        for i, name in enumerate(names[:5]):
            data = f"pre-kill {i}".encode() * 20
            cluster.steg_create(name, UAK, data=data)
            acked[name] = data
        # Kill one shard mid-workload.
        cluster.async_client.shards[f"shard-{victim_index}"].kill()
        # Phase 2: keep writing — quorum 2 of the surviving replicas acks.
        for i, name in enumerate(names[5:]):
            data = f"post-kill {i}".encode() * 20
            cluster.steg_create(name, UAK, data=data)
            acked[name] = data
        for i, name in enumerate(names[:3]):
            data = f"updated {i}".encode() * 20
            cluster.steg_write(name, UAK, data)
            acked[name] = data
        # Every acknowledged write reads back, byte-identical.
        for name, expected in acked.items():
            assert cluster.steg_read(name, UAK) == expected
        assert cluster.stats["async.failovers"] > 0

    def test_reads_survive_each_single_kill_in_turn(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        names = _workload_names(6)
        payloads = {name: name.encode() * 30 for name in names}
        for name, data in payloads.items():
            cluster.steg_create(name, UAK, data=data)
        for victim in range(4):
            shard = cluster.async_client.shards[f"shard-{victim}"]
            shard.kill()
            for name, expected in payloads.items():
                assert cluster.steg_read(name, UAK) == expected
            shard.revive()
            cluster.probe_dead_shards()

    def test_plain_files_fail_over_too(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        cluster.create("/ledger", b"balance: 42")
        cluster.async_client.shards["shard-1"].kill()
        assert cluster.read("/ledger") == b"balance: 42"
        cluster.write("/ledger", b"balance: 43")
        assert cluster.read("/ledger") == b"balance: 43"

    def test_embedded_volume_shut_down_underneath_fails_over(self, make_cluster):
        """A closed service refuses work at its pool, before the op's own
        closed check: that must still read as "shard down", not crash."""
        cluster = make_cluster(4, replication=3, write_quorum=2)
        cluster.steg_create("orphaned", UAK, data=b"still served")
        cluster.flush()
        victim = cluster.async_client.placement(hidden_key("orphaned", UAK))[0]
        cluster.async_client.shards[victim].service.close()
        assert cluster.steg_read("orphaned", UAK) == b"still served"
        cluster.steg_write("orphaned", UAK, b"and still writable")
        assert cluster.steg_read("orphaned", UAK) == b"and still writable"
        assert not cluster.health.is_alive(victim)

    def test_revived_shard_heals_through_read_repair(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        cluster.steg_create("healme", UAK, data=b"v1")
        placement = cluster.async_client.placement(hidden_key("healme", UAK))
        victim = cluster.async_client.shards[placement[0]]
        victim.kill()
        cluster.steg_write("healme", UAK, b"v2")
        victim.revive()
        cluster.probe_dead_shards()
        # Only legs that completed are judged stale: slow the fresh
        # replicas so the revived one answers before the race is decided.
        for sid in placement[1:]:
            cluster.async_client.shards[sid].delays["steg_read"] = 0.05
        assert cluster.steg_read("healme", UAK) == b"v2"
        # After the repairing read, the once-dead replica is current again.
        from repro.cluster.fragment import decode_fragment

        fragment = decode_fragment(victim.service.steg_read("healme", UAK))
        assert fragment.payload == b"v2"

    def test_too_many_kills_refuse_quorum(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        cluster.steg_create("quorate", UAK, data=b"x")
        placement = cluster.async_client.placement(hidden_key("quorate", UAK))
        for sid in placement[:2]:
            cluster.async_client.shards[sid].kill()
        with pytest.raises(ClusterQuorumError):
            cluster.steg_write("quorate", UAK, b"y")

    def test_whole_placement_dead_is_unavailable(self, make_cluster):
        cluster = make_cluster(4, replication=3, write_quorum=2)
        cluster.steg_create("dark", UAK, data=b"x")
        for sid in cluster.async_client.placement(hidden_key("dark", UAK)):
            cluster.async_client.shards[sid].kill()
        with pytest.raises(ShardUnavailableError):
            cluster.steg_read("dark", UAK)


class TestDispersedFailover:
    @pytest.mark.parametrize("victim_index", [0, 1, 2, 3])
    def test_every_hidden_file_reconstructible_after_kill(
        self, make_cluster, victim_index
    ):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        payloads = {
            name: (name.encode() + b"|") * 40 for name in _workload_names(8)
        }
        for name, data in payloads.items():
            cluster.steg_create(name, UAK, data=data)
        cluster.async_client.shards[f"shard-{victim_index}"].kill()
        for name, expected in payloads.items():
            assert cluster.steg_read(name, UAK) == expected

    def test_writes_keep_acking_with_one_shard_down(self, make_cluster):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.async_client.shards["shard-2"].kill()
        acked = {}
        for name in _workload_names(5):
            data = name.encode() * 25
            cluster.steg_create(name, UAK, data=data)
            acked[name] = data
        for name, expected in acked.items():
            assert cluster.steg_read(name, UAK) == expected
        assert cluster.stats["async.degraded_writes"] >= 1

    def test_acked_write_survives_a_subsequent_kill(self, make_cluster):
        """The m+1 write quorum's whole point: after an ack with one shard
        already down (3 shares), losing ONE more shard still leaves m."""
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.async_client.shards["shard-0"].kill()
        cluster.steg_create("resilient", UAK, data=b"still here" * 10)
        placement = cluster.async_client.placement(hidden_key("resilient", UAK))
        survivors = [sid for sid in placement if sid != "shard-0"]
        cluster.async_client.shards[survivors[0]].kill()
        assert cluster.steg_read("resilient", UAK) == b"still here" * 10

    def test_below_m_shares_is_an_error_not_garbage(self, make_cluster):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.steg_create("fragile", UAK, data=b"secret")
        placement = cluster.async_client.placement(hidden_key("fragile", UAK))
        for sid in placement[:3]:
            cluster.async_client.shards[sid].kill()
        with pytest.raises(ShardUnavailableError):
            cluster.steg_read("fragile", UAK)

    def test_repair_refreshes_missing_share_on_read(self, make_cluster):
        cluster = make_cluster(4, mode="ida", ida_m=2, ida_n=4)
        cluster.steg_create("reshare", UAK, data=b"re-disperse me" * 10)
        placement = cluster.async_client.placement(hidden_key("reshare", UAK))
        victim = cluster.async_client.shards[placement[1]]
        victim.kill()
        cluster.steg_write("reshare", UAK, b"second version" * 10)
        victim.revive()
        cluster.probe_dead_shards()
        # Slow the fresh share holders so the revived one is judged.
        for sid in placement:
            if sid != placement[1]:
                cluster.async_client.shards[sid].delays["steg_read"] = 0.05
        before = cluster.stats["async.read_repairs"]
        assert cluster.steg_read("reshare", UAK) == b"second version" * 10
        assert cluster.stats["async.read_repairs"] > before
        # The revived shard's share now reconstructs with any other one.
        from repro.cluster.fragment import decode_fragment

        refreshed = decode_fragment(victim.service.steg_read("reshare", UAK))
        assert refreshed.version >= 2
