#!/usr/bin/env python3
"""Sharded cluster: one hidden namespace over many StegFS volumes.

PR 3 put a volume behind a TCP server; this walkthrough runs the tier
that spans *several* of them at once:

1. start two real `StegFSServer` processes (daemon threads here, but
   genuine sockets) plus two embedded service volumes, and assemble a
   4-shard `BlockingClusterClient` — the asyncio cluster engine behind a
   blocking surface — with consistent-hash routing, replication factor
   3, write quorum 2;
2. store hidden files and watch their replicas land on ring placements;
3. kill a shard mid-workload: writes keep acking on the surviving
   quorum, reads fail over, nothing acked is lost;
4. replace the dead shard with a fresh volume via `replace_shard` —
   only ring-affected objects migrate, every byte verified — and show
   full redundancy restored;
5. rebuild the same namespace in IDA mode (m=2 of n=4): any two shards
   reconstruct a hidden file, any single shard reveals nothing.

Run:  python examples/cluster.py
"""

from __future__ import annotations

import random

from repro.cluster import (
    AsyncClusterClient,
    AsyncRemoteShard,
    AsyncServiceShard,
    BlockingClusterClient,
)
from repro.cluster.aio import hidden_key
from repro.core import StegFS, StegFSParams
from repro.crypto import derive_key
from repro.net import start_in_thread
from repro.service import StegFSService
from repro.storage import RamDevice

USER = "alice"


def make_service(seed: int) -> StegFSService:
    steg = StegFS.mkfs(
        RamDevice(block_size=1024, total_blocks=4096),
        params=StegFSParams(dummy_count=2, dummy_avg_size=16 * 1024),
        inode_count=128,
        rng=random.Random(seed),
        auto_flush=False,
    )
    return StegFSService(steg, max_workers=4)


def main() -> None:
    uak = derive_key("alice: correct horse battery staple")

    # -- 1. four shards: two remote (real TCP servers), two embedded ------
    services = [make_service(seed) for seed in (1, 2, 3, 4)]
    handles = [
        start_in_thread(services[0], credentials={USER: uak}),
        start_in_thread(services[1], credentials={USER: uak}),
    ]

    async def build() -> AsyncClusterClient:
        # Runs on the client's own event loop: remote shards dial there.
        shards = {
            "remote-0": await AsyncRemoteShard.connect(
                *handles[0].address, user_id=USER, uak=uak
            ),
            "remote-1": await AsyncRemoteShard.connect(
                *handles[1].address, user_id=USER, uak=uak
            ),
            "local-0": AsyncServiceShard(services[2], owns_service=True),
            "local-1": AsyncServiceShard(services[3], owns_service=True),
        }
        return AsyncClusterClient(
            shards, replication=3, write_quorum=2, owns_backends=True
        )

    cluster = BlockingClusterClient(build)
    ring = cluster.async_client  # placement and shard inspection
    print(f"cluster up: {sorted(ring.shards)} (RF=3, W=2)")

    # -- 2. hidden files spread over ring placements ----------------------
    documents = {f"doc-{i}": f"draft {i} — eyes only".encode() * 20 for i in range(6)}
    for name, data in documents.items():
        cluster.steg_create(name, uak, data=data)
        print(f"  {name}: placed on {ring.placement(hidden_key(name, uak))}")

    # -- 3. kill a shard mid-workload -------------------------------------
    print("\nstopping remote-1's server process...")
    handles[1].stop()
    acked = {}
    for i in range(3):
        name, data = f"outage-{i}", f"written during the outage {i}".encode() * 10
        cluster.steg_create(name, uak, data=data)  # quorum 2 of 3 still acks
        acked[name] = data
    survivors_ok = all(
        cluster.steg_read(name, uak) == data
        for name, data in {**documents, **acked}.items()
    )
    print(f"  all pre/post-kill files readable: {survivors_ok}")
    print(f"  health: { {s: h.state.value for s, h in cluster.health.snapshot().items()} }")

    # -- 4. replace the dead shard, restore full redundancy ---------------
    replacement = AsyncServiceShard(make_service(99), owns_service=True)
    report = cluster.replace_shard("remote-1", "local-2", replacement, uaks=(uak,))
    print(
        f"\nreplace_shard: {report.moved} objects migrated/repaired, "
        f"{report.verified} verified byte-identical, failed={report.failed}"
    )
    stats = cluster.stats.snapshot()
    print(f"  cluster counters: {stats}")
    cluster.close()
    handles[0].stop()

    # -- 5. the same idea with IDA dispersal ------------------------------
    ida_services = [make_service(seed) for seed in (11, 12, 13, 14)]
    ida_shards = {
        f"shard-{i}": AsyncServiceShard(service, owns_service=True)
        for i, service in enumerate(ida_services)
    }
    ida_cluster = BlockingClusterClient(
        lambda: AsyncClusterClient(
            ida_shards, mode="ida", ida_m=2, ida_n=4, owns_backends=True
        )
    )
    secret = b"MEETING AT MIDNIGHT, DOCK 7. BURN AFTER READING." * 8
    ida_cluster.steg_create("secret-plan", uak, data=secret)
    ida_cluster.flush()  # the create acked at quorum: let the last share land
    placement = ida_cluster.async_client.placement(hidden_key("secret-plan", uak))
    share = ida_shards[placement[0]].service.steg_read("secret-plan", uak)
    print("\nIDA mode (m=2, n=4):")
    print(f"  data {len(secret)} B -> 4 shares of ~{len(share)} B (factor n/m = 2)")
    print(f"  one share contains the plaintext: {secret[:24] in share}")
    for victim in placement[:2]:
        ida_shards[victim].service.close()  # kill up to n - m shards
        print(
            f"  after killing {victim}: "
            f"reconstructs -> {ida_cluster.steg_read('secret-plan', uak) == secret}"
        )
        break  # one kill is the acceptance scenario; m survivors remain
    ida_cluster.close()
    print("\ndone.")


if __name__ == "__main__":
    main()
