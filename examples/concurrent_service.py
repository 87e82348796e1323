#!/usr/bin/env python3
"""Concurrent multi-client service: many agents, one deniable volume.

The paper's evaluation (§5.3) measures 1–32 concurrent users; its design
(§4) assumes many agents with independent access keys.  This example runs
that scenario for real:

1. build a StegFS volume with a write-back block cache underneath;
2. serve two authenticated users (independent UAKs) plus a pool of
   worker threads hammering reads through the service's futures API;
3. increment a shared hidden counter from many threads at once — the
   read–modify–write under the exclusive volume lock loses nothing;
4. show the cache statistics and the per-operation service counters,
   walking the shared op registry (`StegFSService.OPS`) instead of a
   hardcoded op list — the same table the network server routes by.

Run:  python examples/concurrent_service.py
"""

from __future__ import annotations

import random

from repro.core import StegFS, StegFSParams
from repro.crypto import derive_key
from repro.service import StegFSService
from repro.storage import CachedDevice, RamDevice

N_WORKERS = 8
READS_PER_WORKER = 12
INCREMENTS = 40


def main() -> None:
    backing = RamDevice(block_size=1024, total_blocks=8192)
    cache = CachedDevice(backing, capacity_blocks=1024)
    steg = StegFS.mkfs(
        cache,
        params=StegFSParams(dummy_count=4, dummy_avg_size=32 * 1024),
        inode_count=256,
        rng=random.Random(2003),
        auto_flush=False,
    )
    service = StegFSService(steg, max_workers=N_WORKERS, idle_timeout=300.0)
    print(f"Serving a {backing.capacity // 1024} KB volume with "
          f"{service.sessions.active_count()} sessions and {N_WORKERS} workers")

    # -- 1. two users, independent keys, independent hidden namespaces ----
    alice_uak = derive_key("alice: correct horse battery staple")
    bob_uak = derive_key("bob: tape stable horse battery")
    service.steg_create("journal", alice_uak, data=b"alice's private notes")
    service.steg_create("ledger", bob_uak, data=b"bob's private numbers")

    alice = service.open_session("alice", alice_uak)
    bob = service.open_session("bob", bob_uak)
    service.connect(alice, "journal")
    service.connect(bob, "ledger")
    print(f"alice sees {service.connected_names(alice)}, "
          f"bob sees {service.connected_names(bob)}")

    # -- 2. a read storm through the worker pool --------------------------
    futures = [
        service.submit("steg_read", "journal", alice_uak)
        for _ in range(N_WORKERS * READS_PER_WORKER)
    ]
    payloads = {future.result() for future in futures}
    assert payloads == {b"alice's private notes"}
    stats = cache.stats
    print(f"Read storm: {len(futures)} reads, cache hit rate "
          f"{stats.hit_rate:.0%} ({stats.hits} hits / {stats.misses} misses)")

    # -- 3. lost-update-free shared counter -------------------------------
    # submit() routes each name through the shared op registry, exactly
    # like the network server does — a misspelled op is a typed error.
    service.steg_create("counter", alice_uak, data=b"0")
    increments = [
        service.submit(
            "steg_update", "counter", alice_uak,
            lambda current: str(int(current) + 1).encode(),
        )
        for _ in range(INCREMENTS)
    ]
    for future in increments:
        future.result()
    final = service.steg_read("counter", alice_uak)
    print(f"{INCREMENTS} concurrent increments -> counter = {final.decode()} "
          f"(no lost updates)")

    # -- 4. flush write-back cache, inspect service counters --------------
    service.flush()
    print(f"After flush: {cache.stats.dirty_blocks} dirty blocks, "
          f"{cache.stats.writebacks} write-backs total")
    snapshot = service.stats.snapshot()
    for op, spec in sorted(StegFSService.OPS.items()):
        if spec.kind != "hidden" or op not in snapshot:
            continue
        stats = snapshot[op]
        print(f"  {op:12s} count={stats.count:3d} mean={stats.mean_ms:6.2f} ms "
              f"p95={stats.p95_ms:6.2f} ms errors={stats.errors}")

    service.close()
    print("Service closed: sessions logged out, cache flushed.")


if __name__ == "__main__":
    main()
