"""Sharded multi-volume cluster: routing, redundancy, failover, rebalance.

The fourth access tier.  Where :mod:`repro.core` mounts one volume,
:mod:`repro.service` makes it concurrent and :mod:`repro.net` makes it
remote, this package assembles **many** independent StegFS volumes into
one namespace:

* :mod:`repro.cluster.ring` — consistent-hash placement with virtual
  nodes: every object maps to a deterministic ordered list of shards,
  and adding/removing a shard moves only the keys whose arc changed.
* :mod:`repro.cluster.aio` — the one data plane.
  :class:`AsyncClusterClient` is the coordinator: quorum-replicated or
  IDA-dispersed hidden files, versioned fragments, one-leg hedged reads,
  early-ack writes, read-repair, failover — over in-process
  (:class:`AsyncServiceShard`) and remote (:class:`AsyncRemoteShard`)
  volumes behind one :class:`AsyncShardBackend` interface, so a cluster
  can span real ``StegFSServer`` processes.
  :class:`BlockingClusterClient` is the same engine for threaded
  callers.
* :mod:`repro.cluster.dummy_sched` — fleet-wide dummy-churn scheduling
  with stagger and seeded jitter, so per-shard maintenance never drums
  in the lockstep a multi-disk snapshot attacker correlates on.
* :mod:`repro.cluster.health` — failure detection and recovery probing.
* :mod:`repro.cluster.rebalance` — add/remove/replace shards, migrating
  only ring-affected objects with byte-identical verification.
"""

from repro.cluster.aio import (
    AsyncClusterClient,
    AsyncRemoteShard,
    AsyncServiceShard,
    AsyncShardBackend,
    BlockingClusterClient,
    ClusterStats,
)
from repro.cluster.backend import SHARD_FAILURES
from repro.cluster.dummy_sched import DummyScheduler
from repro.cluster.health import HealthMonitor, ShardState
from repro.cluster.rebalance import (
    RebalanceReport,
    add_shard,
    remove_shard,
    repair,
    replace_shard,
)

__all__ = [
    "SHARD_FAILURES",
    "AsyncClusterClient",
    "AsyncRemoteShard",
    "AsyncServiceShard",
    "AsyncShardBackend",
    "BlockingClusterClient",
    "ClusterStats",
    "DummyScheduler",
    "HealthMonitor",
    "RebalanceReport",
    "ShardState",
    "add_shard",
    "remove_shard",
    "repair",
    "replace_shard",
]
