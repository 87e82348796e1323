"""Shard membership changes: migrate only ring-affected objects, verified.

Consistent hashing promises that adding or removing one shard reassigns
roughly ``objects / n_shards`` keys.  This module cashes that promise in:

1. enumerate the namespace and compute every object's placement on the
   **old** ring and on the **new** ring (old ± the shard);
2. for the affected keys only, and one key at a time inside
   :meth:`~repro.cluster.aio.AsyncClusterClient.exclusive` (the key's
   stripe lock, taken after the early-acked legs of any previous write
   have drained): read the newest intact version from the old placement
   — through the survivors when the departing shard is dead (quorum or
   IDA reconstruction is also how a dead shard is drained) — rewrite it
   at the new placement at a fresh version, waiting for every leg, and
   purge fragments from shards that left the placement;
3. still under the lock, read the object back from the new placement
   and verify it byte-identical at the new version — a mismatch raises
   :class:`~repro.errors.RebalanceError` naming the object.

A joining shard is attached before step 2 (its backend must be
reachable to be written to); a leaving shard is detached after step 3
(a live one is still read from while it drains).

Hidden objects cannot be enumerated without their keys (that is the
point of a steganographic store), so callers pass the UAKs whose
namespaces should move; plain files are discovered from the union
directory listing.  Either way an object arrives here as a *subject*
(:meth:`~repro.cluster.aio.AsyncClusterClient.plain` /
:meth:`~repro.cluster.aio.AsyncClusterClient.hidden`) and is moved by the
coordinator's three primitives over it — ``fetch``, ``store_at``,
``purge`` — so nothing below asks which namespace it serves.

:func:`replace_shard` composes the pieces for the failure story: detach
a dead shard, attach its replacement, then :func:`repair` every object
so full redundancy is restored for the *next* failure too.

Every verb is a coroutine over an
:class:`~repro.cluster.aio.AsyncClusterClient`; threaded callers reach
them as :class:`~repro.cluster.aio.BlockingClusterClient` methods of the
same names.  Client writes racing a membership change are not fenced
(ROADMAP): run these while the namespace being moved is quiescent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.aio import AsyncClusterClient, AsyncShardBackend, _Subject
from repro.cluster.ring import HashRing
from repro.errors import RebalanceError, ReproError

__all__ = [
    "RebalanceReport",
    "add_shard",
    "enumerate_objects",
    "remove_shard",
    "repair",
    "replace_shard",
]


@dataclass
class RebalanceReport:
    """What one membership change or repair actually did."""

    examined: int = 0
    moved: int = 0
    purged_fragments: int = 0
    bytes_moved: int = 0
    verified: int = 0
    #: Objects that could not be read from the old placement (e.g. lost
    #: beyond redundancy); they are reported, not silently dropped.
    failed: list[str] = field(default_factory=list)

    def merge(self, other: "RebalanceReport") -> "RebalanceReport":
        """Fold another report into this one (returns self)."""
        self.examined += other.examined
        self.moved += other.moved
        self.purged_fragments += other.purged_fragments
        self.bytes_moved += other.bytes_moved
        self.verified += other.verified
        self.failed.extend(other.failed)
        return self


async def enumerate_objects(
    cluster: AsyncClusterClient, uaks: tuple[bytes, ...] = ()
) -> list[_Subject]:
    """One subject for every object the cluster can see.

    Plain files come from the union listing; hidden names require the
    callers' UAKs — fragments under keys not supplied simply stay where
    they are (they are invisible, exactly as the paper intends).
    """
    found = [cluster.plain(f"/{name}") for name in await cluster.listdir("/")]
    for uak in uaks:
        for name in await cluster.steg_list(uak):
            found.append(cluster.hidden(name, uak))
    return found


async def _rewrite(
    cluster: AsyncClusterClient,
    subject: _Subject,
    old: tuple[str, ...],
    new: tuple[str, ...],
    report: RebalanceReport,
) -> None:
    """Move one object ``old`` → ``new`` placement; purge; verify."""
    leavers = [shard_id for shard_id in old if shard_id not in new]
    async with cluster.exclusive(subject.key):
        try:
            data, version = await cluster.fetch(subject, old)
        except ReproError as exc:
            report.failed.append(f"{subject.what}: {exc}")
            return
        await cluster.store_at(subject, data, new, version + 1)
        report.purged_fragments += await cluster.purge(subject, leavers)
        stored = await cluster.fetch(subject, new)
    report.moved += 1
    cluster.stats.increment("async.rebalance_moves")
    report.bytes_moved += len(data)
    if stored != (data, version + 1):
        # The kind and the caller's name, never the ring key (it tags the UAK).
        raise RebalanceError(f"post-migration mismatch for {subject.kind} object {subject.what!r}")
    report.verified += 1


async def _migrate(
    cluster: AsyncClusterClient,
    old_ring: HashRing,
    new_ring: HashRing,
    uaks: tuple[bytes, ...],
) -> RebalanceReport:
    """Rewrite every object whose placement differs between the rings."""
    report = RebalanceReport()
    width = cluster.width
    for subject in await enumerate_objects(cluster, uaks):
        report.examined += 1
        old = old_ring.nodes_for(subject.key, width)
        new = new_ring.nodes_for(subject.key, width)
        if old != new:
            await _rewrite(cluster, subject, old, new, report)
    return report


async def add_shard(
    cluster: AsyncClusterClient,
    shard_id: str,
    backend: AsyncShardBackend,
    uaks: tuple[bytes, ...] = (),
) -> RebalanceReport:
    """Attach a shard and migrate the ring-affected objects onto it."""
    old_ring = cluster.ring_copy()
    cluster.attach_shard(shard_id, backend)
    return await _migrate(cluster, old_ring, cluster.ring_copy(), uaks)


async def remove_shard(
    cluster: AsyncClusterClient, shard_id: str, uaks: tuple[bytes, ...] = ()
) -> tuple[RebalanceReport, AsyncShardBackend]:
    """Drain a shard (alive *or* dead) and detach it.

    Affected objects are read **before** the ring changes — routing
    around the departing shard if it is dead (failover) — and rewritten
    at their new placements.  Returns the report and the detached
    backend (the caller owns closing it).
    """
    old_ring = cluster.ring_copy()
    new_ring = old_ring.copy()
    new_ring.remove_node(shard_id)
    report = await _migrate(cluster, old_ring, new_ring, uaks)
    return report, cluster.detach_shard(shard_id)


async def repair(
    cluster: AsyncClusterClient, uaks: tuple[bytes, ...] = ()
) -> RebalanceReport:
    """Rewrite every object at its current placement at full redundancy.

    The read side tolerates missing fragments (quorum / m-of-n); the
    rewrite restores every replica and share — exactly what a replacement
    shard needs after :func:`replace_shard`, and what a revived shard
    needs after an outage longer than read-repair traffic would heal.
    """
    report = RebalanceReport()
    for subject in await enumerate_objects(cluster, uaks):
        report.examined += 1
        placement = cluster.placement(subject.key)
        await _rewrite(cluster, subject, placement, placement, report)
    return report


async def replace_shard(
    cluster: AsyncClusterClient,
    dead_id: str,
    new_id: str,
    backend: AsyncShardBackend,
    uaks: tuple[bytes, ...] = (),
) -> RebalanceReport:
    """Swap a failed shard for a fresh one and restore full redundancy.

    The failure story end-to-end: the dead shard leaves the ring (its
    fragments are unreachable anyway), the replacement joins, ring-affected
    objects migrate, and a full :func:`repair` pass rebuilds every replica
    and share so the cluster tolerates the *next* failure too.
    """
    report, dead_backend = await remove_shard(cluster, dead_id, uaks)
    try:
        await dead_backend.close()
    except Exception:
        pass  # it is dead; closing is best-effort
    report.merge(await add_shard(cluster, new_id, backend, uaks))
    report.merge(await repair(cluster, uaks))
    return report
