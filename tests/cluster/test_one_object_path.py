"""One object path: the coordinator's verb bodies do not know a namespace.

``create`` / ``write`` / ``read`` / ``delete`` / ``list`` and the
rebalancer's ``fetch`` / ``store_at`` / ``purge`` are each written once
over a subject; this drives those shared bodies directly, with a plain
and a hidden subject in both redundancy modes, and holds the two
namespaces to one behaviour.  The plain column is the only direct
coverage of the rebalancer primitives on plain files.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.aio import AsyncClusterClient
from repro.cluster.fragment import MODE_IDA

UAK = b"C" * 32

#: namespace → (its subject for the name "doc", its listing verb).
NAMESPACES = {
    "plain": (lambda c: c.plain("/doc"), lambda c: c.listdir("/")),
    "hidden": (lambda c: c.hidden("doc", UAK), lambda c: c.steg_list(UAK)),
}
#: mode → (shards, constructor kwargs); full-width quorums leave no straggler.
GEOMETRY = {
    "replicate": (3, dict(replication=3, write_quorum=3)),
    "ida": (4, dict(mode=MODE_IDA, ida_m=2, ida_n=4, ida_write_quorum=4)),
}


@pytest.mark.parametrize("mode", sorted(GEOMETRY))
@pytest.mark.parametrize("namespace", sorted(NAMESPACES))
def test_every_verb_body_serves_both_namespaces(shard_farm, namespace, mode):
    n_shards, kwargs = GEOMETRY[mode]
    subject_of, listing = NAMESPACES[namespace]

    async def main() -> None:
        shards = shard_farm(n_shards)
        async with AsyncClusterClient(shards, owns_backends=True, **kwargs) as cluster:
            subject = subject_of(cluster)
            # Only the mode may disperse, and only hidden files.
            assert subject.dispersed == (namespace == "hidden" and mode == "ida")

            with pytest.raises(subject.missing) as refused:
                await cluster._write(subject, b"v0", create=False)
            # Error text names what the caller named, never the ring key.
            assert subject.what in str(refused.value)
            assert subject.key not in str(refused.value)
            await cluster._write(subject, b"v1 " * 50, create=True)
            with pytest.raises(subject.exists):
                await cluster._write(subject, b"again", create=True)
            await cluster._write(subject, b"v2 " * 50, create=False)
            assert await cluster._read_repairing(subject) == b"v2 " * 50
            assert "doc" in await listing(cluster)

            placement = cluster.placement(subject.key)
            async with cluster.exclusive(subject.key):
                data, version = await cluster.fetch(subject, placement)
                assert (data, version) == (b"v2 " * 50, 2)
                await cluster.store_at(subject, data, placement, version + 1)
                assert await cluster.purge(subject, placement[-1:]) == 1
                assert await cluster.fetch(subject, placement) == (data, version + 1)

            await cluster._delete(subject)
            with pytest.raises(subject.missing):
                await cluster._delete(subject)
            with pytest.raises(subject.missing):
                await cluster._read_repairing(subject)
            # The tombstone hides the name even from the union listing.
            assert "doc" not in await listing(cluster)
            assert cluster.stats["async.writes"] == 2
            assert cluster.stats["async.deletes"] == 1

    asyncio.run(main())
