"""Consistent-hash ring with virtual nodes and N-way placement.

Placement must satisfy three properties the coordinator builds on:

* **Deterministic** — every coordinator (and every restart of one)
  computes the identical shard list for a key, with no shared state
  beyond the shard membership itself.
* **Spreading** — each physical shard owns many small arcs (``vnodes``
  points hashed per shard), so load and key ownership stay balanced even
  for small clusters.
* **Minimal movement** — adding or removing one shard only reassigns the
  keys whose arc it gained or lost: of the order ``keys / n_shards``,
  not all of them.  :func:`HashRing.moved_keys` makes that set explicit;
  the rebalancer migrates exactly those objects.

``nodes_for(key, count)`` walks clockwise from the key's hash and
collects the first ``count`` *distinct* physical shards — the object's
**placement**: replica targets in replication mode, share targets in IDA
mode.  The order is stable, so share index ``i`` always lives on
placement entry ``i`` and a reader can match fragments to positions.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from repro.crypto.sha256 import sha256
from repro.errors import ClusterError

__all__ = ["HashRing"]

#: Virtual nodes per physical shard.  128 points keep the largest/smallest
#: arc ratio low enough that a 4-shard cluster stays within ~20% of even.
DEFAULT_VNODES = 128


def _hash_point(label: str) -> int:
    """Position of ``label`` on the 64-bit ring (stable across runs)."""
    digest = sha256(label.encode("utf-8"))
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """An immutable-feeling consistent-hash ring over named shards."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        """The physical shards currently on the ring."""
        return frozenset(self._nodes)

    @property
    def vnodes(self) -> int:
        """Virtual nodes hashed per physical shard."""
        return self._vnodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        """Hash ``node``'s virtual points onto the ring."""
        if node in self._nodes:
            raise ClusterError(f"shard {node!r} is already on the ring")
        self._nodes.add(node)
        for vnode in range(self._vnodes):
            point = _hash_point(f"{node}#{vnode}")
            index = bisect.bisect_left(self._points, point)
            # Ties between distinct labels are broken by owner name so
            # every coordinator sorts them identically.
            while (
                index < len(self._points)
                and self._points[index] == point
                and self._owners[index] < node
            ):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove_node(self, node: str) -> None:
        """Drop every virtual point owned by ``node``."""
        if node not in self._nodes:
            raise ClusterError(f"shard {node!r} is not on the ring")
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def copy(self) -> "HashRing":
        """An independent ring with the same membership (for diffing)."""
        return HashRing(sorted(self._nodes), vnodes=self._vnodes)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _walk(self, key: str) -> Iterator[str]:
        start = bisect.bisect_right(self._points, _hash_point(key))
        total = len(self._points)
        for offset in range(total):
            yield self._owners[(start + offset) % total]

    def nodes_for(self, key: str, count: int) -> tuple[str, ...]:
        """The first ``count`` distinct shards clockwise of ``key``.

        Returns fewer than ``count`` entries when the ring holds fewer
        physical shards — the coordinator degrades redundancy rather
        than refusing placement.
        """
        if count < 1:
            raise ClusterError(f"placement count must be >= 1, got {count}")
        if not self._nodes:
            raise ClusterError("cannot place on an empty ring")
        placement: list[str] = []
        seen: set[str] = set()
        for owner in self._walk(key):
            if owner in seen:
                continue
            seen.add(owner)
            placement.append(owner)
            if len(placement) == count or len(seen) == len(self._nodes):
                break
        return tuple(placement)

    def primary(self, key: str) -> str:
        """The first shard of ``key``'s placement."""
        return self.nodes_for(key, 1)[0]

    def moved_keys(
        self, other: "HashRing", keys: Iterable[str], count: int
    ) -> list[str]:
        """Keys whose ``count``-way placement differs between two rings.

        This is the rebalancer's work list: consistent hashing guarantees
        it is a small fraction of all keys for single-shard membership
        changes.
        """
        return [
            key
            for key in keys
            if self.nodes_for(key, count) != other.nodes_for(key, count)
        ]
