"""Shared volume context handed to every hidden-object operation.

Bundles the device, the (shared!) allocation bitmap, the Table 1 parameters
and the randomness source.  Hidden files, dummy files and abandoned blocks
all allocate through :attr:`allocator`, which draws uniformly from the same
free space the plain file system uses — Figure 1's single bitmap is the
whole point: one allocation namespace, many indistinguishable owners.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ContextManager

from repro.core.params import StegFSParams
from repro.obs.metrics import get_registry
from repro.storage.allocator import RandomAllocator
from repro.storage.bitmap import Bitmap
from repro.storage.block_device import BlockDevice

if TYPE_CHECKING:
    from repro.core.hidden_file import HiddenFile

__all__ = ["HiddenVolume", "ObjectTable", "OPEN_OBJECT_BOUND"]

#: Most in-core hidden objects one volume keeps.  An entry is a header, a
#: block map (one int per block) and, for a directory, its listing: a few
#: hundred bytes for the paper's 4 KiB objects, ~10 KiB per mapped MiB at
#: 1 KiB blocks.
OPEN_OBJECT_BOUND = 1024

# Counts only — no name, key, signature or block number leaves the table.
# Module-level references keep a lookup at one gated increment; the gauge
# moves by deltas because every volume of the process shares it.
_REG = get_registry()
_HITS = _REG.counter("steg.objects.hits", "hidden-object opens served in core")
_MISSES = _REG.counter("steg.objects.misses", "hidden-object opens that walked the locator")
_EVICTIONS = _REG.counter("steg.objects.evictions", "in-core hidden objects dropped at the bound")
_SIZE = _REG.gauge("steg.objects.size", "in-core hidden objects, all open volumes")


class ObjectTable:
    """The hidden layer's icache: the one in-core object per hidden object.

    Keyed by the derived :attr:`~repro.core.keys.ObjectKeys.signature`, so
    a lookup needs the access key and a wrong key cannot hit.  Only found
    objects are entered; eviction is least-recently-looked-up beyond
    :data:`OPEN_OBJECT_BOUND`.  An evicted object is not touched — a reader
    may be in the middle of using it — it merely stops being the entry,
    which it notices the next time it is used (see
    :class:`~repro.core.hidden_file.HiddenFile`).  RAM-only; readers under
    a shared volume lock fill it concurrently, hence the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, HiddenFile] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, signature: bytes) -> "HiddenFile | None":
        """The entry for ``signature`` (now most recently used), or None."""
        with self._lock:
            hidden = self._entries.get(signature)
            if hidden is not None:
                self._entries.move_to_end(signature)
        (_MISSES if hidden is None else _HITS).inc()
        return hidden

    def holds(self, hidden: "HiddenFile") -> bool:
        """Whether ``hidden`` is still the entry for its signature."""
        return self._entries.get(hidden.signature) is hidden

    def enter(self, hidden: "HiddenFile") -> None:
        """Make ``hidden`` the entry for its signature, evicting beyond the bound.

        Two readers that missed together each enter their own object; both
        hold the same state, the later one stays.
        """
        with self._lock:
            before = len(self._entries)
            self._entries[hidden.signature] = hidden
            self._entries.move_to_end(hidden.signature)
            evicted = max(0, len(self._entries) - OPEN_OBJECT_BOUND)
            for _ in range(evicted):
                self._entries.popitem(last=False)
            grown = len(self._entries) - before
        if evicted:
            _EVICTIONS.inc(evicted)
        if grown:
            _SIZE.add(grown)

    def discard(self, hidden: "HiddenFile") -> None:
        """Drop ``hidden`` if it is the entry (deleted, or half-updated)."""
        with self._lock:
            if self._entries.get(hidden.signature) is not hidden:
                return
            del self._entries[hidden.signature]
        _SIZE.add(-1)

    def clear(self) -> None:
        """Empty the table: what it described may no longer be on the device."""
        with self._lock:
            _SIZE.add(-len(self._entries))
            self._entries.clear()


@dataclass
class HiddenVolume:
    """Context for hidden-layer operations on one mounted volume."""

    device: BlockDevice
    bitmap: Bitmap
    params: StegFSParams
    rng: random.Random
    #: First data-region block; header placement and lookup never consider
    #: blocks below it (superblock, bitmap, inode table, journal).  Bare
    #: volumes built without a plain file system keep the default 0.
    data_start: int = 0
    allocator: RandomAllocator = field(init=False)
    #: The open-object table; every ``HiddenFile.open`` goes through it.
    objects: ObjectTable = field(init=False)

    def __post_init__(self) -> None:
        self.allocator = RandomAllocator(self.bitmap, self.rng)
        self.objects = ObjectTable()
        manager = getattr(self.device, "manager", None)
        if manager is not None:
            # An aborted transaction discards staged blocks the in-core
            # objects already describe; none of them can be trusted after.
            manager.add_abort_hook(self.objects.clear)

    @property
    def block_size(self) -> int:
        """Volume block size."""
        return self.device.block_size

    def take_free_blocks(self, count: int) -> list[int]:
        """Claim ``count`` uniformly random free blocks."""
        return self.allocator.allocate_many(count)

    def take_free_blocks_best_effort(self, count: int) -> list[int]:
        """Claim up to ``count`` random free blocks (possibly fewer)."""
        available = min(count, self.bitmap.free_count)
        return self.allocator.allocate_many(available)

    def release_blocks(self, blocks: list[int]) -> None:
        """Return blocks to the shared free space."""
        for block in blocks:
            self.bitmap.free(block)

    def transaction(self) -> ContextManager[None]:
        """Scope a multi-block hidden-layer update as one atomic commit.

        When the device is the journal adapter of a journaled volume, this
        opens (or joins) a transaction on its manager, so a header + inode
        chain + data update is all-or-nothing even when a hidden object is
        driven outside the :class:`~repro.core.stegfs.StegFS` facade (the
        service layer's session writes, the benchmark adapters).  On a bare
        device it is a no-op scope.
        """
        manager = getattr(self.device, "manager", None)
        if manager is None:
            return nullcontext()
        return manager.transaction()
