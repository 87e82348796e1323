"""Write-back LRU block cache: hot blocks skip the disk beneath them.

:class:`CachedDevice` slots under any :class:`~repro.storage.block_device.
BlockDevice` stack (a :class:`~repro.storage.block_device.FileDevice`, a
:class:`~repro.storage.crash.CrashInjectionDevice`, …) and absorbs repeated
accesses to the same blocks:

* **reads** are served from an LRU map when present (*hit*), otherwise
  fetched from the backing device and cached (*miss*);
* **writes** land only in the cache and are marked *dirty* — they reach the
  backing device when the block is evicted (LRU, capacity-bound) or on
  :meth:`flush`, which write-backs every dirty block in ascending index
  order (best case for a seek-priced disk) and then flushes the backing
  device itself.

The cache is batch-aware: :meth:`read_blocks` satisfies hits from the LRU
map and issues **one** backing ``read_blocks`` call for all the misses;
:meth:`write_blocks` inserts the whole batch under one lock hold and
write-backs any dirty eviction victims in one backing call; :meth:`flush`
pushes the entire dirty set through a single backing ``write_blocks``
(ascending) followed by a single backing ``flush`` — so a FileDevice
underneath fsyncs once per flush, not once per block.

The cache is thread-safe: one internal lock guards the LRU structures, so
concurrent clients of a :class:`~repro.service.StegFSService` can share one
instance.  Miss fetches run outside the lock (hits never wait on a slow
backing device); dirty-eviction write-backs stay under it, so a concurrent
reader of the victim can never observe the backing device before the
write-back lands.  Statistics (:class:`CacheStats`) count hits, misses,
evictions and write-backs for the throughput benchmarks.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import get_registry
from repro.storage.block_device import BlockDevice

__all__ = ["CacheStats", "CachedDevice"]

# Process-wide cache counters (summed across instances), mirrored from
# the per-instance tallies so ``obs_metrics`` shows cache behaviour next
# to device and journal traffic.  Module-level references keep the hot
# read path at one gated increment.
_REG = get_registry()
_HITS = _REG.counter("storage.cache.hits", "reads served from the cache")
_MISSES = _REG.counter("storage.cache.misses", "reads that went to the backing device")
_EVICTIONS = _REG.counter("storage.cache.evictions", "LRU evictions")
_WRITEBACKS = _REG.counter("storage.cache.writebacks", "dirty blocks written back")


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`CachedDevice`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    cached_blocks: int = 0
    dirty_blocks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache (0 if no reads yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedDevice(BlockDevice):
    """LRU write-back cache presenting the :class:`BlockDevice` interface.

    ``capacity_blocks`` bounds the number of cached blocks; eviction is
    strict LRU over both clean and dirty entries, and evicting a dirty
    block writes it back to the inner device first.  Until eviction or
    :meth:`flush`, dirty data exists only in memory — callers who need
    durability must flush (the service layer's ``flush`` does).
    """

    def __init__(self, inner: BlockDevice, capacity_blocks: int = 1024) -> None:
        super().__init__(inner.block_size, inner.total_blocks)
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity_blocks must be positive, got {capacity_blocks}"
            )
        self._inner = inner
        self._capacity = capacity_blocks
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._dirty: set[int] = set()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writebacks = 0

    @property
    def inner(self) -> BlockDevice:
        """The backing device."""
        return self._inner

    @property
    def capacity_blocks(self) -> int:
        """Maximum number of blocks held in the cache."""
        return self._capacity

    @property
    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction/write-back counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                writebacks=self._writebacks,
                cached_blocks=len(self._cache),
                dirty_blocks=len(self._dirty),
            )

    def snapshot(self) -> dict[int, bytes]:
        """Copy of the cached blocks (index → data), for verification."""
        with self._lock:
            return dict(self._cache)

    # ------------------------------------------------------------------
    # BlockDevice interface
    # ------------------------------------------------------------------

    def read_block(self, index: int) -> bytes:
        self._check(index)
        with self._lock:
            data = self._cache.get(index)
            if data is not None:
                self._hits += 1
                _HITS.inc()
                self._cache.move_to_end(index)
                return data
            self._misses += 1
            _MISSES.inc()
        # Fetch outside the lock: a slow backing device (a FileDevice on
        # a real disk) must not stall other clients' cache hits.
        data = self._inner.read_block(index)
        with self._lock:
            raced = self._cache.get(index)
            if raced is not None:
                # Someone cached it (possibly a newer dirty write) while
                # we were at the device — their version wins.
                self._cache.move_to_end(index)
                return raced
            self._insert(index, data, dirty=False)
            return data

    def write_block(self, index: int, data: bytes) -> None:
        self._check(index)
        if len(data) != self._block_size:
            raise ValueError(
                f"write of {len(data)} bytes to device with {self._block_size}-byte blocks"
            )
        with self._lock:
            self._insert(index, bytes(data), dirty=True)

    def _insert(
        self,
        index: int,
        data: bytes,
        dirty: bool,
        evicted: list[tuple[int, bytes]] | None = None,
    ) -> None:
        if index in self._cache:
            self._cache[index] = data
            self._cache.move_to_end(index)
        else:
            self._cache[index] = data
            if len(self._cache) > self._capacity:
                victim, victim_data = self._cache.popitem(last=False)
                self._evictions += 1
                _EVICTIONS.inc()
                if victim in self._dirty:
                    self._dirty.discard(victim)
                    self._writebacks += 1
                    _WRITEBACKS.inc()
                    if evicted is None:
                        self._inner.write_block(victim, victim_data)
                    else:
                        # Batched caller: defer so the whole batch's
                        # victims go to the device in one call (still
                        # under the lock, before any reader can race).
                        evicted.append((victim, victim_data))
        if dirty:
            self._dirty.add(index)

    def read_blocks(self, indices: Iterable[int]) -> list[bytes]:
        """Batched read: hits from the cache, one backing call for misses.

        Results align positionally with ``indices``.  The miss fetch runs
        outside the lock like the single-block path, and a block another
        thread cached (or dirtied) in the meantime wins over our fetch.
        """
        indices = self._check_batch_read(indices)
        out: list[bytes | None] = [None] * len(indices)
        miss_positions: list[int] = []
        with self._lock:
            for position, index in enumerate(indices):
                data = self._cache.get(index)
                if data is not None:
                    self._hits += 1
                    self._cache.move_to_end(index)
                    out[position] = data
                else:
                    self._misses += 1
                    miss_positions.append(position)
            _HITS.inc(len(indices) - len(miss_positions))
            _MISSES.inc(len(miss_positions))
        if miss_positions:
            fetched = self._inner.read_blocks([indices[p] for p in miss_positions])
            with self._lock:
                evicted: list[tuple[int, bytes]] = []
                for position, data in zip(miss_positions, fetched):
                    index = indices[position]
                    raced = self._cache.get(index)
                    if raced is not None:
                        self._cache.move_to_end(index)
                        out[position] = raced
                    else:
                        self._insert(index, data, dirty=False, evicted=evicted)
                        out[position] = data
                if evicted:
                    self._inner.write_blocks(evicted)
        return out  # type: ignore[return-value]

    def write_blocks(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Batched write: the whole batch lands in the cache under one lock
        hold; dirty eviction victims reach the backing device in one call."""
        items = self._check_batch_write(items)
        with self._lock:
            evicted: list[tuple[int, bytes]] = []
            for index, data in items:
                self._insert(index, bytes(data), dirty=True, evicted=evicted)
            if evicted:
                self._inner.write_blocks(evicted)

    def flush(self) -> None:
        """Write back the whole dirty set in one backing ``write_blocks``
        (ascending index order), then flush the inner device once so the
        data is durable wherever the stack bottoms out."""
        with self._lock:
            dirty = sorted(self._dirty)
            if dirty:
                self._writebacks += len(dirty)
                _WRITEBACKS.inc(len(dirty))
                self._inner.write_blocks([(index, self._cache[index]) for index in dirty])
            self._dirty.clear()
            self._inner.flush()

    def invalidate(self) -> None:
        """Drop every cached block, writing dirty ones back first."""
        with self._lock:
            self.flush()
            self._cache.clear()

    def fill_random(self, rng: random.Random) -> None:
        """mkfs-time whole-device fill bypasses (and empties) the cache."""
        with self._lock:
            self._cache.clear()
            self._dirty.clear()
            self._inner.fill_random(rng)

    def image(self) -> bytes:
        """Raw image of the device *as the cache sees it* (dirty included)."""
        with self._lock:
            self.flush()
            return self._inner.image()

    def close(self) -> None:
        if not self._closed:
            with self._lock:
                self.flush()
                self._inner.close()
        super().close()
