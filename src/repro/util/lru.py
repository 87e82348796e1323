"""The bounded least-recently-used map the in-core caches share.

The plain layer's name and metadata-image caches
(:mod:`repro.fs.filesystem`) and the AES key-schedule cache
(:mod:`repro.crypto.vector_aes`) are this one class.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["Lru"]

_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class Lru(Generic[_K, _V]):
    """Least-recently-used map from a hashable key to ``_V``.

    Readers under the service's shared volume lock fill it concurrently, and
    a hit reorders it, hence the lock (as in
    :class:`~repro.core.volume.ObjectTable`).  ``put`` and the two removals
    return by how much the map shrank or grew, for gauges kept by deltas.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[_K, _V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _K) -> _V | None:
        """The entry for ``key`` (now most recently used), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
        return value

    def put(self, key: _K, value: _V, bound: int) -> int:
        """Make ``value`` the entry for ``key``, evicting beyond ``bound``."""
        with self._lock:
            before = len(self._entries)
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > bound:
                self._entries.popitem(last=False)
            return len(self._entries) - before

    def drop(self, key: _K) -> int:
        """Forget ``key``; the number of entries that removed (0 or 1)."""
        with self._lock:
            return 0 if self._entries.pop(key, None) is None else 1

    def clear(self) -> int:
        """Forget everything; the number of entries that removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
        return removed
