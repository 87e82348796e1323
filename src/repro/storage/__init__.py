"""Storage substrate: block devices, allocation bitmap, disk timing model.

The device layer is deliberately ignorant of files and keys — it is the
"raw disk" the paper's adversary scours.  The disk model prices recorded
block traces so performance experiments are deterministic and decoupled
from functional correctness (see ``docs/storage.md``).
"""

from repro.storage.allocator import (
    ContiguousAllocator,
    FragmentingAllocator,
    RandomAllocator,
)
from repro.storage.bitmap import Bitmap
from repro.storage.block_device import BlockDevice, FileDevice, RamDevice, SparseDevice
from repro.storage.cache import CachedDevice, CacheStats
from repro.storage.crash import CrashInjectionDevice
from repro.storage.disk_model import DiskModel, DiskParameters
from repro.storage.journal import Journal, RecoveryReport
from repro.storage.trace import BlockOp, Trace, TraceRecordingDevice
from repro.storage.txn import JournaledDevice, JournalMetrics, Transaction, TransactionManager

__all__ = [
    "Bitmap",
    "BlockDevice",
    "BlockOp",
    "CacheStats",
    "CachedDevice",
    "ContiguousAllocator",
    "CrashInjectionDevice",
    "DiskModel",
    "DiskParameters",
    "FileDevice",
    "FragmentingAllocator",
    "Journal",
    "JournaledDevice",
    "JournalMetrics",
    "RamDevice",
    "RandomAllocator",
    "RecoveryReport",
    "SparseDevice",
    "Trace",
    "TraceRecordingDevice",
    "Transaction",
    "TransactionManager",
]
