"""The benchmark's own bottom-of-stack device: counts, records, never sleeps.

Every volume the benchmark builds sits on a :class:`RecordingDevice` over a
``RamDevice``.  It counts requests, blocks, bytes and flush barriers, and
keeps the request trace of the timed window so that the window's disk cost
can be *priced* afterwards by ``DiskModel.ultra_ata_100`` — the paper's own
method (time is a function of which blocks are touched in which order), at
zero wall-clock cost inside the window.
"""

from __future__ import annotations

import threading
from array import array
from typing import Callable, Iterable

from repro.storage.block_device import BlockDevice, iter_runs
from repro.storage.disk_model import DiskModel

__all__ = ["FLUSH_MS", "RecordingDevice", "modelled_ms"]

#: Fixed price of one durability barrier (a drive cache flush), as in
#: ``repro.bench.durability``.
FLUSH_MS = 4.0


class RecordingDevice(BlockDevice):
    """Pass-through device that counts traffic and records the request trace.

    One *request* is one contiguous ascending run of blocks in one call —
    what a disk would service as a single transfer.  ``timer`` is set only
    for the traced run; it wraps each call in a ``storage.device`` span.
    """

    def __init__(self, inner: BlockDevice) -> None:
        super().__init__(inner.block_size, inner.total_blocks)
        self._inner = inner
        self.requests = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.flushes = 0
        #: One packed integer per request of the window (see ``_pack``): a
        #: list of tuples would cost 100 bytes per request, and peak memory
        #: would follow the op count, that is, the machine's speed.
        self.trace = array("q")
        self.recording = False
        # Group-commit flushes and overlay write-backs run outside the
        # service's volume lock, so counters can be bumped concurrently.
        self._lock = threading.Lock()
        self.timer: Callable[[str], object] | None = None

    @property
    def inner(self) -> BlockDevice:
        """The wrapped RAM device."""
        return self._inner

    def counters(self) -> dict[str, int]:
        """Point-in-time copy of the traffic counters."""
        return {
            "requests": self.requests,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "flushes": self.flushes,
        }

    def _note(self, op: str, indices: list[int]) -> None:
        runs = list(iter_runs(indices))
        with self._lock:
            self.requests += len(runs)
            if op == "r":
                self.blocks_read += len(indices)
            else:
                self.blocks_written += len(indices)
            if self.recording:
                self.trace.extend(_pack(op, start, count) for start, count in runs)

    def _timed(self, fn, *args):
        if self.timer is None:
            return fn(*args)
        with self.timer("storage.device"):
            return fn(*args)

    def read_block(self, index: int) -> bytes:
        self._note("r", [index])
        return self._timed(self._inner.read_block, index)

    def write_block(self, index: int, data: bytes) -> None:
        self._note("w", [index])
        self._timed(self._inner.write_block, index, data)

    def read_blocks(self, indices: Iterable[int]) -> list[bytes]:
        indices = list(indices)
        self._note("r", indices)
        return self._timed(self._inner.read_blocks, indices)

    def write_blocks(self, items: Iterable[tuple[int, bytes]]) -> None:
        items = list(items)
        self._note("w", [index for index, _ in items])
        self._timed(self._inner.write_blocks, items)

    def fill_random(self, rng) -> None:  # noqa: ANN001 - matches base signature
        # mkfs-time bulk fill: not workload I/O, so not counted.
        self._inner.fill_random(rng)

    def image(self) -> bytes:
        return self._inner.image()

    def flush(self) -> None:
        with self._lock:
            self.flushes += 1
            if self.recording:
                self.trace.append(_pack("f", 0, 0))
        self._inner.flush()

    def close(self) -> None:
        self._inner.close()
        super().close()


_OPS = "rwf"


def _pack(op: str, start: int, count: int) -> int:
    """(op, first block, block count) as one integer: 2 + 40 + 21 bits."""
    return _OPS.index(op) | start << 2 | count << 42


def modelled_ms(device: RecordingDevice) -> float:
    """Price the recorded window trace on the paper's modelled 2003 disk."""
    model = DiskModel.ultra_ata_100(device.block_size, device.total_blocks)
    total = 0.0
    for packed in device.trace:
        op, start, count = _OPS[packed & 3], packed >> 2 & (1 << 40) - 1, packed >> 42
        total += FLUSH_MS if op == "f" else model.service(op, start, count)
    return total
