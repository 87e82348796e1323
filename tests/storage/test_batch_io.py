"""Scatter-gather block I/O: runs, devices, cache, traces."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import DeviceClosedError, OutOfRangeError
from repro.storage.block_device import (
    FileDevice,
    RamDevice,
    SparseDevice,
    iter_runs,
)
from repro.storage.cache import CachedDevice
from repro.storage.trace import TraceRecordingDevice

BS = 32


def block(byte: int, bs: int = BS) -> bytes:
    return bytes([byte]) * bs


class CountingDevice(RamDevice):
    """RamDevice that counts how many backing calls each API takes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_calls = 0
        self.write_calls = 0
        self.batch_read_calls = 0
        self.batch_write_calls = 0

    def read_block(self, index):
        self.read_calls += 1
        return super().read_block(index)

    def write_block(self, index, data):
        self.write_calls += 1
        super().write_block(index, data)

    def read_blocks(self, indices):
        self.batch_read_calls += 1
        return super().read_blocks(indices)

    def write_blocks(self, items):
        self.batch_write_calls += 1
        super().write_blocks(items)


class TestIterRuns:
    def test_empty(self):
        assert list(iter_runs([])) == []

    def test_single(self):
        assert list(iter_runs([7])) == [(7, 1)]

    def test_contiguous(self):
        assert list(iter_runs([3, 4, 5, 6])) == [(3, 4)]

    def test_mixed(self):
        assert list(iter_runs([4, 5, 6, 9, 2, 3])) == [(4, 3), (9, 1), (2, 2)]

    def test_descending_never_merges(self):
        assert list(iter_runs([5, 4, 3])) == [(5, 1), (4, 1), (3, 1)]

    def test_duplicates_stay_separate(self):
        assert list(iter_runs([5, 5])) == [(5, 1), (5, 1)]


@pytest.fixture(params=["ram", "sparse", "file"])
def device(request, tmp_path):
    if request.param == "ram":
        dev = RamDevice(BS, 64)
    elif request.param == "sparse":
        dev = SparseDevice(BS, 64, fill_seed=3)
    else:
        dev = FileDevice(tmp_path / "dev.img", BS, 64)
    yield dev
    if not dev.closed:
        dev.close()


class TestBatchedDevices:
    def test_read_blocks_matches_loop(self, device, rng):
        for i in range(0, 64, 3):
            device.write_block(i, rng.randbytes(BS))
        orders = [
            list(range(64)),
            [5, 6, 7, 20, 1, 2, 63],
            [9, 9, 9],
            [63, 0, 31],
            [],
        ]
        for indices in orders:
            assert device.read_blocks(indices) == [device.read_block(i) for i in indices]

    def test_write_blocks_matches_loop(self, device, rng):
        twin_data = {}
        items = [(i, rng.randbytes(BS)) for i in [4, 5, 6, 30, 2, 3, 5]]
        device.write_blocks(items)
        for index, data in items:
            twin_data[index] = data  # later duplicate wins
        for index, data in twin_data.items():
            assert device.read_block(index) == data

    def test_write_blocks_duplicate_later_wins(self, device):
        device.write_blocks([(8, block(1)), (8, block(2))])
        assert device.read_block(8) == block(2)

    def test_out_of_range_rejected_before_any_write(self, device):
        with pytest.raises(OutOfRangeError):
            device.read_blocks([0, 64])
        with pytest.raises(OutOfRangeError):
            device.write_blocks([(0, block(1)), (64, block(1))])
        # The in-range half of the rejected batch must not have landed.
        assert device.read_block(0) != block(1)

    def test_bad_size_rejected_before_any_write(self, device):
        with pytest.raises(ValueError):
            device.write_blocks([(0, block(1)), (1, b"short")])
        assert device.read_block(0) != block(1)

    def test_closed_device_raises(self, device):
        device.close()
        with pytest.raises(DeviceClosedError):
            device.read_blocks([0])
        with pytest.raises(DeviceClosedError):
            device.write_blocks([(0, block(1))])


class TestFileDeviceFsync:
    def test_flush_fsyncs_once_per_batch(self, tmp_path, monkeypatch, rng):
        """A big batched write then flush = exactly one fsync, not N."""
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        device = FileDevice(tmp_path / "sync.img", BS, 64)
        calls.clear()
        device.write_blocks([(i, rng.randbytes(BS)) for i in range(48)])
        assert calls == []  # batched writes never fsync on their own
        device.flush()
        assert len(calls) == 1
        device.close()

    def test_cached_flush_single_fsync_through_stack(self, tmp_path, monkeypatch, rng):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        inner = FileDevice(tmp_path / "stack.img", BS, 64)
        cached = CachedDevice(inner, capacity_blocks=64)
        calls.clear()
        for i in range(40):
            cached.write_block(i, rng.randbytes(BS))
        assert calls == []
        cached.flush()  # 40 dirty blocks → one batched write-back + one fsync
        assert len(calls) == 1
        cached.close()

    def test_flush_semantics_preserved(self, tmp_path, rng):
        """Data written via write_blocks is durable after flush+reopen."""
        path = tmp_path / "durable.img"
        items = [(i, rng.randbytes(BS)) for i in (0, 1, 2, 10, 11, 63)]
        device = FileDevice(path, BS, 64)
        device.write_blocks(items)
        device.flush()
        device.close()
        reopened = FileDevice(path, BS, 64)
        for index, data in items:
            assert reopened.read_block(index) == data
        reopened.close()


class TestCachedDeviceBatch:
    def test_hits_and_misses_partitioned(self, rng):
        inner = CountingDevice(BS, 64)
        payloads = {i: rng.randbytes(BS) for i in range(16)}
        for i, data in payloads.items():
            inner.write_block(i, data)
        cached = CachedDevice(inner, capacity_blocks=32)
        cached.read_block(3)
        cached.read_block(4)
        inner.batch_read_calls = 0
        out = cached.read_blocks([3, 4, 5, 6, 7])
        assert out == [payloads[i] for i in [3, 4, 5, 6, 7]]
        stats = cached.stats
        assert (stats.hits, stats.misses) == (2, 5)  # 2 single + batch 2/3
        assert inner.batch_read_calls == 1  # one backing call for the misses

    def test_all_hits_touch_no_backing_device(self):
        inner = CountingDevice(BS, 64)
        cached = CachedDevice(inner, capacity_blocks=32)
        cached.write_blocks([(i, block(i)) for i in range(8)])
        inner.read_calls = inner.batch_read_calls = 0
        assert cached.read_blocks(list(range(8))) == [block(i) for i in range(8)]
        assert inner.read_calls == 0 and inner.batch_read_calls == 0

    def test_dirty_blocks_win_over_backing(self, rng):
        inner = RamDevice(BS, 64)
        for i in range(8):
            inner.write_block(i, block(0xAA))
        cached = CachedDevice(inner, capacity_blocks=32)
        cached.write_block(2, block(1))  # dirty, not written back
        out = cached.read_blocks([1, 2, 3])
        assert out == [block(0xAA), block(1), block(0xAA)]
        assert inner.read_block(2) == block(0xAA)  # still stale beneath

    def test_batched_write_then_flush_one_backing_batch(self):
        inner = CountingDevice(BS, 64)
        cached = CachedDevice(inner, capacity_blocks=64)
        cached.write_blocks([(i, block(i)) for i in range(20)])
        assert inner.write_calls == 0 and inner.batch_write_calls == 0
        cached.flush()
        assert inner.batch_write_calls == 1
        assert cached.stats.writebacks == 20
        for i in range(20):
            assert inner.read_block(i) == block(i)

    def test_flush_writes_back_ascending(self):
        order = []

        class OrderSpy(RamDevice):
            def write_blocks(self, items):
                items = list(items)
                order.extend(index for index, _ in items)
                super().write_blocks(items)

        cached = CachedDevice(OrderSpy(BS, 64), capacity_blocks=64)
        for i in (9, 1, 5, 3):
            cached.write_block(i, block(i))
        cached.flush()
        assert order == [1, 3, 5, 9]

    def test_eviction_victims_written_back_in_one_batch(self):
        inner = CountingDevice(BS, 64)
        cached = CachedDevice(inner, capacity_blocks=4)
        cached.write_blocks([(i, block(i)) for i in range(4)])  # fill, all dirty
        inner.batch_write_calls = inner.write_calls = 0
        cached.write_blocks([(i, block(i)) for i in range(10, 14)])  # evict all 4
        assert inner.write_calls == 0
        assert inner.batch_write_calls == 1
        for i in range(4):
            assert inner.read_block(i) == block(i)

    def test_batched_read_eviction_preserves_dirty_data(self):
        inner = RamDevice(BS, 64)
        for i in range(32):
            inner.write_block(i, block(0xEE))
        cached = CachedDevice(inner, capacity_blocks=4)
        cached.write_blocks([(i, block(i)) for i in range(4)])  # dirty set
        cached.read_blocks(list(range(10, 20)))  # misses evict the dirty four
        for i in range(4):
            assert inner.read_block(i) == block(i)  # written back, not lost
        assert cached.read_blocks([0, 1, 2, 3]) == [block(i) for i in range(4)]

    def test_duplicate_indices_in_one_batch(self):
        inner = RamDevice(BS, 64)
        inner.write_block(5, block(7))
        cached = CachedDevice(inner, capacity_blocks=8)
        assert cached.read_blocks([5, 5, 5]) == [block(7)] * 3

    def test_batch_write_size_validation(self):
        cached = CachedDevice(RamDevice(BS, 64), capacity_blocks=8)
        with pytest.raises(ValueError):
            cached.write_blocks([(0, block(1)), (1, b"nope")])
        assert cached.stats.dirty_blocks == 0

    def test_concurrent_batches_consistent(self, rng):
        inner = RamDevice(BS, 256)
        cached = CachedDevice(inner, capacity_blocks=32)
        errors = []

        def writer(base: int):
            try:
                for round_ in range(20):
                    cached.write_blocks(
                        [(base + i, block((base + round_ + i) % 256)) for i in range(8)]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader(base: int):
            try:
                for _ in range(40):
                    out = cached.read_blocks([base + i for i in range(8)])
                    assert len(out) == 8
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(b,)) for b in (0, 64, 128)]
        threads += [threading.Thread(target=reader, args=(b,)) for b in (0, 64, 128)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cached.flush()
        for base in (0, 64, 128):
            for i in range(8):
                assert inner.read_block(base + i) == cached.read_block(base + i)


class TestTraceRecordingBatch:
    def test_batched_ops_recorded_per_block(self, rng):
        inner = RamDevice(BS, 64)
        dev = TraceRecordingDevice(inner)
        with dev.recording("batch") as trace:
            dev.write_blocks([(i, rng.randbytes(BS)) for i in (4, 5, 6)])
            dev.read_blocks([6, 4])
        assert [(o.op, o.block) for o in trace] == [
            ("w", 4),
            ("w", 5),
            ("w", 6),
            ("r", 6),
            ("r", 4),
        ]
