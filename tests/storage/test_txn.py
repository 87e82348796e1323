"""Unit tests for transactions, group commit and the journaled device."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import DeviceClosedError, JournalError
from repro.storage.block_device import RamDevice, iter_runs
from repro.storage.journal import HEADER_SLOTS, Journal
from repro.storage.trace import TraceRecordingDevice
from repro.storage.txn import WRITE_BACK_BATCH, JournaledDevice, TransactionManager

BS = 256
TOTAL = 128
J_START = 4
J_BLOCKS = 20


def _stack(sync_on_commit=True, journal=True):
    backing = RamDevice(BS, TOTAL)
    if journal:
        log = Journal(backing, J_START, J_BLOCKS, BS)
        log.format()
    else:
        log = None
    manager = TransactionManager(backing, log, sync_on_commit=sync_on_commit)
    return backing, manager, JournaledDevice(backing, manager)


class TestScopes:
    def test_outside_scope_passes_through(self):
        backing, _manager, device = _stack()
        device.write_block(100, b"\x01" * BS)
        assert backing.read_block(100) == b"\x01" * BS

    def test_staged_writes_invisible_until_commit(self):
        backing, manager, device = _stack()
        with manager.transaction():
            device.write_block(100, b"\x02" * BS)
            # Read-your-writes inside the scope…
            assert device.read_block(100) == b"\x02" * BS
            # …but nothing on the backing device yet.
            assert backing.read_block(100) == b"\x00" * BS
        # A durable commit is visible through the journaled device at once;
        # its home block is written at the batch bound or a checkpoint.
        assert device.read_block(100) == b"\x02" * BS
        assert backing.read_block(100) == b"\x00" * BS
        manager.checkpoint()
        assert device.read_block(100) == b"\x02" * BS
        assert backing.read_block(100) == b"\x02" * BS

    def test_nested_scopes_join_and_commit_once(self):
        _backing, manager, device = _stack()
        with manager.transaction():
            device.write_block(100, b"\x03" * BS)
            with manager.transaction():
                device.write_block(101, b"\x04" * BS)
            assert manager.in_transaction
        stats = manager.stats.snapshot()
        assert stats.commits == 1
        assert stats.blocks_journaled == 2

    def test_abort_discards_everything(self):
        backing, manager, device = _stack()
        with pytest.raises(RuntimeError):
            with manager.transaction():
                device.write_block(100, b"\x05" * BS)
                with manager.transaction():
                    device.write_block(101, b"\x06" * BS)
                raise RuntimeError("boom")
        assert backing.read_block(100) == b"\x00" * BS
        assert backing.read_block(101) == b"\x00" * BS
        assert device.read_block(100) == b"\x00" * BS
        assert manager.stats.snapshot().commits == 0
        assert not manager.in_transaction

    def test_batch_writes_stage_with_later_wins(self):
        backing, manager, device = _stack()
        with manager.transaction():
            device.write_blocks([(100, b"\x01" * BS), (100, b"\x02" * BS)])
        assert device.read_block(100) == b"\x02" * BS
        device.flush()
        assert backing.read_block(100) == b"\x02" * BS

    def test_batched_reads_mix_overlay_and_backing(self):
        backing, manager, device = _stack()
        backing.write_block(101, b"\x09" * BS)
        with manager.transaction():
            device.write_block(100, b"\x08" * BS)
            assert device.read_blocks([100, 101]) == [b"\x08" * BS, b"\x09" * BS]


class TestDurability:
    def test_async_commit_defers_fsync(self):
        _backing, manager, device = _stack(sync_on_commit=False)
        with manager.transaction():
            device.write_block(100, b"\x07" * BS)
        stats = manager.stats.snapshot()
        assert stats.commits == 1
        assert stats.fsyncs == 0
        manager.wait_durable(manager.last_commit_seq)
        assert manager.stats.snapshot().fsyncs == 1

    def test_wait_durable_is_idempotent(self):
        _backing, manager, device = _stack(sync_on_commit=False)
        with manager.transaction():
            device.write_block(100, b"\x07" * BS)
        seq = manager.last_commit_seq
        manager.wait_durable(seq)
        manager.wait_durable(seq)  # second wait: already durable, no fsync
        assert manager.stats.snapshot().fsyncs == 1

    def test_group_commit_shares_fsyncs_across_threads(self):
        _backing, manager, device = _stack(sync_on_commit=False)
        n_threads = 8
        seqs: list[int] = []
        seq_lock = threading.Lock()
        start = threading.Barrier(n_threads)

        def worker(i: int) -> None:
            start.wait()
            with seq_lock:  # commits are caller-serialized by design
                with manager.transaction():
                    device.write_block(60 + i, bytes([i]) * BS)
                seq = manager.last_commit_seq
                seqs.append(seq)
            manager.wait_durable(seq)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = manager.stats.snapshot()
        assert stats.commits == n_threads
        assert 1 <= stats.fsyncs <= n_threads
        assert sorted(seqs) == list(range(min(seqs), min(seqs) + n_threads))
        for i in range(n_threads):
            assert device.read_block(60 + i) == bytes([i]) * BS

    def test_checkpoint_retires_journal_and_applies_overlay(self):
        backing, manager, device = _stack(sync_on_commit=False)
        with manager.transaction():
            device.write_block(100, b"\x0a" * BS)
        manager.checkpoint()
        assert backing.read_block(100) == b"\x0a" * BS
        # Post-checkpoint recovery finds a clean log.
        report = Journal(backing, J_START, J_BLOCKS, BS).recover()
        assert report.clean

    def test_checkpoint_inside_transaction_rejected(self):
        _backing, manager, _device = _stack()
        with pytest.raises(JournalError):
            with manager.transaction():
                manager.checkpoint()


class TestJournalPressure:
    def test_space_pressure_triggers_checkpoint(self):
        _backing, manager, device = _stack(sync_on_commit=False)
        # J_BLOCKS=20 → 18 record blocks; each 4-image commit takes 5.
        for round_ in range(8):
            with manager.transaction():
                for i in range(4):
                    device.write_block(64 + i, bytes([round_]) * BS)
        stats = manager.stats.snapshot()
        assert stats.commits == 8
        assert stats.checkpoints >= 1

    def test_oversized_commit_takes_bypass(self):
        backing, manager, device = _stack(sync_on_commit=False)
        with manager.transaction():
            for i in range(J_BLOCKS):  # more images than the whole journal
                device.write_block(40 + i, bytes([i + 1]) * BS)
        stats = manager.stats.snapshot()
        assert stats.bypass_commits == 1
        for i in range(J_BLOCKS):
            assert backing.read_block(40 + i) == bytes([i + 1]) * BS

    def test_crash_window_equivalence_after_commit(self):
        """The WAL invariant: after an unsynced commit, replaying the
        journal over the backing device reproduces the committed state."""
        backing, manager, device = _stack(sync_on_commit=False)
        with manager.transaction():
            device.write_block(100, b"\x42" * BS)
            device.write_block(101, b"\x43" * BS)
        # Simulate the crash: take the backing as-is (overlay not applied),
        # replay the journal on a copy.
        twin = backing.clone()
        Journal(twin, J_START, J_BLOCKS, BS).recover()
        assert twin.read_block(100) == b"\x42" * BS
        assert twin.read_block(101) == b"\x43" * BS


class TestWithoutJournal:
    def test_commit_writes_straight_through(self):
        backing, manager, device = _stack(journal=False)
        with manager.transaction():
            device.write_block(100, b"\x11" * BS)
        assert backing.read_block(100) == b"\x11" * BS
        assert manager.stats.snapshot().commits == 0  # no journal accounting

    def test_image_includes_pending_state(self):
        _backing, manager, device = _stack(sync_on_commit=False)
        with manager.transaction():
            device.write_block(100, b"\x33" * BS)
            image = device.image()
            assert image[100 * BS : 101 * BS] == b"\x33" * BS


def _traced(sync_on_commit=True):
    backing = TraceRecordingDevice(RamDevice(BS, TOTAL))
    log = Journal(backing, J_START, J_BLOCKS, BS)
    log.format()
    manager = TransactionManager(backing, log, sync_on_commit=sync_on_commit)
    return backing, manager, JournaledDevice(backing, manager)


def _in_place(ops):
    """Accessed blocks of the data region, in order (not the journal's own)."""
    return [op.block for op in ops if op.block >= J_START + J_BLOCKS]


class TestAddressOrder:
    """Batches cross the journal boundary in ascending block order."""

    def test_reads_fetch_sorted_and_return_in_request_order(self):
        backing, manager, device = _traced()
        for index in (90, 50, 70):
            backing.write_block(index, bytes([index]) * BS)
        with manager.transaction(), backing.recording("reads") as trace:
            device.write_block(60, b"\x01" * BS)  # staged: not fetched at all
            images = device.read_blocks([90, 50, 60, 70, 50])
        assert [image[0] for image in images] == [90, 50, 1, 70, 50]
        assert _in_place(trace.reads()) == [50, 70, 90]

    def test_durable_images_apply_ascending(self):
        backing, manager, device = _traced()
        with backing.recording("commit") as trace:
            with manager.transaction():
                for index in (90, 50, 70):
                    device.write_block(index, bytes([index]) * BS)
            with manager.transaction():
                device.write_block(60, b"\x3c" * BS)
            assert _in_place(trace.writes()) == []  # durable, below the bound
            device.flush()
        assert _in_place(trace.writes()) == [50, 60, 70, 90]

    def test_checkpoint_applies_ascending(self):
        backing, manager, device = _traced(sync_on_commit=False)
        with backing.recording("commit") as trace:
            with manager.transaction():
                for index in (90, 50, 70):
                    device.write_block(index, bytes([index]) * BS)
            assert _in_place(trace.writes()) == []  # not durable yet
            manager.checkpoint()
        assert _in_place(trace.writes()) == [50, 70, 90]

    def test_oversized_commit_bypasses_ascending(self):
        backing, manager, device = _traced(sync_on_commit=False)
        order = list(range(40 + J_BLOCKS, 40, -1))
        with backing.recording("commit") as trace, manager.transaction():
            for index in order:
                device.write_block(index, bytes([index]) * BS)
        assert manager.stats.snapshot().bypass_commits == 1
        assert _in_place(trace.writes()) == sorted(order)


class TestAbortHooks:
    def test_outermost_abort_runs_hooks_once(self):
        _backing, manager, device = _stack()
        calls = []
        manager.add_abort_hook(lambda: calls.append("aborted"))
        with pytest.raises(RuntimeError):
            with manager.transaction():
                with manager.transaction():
                    device.write_block(100, b"\x01" * BS)
                    raise RuntimeError("boom")
        assert calls == ["aborted"]

    def test_nested_failure_caught_inside_does_not_abort(self):
        _backing, manager, device = _stack()
        calls = []
        manager.add_abort_hook(lambda: calls.append("aborted"))
        with manager.transaction():
            with pytest.raises(RuntimeError):
                with manager.transaction():
                    raise RuntimeError("handled by the outer scope")
            device.write_block(100, b"\x02" * BS)
        assert calls == []
        assert device.read_block(100) == b"\x02" * BS

    def test_failed_commit_runs_hooks(self):
        backing, manager, device = _stack()
        calls = []
        manager.add_abort_hook(lambda: calls.append("aborted"))
        with pytest.raises(DeviceClosedError):
            with manager.transaction():
                device.write_block(100, b"\x03" * BS)
                backing.close()  # the journal append will fail
        assert calls == ["aborted"]

    def test_clean_commit_runs_none(self):
        _backing, manager, device = _stack()
        calls = []
        manager.add_abort_hook(lambda: calls.append("aborted"))
        with manager.transaction():
            device.write_block(100, b"\x04" * BS)
        assert calls == []


WB_TOTAL = 2048
#: Four full batches of records, so the batch is ``WRITE_BACK_BATCH`` itself.
WB_J_BLOCKS = HEADER_SLOTS + 4 * WRITE_BACK_BATCH
WB_DATA = J_START + WB_J_BLOCKS  # first block past the journal region


class _Probe(RamDevice):
    """RAM device that keeps each in-place ``write_blocks`` call and counts
    ``flush`` barriers."""

    def __init__(self) -> None:
        super().__init__(BS, WB_TOTAL)
        self.in_place: list[list[int]] = []
        self.flushes = 0

    def write_blocks(self, items):
        items = list(items)
        self._land(items)
        if items and items[0][0] >= WB_DATA:
            self.in_place.append([index for index, _ in items])

    def _land(self, items) -> None:
        super().write_blocks(items)

    def flush(self) -> None:
        self.flushes += 1
        super().flush()


def _wb_stack(backing=None, sync_on_commit=True, journal_blocks=WB_J_BLOCKS):
    """A stack whose log holds several batches of write-back."""
    backing = backing or _Probe()
    log = Journal(backing, J_START, journal_blocks, BS)
    log.format()
    manager = TransactionManager(backing, log, sync_on_commit=sync_on_commit)
    return backing, manager, JournaledDevice(backing, manager)


def _commit(manager, device, writes):
    with manager.transaction():
        for index, image in writes:
            device.write_block(index, image)
    return manager.last_commit_seq


class TestWriteBack:
    """Durable images wait in the overlay and go home in bounded sweeps."""

    def test_nothing_in_place_below_the_bound_everything_at_it(self):
        backing, manager, device = _wb_stack()
        indices = [WB_DATA + 3 * i for i in range(WRITE_BACK_BATCH)]
        for index in indices[:-1]:
            _commit(manager, device, [(index, bytes([index % 251 + 1]) * BS)])
        assert backing.in_place == []
        assert all(backing.read_block(i) == b"\x00" * BS for i in indices[:-1])
        assert len(manager.pending_images()) == WRITE_BACK_BATCH - 1
        _commit(manager, device, [(indices[-1], b"\xff" * BS)])
        assert backing.in_place == [indices]
        assert manager.pending_images() == {}
        for index in indices[:-1]:
            assert backing.read_block(index) == bytes([index % 251 + 1]) * BS

    def test_on_a_small_log_the_batch_is_a_quarter_of_it(self):
        # 126 record blocks: the bound is 32 images, not the 128 this log
        # could never hold before it fills.
        backing, manager, device = _wb_stack(journal_blocks=HEADER_SLOTS + 126)
        assert manager.journal.capacity_blocks < WRITE_BACK_BATCH
        indices = [WB_DATA + 3 * i for i in range(32)]
        for index in indices[:-1]:
            _commit(manager, device, [(index, b"\x01" * BS)])
        assert backing.in_place == []
        _commit(manager, device, [(indices[-1], b"\x01" * BS)])
        assert backing.in_place == [indices]
        assert manager.stats.snapshot().checkpoints == 0

    def test_sweep_is_one_ascending_batch_and_neighbours_are_one_request(self):
        backing, manager, device = _wb_stack()
        # Three runs of neighbours, committed in descending order.
        runs = [range(1500, 1540), range(900, 948), range(600, 640)]
        assert sum(len(run) for run in runs) == WRITE_BACK_BATCH
        for run in runs:
            for start in range(run.stop - 8, run.start - 1, -8):
                _commit(
                    manager,
                    device,
                    [(i, bytes([i % 256]) * BS) for i in range(start + 7, start - 1, -1)],
                )
        (sweep,) = backing.in_place  # one write_blocks call
        assert sweep == sorted(sweep)
        # A request is a contiguous ascending run (stegbench's definition).
        assert list(iter_runs(sweep)) == [(600, 40), (900, 48), (1500, 40)]

    def test_block_committed_three_times_is_written_once_newest(self):
        backing, manager, device = _wb_stack()
        hot = WB_DATA + 7
        for version in (1, 2, 3):
            _commit(manager, device, [(hot, bytes([version]) * BS)])
        assert backing.in_place == []
        device.flush()
        assert backing.in_place == [[hot]]
        assert backing.read_block(hot) == b"\x03" * BS

    def test_reads_are_identical_before_and_after_the_sweep(self):
        backing, manager, device = _wb_stack()
        indices = [WB_DATA + 5 * i for i in range(WRITE_BACK_BATCH)]
        for index in indices[:-1]:
            _commit(manager, device, [(index, bytes([index % 199 + 1]) * BS)])
        before = device.read_blocks(indices)
        image_before = device.image()
        assert backing.in_place == []
        _commit(manager, device, [(indices[-1], before[-1])])  # same bytes: sweep
        assert len(backing.in_place) == 1
        assert device.read_blocks(indices) == before
        assert [device.read_block(i) for i in indices] == before
        assert backing.read_blocks(indices) == before
        # The logical image moved only in the log; the data region is as it read.
        assert device.image()[WB_DATA * BS :] == image_before[WB_DATA * BS :]

    def test_checkpoint_costs_two_barriers_three_with_a_non_durable_tail(self):
        backing, manager, device = _wb_stack(sync_on_commit=False)
        seq = _commit(manager, device, [(WB_DATA, b"\x01" * BS)])
        manager.wait_durable(seq)
        backing.flushes = 0
        manager.checkpoint()  # every record durable: in place, header
        assert backing.flushes == 2
        _commit(manager, device, [(WB_DATA, b"\x02" * BS)])
        backing.flushes = 0
        manager.checkpoint()  # tail not durable: records, in place, header
        assert backing.flushes == 3
        assert backing.read_block(WB_DATA) == b"\x02" * BS
        # A journal handed over with history starts with that history durable.
        log = Journal(backing, J_START, WB_J_BLOCKS, BS)
        log.load()
        assert log.last_seq == 2
        backing.flushes = 0
        TransactionManager(backing, log).checkpoint()
        assert backing.flushes == 2

    def test_overlay_never_outgrows_the_log(self):
        # Acks are rare here, so the overlay grows well past the batch
        # bound between them: what holds it is that every image in it has
        # a copy in the live log, which a checkpoint empties with it.
        backing, manager, device = _wb_stack(sync_on_commit=False)
        capacity = manager.journal.capacity_blocks
        peak = 0
        for n in range(2000):
            writes = [
                (WB_DATA + (n * 37 + 11 * k) % (WB_TOTAL - WB_DATA), bytes([n % 256]) * BS)
                for k in range(1 + n % 7)
            ]
            seq = _commit(manager, device, writes)
            peak = max(peak, len(manager.pending_images()))
            if n % 97 == 96:
                manager.wait_durable(seq)
                assert len(manager.pending_images()) < WRITE_BACK_BATCH
        assert WRITE_BACK_BATCH < peak <= capacity
        assert manager.stats.snapshot().checkpoints >= 1

    def test_sync_commit_and_append_then_wait_leave_identical_images(self):
        images = []
        for sync_on_commit in (True, False):
            backing, manager, device = _wb_stack(sync_on_commit=sync_on_commit)
            for n in range(300):
                seq = _commit(
                    manager,
                    device,
                    [
                        (WB_DATA + (n * 53 + 17 * k) % 900, bytes([n % 256, k]) * (BS // 2))
                        for k in range(1 + n % 5)
                    ],
                )
                if not sync_on_commit and n % 3 == 0:  # the service's path
                    manager.wait_durable(seq)
            logical = device.image()
            device.flush()
            assert backing.image() == device.image()
            assert backing.image()[WB_DATA * BS :] == logical[WB_DATA * BS :]
            images.append(backing.image())
        assert images[0] == images[1]  # the log too: same records, same resets


class _YieldingDevice(_Probe):
    """``write_blocks`` lands one block at a time and yields in between."""

    def _land(self, items) -> None:
        for item in items:
            super()._land([item])
            time.sleep(0)


class TestWriteBackUnderReaders:
    def test_readers_never_see_bytes_older_than_an_acked_commit(self):
        """Regression: the checkpoint used to empty the overlay *before*
        its images landed, so a read in between got the pre-image."""
        backing, manager, device = _wb_stack(_YieldingDevice())
        hot = [WB_DATA + 40 * i for i in range(8)]
        acked = [0]
        done = threading.Event()
        stale: list[str] = []

        def image(version: int) -> bytes:
            return version.to_bytes(4, "little") * (BS // 4)

        def reader() -> None:
            # Readers take no volume lock here, so they may also see the
            # open transaction's staging; the floor is the last *acked*
            # commit, which no later read may fall behind.
            while not done.is_set() and not stale:
                floor = acked[0]
                for index, block in zip(hot, device.read_blocks(hot)):
                    version = int.from_bytes(block[:4], "little")
                    if version < floor:
                        stale.append(f"block {index}: v{version} after v{floor} was acked")

        def writer() -> None:
            try:
                filler = WB_DATA + 400
                for version in range(1, 41):
                    writes = [(index, image(version)) for index in hot]
                    writes += [(filler + k, image(version)) for k in range(24)]
                    filler += 24
                    _commit(manager, device, writes)
                    acked[0] = version
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            done.set()
        assert not any(thread.is_alive() for thread in threads)
        assert stale == []
        assert acked[0] == 40
        checkpoints = manager.stats.snapshot().checkpoints
        assert checkpoints >= 2
        assert len(backing.in_place) - checkpoints >= 3  # sweeps at the bound
