"""Unit tests for transactions, group commit and the journaled device."""

from __future__ import annotations

import threading

import pytest

from repro.errors import DeviceClosedError, JournalError
from repro.storage.block_device import RamDevice
from repro.storage.journal import Journal
from repro.storage.trace import TraceRecordingDevice
from repro.storage.txn import JournaledDevice, TransactionManager

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
        assert device.read_block(100) == b"\x02" * BS
        assert backing.read_block(100) == b"\x02" * BS  # sync commit applied

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
        with backing.recording("commit") as trace, manager.transaction():
            for index in (90, 50, 70):
                device.write_block(index, bytes([index]) * BS)
        assert _in_place(trace.writes()) == [50, 70, 90]

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
