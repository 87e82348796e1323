"""Journal integration at the plain-FS layer: layout, scopes, recovery."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import StegFS, StegFSParams
from repro.errors import BadSuperblockError, NoSpaceError
from repro.fs.filesystem import FileSystem
from repro.fs.layout import Layout, default_journal_blocks
from repro.fs.superblock import Superblock
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice
from repro.storage.txn import JournaledDevice


class TestLayoutRegion:
    def test_journal_sits_between_inodes_and_data(self):
        layout = Layout.compute(1024, 4096, journal_blocks=32)
        assert layout.journal_start == layout.inode_table_start + layout.inode_blocks
        assert layout.data_start == layout.journal_start + 32
        assert layout.journal_blocks == 32
        assert list(layout.metadata_blocks()) == list(range(layout.data_start))

    def test_zero_journal_keeps_legacy_shape(self):
        legacy = Layout.compute(1024, 4096)
        assert legacy.journal_blocks == 0
        assert legacy.journal_start == legacy.data_start

    def test_negative_journal_rejected(self):
        with pytest.raises(BadSuperblockError):
            Layout.compute(1024, 4096, journal_blocks=-1)

    def test_default_heuristic_bounds(self):
        # (total blocks, block size) → log blocks: the 16-block floor, the
        # 1/16 cap, the 512 KiB byte floor, 1/64 and the 4096 cap in turn.
        table = {
            (256, 1024): 16,
            (2048, 1024): 128,
            (8192, 1024): 512,  # a cluster_rf3 shard; 1/64 gave it 128
            (16384, 4096): 256,
            (32768, 1024): 512,
            (1 << 20, 1024): 4096,
        }
        for (total, block_size), blocks in table.items():
            assert default_journal_blocks(total, block_size) == blocks, (total, block_size)

    @given(
        total=st.integers(min_value=64, max_value=1 << 22),
        block_size=st.sampled_from([512, 1024, 2048, 4096, 8192, 65536]),
    )
    def test_default_stays_in_bounds_and_never_shrinks(self, total, block_size):
        blocks = default_journal_blocks(total, block_size)
        assert 16 <= blocks <= max(16, total // 16)
        assert blocks >= max(16, min(total // 64, 4096))  # the old 1/64 rule


class TestDefaultLogSize:
    """The shard geometry of ``cluster_rf3``: 8 MiB of 1 KiB blocks."""

    @staticmethod
    def _checkpoints_over_overwrites(journal_blocks: int | None) -> int:
        steg = StegFS.mkfs(
            RamDevice(1024, 8192),
            params=StegFSParams.for_tests(),
            rng=random.Random(8),
            journal_blocks=journal_blocks,
        )
        service = StegFSService(steg, max_workers=1)
        try:
            uak = b"S" * 32
            service.steg_create("replica", uak, data=bytes(16 * 1024))
            before = steg.txn.stats.snapshot().checkpoints
            for n in range(25):
                service.steg_write("replica", uak, bytes([n]) * (16 * 1024))
            assert service.steg_read("replica", uak) == bytes([24]) * (16 * 1024)
            return steg.txn.stats.snapshot().checkpoints - before
        finally:
            service.close()

    def test_25_object_writes_fit_the_default_log(self):
        assert self._checkpoints_over_overwrites(None) == 0

    def test_the_old_one_64th_log_fills_every_few_writes(self):
        assert self._checkpoints_over_overwrites(8192 // 64) >= 3


class TestSuperblockV2:
    def test_journal_blocks_round_trips(self):
        sb = Superblock(
            block_size=512,
            total_blocks=4096,
            inode_count=64,
            root_inode=0,
            alloc_policy=0,
            fragment_blocks=8,
            journal_blocks=48,
        )
        again = Superblock.from_bytes(sb.to_bytes(512))
        assert again.journal_blocks == 48
        assert again.layout().journal_blocks == 48

    def test_negative_journal_rejected(self):
        with pytest.raises(BadSuperblockError):
            Superblock(
                block_size=512,
                total_blocks=4096,
                inode_count=64,
                root_inode=0,
                alloc_policy=0,
                fragment_blocks=8,
                journal_blocks=-2,
            )


def _fs(journal=True, auto_flush=True):
    device = RamDevice(512, 2048)
    fs = FileSystem.mkfs(
        device,
        inode_count=64,
        rng=random.Random(2),
        auto_flush=auto_flush,
        journal_blocks=None if journal else 0,
    )
    return device, fs


class TestWiring:
    def test_journaled_volume_wraps_device(self):
        device, fs = _fs()
        assert isinstance(fs.device, JournaledDevice)
        assert fs.raw_device is device
        assert fs.txn is not None and fs.journal is not None

    def test_journal_less_volume_keeps_bare_device(self):
        device, fs = _fs(journal=False)
        assert fs.device is device
        assert fs.txn is None and fs.journal is None
        fs.create("/a", b"legacy path still works")
        assert FileSystem.mount(device).read("/a") == b"legacy path still works"

    def test_mount_reports_recovery(self):
        device, fs = _fs()
        fs.create("/a", b"x" * 900)
        mounted = FileSystem.mount(device)
        assert mounted.last_recovery is not None
        assert mounted.read("/a") == b"x" * 900


class TestAtomicScopes:
    def test_failed_create_leaves_no_trace_on_disk(self):
        device, fs = _fs()
        fs.create("/keep", b"k" * 700)
        with pytest.raises(NoSpaceError):
            fs.create("/huge", b"z" * (4 << 20))
        # The aborted transaction staged nothing to disk: a remount sees
        # only the acknowledged state.
        again = FileSystem.mount(device)
        assert again.read("/keep") == b"k" * 700
        assert not again.exists("/huge")
        # And the live instance recovers too (caches were invalidated).
        assert fs.read("/keep") == b"k" * 700
        fs.create("/after", b"a")
        assert fs.read("/after") == b"a"

    def test_explicit_fused_transaction(self):
        device, fs = _fs()
        before = fs.txn.stats.snapshot().commits
        with fs.atomic():
            fs.create("/one", b"1" * 600)
            fs.create("/two", b"2" * 600)
        stats = fs.txn.stats.snapshot()
        assert stats.commits == before + 1  # both creates rode one record
        again = FileSystem.mount(device)
        assert again.read("/one") == b"1" * 600
        assert again.read("/two") == b"2" * 600

    def test_flush_writes_bitmap_as_one_batch(self):
        """The journaled flush stages the whole bitmap + dirty inode blocks
        into a single commit record."""
        _device, fs = _fs(auto_flush=False)
        fs.create("/a", b"a" * 600)
        fs.create("/b", b"b" * 600)
        before = fs.txn.stats.snapshot().commits
        fs.flush()
        assert fs.txn.stats.snapshot().commits == before + 1


class TestAbortRestoration:
    """Regressions for the abort path (review findings: the rollback must
    restore pre-transaction in-memory state, not blow it away)."""

    def test_unflushed_dirty_inodes_survive_a_later_abort(self):
        device, fs = _fs(auto_flush=False)
        fs.create("/a", b"hello")  # dirty metadata lives only in memory
        with pytest.raises(Exception):
            fs.create("/a", b"dup")  # aborts its transaction
        assert fs.read("/a") == b"hello"  # the cache rollback kept it
        fs.flush()
        assert FileSystem.mount(device).read("/a") == b"hello"

    def test_aborted_allocations_return_to_the_bitmap(self):
        _device, fs = _fs()
        fs.create("/keep", b"k" * 700)
        free_before = fs.bitmap.free_count
        with pytest.raises(NoSpaceError):
            fs.create("/huge", b"z" * (4 << 20))
        assert fs.bitmap.free_count == free_before
        # And the freed-then-restored map still agrees with reality.
        assert fs.read("/keep") == b"k" * 700


class TestBitmapDiffFlush:
    def test_only_changed_bitmap_blocks_are_journaled(self):
        """A one-file mutation must not journal the whole bitmap region."""
        device = RamDevice(512, 16384)  # 4-block bitmap
        fs = FileSystem.mkfs(device, inode_count=64, rng=random.Random(3))
        assert fs.layout.bitmap_blocks >= 4
        baseline = fs.txn.stats.snapshot().blocks_journaled
        fs.create("/tiny", b"t" * 100)  # 1 data block + 1 inode + bitmap delta
        delta = fs.txn.stats.snapshot().blocks_journaled - baseline
        assert delta < fs.layout.bitmap_blocks + 3, delta
        assert FileSystem.mount(device).read("/tiny") == b"t" * 100
