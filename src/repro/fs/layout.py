"""On-disk layout of the plain file system.

The volume is divided into five regions, mirroring ext2's shape (the paper
implements StegFS "alongside other file system drivers like Ext2fs") plus
a journal, like ext3:

    block 0        superblock
    blocks 1..b    allocation bitmap (1 bit per block, Figure 1)
    blocks b..i    inode table (the "central directory")
    blocks i..j    write-ahead journal (may be empty; see
                   :mod:`repro.storage.journal`)
    blocks j..N    data region — plain files, hidden files, dummies and
                   abandoned blocks all live here, distinguishable only to
                   key holders

Metadata blocks — journal included — are marked allocated in the bitmap at
mkfs time, so every allocator (including the hidden layer's random
placement) naturally avoids them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BadSuperblockError

__all__ = ["Layout", "INODE_SIZE", "default_journal_blocks"]

INODE_SIZE = 128

#: The least log the default gives a volume that can spare it: about 30
#: commits of a 16 KiB object at 1 KiB blocks.
LOG_FLOOR_BYTES = 512 * 1024


def default_journal_blocks(total_blocks: int, block_size: int) -> int:
    """Journal size heuristic: sized by what commits, not by the volume alone.

    ``1/64`` of the volume or :data:`LOG_FLOOR_BYTES`, whichever is more
    blocks, so a small volume does not checkpoint every few writes.  The
    ``1/16`` cap keeps tiny volumes mostly data; the floor of 16 keeps
    them above the journal's structural minimum; the 4096 cap stops
    paper-scale volumes from reserving megabytes a single transaction
    will never fill (oversized transactions take the bypass path anyway).
    """
    wanted = max(total_blocks // 64, LOG_FLOOR_BYTES // block_size)
    return max(16, min(wanted, total_blocks // 16, 4096))


@dataclass(frozen=True)
class Layout:
    """Region boundaries computed from the device geometry."""

    block_size: int
    total_blocks: int
    inode_count: int
    bitmap_start: int
    inode_table_start: int
    journal_start: int
    data_start: int

    @classmethod
    def compute(
        cls,
        block_size: int,
        total_blocks: int,
        inode_count: int | None = None,
        journal_blocks: int = 0,
    ) -> "Layout":
        """Derive a layout for a device of ``total_blocks`` blocks.

        ``inode_count`` defaults to one inode per 8 data-region blocks
        (ext2's bytes-per-inode heuristic scaled to small volumes), with a
        floor of 64 so tiny test volumes still hold a useful file count.
        ``journal_blocks=0`` means the volume carries no journal (the
        pre-journal format; trace-calibrated baselines still use it).
        """
        if block_size < INODE_SIZE:
            raise BadSuperblockError(
                f"block size {block_size} is smaller than one inode ({INODE_SIZE} bytes)"
            )
        if journal_blocks < 0:
            raise BadSuperblockError(
                f"journal_blocks must be non-negative, got {journal_blocks}"
            )
        bitmap_blocks = _ceil_div(_ceil_div(total_blocks, 8), block_size)
        if inode_count is None:
            inode_count = max(64, total_blocks // 8)
        inodes_per_block = block_size // INODE_SIZE
        inode_blocks = _ceil_div(inode_count, inodes_per_block)
        bitmap_start = 1
        inode_table_start = bitmap_start + bitmap_blocks
        journal_start = inode_table_start + inode_blocks
        data_start = journal_start + journal_blocks
        if data_start >= total_blocks:
            raise BadSuperblockError(
                f"volume of {total_blocks} blocks too small: metadata alone "
                f"needs {data_start} blocks"
            )
        return cls(
            block_size=block_size,
            total_blocks=total_blocks,
            inode_count=inode_count,
            bitmap_start=bitmap_start,
            inode_table_start=inode_table_start,
            journal_start=journal_start,
            data_start=data_start,
        )

    @property
    def bitmap_blocks(self) -> int:
        """Number of blocks holding the bitmap."""
        return self.inode_table_start - self.bitmap_start

    @property
    def inode_blocks(self) -> int:
        """Number of blocks holding the inode table."""
        return self.journal_start - self.inode_table_start

    @property
    def journal_blocks(self) -> int:
        """Number of blocks reserved for the write-ahead journal."""
        return self.data_start - self.journal_start

    @property
    def inodes_per_block(self) -> int:
        """Inodes stored per metadata block."""
        return self.block_size // INODE_SIZE

    @property
    def data_blocks(self) -> int:
        """Number of blocks in the data region."""
        return self.total_blocks - self.data_start

    def metadata_blocks(self) -> range:
        """Indices of all metadata blocks (superblock, bitmap, inode table)."""
        return range(0, self.data_start)

    def inode_location(self, inode_number: int) -> tuple[int, int]:
        """(block index, byte offset) of ``inode_number`` in the table."""
        if not 0 <= inode_number < self.inode_count:
            raise BadSuperblockError(
                f"inode {inode_number} out of range [0, {self.inode_count})"
            )
        block, slot = divmod(inode_number, self.inodes_per_block)
        return self.inode_table_start + block, slot * INODE_SIZE


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
