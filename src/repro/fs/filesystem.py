"""The plain (non-steganographic) file system.

This is the substrate StegFS sits beside: an ext2-like file system with a
superblock, a shared allocation bitmap, a central inode table, hierarchical
directories, and pluggable data-allocation policy.  The evaluation's
*CleanDisk* and *FragDisk* configurations are this file system with the
contiguous and fragmenting allocators respectively (§5.1).

In-core metadata: like every kernel file system it keeps a name cache (the
parsed listing of each directory, by inode number) and the images of the
inode-table and pointer blocks it has walked, so a warm operation touches
its data blocks and nothing else.  There is one invalidation rule — a
mutation scope that fails, whoever opened it, empties both — and both are
RAM-only plain metadata, bounded by :data:`NAME_CACHE_BOUND` and
:data:`META_IMAGE_BOUND`.

Concurrency: the instance takes no lock of its own around an operation.
The service layer runs mutators under its exclusive volume lock and lets
readers share one, so ``read``/``stat``/``exists``/``listdir`` may run
concurrently with each other (never with a mutator); the only state they
write is the two caches, which lock their own bookkeeping.  The paper
benches drive an instance from one thread and apply multi-user interleaving
at the disk model.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ContextManager, Iterator

from repro.errors import (
    BadSuperblockError,
    FileExistsError_,
    FileNotFoundError_,
    FileSystemError,
    InvalidPathError,
    IsADirectoryError_,
    NoSpaceError,
    NotADirectoryError_,
)
from repro.fs.directory import DirectoryData, split_path
from repro.fs.inode import BlockMapper, FileType, Inode
from repro.fs.layout import INODE_SIZE, Layout, default_journal_blocks
from repro.fs.superblock import (
    POLICY_CONTIGUOUS,
    POLICY_FRAGMENTED,
    POLICY_RANDOM,
    Superblock,
)
from repro.obs.metrics import get_registry
from repro.storage.allocator import (
    ContiguousAllocator,
    FragmentingAllocator,
    RandomAllocator,
)
from repro.storage.bitmap import Bitmap
from repro.storage.block_device import BlockDevice
from repro.storage.journal import Journal, RecoveryReport
from repro.storage.txn import JournaledDevice, TransactionManager
from repro.util.lru import Lru

__all__ = ["FileSystem", "FileStat", "NAME_CACHE_BOUND", "META_IMAGE_BOUND"]

#: Most directories whose parsed listing one volume keeps in core.  An entry
#: costs about 100 bytes plus the name; no file has two names, so all the
#: listings together never hold more than ``inode_count`` entries — at most
#: 0.5 MiB on the 4096 inodes of a 32 MiB volume, 46 MiB if every one of a
#: 1 GiB volume's 131072 inodes carried a 255-byte name.
NAME_CACHE_BOUND = 1024

#: Most inode-table and pointer-block images one volume keeps in core:
#: 256 KiB at 1 KiB blocks (the table blocks of 2048 inodes), 16 MiB at
#: 64 KiB, the largest block size the paper sweeps.
META_IMAGE_BOUND = 256

# Counts only — no path, name or block number leaves the caches.  Module-level
# references keep a lookup at one gated increment; the gauge moves by deltas
# because every volume of the process shares it.
_REG = get_registry()
_NAME_HITS = _REG.counter("fs.names.hits", "directory lookups served in core")
_NAME_MISSES = _REG.counter("fs.names.misses", "directory lookups that read and parsed the listing")
_NAME_SIZE = _REG.gauge("fs.names.size", "in-core directory listings, all open volumes")
_TABLE_READS = _REG.counter("fs.inodes.table_reads", "inode-table blocks read from the device")
_CLEAN_SKIPS = _REG.counter(
    "fs.inodes.clean_writes_skipped", "overwrites that left inode and pointer blocks unwritten"
)

_POLICY_NAMES = {
    "contiguous": POLICY_CONTIGUOUS,
    "fragmented": POLICY_FRAGMENTED,
    "random": POLICY_RANDOM,
}


@dataclass(frozen=True)
class FileStat:
    """Result of :meth:`FileSystem.stat`."""

    inode: int
    type: FileType
    size: int
    n_blocks: int

    @property
    def is_dir(self) -> bool:
        """Whether the object is a directory."""
        return self.type == FileType.DIRECTORY


class FileSystem:
    """Mountable plain file system over a :class:`BlockDevice`."""

    def __init__(
        self,
        device: BlockDevice,
        superblock: Superblock,
        bitmap: Bitmap,
        rng: random.Random | None = None,
        auto_flush: bool = True,
    ) -> None:
        self._raw_device = device
        self._superblock = superblock
        self._layout = superblock.layout()
        self._bitmap = bitmap
        self._rng = rng or random.Random(0)
        self._auto_flush = auto_flush
        self._last_recovery: RecoveryReport | None = None
        # Journaled volumes route every mutation through a transaction
        # committed via the write-ahead log; journal-less volumes (the
        # trace-calibrated paper baselines) keep the bare device path.
        if superblock.journal_blocks:
            self._journal = Journal(
                device,
                self._layout.journal_start,
                superblock.journal_blocks,
                superblock.block_size,
            )
            self._journal.load()
            self._txn: TransactionManager | None = TransactionManager(
                device, self._journal, sync_on_commit=auto_flush
            )
            self._device: BlockDevice = JournaledDevice(device, self._txn)
            # Whoever opened it — steg_hide and steg_unhide mix plain and
            # hidden blocks in one — an aborted transaction discards staged
            # blocks the in-core copies already describe.
            self._txn.add_abort_hook(self._drop_incore)
        else:
            self._journal = None
            self._txn = None
            self._device = device
        # The in-core metadata.  ``_images`` and ``_names`` are clean copies
        # of what the device holds (logically: staged and overlay images
        # included) and may be dropped at any time; ``_dirty`` is the only
        # place an inode is newer than its table image, until ``flush``
        # writes it through.  A clean inode is parsed from its image on
        # every load — there is no second parsed copy to disagree with it.
        self._names: Lru[int, DirectoryData] = Lru()
        self._images: Lru[int, bytes] = Lru()
        self._dirty: dict[int, Inode] = {}
        # No inode below this number is free: where the search for one starts.
        self._free_inode_hint = 0
        self._bitmap_dirty = False
        # Byte image of the bitmap as last flushed; journaled flushes diff
        # against it so a one-bit change journals one block, not the whole
        # region.  None → the next flush writes every bitmap block.
        self._bitmap_shadow: bytes | None = None
        policy = superblock.alloc_policy
        if policy == POLICY_CONTIGUOUS:
            self._data_allocator = ContiguousAllocator(bitmap)
        elif policy == POLICY_FRAGMENTED:
            self._data_allocator = FragmentingAllocator(
                bitmap, self._rng, superblock.fragment_blocks
            )
        else:
            self._data_allocator = _RandomRunAdapter(RandomAllocator(bitmap, self._rng))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def mkfs(
        cls,
        device: BlockDevice,
        inode_count: int | None = None,
        alloc_policy: str = "contiguous",
        fragment_blocks: int = 8,
        rng: random.Random | None = None,
        fill_random: bool = False,
        auto_flush: bool = True,
        system_seed: bytes | None = None,
        journal_blocks: int | None = None,
    ) -> "FileSystem":
        """Create a fresh file system on ``device`` and return it mounted.

        ``fill_random=True`` performs the §3.1 whole-disk random fill (a
        :class:`~repro.storage.block_device.SparseDevice` provides this
        lazily for free).  ``alloc_policy`` is one of ``"contiguous"``,
        ``"fragmented"``, ``"random"``.  ``system_seed`` is stored for the
        steganographic layer's dummy-file keys.  ``journal_blocks`` sizes
        the write-ahead journal (``None`` → :func:`default_journal_blocks`,
        ``0`` → no journal: the pre-journal on-disk behaviour).
        """
        if alloc_policy not in _POLICY_NAMES:
            raise ValueError(
                f"alloc_policy must be one of {sorted(_POLICY_NAMES)}, got {alloc_policy!r}"
            )
        rng = rng or random.Random(0)
        if fill_random:
            device.fill_random(rng)
        if journal_blocks is None:
            journal_blocks = default_journal_blocks(device.total_blocks, device.block_size)
        layout = Layout.compute(
            device.block_size,
            device.total_blocks,
            inode_count,
            journal_blocks=journal_blocks,
        )
        superblock = Superblock(
            block_size=device.block_size,
            total_blocks=device.total_blocks,
            inode_count=layout.inode_count,
            root_inode=0,
            alloc_policy=_POLICY_NAMES[alloc_policy],
            fragment_blocks=fragment_blocks,
            system_seed=system_seed if system_seed is not None else b"\x00" * 32,
            journal_blocks=journal_blocks,
        )
        bitmap = Bitmap(device.total_blocks)
        for block in layout.metadata_blocks():
            bitmap.allocate(block)
        if journal_blocks:
            Journal(
                device, layout.journal_start, journal_blocks, device.block_size
            ).format()

        fs = cls(device, superblock, bitmap, rng=rng, auto_flush=auto_flush)
        fs._initialise_inode_table()
        root = fs._load_inode(superblock.root_inode)
        root.type = FileType.DIRECTORY
        fs._mark_dirty(root)
        fs._write_directory(root, DirectoryData())
        fs._device.write_block(0, superblock.to_bytes(device.block_size))
        fs.flush()
        return fs

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        rng: random.Random | None = None,
        auto_flush: bool = True,
    ) -> "FileSystem":
        """Mount an existing file system from ``device``.

        Journaled volumes run crash recovery first: every intact journal
        record is redo-replayed and a torn tail is discarded, *then* the
        (possibly repaired) superblock and bitmap are read.  The replay
        report is kept on :attr:`last_recovery`.
        """
        superblock = Superblock.from_bytes(device.read_block(0))
        if superblock.block_size != device.block_size:
            raise BadSuperblockError(
                f"superblock block size {superblock.block_size} != device "
                f"block size {device.block_size}"
            )
        if superblock.total_blocks != device.total_blocks:
            raise BadSuperblockError("superblock geometry does not match device")
        layout = superblock.layout()
        report: RecoveryReport | None = None
        if superblock.journal_blocks:
            report = Journal(
                device,
                layout.journal_start,
                superblock.journal_blocks,
                superblock.block_size,
            ).recover()
            # Replay may have rewritten any block, block 0 included.
            superblock = Superblock.from_bytes(device.read_block(0))
            layout = superblock.layout()
        raw_bitmap = b"".join(
            device.read_block(b)
            for b in range(layout.bitmap_start, layout.inode_table_start)
        )
        bitmap = Bitmap.from_bytes(raw_bitmap, superblock.total_blocks)
        fs = cls(device, superblock, bitmap, rng=rng, auto_flush=auto_flush)
        fs._last_recovery = report
        if report is not None and fs._txn is not None:
            fs._txn.stats.note_recovery(report)
        return fs

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def device(self) -> BlockDevice:
        """The device the file system does I/O through (journaled when the
        volume carries a journal)."""
        return self._device

    @property
    def raw_device(self) -> BlockDevice:
        """The device beneath the journal adapter (what mkfs was given)."""
        return self._raw_device

    @property
    def txn(self) -> TransactionManager | None:
        """The transaction manager (None on journal-less volumes)."""
        return self._txn

    @property
    def journal(self) -> Journal | None:
        """The volume's write-ahead journal (None when absent)."""
        return self._journal

    @property
    def last_recovery(self) -> RecoveryReport | None:
        """What mount-time journal recovery replayed (None: fresh mkfs)."""
        return self._last_recovery

    def atomic(self) -> ContextManager[None]:
        """Scope one logical mutation as a single all-or-nothing commit.

        Inside the scope every block write is staged; on clean exit the
        whole set commits through the journal as one record (nested scopes
        join the outermost).  On an exception the staged writes are
        discarded and the in-core metadata is dropped, so it re-loads from
        the (untouched) on-disk state.  A journal-less volume writes in
        place as it goes — the historical bare-write behaviour — so there
        a failed scope can undo nothing on disk; it drops the clean in-core
        copies all the same, because a write that raised may have landed.
        """
        if self._txn is None:
            return self._bare_scope()
        return self._atomic_scope()

    @contextmanager
    def _bare_scope(self) -> Iterator[None]:
        try:
            yield
        except BaseException:
            self._drop_incore()
            raise

    @contextmanager
    def _atomic_scope(self) -> Iterator[None]:
        assert self._txn is not None
        # Only the outermost scope snapshots: nested scopes joining the
        # same transaction must not restore halfway.
        checkpoint = None if self._txn.in_transaction else self._memory_checkpoint()
        try:
            with self._txn.transaction():
                yield
        except BaseException:
            # The transaction aborted: no staged write reached the device.
            # Roll the in-memory metadata back to the pre-transaction
            # state so it agrees with the (untouched) on-disk truth —
            # including un-flushed dirty inodes and bitmap bits that
            # predate this transaction, which are still valid.
            if checkpoint is not None and not self._txn.in_transaction:
                self._restore_memory(checkpoint)
            raise

    def _memory_checkpoint(
        self,
    ) -> tuple["Bitmap", dict[int, Inode], bool]:
        dirty_copies = {
            number: Inode.from_bytes(number, inode.to_bytes())
            for number, inode in self._dirty.items()
        }
        return self._bitmap.snapshot(), dirty_copies, self._bitmap_dirty

    def _restore_memory(
        self, checkpoint: tuple["Bitmap", dict[int, Inode], bool]
    ) -> None:
        bitmap_snapshot, dirty_copies, bitmap_dirty = checkpoint
        self._bitmap.restore(bitmap_snapshot)
        self._drop_incore()
        self._dirty = dict(dirty_copies)
        self._bitmap_dirty = bitmap_dirty
        # A flush inside the aborted transaction may have updated the
        # shadow while its writes were discarded: drop it so the next
        # flush rewrites the bitmap from truth.
        self._bitmap_shadow = None

    def _drop_incore(self) -> None:
        """Forget every clean in-core copy: the device may no longer hold
        what they describe.  The one invalidation rule — a failed mutation
        scope, journaled or bare, ends here.  Dirty inodes are not clean
        copies; :meth:`_restore_memory` decides which of them survive."""
        _NAME_SIZE.add(-self._names.clear())
        self._images.clear()
        self._free_inode_hint = 0

    @property
    def block_size(self) -> int:
        """Volume block size in bytes."""
        return self._superblock.block_size

    @property
    def layout(self) -> Layout:
        """Region layout of the volume."""
        return self._layout

    @property
    def bitmap(self) -> Bitmap:
        """The shared allocation bitmap (hidden layers allocate from it too)."""
        return self._bitmap

    @property
    def superblock(self) -> Superblock:
        """Parsed superblock."""
        return self._superblock

    # ------------------------------------------------------------------
    # public file API
    # ------------------------------------------------------------------

    def create(self, path: str, data: bytes = b"") -> None:
        """Create a regular file at ``path`` holding ``data``."""
        with self.atomic():
            self._create(path, data)

    def _create(self, path: str, data: bytes) -> None:
        parent, name = self._resolve_parent(path)
        listing = self._read_directory(parent).copy()
        if name in listing:
            raise FileExistsError_(f"{path!r} already exists")
        inode = self._allocate_inode(FileType.REGULAR)
        try:
            self._write_inode_data(inode, data)
        except NoSpaceError:
            self._free_inode(inode)
            self._maybe_flush()
            raise
        listing.add(name, inode.number)
        self._write_directory(parent, listing)
        self._maybe_flush()

    def write(self, path: str, data: bytes) -> None:
        """Replace the contents of an existing regular file."""
        with self.atomic():
            inode = self._lookup_file(path)
            self._write_inode_data(inode, data)
            self._maybe_flush()

    def read(self, path: str) -> bytes:
        """Read an entire regular file."""
        return self._read_inode_data(self._lookup_file(path))

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` (clamped to EOF)."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        inode = self._lookup_file(path)
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        mapper = BlockMapper(self, inode)
        blocks = mapper.get_blocks()
        bs = self.block_size
        first, last = offset // bs, (offset + length - 1) // bs
        raw = b"".join(self._device.read_blocks(blocks[first : last + 1]))
        start = offset - first * bs
        return raw[start : start + length]

    def write_range(self, path: str, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, extending the file if needed."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        with self.atomic():
            self._write_range(path, offset, data)

    def _write_range(self, path: str, offset: int, data: bytes) -> None:
        inode = self._lookup_file(path)
        if not data:
            return
        end = offset + len(data)
        bs = self.block_size
        mapper = BlockMapper(self, inode)
        blocks = mapper.get_blocks()
        needed = -(-max(end, inode.size) // bs)
        if needed > len(blocks):
            blocks = blocks + self._data_allocator.allocate_run(needed - len(blocks))
            self._bitmap_dirty = True
            mapper.set_blocks(blocks)
        first, last = offset // bs, (end - 1) // bs
        old_count = -(-inode.size // bs)
        # Whole blocks between the old end and the extent are a hole: they
        # read as zeros, not as what the blocks' last owner left in them.
        # (The block the file ended in is zeros past the end already.)
        items = [(blocks[logical], bytes(bs)) for logical in range(old_count, first)]
        for logical in range(first, last + 1):
            block_start = logical * bs
            lo = max(offset, block_start) - block_start
            hi = min(end, block_start + bs) - block_start
            if lo == 0 and hi == bs:
                chunk = data[block_start - offset : block_start - offset + bs]
            else:
                existing = (
                    self._device.read_block(blocks[logical])
                    if logical < old_count
                    else bytes(bs)
                )
                # join (not +) so a memoryview overlay from the zero-copy
                # wire path composes with the bytes prefix/suffix.
                chunk = b"".join(
                    (
                        existing[:lo],
                        data[block_start + lo - offset : block_start + hi - offset],
                        existing[hi:],
                    )
                )
            items.append((blocks[logical], chunk))
        self._device.write_blocks(items)
        inode.size = max(inode.size, end)
        self._mark_dirty(inode)
        self._maybe_flush()

    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` to an existing regular file."""
        inode = self._lookup_file(path)
        self.write_range(path, inode.size, data)

    def truncate(self, path: str, size: int) -> None:
        """Shrink or zero-extend a regular file to exactly ``size`` bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        with self.atomic():
            self._truncate(path, size)

    def _truncate(self, path: str, size: int) -> None:
        inode = self._lookup_file(path)
        if size == inode.size:
            return
        if size > inode.size:
            pad = size - inode.size
            self._write_range(path, inode.size, b"\x00" * pad)
            return
        bs = self.block_size
        mapper = BlockMapper(self, inode)
        blocks = mapper.get_blocks()
        keep = -(-size // bs)
        for block in blocks[keep:]:
            self._bitmap.free(block)
            self._bitmap_dirty = True
        mapper.set_blocks(blocks[:keep])
        if size % bs:
            # Keep the last block zeros past the end of the file, as every
            # write leaves it: a later write beyond the end uncovers them.
            last = blocks[keep - 1]
            kept = self._device.read_block(last)[: size % bs]
            self._device.write_block(last, kept.ljust(bs, b"\x00"))
        inode.size = size
        self._mark_dirty(inode)
        self._maybe_flush()

    def unlink(self, path: str) -> None:
        """Delete a regular file."""
        with self.atomic():
            self._unlink(path)

    def _unlink(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        listing = self._read_directory(parent).copy()
        number = listing.get(name)
        if number is None:
            raise FileNotFoundError_(f"no such file: {path!r}")
        inode = self._load_inode(number)
        if inode.type == FileType.DIRECTORY:
            raise IsADirectoryError_(f"{path!r} is a directory; use rmdir")
        self._release_inode(inode)
        listing.remove(name)
        self._write_directory(parent, listing)
        self._maybe_flush()

    def mkdir(self, path: str) -> None:
        """Create a directory."""
        with self.atomic():
            self._mkdir(path)

    def _mkdir(self, path: str) -> None:
        parent, name = self._resolve_parent(path)
        listing = self._read_directory(parent).copy()
        if name in listing:
            raise FileExistsError_(f"{path!r} already exists")
        inode = self._allocate_inode(FileType.DIRECTORY)
        self._write_directory(inode, DirectoryData())
        listing.add(name, inode.number)
        self._write_directory(parent, listing)
        self._maybe_flush()

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        with self.atomic():
            self._rmdir(path)

    def _rmdir(self, path: str) -> None:
        components = split_path(path)
        if not components:
            raise InvalidPathError("cannot remove the root directory")
        parent, name = self._resolve_parent(path)
        listing = self._read_directory(parent).copy()
        number = listing.get(name)
        if number is None:
            raise FileNotFoundError_(f"no such directory: {path!r}")
        inode = self._load_inode(number)
        if inode.type != FileType.DIRECTORY:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        if len(self._read_directory(inode)) != 0:
            raise FileSystemError(f"directory {path!r} is not empty")
        self._release_inode(inode)
        listing.remove(name)
        self._write_directory(parent, listing)
        self._maybe_flush()

    def listdir(self, path: str = "/") -> list[str]:
        """Sorted names in a directory."""
        inode = self._resolve(path)
        if inode.type != FileType.DIRECTORY:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        return self._read_directory(inode).names()

    def exists(self, path: str) -> bool:
        """Whether ``path`` names an existing object."""
        try:
            self._resolve(path)
            return True
        except (FileNotFoundError_, NotADirectoryError_):
            return False

    def stat(self, path: str) -> FileStat:
        """Metadata for ``path``."""
        inode = self._resolve(path)
        mapper = BlockMapper(self, inode)
        return FileStat(
            inode=inode.number,
            type=inode.type,
            size=inode.size,
            n_blocks=len(mapper.get_blocks()),
        )

    def file_blocks(self, path: str) -> list[int]:
        """Device blocks of a file, in logical order (for analysis/tracing)."""
        inode = self._resolve(path)
        return BlockMapper(self, inode).get_blocks()

    # ------------------------------------------------------------------
    # census used by backup (§3.3) and the attacker model
    # ------------------------------------------------------------------

    def plain_owned_blocks(self) -> set[int]:
        """Every block owned by the central directory: data + indirect."""
        owned: set[int] = set()
        stack = [self._load_inode(self._superblock.root_inode)]
        seen: set[int] = set()
        while stack:
            inode = stack.pop()
            if inode.number in seen:
                continue
            seen.add(inode.number)
            mapper = BlockMapper(self, inode)
            owned.update(mapper.get_blocks())
            owned.update(mapper.indirect_blocks())
            if inode.type == FileType.DIRECTORY:
                for child in self._read_directory(inode).entries.values():
                    stack.append(self._load_inode(child))
        return owned

    def unaccounted_blocks(self) -> set[int]:
        """Allocated blocks not owned by metadata or any plain file.

        This is the §3.3 backup set and the §3.1 attacker's census: the
        union of hidden files, dummy files and abandoned blocks — which is
        exactly why those categories exist.
        """
        allocated = set(int(b) for b in self._bitmap.allocated_indices())
        allocated -= set(self._layout.metadata_blocks())
        allocated -= self.plain_owned_blocks()
        return allocated

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def mark_bitmap_dirty(self) -> None:
        """Note an out-of-band bitmap mutation (the hidden layer allocates
        directly against the shared bitmap) so the next flush persists it."""
        self._bitmap_dirty = True

    def flush(self) -> None:
        """Write dirty metadata (bitmap, inodes) back to the device.

        On a journaled volume this is itself a transaction: the bitmap and
        every dirty inode block commit as one all-or-nothing record.  The
        bitmap goes out as a single contiguous :meth:`write_blocks` run,
        and dirty inodes are patched into the held image of their table
        block, one write per block and no read-back.
        """
        with self.atomic():
            if self._bitmap_dirty:
                raw = self._bitmap.to_bytes()
                bs = self.block_size
                diffable = self._txn is not None and self._bitmap_shadow is not None
                items = []
                for i, block in enumerate(
                    range(self._layout.bitmap_start, self._layout.inode_table_start)
                ):
                    chunk = raw[i * bs : (i + 1) * bs].ljust(bs, b"\x00")
                    if diffable:
                        old = self._bitmap_shadow[i * bs : (i + 1) * bs].ljust(
                            bs, b"\x00"
                        )
                        if old == chunk:
                            continue  # unchanged since the last flush
                    items.append((block, chunk))
                if items:
                    self._device.write_blocks(items)
                # Journal-less volumes keep the historical full-rewrite I/O
                # pattern (the trace-calibrated baselines are priced on it).
                self._bitmap_shadow = raw if self._txn is not None else None
                self._bitmap_dirty = False
            if self._dirty:
                patched: dict[int, bytearray] = {}
                for number in sorted(self._dirty):
                    block, offset = self._layout.inode_location(number)
                    if block not in patched:
                        patched[block] = bytearray(self._read_meta_block(block))
                    patched[block][offset : offset + INODE_SIZE] = self._dirty[number].to_bytes()
                items = [(block, bytes(image)) for block, image in patched.items()]
                self._device.write_blocks(items)
                # Written through: the images are the inodes' truth again.
                for block, image in items:
                    self._images.put(block, image, META_IMAGE_BOUND)
                self._dirty.clear()

    # ------------------------------------------------------------------
    # internals: inode table
    # ------------------------------------------------------------------

    def _initialise_inode_table(self) -> None:
        empty = Inode(number=0).to_bytes()
        per_block = self._layout.inodes_per_block
        block_image = (empty * per_block).ljust(self.block_size, b"\x00")
        for block in range(self._layout.inode_table_start, self._layout.journal_start):
            self._device.write_block(block, block_image)

    def _load_inode(self, number: int) -> Inode:
        """Inode ``number``: the dirty object if there is one, else a fresh
        view of its table image (callers mutate it, then ``_mark_dirty``)."""
        dirty = self._dirty.get(number)
        if dirty is not None:
            return dirty
        block, offset = self._layout.inode_location(number)
        return Inode.from_bytes(number, self._read_meta_block(block)[offset : offset + INODE_SIZE])

    def _mark_dirty(self, inode: Inode) -> None:
        self._dirty[inode.number] = inode

    def _allocate_inode(self, file_type: FileType) -> Inode:
        for number in range(self._free_inode_hint, self._superblock.inode_count):
            inode = self._load_inode(number)
            if inode.is_free:
                inode.type = file_type
                inode.size = 0
                self._mark_dirty(inode)
                self._free_inode_hint = number + 1
                return inode
        raise NoSpaceError("inode table is full")

    def _free_inode(self, inode: Inode) -> None:
        """Return the slot: :meth:`_allocate_inode` hands the number out
        again, so nothing in core may still speak for it."""
        inode.type = FileType.FREE
        self._mark_dirty(inode)
        self._free_inode_hint = min(self._free_inode_hint, inode.number)
        _NAME_SIZE.add(-self._names.drop(inode.number))

    def _release_inode(self, inode: Inode) -> None:
        mapper = BlockMapper(self, inode)
        for block in mapper.release_all():
            self._bitmap.free(block)
        self._bitmap_dirty = True
        self._free_inode(inode)

    # ------------------------------------------------------------------
    # internals: data I/O
    # ------------------------------------------------------------------

    def _read_inode_data(self, inode: Inode) -> bytes:
        mapper = BlockMapper(self, inode)
        raw = b"".join(self._device.read_blocks(mapper.get_blocks()))
        return raw[: inode.size]

    def _write_inode_data(self, inode: Inode, data: bytes) -> None:
        bs = self.block_size
        mapper = BlockMapper(self, inode)
        old_blocks = mapper.get_blocks()
        needed = -(-len(data) // bs)
        if needed != len(old_blocks):
            for block in old_blocks:
                self._bitmap.free(block)
            try:
                blocks = self._data_allocator.allocate_run(needed) if needed else []
            except NoSpaceError:
                for block in old_blocks:  # roll back so the file is intact
                    self._bitmap.allocate(block)
                raise
            self._bitmap_dirty = True
        else:
            blocks = old_blocks
        items = []
        for i, block in enumerate(blocks):
            chunk = data[i * bs : (i + 1) * bs]
            if len(chunk) < bs:
                # join (not ljust) keeps bytes-like chunks — memoryview
                # slices off the wire — working without a copy first.
                chunk = b"".join((chunk, bytes(bs - len(chunk))))
            items.append((block, chunk))
        if items:
            self._device.write_blocks(items)
        if blocks == old_blocks and inode.size == len(data):
            # Neither the inode nor a pointer block changed a byte.
            _CLEAN_SKIPS.inc()
            return
        inode.size = len(data)
        mapper.set_blocks(blocks)
        self._mark_dirty(inode)

    # ------------------------------------------------------------------
    # internals: directories and path resolution
    # ------------------------------------------------------------------

    def _read_directory(self, inode: Inode) -> DirectoryData:
        """The in-core listing of directory ``inode``, parsed on first use.

        Every caller shares the one object: a mutator edits a ``copy()`` and
        hands it to :meth:`_write_directory`.
        """
        listing = self._names.get(inode.number)
        if listing is not None:
            _NAME_HITS.inc()
            return listing
        _NAME_MISSES.inc()
        listing = DirectoryData.from_bytes(self._read_inode_data(inode))
        _NAME_SIZE.add(self._names.put(inode.number, listing, NAME_CACHE_BOUND))
        return listing

    def _write_directory(self, inode: Inode, listing: DirectoryData) -> None:
        self._write_inode_data(inode, listing.to_bytes())
        # Only now: had the write raised, the old listing stayed the entry
        # until the failed scope dropped it.
        _NAME_SIZE.add(self._names.put(inode.number, listing, NAME_CACHE_BOUND))

    def _resolve(self, path: str) -> Inode:
        components = split_path(path)
        inode = self._load_inode(self._superblock.root_inode)
        for depth, name in enumerate(components):
            if inode.type != FileType.DIRECTORY:
                prefix = "/" + "/".join(components[:depth])
                raise NotADirectoryError_(f"{prefix!r} is not a directory")
            child = self._read_directory(inode).get(name)
            if child is None:
                raise FileNotFoundError_(f"no such file or directory: {path!r}")
            inode = self._load_inode(child)
        return inode

    def _resolve_parent(self, path: str) -> tuple[Inode, str]:
        components = split_path(path)
        if not components:
            raise InvalidPathError("path must name a file, not the root")
        parent_path = "/" + "/".join(components[:-1])
        parent = self._resolve(parent_path)
        if parent.type != FileType.DIRECTORY:
            raise NotADirectoryError_(f"{parent_path!r} is not a directory")
        return parent, components[-1]

    def _lookup_file(self, path: str) -> Inode:
        inode = self._resolve(path)
        if inode.type == FileType.DIRECTORY:
            raise IsADirectoryError_(f"{path!r} is a directory")
        return inode

    def _maybe_flush(self) -> None:
        if self._auto_flush:
            self.flush()

    # ------------------------------------------------------------------
    # internals: metadata block I/O (BlockMapper's callbacks; the inode table's too)
    # ------------------------------------------------------------------

    def _read_meta_block(self, block: int) -> bytes:
        """The image of an inode-table or pointer block, held in core."""
        image = self._images.get(block)
        if image is None:
            image = self._device.read_block(block)
            if block < self._layout.journal_start:
                _TABLE_READS.inc()
            self._images.put(block, image, META_IMAGE_BOUND)
        return image

    def _write_meta_block(self, block: int, data: bytes) -> None:
        image = data.ljust(self.block_size, b"\x00")
        self._device.write_block(block, image)
        self._images.put(block, image, META_IMAGE_BOUND)

    def _alloc_meta_block(self) -> int:
        block = self._bitmap.find_free_run(1, start=self._layout.data_start)
        self._bitmap.allocate(block)
        self._bitmap_dirty = True
        return block

    def _free_meta_block(self, block: int) -> None:
        self._bitmap.free(block)
        self._bitmap_dirty = True
        self._images.drop(block)


class _RandomRunAdapter:
    """Gives :class:`RandomAllocator` the ``allocate_run`` policy interface."""

    def __init__(self, allocator: RandomAllocator) -> None:
        self._allocator = allocator

    def allocate_run(self, length: int) -> list[int]:
        return self._allocator.allocate_many(length)
