"""Hidden file objects: creation, lookup, I/O, and the internal free pool.

This module is the heart of the reproduction — the per-object mechanics of
§3.1:

* the header is placed at the first free block of the keyed pseudorandom
  candidate stream and found again by signature probing
  (:mod:`repro.core.locator`);
* data and inode-chain blocks are allocated uniformly at random from the
  shared free space;
* every object holds an **internal pool** of ρ_min…ρ_max free blocks.
  Extension draws blocks from the pool (topping it up from the file system
  when it falls below ρ_min); truncation returns blocks to the pool,
  spilling back to the file system above ρ_max.  The pool is why an
  intruder diffing bitmap snapshots cannot tell a hidden file's data
  blocks from reserved-but-empty blocks.

Pool blocks are *reserved indices with untouched contents* — they still
hold the mkfs random fill, which is exactly what sealed data blocks look
like.

A :class:`HiddenFile` is the *one* in-core object of its hidden object:
:meth:`HiddenFile.open` returns the volume's open-object table entry and
only a miss walks the locator stream; the entry carries the unsealed
header, the block map and (for directories) the parsed listing, and every
write updates them in place.  Like the kernel's inode cache under the
paper's implementation, this is what makes a connected object cost its
data blocks and nothing else.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.core import blockio, hidden_inode, locator
from repro.core.header import NULL_BLOCK, OBJ_DIRECTORY, OBJ_FILE, HiddenHeader
from repro.core.keys import ObjectKeys
from repro.core.volume import HiddenVolume
from repro.errors import HiddenObjectExistsError, HiddenObjectNotFoundError, NoSpaceError

__all__ = ["HiddenFile"]


def _find(volume: HiddenVolume, keys: ObjectKeys) -> tuple[int, HiddenHeader]:
    return locator.find_header(
        volume.device,
        volume.bitmap,
        keys,
        volume.params.locator_scan_limit,
        min_block=volume.data_start,
    )


class HiddenFile:
    """One open hidden object (regular file or directory payload).

    Obtained from :meth:`open` or :meth:`create` only, and shared: every
    opener of one object on one volume gets the same instance while it is
    in the volume's open-object table.  A handle kept past that (evicted,
    table emptied by an aborted transaction, object deleted or re-keyed)
    finds the object again on its next use, and raises
    :class:`HiddenObjectNotFoundError` if it is gone.  Callers serialise
    mutations, as for transactions; reads may run concurrently.
    """

    def __init__(
        self,
        volume: HiddenVolume,
        keys: ObjectKeys,
        header_block: int,
        header: HiddenHeader,
    ) -> None:
        self._volume = volume
        self._keys = keys
        self._header_block = header_block
        self._header = header
        self._map: tuple[list[int], list[int]] | None = None
        self._listing: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        volume: HiddenVolume,
        keys: ObjectKeys,
        object_type: int = OBJ_FILE,
        data: bytes = b"",
        check_exists: bool = True,
    ) -> "HiddenFile":
        """Create a new hidden object addressed by ``keys``.

        Raises :class:`HiddenObjectExistsError` if the (name, key) pair
        already addresses a live object (which would otherwise be silently
        shadowed), and :class:`NoSpaceError` if the volume cannot hold the
        header plus the initial pool.  Callers that track name uniqueness
        themselves (bulk loaders, the UAK-directory layer) may pass
        ``check_exists=False`` to skip the full-scan existence probe.
        """
        if check_exists:
            try:
                _find(volume, keys)
            except HiddenObjectNotFoundError:
                pass
            else:
                raise HiddenObjectExistsError(
                    "a hidden object for this (name, key) pair already exists"
                )
        with volume.transaction():
            header_block = locator.choose_header_block(
                volume.bitmap,
                keys,
                volume.params.locator_scan_limit,
                min_block=volume.data_start,
            )
            volume.bitmap.allocate(header_block)
            # §3.1: "When a hidden file is created, StegFS straightaway
            # allocates several blocks to the file" — the initial pool.
            pool = volume.take_free_blocks_best_effort(volume.params.pool_max)
            header = HiddenHeader(
                signature=keys.signature,
                object_type=object_type,
                size=0,
                inode_root=NULL_BLOCK,
                pool=pool,
            )
            hidden = cls(volume, keys, header_block, header)
            hidden._store_header()
            volume.objects.enter(hidden)
            if data:
                hidden.write(data)
            return hidden

    @classmethod
    def open(cls, volume: HiddenVolume, keys: ObjectKeys) -> "HiddenFile":
        """Open an existing hidden object; raises if absent or wrong key.

        The table is keyed by the signature derived from the access key,
        so a wrong key misses and then fails in the locator exactly as it
        would on a cold volume; a failed lookup enters nothing.
        """
        hidden = volume.objects.lookup(keys.signature)
        if hidden is None:
            hidden = cls(volume, keys, *_find(volume, keys))
            volume.objects.enter(hidden)
        return hidden

    def delete(self) -> None:
        """Remove the object: free every block it holds.

        Contents are left in place as unreadable ciphertext — overwriting
        them is unnecessary (they are indistinguishable from free-space
        fill) and would time-stamp the deletion for a snapshot attacker.
        """
        with self._update():
            data_blocks, chain_blocks = self._mapped_blocks()
            self._volume.release_blocks(data_blocks)
            self._volume.release_blocks(chain_blocks)
            self._volume.release_blocks(self._header.pool)
            self._volume.release_blocks([self._header_block])
            self._volume.objects.discard(self)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def signature(self) -> bytes:
        """The object's derived signature — its open-object table key."""
        return self._keys.signature

    @property
    def size(self) -> int:
        """Current object size in bytes."""
        self._sync()
        return self._header.size

    @property
    def object_type(self) -> int:
        """OBJ_FILE or OBJ_DIRECTORY."""
        self._sync()
        return self._header.object_type

    @property
    def is_directory(self) -> bool:
        """Whether this object is a hidden directory."""
        return self.object_type == OBJ_DIRECTORY

    @property
    def header_block(self) -> int:
        """Device block holding the sealed header."""
        self._sync()
        return self._header_block

    @property
    def pool_size(self) -> int:
        """Current number of internally-held free blocks."""
        self._sync()
        return len(self._header.pool)

    @property
    def listing(self) -> dict[str, Any] | None:
        """The contents as :class:`~repro.core.hidden_dir.HiddenDirectory`
        last parsed or saved them; ``None`` once anything else wrote."""
        self._sync()
        return self._listing

    @listing.setter
    def listing(self, entries: dict[str, Any]) -> None:
        self._listing = entries

    def footprint(self) -> dict[str, list[int]]:
        """Ground-truth block ownership, for tests and attack analysis."""
        self._sync()
        data_blocks, chain_blocks = self._mapped_blocks()
        return {
            "header": [self._header_block],
            "inode": list(chain_blocks),
            "data": list(data_blocks),
            "pool": list(self._header.pool),
        }

    def all_blocks(self) -> set[int]:
        """Every block this object holds in the bitmap."""
        footprint = self.footprint()
        return set().union(*footprint.values())

    # ------------------------------------------------------------------
    # data I/O
    # ------------------------------------------------------------------

    def read(self) -> bytes:
        """Read and decrypt the whole object.

        One scatter-gather device read for every data block, one
        vectorised unseal pass straight into a single output buffer —
        the batched pipeline end-to-end, no per-block slices to join.
        """
        self._sync()
        data_blocks, _chain = self._mapped_blocks()
        images = self._volume.device.read_blocks(data_blocks)
        return blockio.unseal_concat(
            self._keys.encryption_key, images, length=self._header.size
        )

    def read_extent(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at byte ``offset``.

        Only the blocks overlapping the extent are touched: one batched
        device read plus one vectorised unseal for the run.  Reads beyond
        the current size truncate (like :func:`os.pread` at EOF); an
        extent entirely past EOF returns ``b""``.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"negative extent ({offset=}, {length=})")
        self._sync()
        end = min(offset + length, self._header.size)
        if offset >= end:
            return b""
        room = blockio.capacity(self._volume.block_size)
        first = offset // room
        last = (end - 1) // room
        data_blocks, _chain = self._mapped_blocks()
        images = self._volume.device.read_blocks(data_blocks[first : last + 1])
        return blockio.unseal_concat(
            self._keys.encryption_key,
            images,
            start=offset - first * room,
            length=end - offset,
        )

    def write(self, data: bytes) -> None:
        """Replace the object's contents with ``data``.

        Surviving blocks are rewritten in place with fresh nonces; growth
        draws on the internal pool per §3.1; shrinkage feeds it.  All data
        blocks are sealed in one vectorised pass and reach the device in
        one scatter-gather write; the inode chain and the header follow
        only if the update changed them.
        """
        volume = self._volume
        with self._update():
            room = blockio.capacity(volume.block_size)
            n_data = -(-len(data) // room) if data else 0
            pool_before = list(self._header.pool)
            data_blocks, chain_blocks = self._remap(n_data)

            # Slicing a view keeps each chunk a zero-copy window into the
            # caller's buffer (which may itself be a wire-frame view);
            # seal_many consumes bytes-likes directly.
            view = memoryview(data)
            chunks = [view[index * room : (index + 1) * room] for index in range(n_data)]
            sealed = blockio.seal_many(
                self._keys.encryption_key, chunks, volume.block_size, volume.rng
            )
            volume.device.write_blocks(list(zip(data_blocks, sealed)))
            self._settle(data_blocks, chain_blocks, len(data), pool_before)

    def write_extent(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset``, growing the object if needed.

        Unlike :meth:`write`, only the blocks overlapping the extent are
        re-sealed and rewritten (plus the inode chain when the block list
        changes and the header when size or root move).  Writing past the
        current end zero-fills the gap, POSIX-style.  Boundary blocks are
        read-modify-written; everything moves through the batched
        scatter-gather path.
        """
        if offset < 0:
            raise ValueError(f"negative write offset {offset}")
        if not data:
            return
        with self._update():
            self._write_extent(offset, data)

    def _write_extent(self, offset: int, data: bytes) -> None:
        volume = self._volume
        # A view keeps the overlay slices below zero-copy whatever the
        # caller handed us (bytes, bytearray, or a wire-frame view).
        data = memoryview(data)
        room = blockio.capacity(volume.block_size)
        new_size = max(self._header.size, offset + len(data))
        old_data, _chain = self._mapped_blocks()
        pool_before = list(self._header.pool)
        data_blocks, chain_blocks = self._remap(-(-new_size // room))

        first = offset // room
        last = (offset + len(data) - 1) // room
        # Boundary blocks that survive from the old mapping keep their
        # bytes outside the extent: fetch them in one batched read.
        # (Sealed padding decrypts to zeros, so the gap between old EOF
        # and `offset` inside a fetched block already reads as zeros.)
        preserve: set[int] = set()
        if offset % room and first < len(old_data):
            preserve.add(first)
        if (offset + len(data)) % room and last < len(old_data):
            preserve.add(last)
        old_payloads: dict[int, bytes] = {}
        if preserve:
            fetch = sorted(preserve)
            images = volume.device.read_blocks([old_data[b] for b in fetch])
            for logical, payload in zip(
                fetch, blockio.unseal_many(self._keys.encryption_key, images)
            ):
                old_payloads[logical] = payload

        # Newly materialised blocks below the extent (a write far past the
        # old end) are the zero-filled gap; the extent's own blocks carry
        # the overlay of `data` on whatever is preserved.
        targets = list(range(len(old_data), first)) + list(range(first, last + 1))
        chunks: list[bytes] = []
        for logical in targets:
            block_start = logical * room
            content_len = min(room, new_size - block_start)
            piece = bytearray(old_payloads.get(logical, b"").ljust(room, b"\x00"))
            lo = max(offset, block_start)
            hi = min(offset + len(data), block_start + room)
            if lo < hi:
                piece[lo - block_start : hi - block_start] = data[lo - offset : hi - offset]
            chunks.append(bytes(piece[:content_len]))
        sealed = blockio.seal_many(self._keys.encryption_key, chunks, volume.block_size, volume.rng)
        volume.device.write_blocks(
            [(data_blocks[logical], image) for logical, image in zip(targets, sealed)]
        )
        self._settle(data_blocks, chain_blocks, new_size, pool_before)

    def append(self, data: bytes) -> None:
        """Append ``data`` via :meth:`write_extent` at the current end —
        no whole-object rewrite."""
        if data:
            self.write_extent(self.size, data)

    # ------------------------------------------------------------------
    # internal pool management (§3.1)
    # ------------------------------------------------------------------

    def _take_block(self) -> int:
        """Draw one block for data/inode use, maintaining pool bounds."""
        volume = self._volume
        pool = self._header.pool
        if not pool:
            return volume.take_free_blocks(1)[0]
        block = pool.pop(volume.rng.randrange(len(pool)))
        if len(pool) < volume.params.pool_min:
            # "the internal pool is topped up" — best effort: a full volume
            # must not fail the write itself.
            pool.extend(
                volume.take_free_blocks_best_effort(volume.params.pool_max - len(pool))
            )
        return block

    def _give_block(self, block: int) -> None:
        """Return a no-longer-needed block to the pool, spilling above ρ_max."""
        volume = self._volume
        pool = self._header.pool
        pool.append(block)
        while len(pool) > volume.params.pool_max:
            victim = pool.pop(volume.rng.randrange(len(pool)))
            volume.release_blocks([victim])

    def _resize(self, blocks: list[int], target: int) -> list[int]:
        blocks = list(blocks)
        while len(blocks) < target:
            blocks.append(self._take_block())
        while len(blocks) > target:
            self._give_block(blocks.pop())
        return blocks

    def _remap(self, n_data: int) -> tuple[list[int], list[int]]:
        """The block map resized to ``n_data`` data blocks, through the pool.

        Raises :class:`NoSpaceError` before anything changes.
        """
        old_data, old_chain = self._mapped_blocks()
        n_chain = hidden_inode.chain_blocks_needed(n_data, self._volume.block_size)
        growth = max(0, n_data - len(old_data)) + max(0, n_chain - len(old_chain))
        from_fs = max(0, growth - len(self._header.pool))
        if from_fs > self._volume.bitmap.free_count:
            raise NoSpaceError(
                f"write needs {from_fs} free blocks, only "
                f"{self._volume.bitmap.free_count} remain"
            )
        return self._resize(old_data, n_data), self._resize(old_chain, n_chain)

    def _settle(
        self, data_blocks: list[int], chain_blocks: list[int], size: int, pool_before: list[int]
    ) -> None:
        """Persist whatever of the map and the header an update changed.

        The chain is rewritten when the map moved; the header when size,
        root or pool did (a pool that changed must reach the disk, or its
        blocks leak on the next mount).  The contents changed either way,
        so the parsed listing goes.
        """
        header = self._header
        root = header.inode_root
        if (data_blocks, chain_blocks) != self._mapped_blocks():
            root = hidden_inode.write_chain(
                self._volume.device,
                self._keys.encryption_key,
                chain_blocks,
                data_blocks,
                self._volume.rng,
            )
            self._map = (data_blocks, chain_blocks)
        self._listing = None
        if (size, root, header.pool) != (header.size, header.inode_root, pool_before):
            header.size, header.inode_root = size, root
            self._store_header()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Be the table's entry for this object before trusting any state.

        The usual case is one dictionary probe.  A handle that is no longer
        the entry finds its header again — raising
        :class:`HiddenObjectNotFoundError` for a deleted or re-keyed object
        — forgets map and listing, and takes the entry over.
        """
        if not self._volume.objects.holds(self):
            self._header_block, self._header = _find(self._volume, self._keys)
            self._map = self._listing = None
            self._volume.objects.enter(self)

    @contextmanager
    def _update(self) -> Iterator[None]:
        """Transaction scope of one update of the object, in core and on disk."""
        self._sync()
        try:
            with self._volume.transaction():
                yield
        except BaseException:
            # Pool, map or header may be half-changed; an enclosing
            # transaction that survives (or a bare device, which has none)
            # must not meet this state again.
            self._volume.objects.discard(self)
            raise

    def _mapped_blocks(self) -> tuple[list[int], list[int]]:
        """``(data_blocks, chain_blocks)``, walked once; treat as read-only."""
        # Through a local: another reader re-finding this same handle may
        # reset the attribute between the test and the return.
        mapped = self._map
        if mapped is None:
            root = self._header.inode_root
            mapped = self._map = (
                ([], [])
                if root == NULL_BLOCK
                else hidden_inode.read_chain(
                    self._volume.device, self._keys.encryption_key, root
                )
            )
        return mapped

    def _store_header(self) -> None:
        payload = self._header.to_bytes()
        self._volume.device.write_block(
            self._header_block,
            blockio.seal(
                self._keys.encryption_key, payload, self._volume.block_size, self._volume.rng
            ),
        )
