"""The write-ahead journal: a reserved on-disk redo log for atomic mutations.

A volume reserves a small region of blocks (between the inode table and the
data region, see :mod:`repro.fs.layout`) for a **physical redo journal**.
Every transaction the stack commits (see :mod:`repro.storage.txn`) first
lands here as one checksummed, sequence-numbered record carrying the full
images of every block the transaction writes; only after the record is
durable may the blocks be written in place — which the transaction manager
does not do at once but in address-ordered write-back sweeps, the last of
them at the checkpoint that retires the record.  A crash at *any* point
then leaves the volume recoverable: on mount, :meth:`Journal.recover`
redo-replays every intact record and discards the torn tail.

On-disk format
--------------

The region's first two blocks are alternating **header slots** (a classic
ping-pong pair, so a torn header write can never lose the valid one)::

    magic "STEGJHDR" | version u16 | counter u64 | next_seq u64 | sha256[:16]

``counter`` picks the newest valid slot; ``next_seq`` is the sequence number
expected at offset 0 of the record area.  The remaining blocks hold records
appended back to back::

    descriptor block(s):
        magic "STEGJREC" | seq u64 | n_writes u32 | digest sha256(32)
        | block_index u64 × n_writes        (padded to whole blocks)
    image blocks:
        n_writes full block images, in descriptor order

``digest`` covers the sequence number, the indices and every image, so a
record is either provably complete or it (and everything after it) is
discarded as a torn tail.  Sequence numbers increase monotonically for the
life of the volume and must run contiguously during a scan — a stale record
surviving from before the last checkpoint can never be mistaken for live
tail because its sequence number cannot match the expected one.  Recovery
keeps that true of the records it discards: it skips ``next_seq`` past every
number the record area could still hold (see :meth:`Journal.recover`).

Checkpoints (:meth:`Journal.reset`) make the record area reusable: the
caller first makes all in-place writes durable, then the header advances
``next_seq`` past every record written so far, after which the area is
logically empty and appends restart at offset 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.sha256 import sha256
from repro.errors import JournalError
from repro.storage.block_device import BlockDevice

__all__ = ["Journal", "RecoveryReport", "record_blocks_needed"]

_HEADER_MAGIC = b"STEGJHDR"
_RECORD_MAGIC = b"STEGJREC"
_VERSION = 1

_HEADER_FMT = "<8sHQQ"  # magic, version, counter, next_seq
_HEADER_SIZE = struct.calcsize(_HEADER_FMT) + 16  # + truncated sha256
_DESC_FIXED = len(_RECORD_MAGIC) + 8 + 4 + 32  # magic, seq, n, digest

#: Header slots at the front of the journal region.
HEADER_SLOTS = 2

#: Smallest journal that can hold the headers plus one single-block record.
MIN_JOURNAL_BLOCKS = HEADER_SLOTS + 2


def record_blocks_needed(n_writes: int, block_size: int) -> int:
    """Blocks one record of ``n_writes`` block images occupies on disk."""
    desc_bytes = _DESC_FIXED + 8 * n_writes
    return -(-desc_bytes // block_size) + n_writes


def _record_digest(seq: int, writes: list[tuple[int, bytes]]) -> bytes:
    hasher_input = bytearray(struct.pack("<QI", seq, len(writes)))
    for index, _ in writes:
        hasher_input += struct.pack("<Q", index)
    for _, image in writes:
        hasher_input += image
    return sha256(hasher_input)


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`Journal.recover` found and did."""

    records_replayed: int
    blocks_replayed: int
    torn_tail: bool
    """Whether the scan stopped at an incomplete (torn) record rather than
    at the logical end of the journal."""

    @property
    def clean(self) -> bool:
        """Whether the volume was shut down cleanly (nothing to replay)."""
        return self.records_replayed == 0 and not self.torn_tail


class Journal:
    """One volume's write-ahead journal over a reserved block region.

    The journal performs plain buffered writes only; durability barriers
    (``device.flush``) are the transaction manager's job, so group commit
    can amortise one fsync over many appended records.
    """

    def __init__(
        self, device: BlockDevice, start_block: int, n_blocks: int, block_size: int
    ) -> None:
        if n_blocks < MIN_JOURNAL_BLOCKS:
            raise JournalError(
                f"journal of {n_blocks} blocks is too small "
                f"(minimum {MIN_JOURNAL_BLOCKS})"
            )
        self._device = device
        self._start = start_block
        self._n_blocks = n_blocks
        self._block_size = block_size
        self._counter = 0
        self._next_seq = 1  # sequence number the next append will use
        self._offset = 0  # next free block in the record area
        self._base_seq = 1  # sequence number expected at offset 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def capacity_blocks(self) -> int:
        """Record-area size in blocks (region minus the header slots)."""
        return self._n_blocks - HEADER_SLOTS

    @property
    def free_blocks(self) -> int:
        """Record-area blocks still free before a checkpoint is needed."""
        return self.capacity_blocks - self._offset

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will carry."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record (0 if none)."""
        return self._next_seq - 1

    def fits(self, n_writes: int) -> bool:
        """Whether a record of ``n_writes`` images can ever fit this journal."""
        return record_blocks_needed(n_writes, self._block_size) <= self.capacity_blocks

    def _data_block(self, offset: int) -> int:
        return self._start + HEADER_SLOTS + offset

    # ------------------------------------------------------------------
    # header slots
    # ------------------------------------------------------------------

    def _header_image(self) -> bytes:
        body = struct.pack(
            _HEADER_FMT, _HEADER_MAGIC, _VERSION, self._counter, self._next_seq
        )
        return (body + sha256(body)[:16]).ljust(self._block_size, b"\x00")

    @staticmethod
    def _parse_header(raw: bytes) -> tuple[int, int] | None:
        body = raw[: struct.calcsize(_HEADER_FMT)]
        magic, version, counter, next_seq = struct.unpack(_HEADER_FMT, body)
        if magic != _HEADER_MAGIC or version != _VERSION:
            return None
        checksum = raw[len(body) : len(body) + 16]
        if checksum != sha256(body)[:16]:
            return None
        return counter, next_seq

    def _write_header(self) -> None:
        """Write the newest header into the slot the older counter owns."""
        slot = self._counter % HEADER_SLOTS
        self._device.write_block(self._start + slot, self._header_image())

    def format(self) -> None:
        """Initialise the region: one valid slot, one invalid, empty log.

        The valid slot is the one ``counter % HEADER_SLOTS`` names, so the
        first :meth:`reset` ping-pongs into the *other* slot — a torn
        header write can only ever hit the copy being superseded.
        """
        self._counter = 1
        self._next_seq = 1
        self._base_seq = 1
        self._offset = 0
        for slot in range(HEADER_SLOTS):
            if slot != self._counter % HEADER_SLOTS:
                self._device.write_block(
                    self._start + slot, b"\x00" * self._block_size
                )
        self._write_header()

    def load(self) -> None:
        """Read header state (newest valid slot).  Does not replay records;
        callers that may hold a dirty log run :meth:`recover` instead."""
        best: tuple[int, int] | None = None
        for slot in range(HEADER_SLOTS):
            parsed = self._parse_header(self._device.read_block(self._start + slot))
            if parsed is not None and (best is None or parsed[0] > best[0]):
                best = parsed
        if best is None:
            raise JournalError("journal header is missing or corrupt (both slots)")
        self._counter, self._next_seq = best
        self._base_seq = self._next_seq
        self._offset = 0

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------

    def append(self, writes: list[tuple[int, bytes]]) -> int:
        """Append one record; returns its sequence number.

        The caller guarantees the record fits (:attr:`free_blocks`) and
        provides full ``block_size`` images.  The append is a buffered
        write — it becomes durable at the next device flush.
        """
        if not writes:
            raise JournalError("refusing to append an empty record")
        needed = record_blocks_needed(len(writes), self._block_size)
        if needed > self.free_blocks:
            raise JournalError(
                f"record of {needed} blocks exceeds free journal space "
                f"({self.free_blocks} blocks); checkpoint first"
            )
        seq = self._next_seq
        desc = bytearray(_RECORD_MAGIC)
        desc += struct.pack("<QI", seq, len(writes))
        desc += _record_digest(seq, writes)
        for index, _ in writes:
            desc += struct.pack("<Q", index)
        desc_blocks = -(-len(desc) // self._block_size)
        desc = bytes(desc).ljust(desc_blocks * self._block_size, b"\x00")

        items: list[tuple[int, bytes]] = []
        for i in range(desc_blocks):
            items.append(
                (
                    self._data_block(self._offset + i),
                    desc[i * self._block_size : (i + 1) * self._block_size],
                )
            )
        for i, (_, image) in enumerate(writes):
            items.append((self._data_block(self._offset + desc_blocks + i), image))
        self._device.write_blocks(items)
        self._offset += needed
        self._next_seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Advance the header past every appended record and restart at 0.

        The caller must have made all in-place writes durable first (the
        records being retired are the only redo copies).  The header write
        is flushed before returning, so no subsequent append can overwrite
        a record the header still points at.
        """
        self._counter += 1
        self._base_seq = self._next_seq
        self._write_header()
        self._device.flush()
        self._offset = 0

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _scan(self) -> tuple[list[tuple[int, list[tuple[int, bytes]]]], bool]:
        """Parse the record area from offset 0: ``([(seq, writes)], torn)``.

        Stops at the first record that is missing, malformed, out of
        sequence, or fails its digest — everything from there on is either
        pre-checkpoint garbage (wrong sequence number: not torn) or a
        half-written tail (torn).
        """
        records: list[tuple[int, list[tuple[int, bytes]]]] = []
        offset = 0
        expected = self._base_seq
        bs = self._block_size
        while offset < self.capacity_blocks:
            first = self._device.read_block(self._data_block(offset))
            if first[: len(_RECORD_MAGIC)] != _RECORD_MAGIC:
                return records, False
            try:
                seq, count = struct.unpack(
                    "<QI", first[len(_RECORD_MAGIC) : len(_RECORD_MAGIC) + 12]
                )
            except struct.error:  # pragma: no cover — block_size >= fixed part
                return records, True
            if seq != expected:
                # A record from before the last checkpoint: logical end.
                return records, False
            if count == 0 or not self.fits(count):
                return records, True
            needed = record_blocks_needed(count, bs)
            if offset + needed > self.capacity_blocks:
                return records, True
            digest = first[len(_RECORD_MAGIC) + 12 : len(_RECORD_MAGIC) + 44]
            desc_bytes = _DESC_FIXED + 8 * count
            desc_blocks = -(-desc_bytes // bs)
            desc = first + b"".join(
                self._device.read_blocks(
                    [self._data_block(offset + i) for i in range(1, desc_blocks)]
                )
            )
            indices = [
                struct.unpack_from("<Q", desc, _DESC_FIXED + 8 * i)[0]
                for i in range(count)
            ]
            images = self._device.read_blocks(
                [self._data_block(offset + desc_blocks + i) for i in range(count)]
            )
            writes = list(zip(indices, images))
            if _record_digest(seq, writes) != digest:
                return records, True
            records.append((seq, writes))
            offset += needed
            expected += 1
        return records, False

    def recover(self) -> RecoveryReport:
        """Redo-replay every intact record, then reset the journal.

        Replay is idempotent (records carry full block images and are
        applied in sequence order), so recovering twice — or recovering a
        journal whose in-place writes already landed — is harmless.  The
        device is flushed after replay and again by :meth:`reset`, so a
        recovered volume is durable before the first new mutation.
        """
        self.load()
        records, torn = self._scan()
        blocks = 0
        for _seq, writes in records:
            # Replayed images may target any volume block, including the
            # superblock and bitmap; later records win by apply order.
            valid = [
                (index, image)
                for index, image in writes
                if 0 <= index < self._device.total_blocks
            ]
            self._device.write_blocks(valid)
            blocks += len(valid)
        if records:
            self._next_seq = records[-1][0] + 1
        # Whatever lay behind the point where the scan stopped is discarded
        # but stays on the platter, and the scan cannot tell an empty tail
        # from one whose first block never landed.  An intact record there
        # (two group commits were in flight) carries a sequence number this
        # log would otherwise reach again, right when a new record ends in
        # front of it.  No record is shorter than two blocks, so none in the
        # area is numbered ``capacity_blocks`` or more past the last replayed.
        self._next_seq += self.capacity_blocks
        self._device.flush()
        self.reset()
        return RecoveryReport(
            records_replayed=len(records), blocks_replayed=blocks, torn_tail=torn
        )
