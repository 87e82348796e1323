"""Transactions over the write-ahead journal: staging, commit, group fsync.

Every mutation path in the stack (plain metadata, hidden files, dummies)
runs inside a :class:`Transaction`: block writes are *staged* in memory and
reach the device only at commit, as one journal record; the in-place
writes follow later, in address-ordered sweeps.  Three pieces cooperate:

* :class:`Transaction` — an ordered ``index → image`` staging buffer with
  read-your-writes semantics (later stages of one operation see earlier
  ones, e.g. two inodes patched into the same table block).
* :class:`TransactionManager` — owns the journal, the **overlay**
  (committed images not yet written in place, where every read resolves
  them), the **group-commit** fsync protocol — the first waiter becomes
  leader, flushes the device once, and that single fsync acknowledges
  every record appended before it — and the **write-back** of durable
  overlay images.  Checkpoints retire the journal once its in-place writes
  are durable.
* :class:`JournaledDevice` — a :class:`~repro.storage.block_device.
  BlockDevice` adapter the file-system layers talk to: writes issued inside
  a transaction scope are staged; reads resolve active-transaction staging,
  then the overlay, then the backing device.  Writes issued *outside* any
  scope (mkfs initialisation, random fill) pass straight through.

Commit ordering (the WAL invariant)::

    stage → journal append → [fsync] → ack → … → write-back sweep → …
        → checkpoint: sweep the rest, fsync, header reset, fsync

An image reaches its home block only once its record is durable, so a
crash can never leave a half-applied multi-block mutation: either the
record is intact on disk (replay redoes the writes) or the mutation never
happened.  Durable images are not written after every commit: they wait in
the overlay until :data:`WRITE_BACK_BATCH` of them are pending — or a
quarter of the log, if that is less — and the fsync leader then writes
them in one ascending sweep (an elevator pass: short seeks, neighbouring
blocks merged into one request, a block committed several times while
pending written once).  Every overlay image has a copy in the live log, so
the overlay never outgrows the journal's record area, and a checkpoint
empties both.

Oversized transactions (a record bigger than the whole journal) fall back
to a **bypass commit**: checkpoint, write in place, flush.  That keeps huge
writes correct (durable at ack) at naive-fsync speed instead of failing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import JournalError
from repro.obs.metrics import get_registry, percentile
from repro.obs.trace import maybe_span
from repro.storage.block_device import BlockDevice
from repro.storage.journal import Journal, RecoveryReport, record_blocks_needed

__all__ = [
    "JournalMetrics",
    "JournaledDevice",
    "Transaction",
    "TransactionManager",
    "TxnStats",
]

#: Group-commit batch sizes kept for percentile estimation.
_BATCH_RESERVOIR = 1024

#: Overlay images at which a group fsync is followed by a write-back sweep.
#: Large enough that a sweep's seeks are short and its neighbours merge,
#: small enough to bound both the stall of the commit that pays for it and
#: the in-place traffic that can slide past a measurement window's ends.
#: On a log too small to hold four such batches the bound is a quarter of
#: the log instead (see :meth:`TransactionManager._write_back_due`).
WRITE_BACK_BATCH = 128


@dataclass(frozen=True)
class JournalMetrics:
    """Point-in-time journal/commit counters (see :class:`TxnStats`)."""

    commits: int
    fsyncs: int
    bypass_commits: int
    checkpoints: int
    blocks_journaled: int
    records_replayed: int
    batch_p50: float
    batch_p95: float
    max_batch: int

    @property
    def commits_per_fsync(self) -> float:
        """Mean group-commit amortisation (1.0 = naive per-commit fsync)."""
        return self.commits / self.fsyncs if self.fsyncs else 0.0


class TxnStats:
    """Thread-safe journal/commit counters with batch-size percentiles.

    Every ``note_*`` call also mirrors onto the process metric registry
    as ``journal.*`` counters, so remote ``obs_metrics`` sees journal
    behaviour without a separate snapshot plumbing path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.commits = 0
        self.fsyncs = 0
        self.bypass_commits = 0
        self.checkpoints = 0
        self.blocks_journaled = 0
        self.records_replayed = 0
        self._batches: list[int] = []

    @staticmethod
    def _mirror(name: str, by: int = 1) -> None:
        get_registry().counter(f"journal.{name}").inc(by)

    def note_commit(self, n_blocks: int) -> None:
        """Account one journal-append commit of ``n_blocks`` images."""
        with self._lock:
            self.commits += 1
            self.blocks_journaled += n_blocks
        self._mirror("commits")
        self._mirror("blocks_journaled", n_blocks)

    def note_bypass(self) -> None:
        """Account one oversized commit that bypassed the journal."""
        with self._lock:
            self.bypass_commits += 1
        self._mirror("bypass_commits")

    def note_checkpoint(self) -> None:
        """Account one journal checkpoint (in-place flush + header reset)."""
        with self._lock:
            self.checkpoints += 1
        self._mirror("checkpoints")

    def note_fsync(self, batch: int) -> None:
        """Account one durability barrier covering ``batch`` commits."""
        with self._lock:
            self.fsyncs += 1
            if batch > 0:
                if len(self._batches) < _BATCH_RESERVOIR:
                    self._batches.append(batch)
                else:  # cheap sliding window: recent behaviour dominates
                    self._batches[self.fsyncs % _BATCH_RESERVOIR] = batch
        self._mirror("fsyncs")
        get_registry().histogram(
            "journal.fsync_batch",
            "commits acknowledged per group fsync",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        ).observe(batch)

    def note_recovery(self, report: RecoveryReport) -> None:
        """Account a mount-time replay."""
        with self._lock:
            self.records_replayed += report.records_replayed
        self._mirror("records_replayed", report.records_replayed)

    def snapshot(self) -> JournalMetrics:
        """Immutable copy of every counter, with batch percentiles."""
        with self._lock:
            batches = sorted(self._batches)
            return JournalMetrics(
                commits=self.commits,
                fsyncs=self.fsyncs,
                bypass_commits=self.bypass_commits,
                checkpoints=self.checkpoints,
                blocks_journaled=self.blocks_journaled,
                records_replayed=self.records_replayed,
                batch_p50=percentile(batches, 50.0),
                batch_p95=percentile(batches, 95.0),
                max_batch=batches[-1] if batches else 0,
            )


class Transaction:
    """Staged block writes of one logical mutation (insertion-ordered)."""

    __slots__ = ("_staged",)

    def __init__(self) -> None:
        self._staged: dict[int, bytes] = {}

    def __len__(self) -> int:
        return len(self._staged)

    def stage(self, index: int, data: bytes) -> None:
        """Stage one block image; a later stage of the same index wins."""
        # Preserve first-write order for the journal record while letting
        # the latest image win (dict semantics do exactly this).
        self._staged[index] = bytes(data)

    def get(self, index: int) -> bytes | None:
        """The staged image for ``index``, if any (read-your-writes)."""
        return self._staged.get(index)

    def writes(self) -> list[tuple[int, bytes]]:
        """Staged ``(index, image)`` pairs in first-write order."""
        return list(self._staged.items())


class TransactionManager:
    """Commit protocol tying transactions, the journal and the device.

    ``sync_on_commit=True`` gives standalone durability: every outermost
    commit blocks until its record is fsynced (one fsync per operation).
    With ``sync_on_commit=False`` the commit only appends; a front end that
    promises durable acks calls :meth:`wait_durable` *after releasing its
    locks*, which is what lets one fsync cover many clients' commits
    (group commit).  Without a journal (``journal=None``) commits write
    straight through — the pre-journal behaviour, kept for trace-calibrated
    baselines.

    Transaction scopes are re-entrant but not concurrent: the caller
    serialises mutations (the service layer's exclusive volume lock, or
    single-threaded use).  ``wait_durable`` and overlay write-back are
    safe from any thread.
    """

    def __init__(
        self,
        device: BlockDevice,
        journal: Journal | None,
        sync_on_commit: bool = True,
    ) -> None:
        self._device = device
        self._journal = journal
        self.sync_on_commit = sync_on_commit
        self.stats = TxnStats()
        self._active: Transaction | None = None
        self._depth = 0
        self._abort_hooks: list[Callable[[], None]] = []
        self._last_commit_seq = 0
        # Committed images not yet in place, index → (seq, image).  Reads
        # resolve through this until the in-place write has landed.
        self._overlay: dict[int, tuple[int, bytes]] = {}
        self._overlay_lock = threading.Lock()
        # Serialises write-back (leaders and checkpoints): two concurrent
        # sweeps could otherwise write a stale snapshot over a newer image
        # after its overlay entry was already retired.
        self._write_back_lock = threading.Lock()
        self._sync_cond = threading.Condition()
        # Records a journal carries when it is handed over were read from
        # the device, so they are durable.
        self._durable_seq = journal.last_seq if journal is not None else 0
        self._sync_in_flight = False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def journal(self) -> Journal | None:
        """The underlying journal (None in bypass/legacy mode)."""
        return self._journal

    @property
    def device(self) -> BlockDevice:
        """The backing device commits apply to."""
        return self._device

    @property
    def last_commit_seq(self) -> int:
        """Sequence number of the most recent journal commit (0 if none)."""
        return self._last_commit_seq

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction scope is currently open."""
        return self._depth > 0

    # ------------------------------------------------------------------
    # transaction scopes
    # ------------------------------------------------------------------

    def add_abort_hook(self, hook: Callable[[], None]) -> None:
        """Call ``hook`` whenever an outermost transaction aborts.

        For in-core state that mirrors staged blocks (the hidden layer's
        open-object table): the journal just discarded what it described.
        """
        self._abort_hooks.append(hook)

    def _aborted(self) -> None:
        for hook in self._abort_hooks:
            hook()

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Open (or join) a transaction scope.

        Nested scopes join the outermost transaction; only the outermost
        exit commits.  An exception aborts the whole transaction: every
        staged write is discarded, nothing reaches the device, and the
        abort hooks run — as they do when the commit itself fails.
        """
        if self._depth == 0:
            self._active = Transaction()
        self._depth += 1
        try:
            yield self._active  # type: ignore[misc]
        except BaseException:
            self._depth -= 1
            if self._depth == 0:
                self._active = None  # abort: discard staged writes
                self._aborted()
            raise
        self._depth -= 1
        if self._depth == 0:
            txn, self._active = self._active, None
            try:
                self.commit(txn)  # type: ignore[arg-type]
            except BaseException:
                self._aborted()
                raise

    # ------------------------------------------------------------------
    # read resolution (for JournaledDevice)
    # ------------------------------------------------------------------

    def resolve(self, index: int) -> bytes | None:
        """The logically-current image for ``index``, if not yet in place."""
        if self._active is not None:
            staged = self._active.get(index)
            if staged is not None:
                return staged
        with self._overlay_lock:
            entry = self._overlay.get(index)
        if entry is None:
            return None
        get_registry().counter("journal.overlay.read_hits").inc()
        return entry[1]

    def pending_images(self) -> dict[int, bytes]:
        """Every image not yet in place: active staging over the overlay."""
        with self._overlay_lock:
            pending = {index: entry[1] for index, entry in self._overlay.items()}
        if self._active is not None:
            pending.update(self._active.writes())
        return pending

    def stage(self, index: int, data: bytes) -> bool:
        """Stage into the active transaction; False if no scope is open."""
        if self._active is None:
            return False
        self._active.stage(index, data)
        return True

    # ------------------------------------------------------------------
    # commit protocol
    # ------------------------------------------------------------------

    def commit(self, txn: Transaction) -> int | None:
        """Commit a transaction; returns its journal sequence (or None).

        Empty transactions are free.  Without a journal this degenerates
        to one batched in-place write (plus fsync if ``sync_on_commit``).
        """
        writes = txn.writes()
        if not writes:
            return None
        if self._journal is None:
            self._device.write_blocks(writes)
            if self.sync_on_commit:
                self._device.flush()
            return None
        with maybe_span("journal.commit", blocks=len(writes)):
            if not self._journal.fits(len(writes)):
                # Oversized transaction: journal cannot make it atomic, but a
                # checkpoint-bracketed direct write keeps it durable and keeps
                # every *other* record replayable.
                self.stats.note_bypass()
                self.checkpoint()
                self._device.write_blocks(sorted(writes))
                self._device.flush()
                return None
            needed = record_blocks_needed(len(writes), self._device.block_size)
            if needed > self._journal.free_blocks:
                self.checkpoint()
            seq = self._journal.append(writes)
            with self._overlay_lock:
                before = len(self._overlay)
                for index, image in writes:
                    self._overlay[index] = (seq, image)
                grown = len(self._overlay) - before
            get_registry().gauge("journal.overlay.blocks").add(grown)
            self._last_commit_seq = seq
            self.stats.note_commit(len(writes))
            if self.sync_on_commit:
                self.wait_durable(seq)
            return seq

    def wait_durable(self, seq: int) -> None:
        """Block until journal record ``seq`` is durable (group commit).

        The first thread to find the record non-durable becomes the fsync
        leader; it captures the newest appended sequence, flushes the
        device once, and publishes durability for everything appended
        before the flush.  Threads arriving meanwhile wait on the shared
        condition — their records ride the in-flight (or the next) fsync.
        A leader that finds a batch of images in the overlay (all durable
        now, but for commits that raced its flush) pays for their
        write-back sweep before it returns.
        """
        if self._journal is None or seq <= 0:
            return
        while True:
            with self._sync_cond:
                while self._durable_seq < seq and self._sync_in_flight:
                    self._sync_cond.wait()
                if self._durable_seq >= seq:
                    return
                self._sync_in_flight = True
                target = self._journal.last_seq
                already = self._durable_seq
            try:
                with maybe_span("journal.fsync", batch=target - already):
                    fsync_started = time.perf_counter()
                    self._device.flush()
                    get_registry().histogram(
                        "journal.fsync_ms",
                        "wall time of one group-commit device flush",
                    ).observe((time.perf_counter() - fsync_started) * 1000.0)
            finally:
                with self._sync_cond:
                    self._sync_in_flight = False
                    if target > self._durable_seq:
                        self.stats.note_fsync(batch=target - already)
                        self._durable_seq = target
                    self._sync_cond.notify_all()
            if self._write_back_due():
                self._write_back()
            if target >= seq:
                return

    def _write_back_due(self) -> bool:
        """Whether the overlay holds a sweep's worth of images.

        A batch is :data:`WRITE_BACK_BATCH` images, and never more than a
        quarter of the record area (rounded up): a bound the log cannot
        reach bounds nothing — the sweep would be the checkpoint, and a
        whole log of in-place traffic, and which recently written objects
        a read still finds in RAM, would hang on where the log fills fall.
        """
        quarter_log = -(-self._journal.capacity_blocks // 4)
        return len(self._overlay) >= min(WRITE_BACK_BATCH, quarter_log)

    def _write_back(self) -> None:
        """Write every durable overlay image in place, in one ascending sweep.

        Concurrent readers keep resolving through the overlay until an
        entry is removed, and removal only happens after its image landed,
        so both paths observe identical bytes.  An entry a newer commit
        replaced meanwhile stays: its image is not the one that landed.
        ``_write_back_lock`` serialises sweeps end to end: without it, one
        could stall between snapshot and write, then clobber a *newer*
        image another already wrote and retired.
        """
        with self._write_back_lock:
            with self._overlay_lock:
                durable = self._durable_seq
                # Ascending block order: one pass of the disk arm.
                ready = sorted(
                    item for item in self._overlay.items() if item[1][0] <= durable
                )
            if not ready:
                return
            with maybe_span("journal.writeback", blocks=len(ready)):
                self._device.write_blocks([(index, entry[1]) for index, entry in ready])
            with self._overlay_lock:
                before = len(self._overlay)
                for index, entry in ready:
                    if self._overlay.get(index) is entry:
                        del self._overlay[index]
                retired = before - len(self._overlay)
            registry = get_registry()
            registry.counter("journal.writeback.sweeps").inc()
            registry.counter("journal.writeback.blocks").inc(len(ready))
            registry.gauge("journal.overlay.blocks").add(-retired)

    # ------------------------------------------------------------------
    # checkpoint / flush
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Retire the journal: make everything durable, reset the log.

        Sequence: fsync (records durable; skipped when they all are) →
        write back every overlay image → fsync (in-place durable) → header
        reset (flushed).  After this the record area is empty and its
        space is reusable.
        """
        if self._journal is None:
            self._device.flush()
            return
        if self.in_transaction:
            raise JournalError("cannot checkpoint with a transaction open")
        # Serialise with any in-flight group fsync so the leader's durable
        # bookkeeping cannot race the reset.
        with self._sync_cond:
            while self._sync_in_flight:
                self._sync_cond.wait()
            self._sync_in_flight = True
        try:
            with maybe_span("journal.checkpoint"):
                # No commit can race a checkpoint (the caller serialises
                # mutations), so once the tail is durable every overlay
                # image is, and one sweep empties the overlay.
                last = self._journal.last_seq
                if self._durable_seq < last:
                    self._device.flush()
                    with self._sync_cond:
                        self._durable_seq = last
                self._write_back()
                self._device.flush()
                self._journal.reset()
                self.stats.note_checkpoint()
        finally:
            with self._sync_cond:
                self._sync_in_flight = False
                self._sync_cond.notify_all()

    def flush(self) -> None:
        """Full durability barrier: every committed write durable in place."""
        self.checkpoint()


class JournaledDevice(BlockDevice):
    """Device adapter routing writes through the transaction manager.

    Upper layers (the plain file system, the hidden layer) are handed this
    device; inside a transaction scope their writes are staged, and their
    reads observe staged and committed-but-not-yet-in-place images.
    Outside a scope it behaves exactly like the backing device.
    """

    def __init__(self, backing: BlockDevice, manager: TransactionManager) -> None:
        super().__init__(backing.block_size, backing.total_blocks)
        self._backing = backing
        self._manager = manager

    @property
    def manager(self) -> TransactionManager:
        """The transaction manager writes are staged into."""
        return self._manager

    @property
    def backing(self) -> BlockDevice:
        """The raw device beneath the journal."""
        return self._backing

    def read_block(self, index: int) -> bytes:
        self._check(index)
        resolved = self._manager.resolve(index)
        if resolved is not None:
            return resolved
        return self._backing.read_block(index)

    def write_block(self, index: int, data: bytes) -> None:
        self._check(index)
        if len(data) != self._block_size:
            raise ValueError(
                f"write of {len(data)} bytes to device with "
                f"{self._block_size}-byte blocks"
            )
        if not self._manager.stage(index, data):
            self._backing.write_block(index, data)

    def read_blocks(self, indices: Iterable[int]) -> list[bytes]:
        indices = self._check_batch_read(indices)
        resolved: dict[int, bytes] = {}
        missing: list[int] = []
        for index in indices:
            image = self._manager.resolve(index)
            if image is not None:
                resolved[index] = image
            else:
                missing.append(index)
        if missing:
            # Address order, whatever order the caller wants them back in.
            missing = sorted(set(missing))
            for index, image in zip(missing, self._backing.read_blocks(missing)):
                resolved[index] = image
        return [resolved[index] for index in indices]

    def write_blocks(self, items: Iterable[tuple[int, bytes]]) -> None:
        items = self._check_batch_write(items)
        if self._manager.in_transaction:
            for index, data in items:
                self._manager.stage(index, data)
        else:
            self._backing.write_blocks(items)

    def fill_random(self, rng) -> None:  # noqa: ANN001 — matches base signature
        self._backing.fill_random(rng)

    def image(self) -> bytes:
        """Logical image: backing bytes patched with every pending write."""
        # Pending first: an image retired in between has landed by then.
        pending = self._manager.pending_images()
        raw = bytearray(self._backing.image())
        bs = self._block_size
        for index, data in pending.items():
            raw[index * bs : (index + 1) * bs] = data
        return bytes(raw)

    def flush(self) -> None:
        """Durability barrier: checkpoint the journal, fsync the backing."""
        self._manager.flush()

    def close(self) -> None:
        if not self._closed:
            self._manager.flush()
            self._backing.close()
        super().close()
