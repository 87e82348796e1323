"""Model-based crash testing of the transaction manager's write-back.

A hypothesis state machine drives one :class:`TransactionManager` over a
:class:`CrashInjectionDevice` — commit, ``wait_durable``, ``checkpoint``,
power cuts armed on the n-th write or the n-th barrier, plain power loss —
against a dict model, on a log small enough (24 record blocks, so a
write-back batch of 6 images) that sweeps happen inside a short run.

After every crash the device is reincarnated (each un-flushed block
survives by a seeded coin, the fatal write torn) and the journal
recovered.  The property: the data region equals the model after *some
prefix* of the commits, and that prefix holds every acknowledged one —
an ack being ``wait_durable`` or a checkpoint returning, or dying on a
write (their writes all come after the barrier that makes the records
durable).  Recovering a second time changes nothing.

Block contents are a function of ``(seed, commit number, index)``, as
honestbt derives its pattern from a key and an offset, so the model keeps
only version numbers and a failure names the seed that replays it.
"""

from __future__ import annotations

import hashlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import PowerCutError
from repro.storage.crash import CrashInjectionDevice
from repro.storage.journal import Journal
from repro.storage.txn import JournaledDevice, TransactionManager

BS = 128
TOTAL = 64
J_START = 2
J_BLOCKS = 26
DATA = range(J_START + J_BLOCKS, TOTAL)


class _Device(CrashInjectionDevice):
    """Can also lose power *at* a barrier: the flush that would have been
    the n-th promotes nothing, so whatever it was to order stays a coin toss
    — the one place a cut on a write cannot reach is between a checkpoint's
    header write and the flush behind it."""

    flushes_until_cut: int | None = None
    died_at_barrier = False

    def flush(self) -> None:
        if self.flushes_until_cut is not None and not self.crashed:
            self.flushes_until_cut -= 1
            if self.flushes_until_cut == 0:
                self.died_at_barrier = True
                self._crashed = True
                raise PowerCutError("power cut at a barrier")
        super().flush()


def _image(seed: int, commit: int, index: int) -> bytes:
    if commit == 0:
        return b"\x00" * BS  # never written
    return hashlib.sha256(f"{seed}/{commit}/{index}".encode()).digest() * (BS // 32)


class WriteBackMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**32 - 1))
    def boot(self, seed: int) -> None:
        self.seed = seed
        self.n_commits = 0
        self.recoveries = 0
        #: index → commit number, as of the last acknowledged commit.
        self.acked: dict[int, int] = {}
        #: Appended but not yet acknowledged commits, oldest first.
        self.tail: list[dict[int, int]] = []
        device = _Device(BS, TOTAL, seed=seed)
        Journal(device, J_START, J_BLOCKS, BS).format()
        device.flush()
        self._attach(device)

    def _attach(self, device: _Device) -> None:
        log = Journal(device, J_START, J_BLOCKS, BS)
        log.load()
        self.raw = device
        self.manager = TransactionManager(device, log, sync_on_commit=False)
        self.device = JournaledDevice(device, self.manager)
        self.armed = False

    def _why(self, what: str) -> str:
        return f"seed={self.seed} commit={self.n_commits} crash={self.recoveries}: {what}"

    def _ack_tail(self) -> None:
        for commit in self.tail:
            self.acked.update(commit)
        self.tail = []

    def _died(self) -> None:
        """``wait_durable`` or a checkpoint raised PowerCutError."""
        if not self.raw.died_at_barrier:
            # A write cut the power, and their writes (sweep, header) all
            # come after the barrier that made the records durable.
            self._ack_tail()
        self._recover()

    def _recover(self, in_flight: dict[int, int] | None = None) -> None:
        """Lose power, replay the log, and hold the result to the model."""
        self.recoveries += 1
        twin = self.raw.reincarnate(subset_seed=self.seed * 1_000_003 + self.recoveries)
        Journal(twin, J_START, J_BLOCKS, BS).recover()
        prefixes = [dict(self.acked)]
        for commit in self.tail + ([in_flight] if in_flight else []):
            prefixes.append({**prefixes[-1], **commit})
        found = [twin.read_block(index) for index in DATA]
        matching = [
            state
            for state in prefixes
            if found == [_image(self.seed, state.get(index, 0), index) for index in DATA]
        ]
        assert matching, self._why(
            f"recovered data region is no prefix of {len(prefixes) - 1} unacked commits"
        )
        # A torn record stays where it was until the next append overwrites
        # it, so a second scan may find it again; it replays nothing.
        again = Journal(twin, J_START, J_BLOCKS, BS).recover()
        assert again.records_replayed == 0, self._why("second replay")
        assert found == [twin.read_block(index) for index in DATA], self._why(
            "second replay moved data"
        )
        self.acked, self.tail = matching[-1], []
        self._attach(_Device.from_image(twin.image(), BS, seed=self.seed))

    # -- rules ----------------------------------------------------------

    @rule(indices=st.lists(st.sampled_from(DATA), min_size=1, max_size=5, unique=True))
    def commit(self, indices: list[int]) -> None:
        self.n_commits += 1
        commit = {index: self.n_commits for index in indices}
        checkpoints = self.manager.stats.snapshot().checkpoints
        try:
            with self.manager.transaction():
                for index in indices:
                    self.device.write_block(index, _image(self.seed, self.n_commits, index))
        except PowerCutError:
            # Cut in the append (a torn record) or in the log-full
            # checkpoint before it: all of this commit or none of it.
            if self.manager.stats.snapshot().checkpoints > checkpoints:
                self._ack_tail()
            self._recover(in_flight=commit)
            return
        if self.manager.stats.snapshot().checkpoints > checkpoints:
            self._ack_tail()  # the log filled: everything before is durable
        self.tail.append(commit)

    @rule()
    def wait_durable(self) -> None:
        try:
            self.manager.wait_durable(self.manager.last_commit_seq)
        except PowerCutError:
            self._died()
            return
        self._ack_tail()

    @rule()
    def checkpoint(self) -> None:
        try:
            self.manager.checkpoint()
        except PowerCutError:
            self._died()
            return
        self._ack_tail()
        assert self.manager.pending_images() == {}, self._why("overlay after checkpoint")

    @precondition(lambda self: not self.armed)
    @rule(after=st.integers(1, 30))
    def arm(self, after: int) -> None:
        self.raw.arm(after)
        self.armed = True

    @precondition(lambda self: not self.armed)
    @rule(after=st.integers(1, 5))
    def arm_barrier(self, after: int) -> None:
        self.raw.flushes_until_cut = after
        self.armed = True

    @rule()
    def power_loss(self) -> None:
        self._recover()

    # -- invariants -----------------------------------------------------

    @invariant()
    def reads_see_every_commit(self) -> None:
        state = dict(self.acked)
        for commit in self.tail:
            state.update(commit)
        for index, block in zip(DATA, self.device.read_blocks(list(DATA))):
            assert block == _image(self.seed, state.get(index, 0), index), self._why(
                f"block {index} is not commit {state.get(index, 0)}"
            )

    @invariant()
    def overlay_fits_the_log(self) -> None:
        pending = len(self.manager.pending_images())
        assert pending <= self.manager.journal.capacity_blocks, self._why(
            f"{pending} overlay images"
        )


WriteBackMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None, print_blob=True
)
TestWriteBackMachine = WriteBackMachine.TestCase
