"""The plain layer's in-core metadata: the name cache and the held images.

What must hold: a warm plain operation touches its data blocks and nothing
else; a write that changes neither size nor block list journals its data and
nothing else; a mutation scope that fails — a transaction that aborts, a bare
write that raises — leaves nothing in core that the device does not hold; and
the caches change reads only: never a result, never a byte on the disk.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from typing import Iterable

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import repro.fs.filesystem as fs_mod
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.errors import FileSystemError, PowerCutError
from repro.fs.filesystem import FileSystem
from repro.obs.metrics import get_registry
from repro.service.service import StegFSService
from repro.storage.block_device import BlockDevice, RamDevice, iter_runs
from repro.storage.crash import CrashInjectionDevice

BS = 512
UAK = b"U" * 32


class InjectedFault(Exception):
    """The device refused a write."""


class CountingDevice(BlockDevice):
    """A RAM device that lists its requests and can refuse the n-th block.

    One request is one contiguous ascending run of one call, what a disk
    services as a single transfer.  The refused block's predecessors in the
    same batch have landed, as on a bare disk.
    """

    def __init__(self, block_size: int, total_blocks: int) -> None:
        super().__init__(block_size, total_blocks)
        self._inner = RamDevice(block_size, total_blocks)
        self.reads: list[tuple[int, int]] = []
        self.writes: list[tuple[int, int]] = []
        self.blocks_written = 0
        self.refuse_at: int | None = None

    def forget(self) -> None:
        self.reads, self.writes, self.blocks_written = [], [], 0

    def read_block(self, index: int) -> bytes:
        self.reads.append((index, 1))
        return self._inner.read_block(index)

    def read_blocks(self, indices: Iterable[int]) -> list[bytes]:
        indices = list(indices)
        self.reads.extend(iter_runs(indices))
        return self._inner.read_blocks(indices)

    def write_block(self, index: int, data: bytes) -> None:
        self.write_blocks([(index, data)])

    def write_blocks(self, items: Iterable[tuple[int, bytes]]) -> None:
        items = list(items)
        self.writes.extend(iter_runs([index for index, _ in items]))
        for index, data in items:
            self.blocks_written += 1
            if self.blocks_written == self.refuse_at:
                raise InjectedFault(f"block write {self.refuse_at} (block {index})")
            self._inner.write_block(index, data)

    def image(self) -> bytes:
        return self._inner.image()


def _payload(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _volume(
    journal: bool = True, blocks: int = 4096, **kwargs
) -> tuple[CountingDevice, FileSystem]:
    device = CountingDevice(BS, blocks)
    fs = FileSystem.mkfs(
        device,
        inode_count=64,
        rng=random.Random(2),
        journal_blocks=None if journal else 0,
        **kwargs,
    )
    return device, fs


def _cold(image: bytes, block_size: int = BS) -> FileSystem:
    """A fresh mount of a copy of a device image: nothing in core."""
    return FileSystem.mount(CrashInjectionDevice.from_image(image, block_size))


def _answers(fs: FileSystem, paths: Iterable[str]) -> dict:
    """Everything the namespace answers about ``paths``, typed errors included."""
    out = {}
    for path in paths:
        for call in (fs.exists, fs.stat, fs.read, fs.listdir):
            try:
                out[path, call.__name__] = call(path)
            except Exception as exc:  # the same error from both is an answer too
                out[path, call.__name__] = type(exc).__name__
    return out


class TestWarmOpsTouchDataOnly:
    @pytest.mark.parametrize("n_blocks", [4, 300], ids=["direct", "double-indirect"])
    def test_read_is_one_request_for_the_whole_run(self, n_blocks):
        device, fs = _volume()
        data = _payload(1, n_blocks * BS)
        fs.create("/f", data)
        fs.device.flush()  # checkpoint: no overlay image left to serve a read from RAM
        first = fs.file_blocks("/f")[0]
        device.forget()
        assert fs.read("/f") == data
        assert device.reads == [(first, n_blocks)]
        # The same from a cold start: the first read fills, the second is warm.
        cold = FileSystem.mount(device)
        device.forget()
        assert cold.read("/f") == data
        assert len(device.reads) > 1
        device.forget()
        assert cold.read("/f") == data
        assert cold.read_range("/f", BS + 7, 2 * BS) == data[BS + 7 : 3 * BS + 7]
        assert device.reads == [(first, n_blocks), (first + 1, 3)]

    def test_same_size_write_journals_its_data_and_nothing_else(self):
        device, fs = _volume()
        fs.create("/f", _payload(1, 4 * BS))
        fs.device.flush()
        device.forget()
        before = fs.txn.stats.snapshot()
        skipped = get_registry().counter("fs.inodes.clean_writes_skipped").value
        fs.write("/f", _payload(2, 4 * BS))
        after = fs.txn.stats.snapshot()
        assert after.commits - before.commits == 1
        assert after.blocks_journaled - before.blocks_journaled == 4
        assert get_registry().counter("fs.inodes.clean_writes_skipped").value == skipped + 1
        assert device.reads == []
        # One record, one request: a descriptor block and the four images.
        [(start, count)] = device.writes
        assert count == 5 and fs.layout.journal_start <= start < fs.layout.data_start
        assert sorted(fs.txn.pending_images()) == fs.file_blocks("/f")
        assert _cold(device.image()).read("/f") == _payload(2, 4 * BS)

    @pytest.mark.parametrize("n_blocks", [6, 2], ids=["grow", "shrink"])
    def test_resizing_write_journals_inode_and_bitmap_too(self, n_blocks):
        device, fs = _volume()
        fs.create("/f", _payload(1, 4 * BS))
        fs.device.flush()
        device.forget()
        before = fs.txn.stats.snapshot().blocks_journaled
        fs.write("/f", _payload(2, n_blocks * BS))
        assert fs.txn.stats.snapshot().blocks_journaled - before == n_blocks + 2
        assert device.reads == []  # the table block's image was held
        table_block, _ = fs.layout.inode_location(fs.stat("/f").inode)
        journaled = set(fs.txn.pending_images())
        assert table_block in journaled and set(fs.file_blocks("/f")) <= journaled
        assert any(fs.layout.bitmap_start <= b < fs.layout.inode_table_start for b in journaled)
        assert _cold(device.image()).read("/f") == _payload(2, n_blocks * BS)

    def test_same_blocks_new_size_still_writes_the_inode(self):
        device, fs = _volume()
        fs.create("/f", _payload(1, 4 * BS))
        fs.write("/f", _payload(2, 4 * BS - 100))
        assert _cold(device.image()).read("/f") == _payload(2, 4 * BS - 100)

    def test_lookups_read_nothing(self):
        device, fs = _volume()
        fs.mkdir("/d")
        fs.mkdir("/d/e")
        fs.create("/d/e/x", _payload(1, 20 * BS))
        fs.create("/top", b"t")
        fs.device.flush()
        cold = FileSystem.mount(device)
        paths = ["/", "/d", "/d/e", "/d/e/x", "/top", "/nope", "/d/nope/x"]
        expected = _answers(cold, paths)  # fills
        device.forget()
        for path in paths:
            for call in (cold.exists, cold.stat, cold.listdir):
                try:
                    call(path)
                except FileSystemError:
                    pass
        assert device.reads == []
        assert _answers(cold, paths) == expected == _answers(fs, paths)


# The tree the abort matrix starts from.  /d's listing spans two blocks, so a
# bare volume can be left with half of one; /big maps through a pointer block.
_LONG = "n" * 60
_TREE_FILES = {
    "/a": _payload(1, 4 * BS),
    "/big": _payload(2, 20 * BS),
    **{f"/d/{_LONG}{i:02d}": _payload(10 + i, 300) for i in range(12)},
}
_PATHS = ["/", "/d", "/empty", "/d/new", "/d/sub", *_TREE_FILES]

_MUTATORS = {
    "create": lambda fs: fs.create("/d/new", _payload(7, 3 * BS)),
    "write": lambda fs: fs.write("/a", _payload(8, 9 * BS)),
    "write_range": lambda fs: fs.write_range("/big", 19 * BS + 100, _payload(9, 3 * BS)),
    "append": lambda fs: fs.append("/big", _payload(10, 2 * BS)),
    "truncate": lambda fs: fs.truncate("/big", 5 * BS + 1),
    "unlink": lambda fs: fs.unlink(f"/d/{_LONG}03"),
    "mkdir": lambda fs: fs.mkdir("/d/sub"),
    "rmdir": lambda fs: fs.rmdir("/empty"),
}


def _tree(journal: bool) -> tuple[CountingDevice, FileSystem]:
    device, fs = _volume(journal=journal, blocks=2048)
    fs.mkdir("/d")
    fs.mkdir("/empty")
    for path, data in _TREE_FILES.items():
        fs.create(path, data)
    fs.device.flush()
    _answers(fs, _PATHS)  # warm: every listing and every table block in core
    device.forget()
    return device, fs


class TestFailedScopeLeavesNothingStale:
    @pytest.mark.parametrize("journal", [True, False], ids=["journaled", "bare"])
    @pytest.mark.parametrize("mutator", sorted(_MUTATORS))
    def test_a_fault_on_any_write_of_any_mutator(self, mutator, journal):
        """Afterwards every path answers as a fresh mount of the same device.

        A journaled volume rolls back, in core and (at the mount) on disk.  A
        bare volume has no transaction to roll back: whatever landed, landed,
        and the survivor's dirty inodes are ahead of the disk until its next
        flush — after which the two must agree again, parse errors and all.
        """
        device, fs = _tree(journal)
        _MUTATORS[mutator](fs)
        n_writes = device.blocks_written
        assert n_writes > 0
        for refuse_at in range(1, n_writes + 1):
            device, fs = _tree(journal)
            device.refuse_at = refuse_at
            with pytest.raises(InjectedFault):
                _MUTATORS[mutator](fs)
            device.refuse_at = None
            if not journal:
                fs.flush()
            why = f"{mutator}, block write {refuse_at} of {n_writes}"
            assert _answers(fs, _PATHS) == _answers(_cold(device.image()), _PATHS), why

    @pytest.mark.parametrize("opener", ["fs", "manager"])
    def test_whoever_opened_the_transaction(self, opener):
        _device, fs = _volume()
        fs.mkdir("/d")
        fs.create("/d/f", _payload(1, 20 * BS))
        scope = {"fs": fs.atomic, "manager": fs.txn.transaction}[opener]
        with pytest.raises(RuntimeError):
            with scope():
                fs.write("/d/f", _payload(9, 20 * BS))  # same size: no inode goes dirty
                assert fs.read("/d/f") == _payload(9, 20 * BS)
                raise RuntimeError("abort")
        assert len(fs._names) == 0 and len(fs._images) == 0
        assert fs.read("/d/f") == _payload(1, 20 * BS)

    def test_reused_inode_number_lists_empty(self):
        _device, fs = _volume()
        fs.mkdir("/d")
        fs.create("/d/x", b"x")
        number = fs.stat("/d").inode
        assert fs.listdir("/d") == ["x"] and len(fs._names) == 2
        fs.unlink("/d/x")
        fs.rmdir("/d")
        assert len(fs._names) == 1  # the root's; the number is free to come back
        fs.mkdir("/e")
        assert fs.stat("/e").inode == number
        assert fs.listdir("/e") == []

    def test_aborted_steg_hide_leaves_nothing_in_core(self, monkeypatch):
        steg = StegFS.mkfs(
            RamDevice(256, 4096),
            params=StegFSParams.for_tests(),
            inode_count=64,
            rng=random.Random(5),
        )
        steg.mkdir("/docs")
        steg.create("/docs/a", _payload(1, 700))
        steg.create("/docs/b", _payload(2, 900))
        steg.steg_create("keep", UAK, data=_payload(3, 500))
        paths = ["/", "/docs", "/docs/a", "/docs/b"]
        before = _answers(steg.fs, paths)
        assert len(steg.fs._names) > 0 and len(steg.volume.objects) > 0

        def refuse(_path: str) -> None:
            raise RuntimeError("injected after both children were hidden and unlinked")

        with monkeypatch.context() as patch:
            patch.setattr(steg.fs, "rmdir", refuse)
            with pytest.raises(RuntimeError, match="injected"):
                steg.steg_hide("/docs", "vault", UAK)
        assert len(steg.fs._names) == 0 and len(steg.fs._images) == 0
        assert len(steg.volume.objects) == 0
        assert _answers(steg.fs, paths) == before
        assert steg.steg_list(UAK) == ["keep"]
        steg.steg_hide("/docs", "vault", UAK)  # and the volume is still good for it
        assert steg.steg_read("vault/b", UAK) == _payload(2, 900)
        assert not steg.exists("/docs")


# One op sequence, as data: (op, path, seed, size).
_SCRIPT_PATHS = ["/a", "/b", "/c", "/d/x", "/d/y", "/d/e/z"]
_SCRIPT_OPS = [
    "create", "write", "write", "rewrite", "write_range", "append", "truncate",
    "unlink", "mkdir", "rmdir", "read", "listdir", "stat",
]  # fmt: skip


def _script(seed: int, length: int) -> list[tuple[str, str, int, int]]:
    rng = random.Random(seed)
    return [
        (
            rng.choice(_SCRIPT_OPS),
            rng.choice(_SCRIPT_PATHS),
            rng.randrange(1 << 30),
            rng.randrange(0, 9000),
        )
        for _ in range(length)
    ]


def _apply(fs: FileSystem, step: tuple[str, str, int, int]) -> object:
    """Run one scripted op; a typed refusal is a result like any other."""
    op, path, seed, size = step
    parent = path.rsplit("/", 1)[0] or "/"
    try:
        if op == "create":
            return fs.create(path, _payload(seed, size))
        if op == "write":
            return fs.write(path, _payload(seed, size))
        if op == "rewrite":  # same size: data blocks only
            return fs.write(path, _payload(seed, fs.stat(path).size))
        if op == "write_range":
            return fs.write_range(path, seed % 5000, _payload(seed, size))
        if op == "append":
            return fs.append(path, _payload(seed, size % 700))
        if op == "truncate":
            return fs.truncate(path, size)
        if op == "unlink":
            return fs.unlink(path)
        if op == "mkdir":
            return fs.mkdir(parent)
        if op == "rmdir":
            return fs.rmdir(parent)
        if op == "read":
            return fs.read(path)
        if op == "listdir":
            return fs.listdir(parent)
        return fs.stat(path)
    except FileSystemError as exc:
        return type(exc).__name__


class TestReadsOnly:
    @pytest.mark.parametrize("journal", [True, False], ids=["journaled", "bare"])
    def test_image_equivalence_with_the_caches_kept_and_emptied(self, journal):
        """Emptying them before every op changes no result and no byte."""
        (kept_device, kept), (emptied_device, emptied) = _volume(journal), _volume(journal)
        fullest = 0
        for number, step in enumerate(_script(2003, 300)):
            emptied._drop_incore()
            assert _apply(kept, step) == _apply(emptied, step), (number, step)
            fullest = max(fullest, len(kept._names) + len(kept._images))
        assert fullest > 4  # a refused op aborts its scope, so not at every step
        kept.device.flush()
        emptied.device.flush()
        assert kept_device.image() == emptied_device.image()
        paths = ["/", "/d", "/d/e", *_SCRIPT_PATHS]
        assert _answers(kept, paths) == _answers(_cold(kept_device.image()), paths)

    def test_eviction_at_the_bounds_keeps_results_identical(self, monkeypatch):
        (roomy_device, roomy), (tight_device, tight) = _volume(), _volume()
        script = _script(101, 200)
        results = [_apply(roomy, step) for step in script]
        monkeypatch.setattr(fs_mod, "NAME_CACHE_BOUND", 1)
        monkeypatch.setattr(fs_mod, "META_IMAGE_BOUND", 1)
        assert [_apply(tight, step) for step in script] == results
        assert len(tight._names) <= 1 and len(tight._images) <= 1
        roomy.device.flush()
        tight.device.flush()
        assert roomy_device.image() == tight_device.image()


class PlainCrashMachine(RuleBasedStateMachine):
    """Plain ops, power cuts and remounts against a dict model.

    Every op is one durable transaction (journaled, auto-flush), so after a
    crash the volume is the model before the op that died or after it, and
    after a clean remount it is the model exactly.  The survivor of each
    restart is a fresh mount: the caches start cold and refill.
    """

    FILES = ["/a", "/b", "/d/x", "/d/y"]
    DIRS = ["/d"]

    @initialize(seed=st.integers(0, 2**32 - 1))
    def boot(self, seed: int) -> None:
        self.seed = seed
        self.steps = 0
        self.restarts = 0
        #: path → bytes for a file, None for a directory.
        self.model: dict[str, bytes | None] = {}
        self.device = CrashInjectionDevice(BS, 1024, seed=seed)
        # A log that holds the largest op: a record too big for it is written
        # in place, durable at the ack but not all-or-nothing before it.
        self.fs = FileSystem.mkfs(
            self.device, inode_count=32, rng=random.Random(seed), journal_blocks=64
        )
        self.armed = False

    def _why(self, what: str) -> str:
        return f"seed={self.seed} step={self.steps} restart={self.restarts}: {what}"

    def _view(self) -> dict[str, bytes | None]:
        view: dict[str, bytes | None] = {}
        for path in self.DIRS:
            if self.fs.exists(path):
                view[path] = None
        for path in self.FILES:
            if self.fs.exists(path):
                view[path] = self.fs.read(path)
        for path in ["/"] + [d for d in self.DIRS if d in view]:
            listed = {path.rstrip("/") + "/" + name for name in self.fs.listdir(path)}
            assert listed == {p for p in view if p.rsplit("/", 1)[0] == path.rstrip("/")}, (
                self._why(f"listdir({path!r}) = {sorted(listed)}")
            )
        return view

    def _restart(self, image: bytes, either: dict | None = None) -> None:
        self.restarts += 1
        self.device = CrashInjectionDevice.from_image(image, BS, seed=self.seed)
        self.fs = FileSystem.mount(self.device, rng=random.Random(self.seed + self.restarts))
        self.armed = False
        view = self._view()
        if either is not None and view == either:
            self.model = either
        assert view == self.model, self._why("the remounted volume is not the model")

    def _after_power_loss(self) -> bytes:
        """What the platter holds: a seeded subset of the un-flushed writes."""
        return self.device.crash_image(self.seed * 1_000_003 + self.steps)

    def _mutate(self, after: dict | None, call, *args) -> None:
        """Run one mutator that the model says succeeds (``after``) or not."""
        self.steps += 1
        try:
            call(*args)
        except PowerCutError:
            self._restart(self._after_power_loss(), after)
            return
        except FileSystemError as exc:
            assert after is None, self._why(f"{call.__name__}{args[:1]} raised {exc!r}")
            return
        assert after is not None, self._why(f"{call.__name__}{args[:1]} should have been refused")
        self.model = after

    def _has_parent(self, path: str) -> bool:
        parent = path.rsplit("/", 1)[0]
        return parent == "" or self.model.get(parent, b"") is None

    # -- rules ----------------------------------------------------------

    @rule(path=st.sampled_from(FILES), seed=st.integers(0, 99), size=st.integers(0, 7000))
    def create(self, path: str, seed: int, size: int) -> None:
        ok = path not in self.model and self._has_parent(path)
        data = _payload(seed, size)
        self._mutate({**self.model, path: data} if ok else None, self.fs.create, path, data)

    @rule(path=st.sampled_from(FILES), seed=st.integers(0, 99), size=st.integers(0, 7000))
    def write(self, path: str, seed: int, size: int) -> None:
        data = _payload(seed, size)
        after = {**self.model, path: data} if self.model.get(path) is not None else None
        self._mutate(after, self.fs.write, path, data)

    @rule(path=st.sampled_from(FILES), seed=st.integers(0, 99))
    def rewrite_in_place(self, path: str, seed: int) -> None:
        old = self.model.get(path)
        data = _payload(seed, len(old or b""))
        after = {**self.model, path: data} if old is not None else None
        self._mutate(after, self.fs.write, path, data)

    @rule(
        path=st.sampled_from(FILES),
        seed=st.integers(0, 99),
        offset=st.integers(0, 6000),
        size=st.integers(1, 2000),
    )
    def write_range(self, path: str, seed: int, offset: int, size: int) -> None:
        old, data = self.model.get(path), _payload(seed, size)
        after = None
        if old is not None:
            padded = old.ljust(offset, b"\x00")
            after = {**self.model, path: padded[:offset] + data + padded[offset + size :]}
        self._mutate(after, self.fs.write_range, path, offset, data)

    @rule(path=st.sampled_from(FILES), seed=st.integers(0, 99), size=st.integers(1, 900))
    def append(self, path: str, seed: int, size: int) -> None:
        old, data = self.model.get(path), _payload(seed, size)
        after = {**self.model, path: old + data} if old is not None else None
        self._mutate(after, self.fs.append, path, data)

    @rule(path=st.sampled_from(FILES), size=st.integers(0, 7000))
    def truncate(self, path: str, size: int) -> None:
        old = self.model.get(path)
        after = {**self.model, path: old[:size].ljust(size, b"\x00")} if old is not None else None
        self._mutate(after, self.fs.truncate, path, size)

    @rule(path=st.sampled_from(FILES))
    def unlink(self, path: str) -> None:
        after = {p: d for p, d in self.model.items() if p != path}
        self._mutate(after if self.model.get(path) is not None else None, self.fs.unlink, path)

    @rule(path=st.sampled_from(DIRS))
    def mkdir(self, path: str) -> None:
        after = {**self.model, path: None} if path not in self.model else None
        self._mutate(after, self.fs.mkdir, path)

    @rule(path=st.sampled_from(DIRS))
    def rmdir(self, path: str) -> None:
        empty = path in self.model and not any(p.startswith(path + "/") for p in self.model)
        after = {p: d for p, d in self.model.items() if p != path}
        self._mutate(after if empty else None, self.fs.rmdir, path)

    @precondition(lambda self: not self.armed)
    @rule(after=st.integers(1, 40))
    def arm(self, after: int) -> None:
        self.device.arm(after)
        self.armed = True

    @rule()
    def power_loss(self) -> None:
        self.steps += 1
        self._restart(self._after_power_loss())

    @rule()
    def clean_remount(self) -> None:
        self._restart(self.device.image())

    # -- invariants -----------------------------------------------------

    @invariant()
    def the_volume_is_the_model(self) -> None:
        assert self._view() == self.model, self._why("the live volume is not the model")


PlainCrashMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None, print_blob=True
)
TestPlainCrashMachine = PlainCrashMachine.TestCase


class TestConcurrentFill:
    def test_readers_and_a_writer_never_see_a_torn_file_or_listing(self, monkeypatch):
        """8 readers + 1 writer through the service, bounds small enough to churn."""
        monkeypatch.setattr(fs_mod, "NAME_CACHE_BOUND", 2)
        monkeypatch.setattr(fs_mod, "META_IMAGE_BOUND", 2)
        steg = StegFS.mkfs(
            RamDevice(256, 8192),
            params=StegFSParams.for_tests(),
            inode_count=64,
            rng=random.Random(81),
            auto_flush=False,
        )
        dirs = ["/p", "/q", "/r"]
        names = [f"{d}/f{i}" for d in dirs for i in range(4)]
        for d in dirs:
            steg.mkdir(d)
        for name in names:
            steg.create(name, bytes([1]) * 300)
        stop = threading.Event()
        errors: list[BaseException] = []
        reads = [0]

        def reader(service: StegFSService, seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    name = rng.choice(names)
                    data = service.read(name)
                    # Whole files only: one fill byte, a length that byte implies.
                    assert len(data) == 300 * data[0] and data == bytes([data[0]]) * len(data)
                    assert service.stat(name).size in {300 * fill for fill in range(1, 6)}
                    listing = service.listdir(name.rsplit("/", 1)[0])
                    always = {f"f{i}" for i in range(4)}
                    assert always <= set(listing) <= always | {"extra"}
                    assert service.exists(rng.choice(dirs))
                    reads[0] += 1
            except BaseException as exc:  # noqa: BLE001 — reported by the main thread
                errors.append(exc)
                stop.set()

        def writer(service: StegFSService) -> None:
            rng = random.Random(7)
            try:
                for round_ in range(60):
                    if stop.is_set():
                        break
                    fill = 1 + round_ % 5
                    service.write(rng.choice(names), bytes([fill]) * (300 * fill))
                    extra = f"{rng.choice(dirs)}/extra"
                    if service.exists(extra):
                        service.unlink(extra)
                    else:
                        service.create(extra, bytes([2]) * 600)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StegFSService(steg, max_workers=2) as service:
                threads = [
                    threading.Thread(target=reader, args=(service, seed)) for seed in range(8)
                ]
                threads.append(threading.Thread(target=writer, args=(service,)))
                started = time.monotonic()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert time.monotonic() - started < 120
                service.flush()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert reads[0] > 0
        assert len(steg.fs._names) <= 2 and len(steg.fs._images) <= 2
        paths = ["/", *dirs, *names, *(f"{d}/extra" for d in dirs)]
        cold = _cold(steg.device.image(), steg.block_size)
        assert _answers(steg.fs, paths) == _answers(cold, paths)


class TestCountsOnly:
    def test_metrics_are_five_plain_numbers(self):
        names = [
            "names.hits",
            "names.misses",
            "names.size",
            "inodes.table_reads",
            "inodes.clean_writes_skipped",
        ]
        registry = get_registry()
        before = {name: registry.get(f"fs.{name}").value for name in names}
        device, fs = _volume()
        fs.mkdir("/quite-a-telling-directory-name")
        fs.create("/quite-a-telling-directory-name/secret-plans.txt", _payload(1, 2 * BS))
        fs.write("/quite-a-telling-directory-name/secret-plans.txt", _payload(2, 2 * BS))
        cold = FileSystem.mount(device)
        assert cold.exists("/quite-a-telling-directory-name/secret-plans.txt")
        assert cold.exists("/quite-a-telling-directory-name/secret-plans.txt")
        moved = {name: registry.get(f"fs.{name}").value - before[name] for name in names}
        assert moved["names.misses"] >= 2 and moved["names.hits"] >= 2
        assert moved["inodes.table_reads"] >= 1 and moved["inodes.clean_writes_skipped"] == 1
        assert moved["names.size"] == len(fs._names) + len(cold._names) == 4
        exported = [name for name in registry.names() if name.startswith("fs.")]
        assert sorted(exported) == sorted(f"fs.{name}" for name in names)
        rendered = registry.render_text()
        assert "telling" not in rendered and "secret-plans" not in rendered
        # The gauge moves by deltas: dropping a volume's entries gives them back.
        fs._drop_incore()
        cold._drop_incore()
        assert registry.get("fs.names.size").value == before["names.size"]
