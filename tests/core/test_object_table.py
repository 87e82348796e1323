"""The open-object table: one in-core object per hidden object.

What must hold: a handle always reads what was last written, whoever wrote
it; a deleted or re-keyed object never comes back, from a handle or from
its old keys; an aborted transaction leaves nothing in core; and the table
changes reads only — never what is written, never an error.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.volume as volume_mod
from repro.core.hidden_file import HiddenFile
from repro.core.keys import ObjectKeys
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.crypto.rsa import generate_keypair
from repro.errors import HiddenObjectNotFoundError, NoSpaceError
from repro.obs.metrics import get_registry
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice
from repro.storage.crash import CrashInjectionDevice

UAK = b"U" * 32
OTHER = b"V" * 32
BS = 256


def _mkfs(device=None, seed: int = 5, **kwargs) -> StegFS:
    return StegFS.mkfs(
        device or RamDevice(BS, 4096),
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=random.Random(seed),
        **kwargs,
    )


def _cold(steg: StegFS) -> StegFS:
    """A fresh mount of a copy of ``steg``'s device: nothing in core."""
    image = steg.device.image()
    twin = RamDevice(steg.block_size, len(image) // steg.block_size)
    twin.write_blocks(
        (i, image[i * steg.block_size : (i + 1) * steg.block_size])
        for i in range(twin.total_blocks)
    )
    return StegFS.mount(twin, params=StegFSParams.for_tests(), rng=random.Random(0))


def _view(steg: StegFS, uaks=(UAK, OTHER)) -> dict:
    """Everything the hidden namespace answers, by user and name."""
    return {
        (uak, name): steg.steg_read(name, uak)
        for uak in uaks
        for name in steg.steg_list(uak)
    }


def _share(steg: StegFS, name: str) -> None:
    recipient = generate_keypair(bits=768, rng=random.Random(42))
    blob = steg.steg_getentry(name, UAK, recipient.public)
    steg.steg_addentry(blob, OTHER, recipient.private)


def _payload(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


class TestOneObject:
    def test_every_path_reaches_the_same_object(self):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=b"x" * 700)
        steg.steg_connect("doc", UAK)
        keys = steg.session.entry("doc").keys()
        assert HiddenFile.open(steg.volume, keys) is HiddenFile.open(steg.volume, keys)
        assert steg.session.get("doc") is HiddenFile.open(steg.volume, keys)

    def test_connected_handle_sees_grow_shrink_and_extent_writes(self):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        steg.steg_connect("doc", UAK)
        handle = steg.session.get("doc")
        for seed, size in ((2, 9000), (3, 1000), (4, 0), (5, 5000)):
            steg.steg_write("doc", UAK, _payload(seed, size))
            assert steg.session.read("doc") == _payload(seed, size)
            assert handle.read() == _payload(seed, size)
            assert handle.size == size
        steg.steg_write_extent("doc", UAK, 4500, b"e" * 2000)
        expected = _payload(5, 4500) + b"e" * 2000
        assert steg.session.read("doc") == handle.read() == expected

    def test_another_users_session_sees_the_owners_writes(self):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        _share(steg, "doc")
        bob = steg.new_session("bob")
        steg.steg_connect("doc", OTHER, session=bob)
        steg.steg_write("doc", UAK, _payload(2, 9000))
        assert bob.read("doc") == _payload(2, 9000)
        bob.write("doc", _payload(3, 500))
        assert steg.steg_read("doc", UAK) == _payload(3, 500)

    def test_listing_is_shared_between_directory_views(self):
        steg = _mkfs()
        steg.steg_create("dir", UAK, objtype="d")
        steg.steg_connect("dir", UAK)
        steg.steg_create("dir/a", UAK, data=b"a")
        assert steg.steg_list(UAK, "dir") == ["a"]
        steg.steg_delete("dir/a", UAK)
        assert steg.steg_list(UAK, "dir") == []

    def test_two_sessions_of_one_service_share_the_object(self):
        steg = _mkfs(auto_flush=False)
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        _share(steg, "doc")
        with StegFSService(steg, max_workers=2) as service:
            alice = service.open_session("alice", UAK)
            bob = service.open_session("bob", OTHER)
            service.connect(alice, "doc")
            service.connect(bob, "doc")
            service.session_write(alice, "doc", _payload(2, 9000))
            assert service.session_read(bob, "doc") == _payload(2, 9000)
            service.steg_write("doc", UAK, _payload(3, 100))
            assert service.session_read(bob, "doc") == _payload(3, 100)
            service.steg_revoke("doc", UAK)
            with pytest.raises(HiddenObjectNotFoundError):
                service.session_read(bob, "doc")
            assert service.steg_read("doc", UAK) == _payload(3, 100)
        assert len(steg.volume.objects) == 0  # dropped on close


class TestGoneStaysGone:
    def _connected(self):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        steg.steg_connect("doc", UAK)
        return steg, steg.session.get("doc"), steg.session.entry("doc").keys()

    def _assert_dead(self, steg, handle, keys):
        for use in (
            handle.read,
            lambda: handle.read_extent(0, 10),
            lambda: handle.size,
            lambda: handle.write(b"back"),
            lambda: HiddenFile.open(steg.volume, keys),
            lambda: steg.session.read("doc"),
        ):
            with pytest.raises(HiddenObjectNotFoundError):
                use()

    def test_deleted(self):
        steg, handle, keys = self._connected()
        steg.steg_delete("doc", UAK)
        self._assert_dead(steg, handle, keys)
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read("doc", UAK)

    def test_revoked(self):
        steg, handle, keys = self._connected()
        steg.steg_revoke("doc", UAK)
        self._assert_dead(steg, handle, keys)
        assert steg.steg_read("doc", UAK) == _payload(1, 3000)

    def test_warm_table_never_changes_an_error(self):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=b"secret")
        assert steg.steg_read("doc", UAK) == b"secret"  # everything warm
        entry = steg._resolve_entry("doc", UAK)
        entered = len(steg.volume.objects)
        wrong_key = ObjectKeys.derive(entry.physical_name, b"W" * 32)
        wrong_name = ObjectKeys.derive(entry.physical_name + "x", entry.fak)
        cold = _cold(steg)
        for keys in (wrong_key, wrong_name):
            with pytest.raises(HiddenObjectNotFoundError) as warm_error:
                HiddenFile.open(steg.volume, keys)
            with pytest.raises(HiddenObjectNotFoundError) as cold_error:
                HiddenFile.open(cold.volume, keys)
            assert str(warm_error.value) == str(cold_error.value)
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read("missing", UAK)
        assert len(steg.volume.objects) == entered  # a miss enters nothing


def _fail_after_hidden_op(steg: StegFS, monkeypatch) -> None:
    """Make the next facade mutation fail once everything is staged."""

    def boom() -> None:
        raise RuntimeError("injected after the objects were rewritten")

    monkeypatch.setattr(steg, "_after_hidden_op", boom)


class TestAbortEmptiesTable:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda steg: steg.steg_create("new", UAK, data=b"n" * 900),
            lambda steg: steg.steg_write("doc", UAK, b"w" * 5000),
            lambda steg: steg.steg_write_extent("doc", UAK, 100, b"e" * 3000),
            lambda steg: steg.steg_revoke("doc", UAK),
            lambda steg: steg.steg_delete("doc", UAK),
            lambda steg: steg.dummy_tick(),
        ],
        ids=["create", "write", "write_extent", "revoke", "delete", "dummy_tick"],
    )
    def test_failed_facade_op_leaves_nothing_in_core(self, mutate, monkeypatch):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        steg.steg_create("other", UAK, data=_payload(2, 700))
        steg.steg_connect("doc", UAK)
        before = _view(steg)
        assert len(steg.volume.objects) > 0
        with monkeypatch.context() as patch:
            _fail_after_hidden_op(steg, patch)
            with pytest.raises(RuntimeError, match="injected"):
                mutate(steg)
        assert len(steg.volume.objects) == 0
        assert _view(steg) == before == _view(_cold(steg))
        assert steg.session.read("doc") == _payload(1, 3000)
        # And the volume is still good for the same mutation.
        mutate(steg)
        steg.steg_write("other", UAK, b"after")
        assert _view(steg) == _view(_cold(steg))

    @pytest.mark.parametrize("opener", ["facade", "volume", "manager"])
    def test_whoever_opened_the_transaction(self, opener):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        handle = HiddenFile.open(steg.volume, steg._resolve_entry("doc", UAK).keys())
        scope = {
            "facade": steg.transaction,
            "volume": steg.volume.transaction,
            "manager": steg.txn.transaction,
        }[opener]
        with pytest.raises(RuntimeError):
            with scope():
                handle.write(_payload(9, 3000))  # same size: no allocation
                assert handle.read() == _payload(9, 3000)
                raise RuntimeError("abort")
        assert len(steg.volume.objects) == 0
        assert handle.read() == steg.steg_read("doc", UAK) == _payload(1, 3000)

    def test_nested_failure_caught_inside_a_surviving_transaction(self):
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=_payload(1, 3000))
        handle = HiddenFile.open(steg.volume, steg._resolve_entry("doc", UAK).keys())
        with steg.transaction():
            handle.write(_payload(2, 600))
            with pytest.raises(NoSpaceError):
                handle.write(bytes(BS * steg.device.total_blocks))
            assert not steg.volume.objects.holds(handle)
            assert handle.read() == _payload(2, 600)  # found again, staged blocks and all
            handle.write_extent(600, b"tail")
        assert _view(steg) == _view(_cold(steg))
        assert handle.read() == _payload(2, 600) + b"tail"

    def test_half_done_update_on_a_bare_volume_is_not_kept(self, volume, monkeypatch):
        keys = ObjectKeys.derive("bare:doc", b"K" * 32)
        hidden = HiddenFile.create(volume, keys, data=_payload(1, 1500))

        def fail(*_args, **_kwargs):
            raise OSError("device went away")

        with monkeypatch.context() as patch:
            patch.setattr(volume.device, "write_blocks", fail)
            with pytest.raises(OSError):
                hidden.write(_payload(2, 4000))  # grows: pool already drawn on
        assert not volume.objects.holds(hidden)
        assert hidden.read() == _payload(1, 1500)  # found again from the device


# One op sequence, as data: (op, name, seed, size).  Used by the image
# equivalence, crash and eviction tests.
_NAMES = ["a", "b", "c", "d", "dir/x", "dir/y"]


def _script(seed: int, length: int) -> list[tuple[str, str, int, int]]:
    rng = random.Random(seed)
    ops = ["create", "write", "write", "extent", "read", "read", "delete", "revoke", "tick", "list"]
    return [
        (rng.choice(ops), rng.choice(_NAMES), rng.randrange(1 << 30), rng.randrange(0, 3000))
        for _ in range(length)
    ]


def _apply(steg: StegFS, model: dict[str, bytes], step) -> object:
    """Run one scripted op against ``steg`` and the dict model; returns its result."""
    op, name, seed, size = step
    try:
        if op == "create":
            if "/" in name and "dir" not in model:
                steg.steg_create("dir", UAK, objtype="d")
                model["dir"] = None
            steg.steg_create(name, UAK, data=_payload(seed, size))
            model[name] = _payload(seed, size)
        elif op == "write":
            steg.steg_write(name, UAK, _payload(seed, size))
            model[name] = _payload(seed, size)
        elif op == "extent":
            offset = seed % 2000
            steg.steg_write_extent(name, UAK, offset, _payload(seed, size))
            if size:
                old = model[name].ljust(offset, b"\x00")
                model[name] = old[:offset] + _payload(seed, size) + old[offset + size :]
        elif op == "read":
            return steg.steg_read(name, UAK)
        elif op == "delete":
            steg.steg_delete(name, UAK)
            del model[name]
        elif op == "revoke":
            steg.steg_revoke(name, UAK)
        elif op == "tick":
            return steg.dummy_tick()
        elif op == "list":
            return steg.steg_list(UAK)
    except Exception as exc:  # the same typed error either way is a result too
        return type(exc).__name__
    return None


def _files(model: dict) -> dict[str, bytes]:
    return {name: data for name, data in model.items() if data is not None}


def _assert_matches(steg: StegFS, model: dict) -> None:
    for name, data in _files(model).items():
        assert steg.steg_read(name, UAK) == data, name


class TestReadsOnly:
    def test_image_equivalence_with_and_without_the_table(self):
        """Emptying the table before every op changes no result and no byte."""
        script = _script(seed=20030305, length=120)
        images, results = [], []
        for empty_first in (False, True):
            steg, model, out = _mkfs(seed=77), {}, []
            for step in script:
                if empty_first:
                    steg.volume.objects.clear()
                out.append(_apply(steg, model, step))
            images.append(steg.device.image())
            results.append((out, model))
        assert results[0] == results[1]
        assert images[0] == images[1]
        assert len(_files(results[0][1])) >= 2  # the script did something

    def test_eviction_at_the_bound_keeps_results_identical(self, monkeypatch):
        script = _script(seed=424242, length=60)
        runs = []
        for bound in (volume_mod.OPEN_OBJECT_BOUND, 3):
            monkeypatch.setattr(volume_mod, "OPEN_OBJECT_BOUND", bound)
            evictions = get_registry().counter("steg.objects.evictions").value
            steg, model = _mkfs(seed=78), {}
            handles = {}
            out = []
            for step in script:
                out.append(_apply(steg, model, step))
                assert len(steg.volume.objects) <= bound
                # Long-held handles survive their own eviction.
                live = _files(model)
                handles = {name: handles[name] for name in handles if name in live}
                for name, data in live.items():
                    try:
                        assert handles[name].read() == data
                    except (KeyError, HiddenObjectNotFoundError):  # new, or re-keyed
                        handles[name] = HiddenFile.open(
                            steg.volume, steg._resolve_entry(name, UAK).keys()
                        )
            evicted = get_registry().counter("steg.objects.evictions").value - evictions
            runs.append((out, model, steg.device.image(), evicted))
        assert runs[0][:3] == runs[1][:3]
        assert runs[0][3] == 0 and runs[1][3] > 0

    def test_cold_table_after_power_loss_reads_every_acked_object(self):
        device = CrashInjectionDevice(BS, 4096, seed=3)
        steg, model = _mkfs(device, seed=79), {}
        for step in _script(seed=99, length=80):
            _apply(steg, model, step)
        assert len(steg.volume.objects) > 0
        # Every op above was acked durable; whatever else was in flight
        # survives by a seeded coin.  Nothing in core crosses the restart.
        for subset_seed in (1, 2):
            twin = StegFS.mount(
                device.reincarnate(subset_seed),
                params=StegFSParams.for_tests(),
                rng=random.Random(0),
            )
            assert len(twin.volume.objects) == 0
            _assert_matches(twin, model)
            assert sorted(twin.steg_list(UAK)) == sorted(
                name for name in model if "/" not in name
            )

    @settings(max_examples=8, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["create", "write", "extent", "read", "delete", "revoke", "tick", "abort"]
                ),
                st.sampled_from(_NAMES[:4]),
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=0, max_value=2500),
            ),
            max_size=24,
        )
    )
    def test_any_op_sequence_matches_the_model_and_a_remount(self, steps):
        steg, model = _mkfs(seed=80), {}
        for index, step in enumerate(steps):
            if step[0] == "abort":
                snapshot = dict(model)
                with pytest.raises(RuntimeError):
                    with steg.transaction():
                        _apply(steg, model, ("write", *step[1:]))
                        _apply(steg, model, ("create", *step[1:]))
                        raise RuntimeError("abort")
                model = snapshot
            else:
                _apply(steg, model, step)
            _assert_matches(steg, model)
            if index % 6 == 5:
                _assert_matches(_cold(steg), model)
        _assert_matches(_cold(steg), model)
        assert sorted(steg.steg_list(UAK)) == sorted(model)


class TestConcurrentFill:
    def test_readers_and_a_writer_never_see_a_torn_object_or_listing(self, monkeypatch):
        """8 readers + 1 writer through the service, table small enough to churn."""
        monkeypatch.setattr(volume_mod, "OPEN_OBJECT_BOUND", 4)
        steg = _mkfs(RamDevice(BS, 8192), seed=81, auto_flush=False)
        names = [f"f{i}" for i in range(6)]
        for name in names:
            steg.steg_create(name, UAK, data=bytes([1]) * 300)
        stop = threading.Event()
        errors: list[BaseException] = []
        reads = [0]

        def reader(service: StegFSService, seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    name = rng.choice(names)
                    data = service.steg_read(name, UAK)
                    # Whole objects only: one fill byte, a length that byte implies.
                    assert len(data) == 300 * data[0] and data == bytes([data[0]]) * len(data)
                    listing = service.steg_list(UAK)
                    assert set(names) <= set(listing) <= set(names) | {"extra"}
                    reads[0] += 1
            except BaseException as exc:  # noqa: BLE001 — reported by the main thread
                errors.append(exc)
                stop.set()

        def writer(service: StegFSService) -> None:
            rng = random.Random(7)
            try:
                for round_ in range(30):
                    if stop.is_set():
                        break
                    fill = 1 + round_ % 5
                    service.steg_write(rng.choice(names), UAK, bytes([fill]) * (300 * fill))
                    if round_ % 2:
                        service.steg_delete("extra", UAK)
                    else:
                        service.steg_create("extra", UAK, data=bytes([2]) * 600)
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
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert reads[0] > 0
        assert len(steg.volume.objects) == 0


class TestWriteSkipsWhatDidNotChange:
    def _changed(self, device: RamDevice, before: bytes) -> set[int]:
        after = device.image()
        return {
            index
            for index in range(device.total_blocks)
            if after[index * BS : (index + 1) * BS] != before[index * BS : (index + 1) * BS]
        }

    def test_same_shape_rewrite_touches_data_blocks_only(self, volume):
        hidden = HiddenFile.create(
            volume, ObjectKeys.derive("bare:doc", b"K" * 32), data=_payload(1, 1500)
        )
        footprint = hidden.footprint()
        before = volume.device.image()
        hidden.write(_payload(2, 1500))
        assert self._changed(volume.device, before) == set(footprint["data"])
        assert hidden.footprint() == footprint

    def test_size_change_within_the_same_blocks_stores_the_header_only(self, volume):
        hidden = HiddenFile.create(
            volume, ObjectKeys.derive("bare:doc", b"K" * 32), data=_payload(1, 1500)
        )
        footprint = hidden.footprint()
        before = volume.device.image()
        hidden.write(_payload(2, 1499))
        assert self._changed(volume.device, before) == set(
            footprint["data"] + footprint["header"]
        )

    def test_pool_change_reaches_the_disk(self, volume):
        keys = ObjectKeys.derive("bare:doc", b"K" * 32)
        hidden = HiddenFile.create(volume, keys, data=_payload(1, 300))
        for seed, size in ((2, 4000), (3, 200), (4, 9000), (5, 0), (6, 777)):
            hidden.write(_payload(seed, size))
            warm = hidden.footprint()
            volume.objects.clear()
            cold = HiddenFile.open(volume, keys)
            assert cold.footprint() == warm
            assert cold.read() == _payload(seed, size)
            hidden = cold


class TestCountsOnly:
    def test_metrics_are_four_plain_numbers(self):
        before = {
            name: get_registry().get(f"steg.objects.{name}").value
            for name in ("hits", "misses", "evictions", "size")
        }
        steg = _mkfs()
        steg.steg_create("doc", UAK, data=b"x" * 500)
        steg.steg_read("doc", UAK)
        steg.steg_read("doc", UAK)
        after = {name: get_registry().get(f"steg.objects.{name}").value for name in before}
        assert after["hits"] >= before["hits"] + 4  # directory + object, twice
        assert after["misses"] == before["misses"] + 1  # the first look for the UAK directory
        assert after["size"] == before["size"] + len(steg.volume.objects)
        assert len(steg.volume.objects) == 2 + steg.dummies.created
        exported = [name for name in get_registry().names() if name.startswith("steg.objects")]
        assert sorted(exported) == [f"steg.objects.{name}" for name in sorted(before)]
        steg.volume.objects.clear()
        assert get_registry().get("steg.objects.size").value == before["size"]
