"""The StegFS facade: the nine §4 APIs plus hidden I/O and sessions."""

from __future__ import annotations

import random

import pytest

from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.crypto.rsa import generate_keypair
from repro.errors import (
    HiddenObjectExistsError,
    HiddenObjectNotFoundError,
    NotConnectedError,
    StegFSError,
)
from repro.storage.block_device import RamDevice


class TestMkfs:
    def test_abandoned_blocks_created(self, steg):
        """§3.1: ~1 % of blocks allocated but owned by nothing (here 1 % of
        4096 = 40), plus dummies — all invisible to the plain census."""
        unaccounted = steg.fs.unaccounted_blocks()
        expected_abandoned = int(
            steg.params.abandoned_fraction * steg.device.total_blocks
        )
        assert len(unaccounted) >= expected_abandoned

    def test_dummies_created_and_openable(self, steg):
        assert steg.dummies.live_indices() == list(range(steg.params.dummy_count))

    def test_plain_api_passthrough(self, steg):
        steg.mkdir("/docs")
        steg.create("/docs/readme.txt", b"public text")
        assert steg.read("/docs/readme.txt") == b"public text"
        assert steg.listdir("/docs") == ["readme.txt"]
        assert steg.exists("/docs/readme.txt")
        steg.append("/docs/readme.txt", b"!")
        assert steg.stat("/docs/readme.txt").size == 12
        steg.unlink("/docs/readme.txt")
        steg.rmdir("/docs")
        assert steg.listdir("/") == []

    def test_mount_roundtrip(self, steg, uak):
        steg.steg_create("secret", uak, data=b"hidden across mounts")
        steg.flush()
        again = StegFS.mount(steg.device, params=steg.params, rng=random.Random(11))
        assert again.steg_read("secret", uak) == b"hidden across mounts"


class TestHiddenCRUD:
    def test_create_read_write_delete(self, steg, uak):
        steg.steg_create("budget", uak, data=b"v1")
        assert steg.steg_read("budget", uak) == b"v1"
        steg.steg_write("budget", uak, b"v2 much longer content " * 40)
        assert steg.steg_read("budget", uak) == b"v2 much longer content " * 40
        steg.steg_delete("budget", uak)
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read("budget", uak)

    def test_wrong_uak_sees_nothing(self, steg, uak, other_uak):
        steg.steg_create("secret", uak, data=b"sensitive")
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read("secret", other_uak)
        assert steg.steg_list(other_uak) == []

    def test_duplicate_create_rejected(self, steg, uak):
        steg.steg_create("x", uak)
        with pytest.raises(HiddenObjectExistsError):
            steg.steg_create("x", uak)

    def test_steg_list(self, steg, uak):
        steg.steg_create("b", uak)
        steg.steg_create("a", uak)
        assert steg.steg_list(uak) == ["a", "b"]

    def test_bad_objtype_rejected(self, steg, uak):
        with pytest.raises(StegFSError):
            steg.steg_create("x", uak, objtype="q")

    def test_hidden_files_not_in_plain_namespace(self, steg, uak):
        steg.steg_create("invisible", uak, data=b"...")
        assert steg.listdir("/") == []
        assert not steg.exists("/invisible")


class TestHiddenDirectories:
    def test_nested_create_and_list(self, steg, uak):
        steg.steg_create("vault", uak, objtype="d")
        steg.steg_create("vault/plans", uak, objtype="d")
        steg.steg_create("vault/plans/q3.txt", uak, data=b"Q3 numbers")
        assert steg.steg_list(uak) == ["vault"]
        assert steg.steg_list(uak, "vault") == ["plans"]
        assert steg.steg_list(uak, "vault/plans") == ["q3.txt"]
        assert steg.steg_read("vault/plans/q3.txt", uak) == b"Q3 numbers"

    def test_missing_parent_rejected(self, steg, uak):
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_create("nodir/f", uak)

    def test_delete_requires_empty_directory(self, steg, uak):
        steg.steg_create("d", uak, objtype="d")
        steg.steg_create("d/f", uak)
        with pytest.raises(StegFSError):
            steg.steg_delete("d", uak)
        steg.steg_delete("d/f", uak)
        steg.steg_delete("d", uak)
        assert steg.steg_list(uak) == []


class TestHideUnhide:
    def test_hide_removes_plain_and_preserves_content(self, steg, uak):
        steg.create("/visible.txt", b"soon to be hidden")
        steg.steg_hide("/visible.txt", "hidden.txt", uak)
        assert not steg.exists("/visible.txt")
        assert steg.steg_read("hidden.txt", uak) == b"soon to be hidden"

    def test_unhide_roundtrip(self, steg, uak):
        steg.create("/f", b"round trip")
        steg.steg_hide("/f", "h", uak)
        steg.steg_unhide("/back.txt", "h", uak)
        assert steg.read("/back.txt") == b"round trip"
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read("h", uak)

    def test_hide_directory_recursively(self, steg, uak):
        steg.mkdir("/project")
        steg.create("/project/a.txt", b"A")
        steg.mkdir("/project/sub")
        steg.create("/project/sub/b.txt", b"B")
        steg.steg_hide("/project", "proj", uak)
        assert not steg.exists("/project")
        assert steg.steg_read("proj/a.txt", uak) == b"A"
        assert steg.steg_read("proj/sub/b.txt", uak) == b"B"

    def test_unhide_directory_recursively(self, steg, uak):
        steg.steg_create("d", uak, objtype="d")
        steg.steg_create("d/x", uak, data=b"X")
        steg.steg_unhide("/restored", "d", uak)
        assert steg.read("/restored/x") == b"X"
        assert steg.steg_list(uak) == []


class TestSessions:
    def test_connect_read_disconnect(self, steg, uak):
        steg.steg_create("s", uak, data=b"session data")
        steg.steg_connect("s", uak)
        assert steg.session.read("s") == b"session data"
        steg.steg_disconnect("s")
        with pytest.raises(NotConnectedError):
            steg.session.read("s")

    def test_connect_directory_reveals_offspring(self, steg, uak):
        steg.steg_create("d", uak, objtype="d")
        steg.steg_create("d/one", uak, data=b"1")
        steg.steg_create("d/two", uak, data=b"2")
        steg.steg_connect("d", uak)
        assert steg.session.connected_names() == ["d", "d/one", "d/two"]
        assert steg.session.read("d/two") == b"2"

    def test_disconnect_directory_hides_offspring(self, steg, uak):
        steg.steg_create("d", uak, objtype="d")
        steg.steg_create("d/child", uak)
        steg.steg_connect("d", uak)
        steg.steg_disconnect("d")
        assert steg.session.connected_names() == []

    def test_session_write(self, steg, uak):
        steg.steg_create("w", uak, data=b"before")
        steg.steg_connect("w", uak)
        steg.session.write("w", b"after")
        assert steg.steg_read("w", uak) == b"after"

    def test_logout_disconnects_all(self, steg, uak):
        steg.steg_create("a", uak)
        steg.steg_create("b", uak)
        steg.steg_connect("a", uak)
        steg.steg_connect("b", uak)
        steg.session.disconnect_all()
        assert steg.session.connected_names() == []

    def test_separate_user_sessions(self, steg, uak):
        steg.steg_create("mine", uak, data=b"m")
        other = steg.new_session("bob")
        steg.steg_connect("mine", uak)
        assert "mine" in steg.session.connected_names()
        assert other.connected_names() == []


class TestSharingAPIs:
    def test_getentry_addentry_flow(self, steg, uak, other_uak, rng):
        recipient = generate_keypair(bits=768, rng=random.Random(42))
        steg.steg_create("shared.doc", uak, data=b"for bob's eyes")
        blob = steg.steg_getentry("shared.doc", uak, recipient.public)
        name = steg.steg_addentry(blob, other_uak, recipient.private)
        assert name == "shared.doc"
        assert steg.steg_read("shared.doc", other_uak) == b"for bob's eyes"

    def test_addentry_rename_on_collision(self, steg, uak, other_uak):
        recipient = generate_keypair(bits=768, rng=random.Random(42))
        steg.steg_create("doc", uak, data=b"alice's")
        steg.steg_create("doc", other_uak, data=b"bob's own")
        blob = steg.steg_getentry("doc", uak, recipient.public)
        with pytest.raises(HiddenObjectExistsError):
            steg.steg_addentry(blob, other_uak, recipient.private)
        name = steg.steg_addentry(blob, other_uak, recipient.private, new_name="doc-from-alice")
        assert steg.steg_read("doc-from-alice", other_uak) == b"alice's"
        assert steg.steg_read("doc", other_uak) == b"bob's own"

    def test_revoke_invalidates_old_fak(self, steg, uak, other_uak):
        recipient = generate_keypair(bits=768, rng=random.Random(42))
        steg.steg_create("doc", uak, data=b"v1")
        blob = steg.steg_getentry("doc", uak, recipient.public)
        steg.steg_addentry(blob, other_uak, recipient.private)
        steg.steg_revoke("doc", uak)
        # Owner still reads through the re-keyed entry...
        assert steg.steg_read("doc", uak) == b"v1"
        # ...but the recipient's stale (name, FAK) pair is dead.
        with pytest.raises(HiddenObjectNotFoundError):
            steg.steg_read("doc", other_uak)


class TestDummyMaintenance:
    def test_dummy_tick_runs(self, steg):
        assert steg.dummy_tick() is not None

    def test_hidden_footprint_exposed_for_analysis(self, steg, uak):
        steg.steg_create("f", uak, data=b"z" * 1000)
        footprint = steg.hidden_footprint("f", uak)
        assert set(footprint) == {"header", "inode", "data", "pool"}
        assert len(footprint["data"]) >= 4


class TestDeniability:
    def test_hidden_blocks_are_unaccounted_not_attributed(self, steg, uak):
        steg.steg_create("s", uak, data=b"q" * 2000)
        footprint = steg.hidden_footprint("s", uak)
        unaccounted = steg.fs.unaccounted_blocks()
        for category in footprint.values():
            for block in category:
                assert block in unaccounted

    def test_plain_view_identical_with_and_without_hidden_data(self):
        """The central directory carries no trace of hidden objects."""

        def build(with_hidden: bool) -> list[str]:
            device = RamDevice(block_size=256, total_blocks=4096)
            steg = StegFS.mkfs(
                device,
                params=StegFSParams.for_tests(),
                inode_count=64,
                rng=random.Random(5),
            )
            steg.create("/public.txt", b"hello")
            if with_hidden:
                steg.steg_create("secret", b"U" * 32, data=b"shh" * 500)
            return steg.listdir("/")

        assert build(True) == build(False) == ["public.txt"]
