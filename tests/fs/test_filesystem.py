"""Plain file system: end-to-end behaviour on a RAM device."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.fs.filesystem import FileSystem
from repro.storage.block_device import RamDevice


def make_fs(total_blocks=512, block_size=256, policy="contiguous", **kwargs):
    device = RamDevice(block_size=block_size, total_blocks=total_blocks)
    return FileSystem.mkfs(device, alloc_policy=policy, inode_count=64, **kwargs)


class TestMkfsMount:
    def test_fresh_fs_has_empty_root(self):
        fs = make_fs()
        assert fs.listdir("/") == []

    def test_mount_roundtrip(self):
        fs = make_fs()
        fs.create("/hello.txt", b"hello world")
        fs.flush()
        again = FileSystem.mount(fs.device)
        assert again.read("/hello.txt") == b"hello world"
        assert again.listdir("/") == ["hello.txt"]

    def test_mount_foreign_device_rejected(self):
        device = RamDevice(block_size=256, total_blocks=64)
        with pytest.raises(BadSuperblockError):
            FileSystem.mount(device)

    def test_mount_geometry_mismatch_rejected(self):
        fs = make_fs(total_blocks=512)
        image = fs.device.read_block(0)
        other = RamDevice(block_size=256, total_blocks=600)
        other.write_block(0, image)
        with pytest.raises(BadSuperblockError):
            FileSystem.mount(other)

    def test_bad_policy_rejected(self):
        device = RamDevice(block_size=256, total_blocks=64)
        with pytest.raises(ValueError):
            FileSystem.mkfs(device, alloc_policy="magic")

    def test_metadata_marked_allocated(self):
        fs = make_fs()
        for block in fs.layout.metadata_blocks():
            assert fs.bitmap.is_allocated(block)


class TestCreateReadWrite:
    def test_create_and_read(self):
        fs = make_fs()
        fs.create("/a.txt", b"alpha")
        assert fs.read("/a.txt") == b"alpha"

    def test_empty_file(self):
        fs = make_fs()
        fs.create("/empty")
        assert fs.read("/empty") == b""
        assert fs.stat("/empty").n_blocks == 0

    def test_multi_block_file(self):
        fs = make_fs()
        data = bytes(range(256)) * 5  # 1280 bytes over 256-byte blocks
        fs.create("/big", data)
        assert fs.read("/big") == data
        assert fs.stat("/big").n_blocks == 5

    def test_indirect_block_file(self):
        """File large enough to need single-indirect pointers."""
        fs = make_fs(total_blocks=2048)
        data = b"i" * (256 * 20)  # 20 blocks > 12 direct
        fs.create("/indirect", data)
        assert fs.read("/indirect") == data

    def test_double_indirect_file(self):
        """File large enough to need double-indirect pointers."""
        fs = make_fs(total_blocks=2048)
        blocks_needed = 12 + (256 // 4) + 5  # direct + single + into double
        data = random.Random(1).randbytes(256 * blocks_needed)
        fs.create("/dbl", data)
        assert fs.read("/dbl") == data

    def test_create_duplicate_rejected(self):
        fs = make_fs()
        fs.create("/dup")
        with pytest.raises(FileExistsError_):
            fs.create("/dup")

    def test_write_replaces_content(self):
        fs = make_fs()
        fs.create("/f", b"old content here")
        fs.write("/f", b"new")
        assert fs.read("/f") == b"new"

    def test_write_grow_and_shrink_updates_blocks(self):
        fs = make_fs()
        fs.create("/f", b"x" * 600)
        assert fs.stat("/f").n_blocks == 3
        fs.write("/f", b"y" * 100)
        assert fs.stat("/f").n_blocks == 1
        fs.write("/f", b"z" * 1000)
        assert fs.stat("/f").n_blocks == 4
        assert fs.read("/f") == b"z" * 1000

    def test_missing_file_errors(self):
        fs = make_fs()
        with pytest.raises(FileNotFoundError_):
            fs.read("/ghost")
        with pytest.raises(FileNotFoundError_):
            fs.write("/ghost", b"")
        with pytest.raises(FileNotFoundError_):
            fs.unlink("/ghost")

    def test_no_space_rolls_back(self):
        fs = make_fs(total_blocks=80)
        free_before = fs.bitmap.free_count
        with pytest.raises(NoSpaceError):
            fs.create("/huge", b"x" * (256 * 100))
        assert fs.bitmap.free_count == free_before
        assert not fs.exists("/huge")

    def test_write_no_space_preserves_old_content(self):
        fs = make_fs(total_blocks=80)
        fs.create("/f", b"keep me")
        with pytest.raises(NoSpaceError):
            fs.write("/f", b"x" * (256 * 100))
        assert fs.read("/f") == b"keep me"


class TestRangeIO:
    def test_read_range(self):
        fs = make_fs()
        fs.create("/f", bytes(range(256)) * 4)
        assert fs.read_range("/f", 0, 10) == bytes(range(10))
        assert fs.read_range("/f", 250, 12) == bytes([250, 251, 252, 253, 254, 255, 0, 1, 2, 3, 4, 5])

    def test_read_range_clamps_at_eof(self):
        fs = make_fs()
        fs.create("/f", b"abcdef")
        assert fs.read_range("/f", 4, 100) == b"ef"
        assert fs.read_range("/f", 100, 5) == b""

    def test_read_range_validates(self):
        fs = make_fs()
        fs.create("/f", b"abc")
        with pytest.raises(ValueError):
            fs.read_range("/f", -1, 2)

    def test_write_range_overwrite_middle(self):
        fs = make_fs()
        fs.create("/f", b"a" * 600)
        fs.write_range("/f", 100, b"B" * 50)
        content = fs.read("/f")
        assert content[:100] == b"a" * 100
        assert content[100:150] == b"B" * 50
        assert content[150:] == b"a" * 450

    def test_write_range_extends(self):
        fs = make_fs()
        fs.create("/f", b"start")
        fs.write_range("/f", 5, b"-more-data" * 60)
        assert fs.stat("/f").size == 5 + 600
        assert fs.read("/f")[:5] == b"start"

    def test_write_range_past_eof_zero_fills_gap(self):
        fs = make_fs()
        fs.create("/f", b"ab")
        fs.write_range("/f", 300, b"tail")
        content = fs.read("/f")
        assert content[:2] == b"ab"
        assert content[2:300] == b"\x00" * 298
        assert content[300:] == b"tail"

    def test_the_gap_is_zeros_on_blocks_that_held_data_before(self):
        """The hole's blocks come from the free list with their last owner's
        bytes in them, and a shrunk file's last block keeps its old tail."""
        fs = make_fs()
        fs.create("/f", b"\xaa" * 2000)
        fs.write("/f", b"\xbb" * 600)  # frees eight dirty blocks, takes three
        fs.write_range("/f", 1900, b"tail")  # hole: the rest of block 2, blocks 3-6
        assert fs.read("/f") == b"\xbb" * 600 + b"\x00" * 1300 + b"tail"
        fs.truncate("/f", 10)
        fs.write_range("/f", 200, b"end")  # same block: 0xbb was behind byte 10
        assert fs.read("/f") == b"\xbb" * 10 + b"\x00" * 190 + b"end"
        fs.truncate("/f", 5)
        fs.write_range("/f", 600, b"end")  # the next block: block 0 is not rewritten
        assert fs.read("/f") == b"\xbb" * 5 + b"\x00" * 595 + b"end"

    def test_append(self):
        fs = make_fs()
        fs.create("/log", b"line1\n")
        fs.append("/log", b"line2\n")
        assert fs.read("/log") == b"line1\nline2\n"

    def test_truncate_shrink_frees_blocks(self):
        fs = make_fs()
        fs.create("/f", b"x" * 1000)
        used = fs.bitmap.allocated_count
        fs.truncate("/f", 10)
        assert fs.read("/f") == b"x" * 10
        assert fs.bitmap.allocated_count < used

    def test_truncate_extend_zero_fills(self):
        fs = make_fs()
        fs.create("/f", b"ab")
        fs.truncate("/f", 600)
        assert fs.read("/f") == b"ab" + b"\x00" * 598


class TestDirectories:
    def test_mkdir_listdir(self):
        fs = make_fs()
        fs.mkdir("/docs")
        fs.create("/docs/a.txt", b"a")
        fs.create("/docs/b.txt", b"b")
        assert fs.listdir("/docs") == ["a.txt", "b.txt"]
        assert fs.listdir("/") == ["docs"]

    def test_nested_directories(self):
        fs = make_fs()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/b/deep.txt", b"deep")
        assert fs.read("/a/b/deep.txt") == b"deep"
        assert fs.stat("/a/b").is_dir

    def test_mkdir_missing_parent(self):
        fs = make_fs()
        with pytest.raises(FileNotFoundError_):
            fs.mkdir("/no/such")

    def test_file_as_directory_component(self):
        fs = make_fs()
        fs.create("/plain", b"")
        with pytest.raises(NotADirectoryError_):
            fs.create("/plain/child", b"")

    def test_rmdir_empty_only(self):
        fs = make_fs()
        fs.mkdir("/d")
        fs.create("/d/f", b"")
        with pytest.raises(FileSystemError):
            fs.rmdir("/d")
        fs.unlink("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_root_rejected(self):
        with pytest.raises(InvalidPathError):
            make_fs().rmdir("/")

    def test_unlink_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.unlink("/d")

    def test_read_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryError_):
            fs.read("/d")


class TestUnlinkAndSpace:
    def test_unlink_frees_space(self):
        fs = make_fs()
        free_before = fs.bitmap.free_count
        fs.create("/f", b"x" * 2000)
        assert fs.bitmap.free_count < free_before
        fs.unlink("/f")
        assert fs.bitmap.free_count == free_before
        assert not fs.exists("/f")

    def test_inode_slot_reused(self):
        fs = make_fs()
        fs.create("/a", b"1")
        first = fs.stat("/a").inode
        fs.unlink("/a")
        fs.create("/b", b"2")
        assert fs.stat("/b").inode == first


class TestAllocationPolicies:
    def test_contiguous_files_are_contiguous(self):
        fs = make_fs(policy="contiguous")
        fs.create("/f", b"c" * 1500)
        blocks = fs.file_blocks("/f")
        assert blocks == list(range(blocks[0], blocks[0] + len(blocks)))

    def test_fragmented_files_are_piecewise(self):
        fs = make_fs(total_blocks=4096, policy="fragmented", rng=random.Random(3))
        fs.create("/f", b"f" * (256 * 32))
        blocks = fs.file_blocks("/f")
        assert len(blocks) == 32
        fragments = [blocks[i : i + 8] for i in range(0, 32, 8)]
        for fragment in fragments:
            assert fragment == list(range(fragment[0], fragment[0] + 8))
        starts = [f[0] for f in fragments]
        gaps = [b - (a + 8) for a, b in zip(starts, starts[1:])]
        assert any(g != 0 for g in gaps)

    def test_random_policy_scatters(self):
        fs = make_fs(total_blocks=4096, policy="random", rng=random.Random(3))
        fs.create("/f", b"r" * (256 * 16))
        blocks = fs.file_blocks("/f")
        assert blocks != sorted(blocks)

    def test_policy_persists_across_mount(self):
        fs = make_fs(policy="fragmented")
        fs.flush()
        again = FileSystem.mount(fs.device)
        assert again.superblock.alloc_policy == fs.superblock.alloc_policy


class TestCensus:
    def test_plain_owned_covers_file_blocks(self):
        fs = make_fs()
        fs.mkdir("/d")
        fs.create("/d/f", b"x" * 1000)
        owned = fs.plain_owned_blocks()
        for block in fs.file_blocks("/d/f"):
            assert block in owned

    def test_unaccounted_empty_on_plain_volume(self):
        fs = make_fs()
        fs.create("/f", b"data")
        assert fs.unaccounted_blocks() == set()

    def test_unaccounted_sees_foreign_allocation(self):
        fs = make_fs()
        fs.bitmap.allocate(fs.layout.data_start + 40)  # simulated hidden block
        assert fs.unaccounted_blocks() == {fs.layout.data_start + 40}


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["create", "write", "append", "unlink"]),
            st.sampled_from(["a", "b", "c"]),
            st.binary(max_size=700),
        ),
        max_size=12,
    )
)
def test_model_based_property(ops):
    """The FS agrees with a dict model under random op sequences."""
    fs = make_fs(total_blocks=1024)
    model: dict[str, bytes] = {}
    for action, name, data in ops:
        path = "/" + name
        if action == "create":
            if name in model:
                with pytest.raises(FileExistsError_):
                    fs.create(path, data)
            else:
                fs.create(path, data)
                model[name] = data
        elif action == "write":
            if name in model:
                fs.write(path, data)
                model[name] = data
            else:
                with pytest.raises(FileNotFoundError_):
                    fs.write(path, data)
        elif action == "append":
            if name in model:
                fs.append(path, data)
                model[name] = model[name] + data
        elif action == "unlink":
            if name in model:
                fs.unlink(path)
                del model[name]
    for name, expected in model.items():
        assert fs.read("/" + name) == expected
    assert fs.listdir("/") == sorted(model)
