"""Extent I/O and the batched sealing pipeline at the hidden-object level."""

from __future__ import annotations

import random
from unittest.mock import Mock

import pytest

from repro.core import blockio
from repro.core.hidden_file import HiddenFile
from repro.core.keys import ObjectKeys
from repro.core.params import StegFSParams
from repro.core.volume import HiddenVolume
from repro.errors import StegFSError
from repro.storage.bitmap import Bitmap
from repro.storage.block_device import RamDevice

KEY = b"K" * 32


def make_keys(tag: str = "x") -> ObjectKeys:
    return ObjectKeys.derive("extent-" + tag, b"F" * 32)


@pytest.fixture
def hidden(volume) -> HiddenFile:
    return HiddenFile.create(volume, make_keys(), data=b"")


def room_of(volume) -> int:
    return blockio.capacity(volume.block_size)


class TestSealMany:
    def test_matches_seal_loop_including_rng_stream(self, rng):
        twin = random.Random(0xC0FFEE)
        payloads = [bytes([i]) * (i * 7 % 200) for i in range(24)]
        assert blockio.seal_many(KEY, payloads, 256, rng) == [
            blockio.seal(KEY, p, 256, twin) for p in payloads
        ]

    def test_unseal_many_matches_loop(self, rng):
        sealed = blockio.seal_many(KEY, [b"alpha", b"beta", b""], 256, rng)
        assert blockio.unseal_many(KEY, sealed) == [
            blockio.unseal(KEY, image) for image in sealed
        ]

    def test_empty_batch(self, rng):
        assert blockio.seal_many(KEY, [], 256, rng) == []
        assert blockio.unseal_many(KEY, []) == []

    def test_oversized_payload_rejected(self, rng):
        too_big = b"z" * (blockio.capacity(256) + 1)
        with pytest.raises(StegFSError):
            blockio.seal_many(KEY, [b"ok", too_big], 256, rng)

    def test_truncated_image_rejected(self):
        with pytest.raises(StegFSError):
            blockio.unseal_many(KEY, [b"tiny"])


class TestReadExtent:
    def test_within_one_block(self, hidden):
        hidden.write(b"0123456789")
        assert hidden.read_extent(2, 5) == b"23456"

    def test_across_block_boundaries(self, hidden, volume):
        room = room_of(volume)
        data = bytes(range(256)) * ((3 * room) // 256 + 1)
        data = data[: 3 * room]
        hidden.write(data)
        assert hidden.read_extent(room - 3, 7) == data[room - 3 : room + 4]
        assert hidden.read_extent(0, len(data)) == data
        assert hidden.read_extent(room, room) == data[room : 2 * room]

    def test_truncates_at_eof(self, hidden):
        hidden.write(b"abcdef")
        assert hidden.read_extent(4, 100) == b"ef"
        assert hidden.read_extent(6, 5) == b""
        assert hidden.read_extent(999, 5) == b""

    def test_zero_length(self, hidden):
        hidden.write(b"abc")
        assert hidden.read_extent(1, 0) == b""

    def test_negative_rejected(self, hidden):
        with pytest.raises(ValueError):
            hidden.read_extent(-1, 4)
        with pytest.raises(ValueError):
            hidden.read_extent(0, -4)


class TestWriteExtent:
    def test_overwrite_in_place(self, hidden):
        hidden.write(b"hello world")
        hidden.write_extent(6, b"earth")
        assert hidden.read() == b"hello earth"
        assert hidden.size == 11

    def test_grow_at_end(self, hidden):
        hidden.write(b"abc")
        hidden.write_extent(3, b"def")
        assert hidden.read() == b"abcdef"

    def test_gap_zero_filled(self, hidden, volume):
        room = room_of(volume)
        hidden.write(b"head")
        hidden.write_extent(3 * room + 5, b"tail")
        expected = b"head" + b"\x00" * (3 * room + 5 - 4) + b"tail"
        assert hidden.read() == expected
        assert hidden.size == 3 * room + 9

    def test_empty_write_is_noop(self, hidden):
        hidden.write(b"abc")
        hidden.write_extent(1, b"")
        assert hidden.read() == b"abc"

    def test_negative_offset_rejected(self, hidden):
        with pytest.raises(ValueError):
            hidden.write_extent(-1, b"x")

    def test_cross_boundary_overwrite(self, hidden, volume):
        room = room_of(volume)
        base = bytes([7]) * (2 * room + 10)
        hidden.write(base)
        patch = bytes([9]) * (room + 4)
        hidden.write_extent(room - 2, patch)
        expected = bytearray(base)
        expected[room - 2 : room - 2 + len(patch)] = patch
        assert hidden.read() == bytes(expected)

    def test_only_extent_blocks_rewritten(self, hidden, volume):
        """An in-place 1-byte patch rewrites one data block (+ nothing else
        when size and mapping are unchanged)."""
        room = room_of(volume)
        hidden.write(bytes(3 * room))
        footprint = hidden.footprint()
        before = {b: volume.device.read_block(b) for b in hidden.all_blocks()}
        hidden.write_extent(room + 1, b"\xff")
        after = {b: volume.device.read_block(b) for b in hidden.all_blocks()}
        changed = {b for b in before if before[b] != after[b]}
        assert changed == {footprint["data"][1]}

    def test_persists_across_reopen(self, volume):
        keys = make_keys("persist")
        hidden = HiddenFile.create(volume, keys, data=b"persist me")
        hidden.write_extent(8, b"NOW and more")
        reopened = HiddenFile.open(volume, keys)
        assert reopened.read() == b"persist NOW and more"

    def test_append_uses_extent_path(self, hidden, volume):
        room = room_of(volume)
        hidden.write(b"x" * (room + 3))
        hidden.append(b"yz")
        assert hidden.read() == b"x" * (room + 3) + b"yz"
        assert hidden.size == room + 5

    def test_random_against_reference(self, volume):
        hidden = HiddenFile.create(volume, make_keys("fuzz"), data=b"")
        ref = bytearray()
        oprng = random.Random(31337)
        for _ in range(60):
            offset = oprng.randrange(0, len(ref) + 300)
            data = oprng.randbytes(oprng.randrange(1, 400))
            hidden.write_extent(offset, data)
            if offset > len(ref):
                ref.extend(b"\x00" * (offset - len(ref)))
            end = offset + len(data)
            if end > len(ref):
                ref.extend(b"\x00" * (end - len(ref)))
            ref[offset:end] = data
            assert hidden.size == len(ref)
            probe_at = oprng.randrange(0, len(ref))
            probe_len = oprng.randrange(0, 500)
            assert hidden.read_extent(probe_at, probe_len) == bytes(
                ref[probe_at : probe_at + probe_len]
            )
        assert hidden.read() == bytes(ref)


class CountingRamDevice(RamDevice):
    """RamDevice that logs every read it is asked for, single or batched."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.single_reads: list[int] = []
        self.batch_reads: list[list[int]] = []

    def read_block(self, index):
        self.single_reads.append(index)
        return super().read_block(index)

    def read_blocks(self, indices):
        indices = list(indices)
        self.batch_reads.append(indices)
        return super().read_blocks(indices)


class TestWholeObjectReadIsOneBatch:
    """The batching claim as counts: no data block is ever fetched or
    decrypted on its own, however many the object has."""

    N_BLOCKS = 12

    @pytest.fixture
    def counted(self, monkeypatch):
        device = CountingRamDevice(block_size=256, total_blocks=1024)
        device.fill_random(random.Random(9))
        volume = HiddenVolume(
            device=device,
            bitmap=Bitmap(1024),
            params=StegFSParams.for_tests(),
            rng=random.Random(1),
        )
        data = random.Random(2).randbytes(self.N_BLOCKS * room_of(volume))
        hidden = HiddenFile.create(volume, make_keys("count"), data=data)
        kernels = {
            name: Mock(wraps=getattr(blockio, name))
            for name in ("ctr_xor", "ctr_xor_many", "ctr_xor_concat")
        }
        for name, spy in kernels.items():
            monkeypatch.setattr(blockio, name, spy)
        device.single_reads.clear()
        device.batch_reads.clear()
        return volume, hidden, data, kernels

    def test_warm_read_is_one_device_batch_and_one_ctr_batch(self, counted):
        volume, hidden, data, kernels = counted
        data_blocks = hidden.footprint()["data"]
        assert len(data_blocks) == self.N_BLOCKS
        assert hidden.read() == data
        # One scatter-gather call carrying exactly the data blocks, in file
        # order; a device serves it as one request per contiguous run
        # (``iter_runs``), which is what stegbench counts as
        # ``storage.device_requests_per_op``.
        assert volume.device.batch_reads == [data_blocks]
        assert volume.device.single_reads == []
        assert {name: spy.call_count for name, spy in kernels.items()} == {
            "ctr_xor": 0,
            "ctr_xor_many": 0,
            "ctr_xor_concat": 1,
        }

    def test_cold_read_adds_only_header_and_chain_lookups(self, counted):
        volume, hidden, data, kernels = counted
        footprint = hidden.footprint()
        volume.objects.discard(hidden)
        assert HiddenFile.open(volume, make_keys("count")).read() == data
        # Finding the object costs single-block probes (header, then the
        # inode chain); the data still moves as the one batch.
        assert volume.device.batch_reads == [footprint["data"]]
        assert set(footprint["header"] + footprint["inode"]) <= set(volume.device.single_reads)
        assert not set(footprint["data"]) & set(volume.device.single_reads)
        assert kernels["ctr_xor_concat"].call_count == 1


class TestFacadeExtents:
    def test_read_write_extent_roundtrip(self, steg, uak):
        steg.steg_create("doc", uak, data=b"The quick brown fox")
        steg.steg_write_extent("doc", uak, 4, b"SLOW!")
        assert steg.steg_read("doc", uak) == b"The SLOW! brown fox"
        assert steg.steg_read_extent("doc", uak, 4, 5) == b"SLOW!"

    def test_extent_grows_file(self, steg, uak):
        steg.steg_create("log", uak, data=b"line1\n")
        steg.steg_write_extent("log", uak, 6, b"line2\n")
        assert steg.steg_read("log", uak) == b"line1\nline2\n"

    def test_directory_rejected(self, steg, uak):
        steg.steg_create("d", uak, objtype="d")
        with pytest.raises(StegFSError):
            steg.steg_write_extent("d", uak, 0, b"x")

    def test_batched_write_matches_whole_read(self, steg, uak, rng):
        data = rng.randbytes(5000)
        steg.steg_create("big", uak, data=data)
        assert steg.steg_read("big", uak) == data
        assert steg.steg_read_extent("big", uak, 1234, 777) == data[1234 : 1234 + 777]
