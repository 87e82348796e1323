"""End-to-end scenario across every layer of the system.

One long, stateful walk: mkfs → plain tree → hidden objects → sharing →
session I/O → snapshot attacker → backup → disk death → recovery →
post-recovery work.  Asserts cross-layer consistency (exact bitmap
accounting) at each stage.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import census_unaccounted, detection_report
from repro.core import StegFS, StegFSParams
from repro.crypto import derive_key, generate_keypair, level_keys
from repro.errors import HiddenObjectNotFoundError
from repro.storage.block_device import RamDevice


@pytest.fixture(scope="module")
def world():
    """Build the whole scenario once; tests below inspect its stages."""
    rng = random.Random(2003)
    params = StegFSParams(
        abandoned_fraction=0.01,
        dummy_count=3,
        dummy_avg_size=8 * 1024,
        pool_min=1,
        pool_max=6,
    )
    steg = StegFS.mkfs(
        RamDevice(block_size=512, total_blocks=8192),
        params=params,
        inode_count=128,
        rng=rng,
    )

    alice_top = derive_key("alice-secret")
    routine, sensitive = level_keys(alice_top, 2)
    bob_uak = derive_key("bob-secret")
    bob_keys = generate_keypair(bits=768, rng=random.Random(11))

    # Plain world.
    steg.mkdir("/pub")
    steg.create("/pub/readme.md", b"# public\n" * 20)
    steg.create("/pub/data.csv", rng.randbytes(9000))

    # Hidden world: nested directory + two levels.
    steg.steg_create("low-notes", routine, data=b"routine notes " * 50)
    steg.steg_create("vault", sensitive, objtype="d")
    steg.steg_create("vault/plans.txt", sensitive, data=rng.randbytes(20_000))

    # Hide an existing plain file (steg_hide) and share it with Bob.
    steg.create("/pub/salaries.xls", rng.randbytes(15_000))
    salaries = steg.read("/pub/salaries.xls")
    steg.steg_hide("/pub/salaries.xls", "vault/salaries.xls", sensitive)
    blob = steg.steg_getentry("vault/salaries.xls", sensitive, bob_keys.public)
    steg.steg_addentry(blob, bob_uak, bob_keys.private)

    # Session activity over a connected object.
    steg.steg_connect("vault", sensitive)
    plans = steg.session.read("vault/plans.txt")
    steg.session.write("vault/plans.txt", plans + b"\nappended via session")
    steg.flush()

    backup = steg.steg_backup()
    return {
        "steg": steg,
        "routine": routine,
        "sensitive": sensitive,
        "bob_uak": bob_uak,
        "salaries": salaries,
        "backup": backup,
        "params": params,
    }


class TestLiveVolume:
    def test_plain_tree_intact(self, world):
        steg = world["steg"]
        assert steg.listdir("/pub") == ["data.csv", "readme.md"]
        assert not steg.exists("/pub/salaries.xls")  # hidden away

    def test_hidden_objects_by_level(self, world):
        steg = world["steg"]
        assert steg.steg_list(world["routine"]) == ["low-notes"]
        assert steg.steg_list(world["sensitive"]) == ["vault"]
        assert steg.steg_list(world["sensitive"], "vault") == [
            "plans.txt",
            "salaries.xls",
        ]

    def test_hide_preserved_content(self, world):
        steg = world["steg"]
        assert (
            steg.steg_read("vault/salaries.xls", world["sensitive"])
            == world["salaries"]
        )

    def test_share_readable_by_bob(self, world):
        steg = world["steg"]
        assert steg.steg_read("salaries.xls", world["bob_uak"]) == world["salaries"]

    def test_session_write_through(self, world):
        steg = world["steg"]
        content = steg.steg_read("vault/plans.txt", world["sensitive"])
        assert content.endswith(b"\nappended via session")

    def test_bitmap_accounting_is_exact(self, world):
        """allocated == metadata + plain-owned + ground-truth hidden."""
        steg = world["steg"]
        expected = set(steg.fs.layout.metadata_blocks())
        expected |= steg.fs.plain_owned_blocks()
        # Hidden ground truth: user objects + UAK dirs + dummies + abandoned.
        unaccounted = steg.fs.unaccounted_blocks()
        allocated = {int(b) for b in steg.fs.bitmap.allocated_indices()}
        assert allocated == expected | unaccounted

    def test_census_attack_sees_decoys(self, world):
        steg = world["steg"]
        truth: set[int] = set()
        for name, uak in (
            ("low-notes", world["routine"]),
            ("vault/plans.txt", world["sensitive"]),
            ("vault/salaries.xls", world["sensitive"]),
        ):
            for blocks in steg.hidden_footprint(name, uak).values():
                truth.update(blocks)
        report = detection_report(census_unaccounted(steg.fs), truth)
        assert report.recall == 1.0
        assert report.precision < 0.8  # dummies, pools, UAK dirs, abandoned


class TestAfterRecovery:
    @pytest.fixture(scope="class")
    def restored(self, world):
        device = RamDevice(block_size=512, total_blocks=8192)
        return StegFS.steg_recovery(
            device, world["backup"], params=world["params"], rng=random.Random(17)
        )

    def test_plain_restored(self, restored, world):
        assert restored.read("/pub/readme.md") == b"# public\n" * 20

    def test_hidden_restored_for_all_parties(self, restored, world):
        assert (
            restored.steg_read("vault/salaries.xls", world["sensitive"])
            == world["salaries"]
        )
        assert restored.steg_read("salaries.xls", world["bob_uak"]) == world["salaries"]

    def test_level_hierarchy_still_works(self, restored, world):
        assert restored.steg_list(world["routine"]) == ["low-notes"]

    def test_post_recovery_mutation(self, restored, world):
        restored.steg_write("low-notes", world["routine"], b"fresh after restore")
        assert (
            restored.steg_read("low-notes", world["routine"])
            == b"fresh after restore"
        )

    def test_revocation_after_recovery(self, restored, world):
        restored.steg_revoke("vault/salaries.xls", world["sensitive"])
        with pytest.raises(HiddenObjectNotFoundError):
            restored.steg_read("salaries.xls", world["bob_uak"])
        assert restored.steg_prune(world["bob_uak"]) == ["salaries.xls"]
