"""A golden device image: the on-disk format, pinned by one digest.

A seeded drive of every kind of hidden mutation ends in one SHA-256 of the
raw device.  That one number depends on the HMAC subkeys, the SHA-256
candidate chain that places headers, the nonces, every sealed byte, the
plain layer's metadata and the journal's records — so a change that moves
any on-disk byte moves it.  ``GOLDEN`` was recorded at commit 569b8eb, before
the digests moved to ``hashlib`` and the AES round to a T-table gather; a PR
that changes it has changed the format and must say so.

The digest is taken with ``hashlib`` directly so the pin does not lean on
the code it pins.
"""

from __future__ import annotations

import hashlib
import random

from repro.core import StegFS, StegFSParams
from repro.crypto.kdf import derive_key
from repro.storage.block_device import RamDevice

GOLDEN = "c0c1a1322dc4bc83eb5276f3a8bafa3c97e473e8aeda43a2f0f733109572d6d9"


def build_image() -> bytes:
    device = RamDevice(block_size=1024, total_blocks=2048)
    rng = random.Random(2003)
    steg = StegFS.mkfs(
        device,
        params=StegFSParams.for_tests(),
        inode_count=64,
        rng=rng,
        auto_flush=False,
        journal_blocks=32,
    )
    # An explicit 32-block log (the size this volume had by default when
    # ``GOLDEN`` was recorded): the pin covers the log's encoding, not the
    # sizing policy, and the journal region is pinned too.
    assert steg.txn is not None
    alice = derive_key("alice's passphrase", iterations=8)
    bob = derive_key("bob's passphrase", iterations=8)

    steg.create("/readme.txt", b"plain files are visible by design\n" * 40)
    steg.steg_create("ledger", alice, data=rng.randbytes(5000))
    steg.steg_create("notes", alice, data=b"short")
    steg.steg_create("ledger", bob, data=rng.randbytes(3000))  # same name, other UAK
    steg.steg_write("notes", alice, rng.randbytes(9000))  # overwrite, growing
    steg.steg_write_extent("ledger", alice, 1500, rng.randbytes(2048))
    steg.steg_delete("ledger", bob)
    steg.dummy_tick()
    steg.flush()
    steg.device.flush()  # checkpoint: every committed image goes home

    assert steg.steg_read("notes", alice)[:1] != b""
    assert steg.steg_list(alice) == ["ledger", "notes"]
    assert steg.steg_list(bob) == []
    return steg.fs.raw_device.image()


def test_device_image_matches_the_recorded_golden():
    assert hashlib.sha256(build_image()).hexdigest() == GOLDEN
