"""Key derivation, purpose separation, and the UAK level hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.kdf import KEY_SIZE, derive_key, iterated_kdf, level_keys, subkey
from repro.crypto.sha256 import sha256
from repro.errors import InvalidKeyError


class TestDeriveKey:
    def test_deterministic_and_sized(self):
        k1 = derive_key("hunter2")
        k2 = derive_key("hunter2")
        assert k1 == k2
        assert len(k1) == KEY_SIZE

    def test_salt_and_passphrase_sensitivity(self):
        base = derive_key("pass", salt=b"s1")
        assert derive_key("pass", salt=b"s2") != base
        assert derive_key("pass2", salt=b"s1") != base

    def test_accepts_bytes_passphrase(self):
        assert derive_key(b"raw") == derive_key("raw")

    def test_rejects_empty(self):
        with pytest.raises(InvalidKeyError):
            derive_key("")

    def test_iteration_count_changes_key(self):
        assert iterated_kdf(b"p", b"s", 10) != iterated_kdf(b"p", b"s", 11)

    def test_rejects_zero_iterations(self):
        with pytest.raises(InvalidKeyError):
            iterated_kdf(b"p", b"s", 0)


class TestSubkey:
    def test_purposes_are_disjoint(self):
        master = derive_key("master")
        purposes = ["encrypt", "signature", "locator", "mac", "dummy"]
        keys = [subkey(master, p) for p in purposes]
        assert len(set(keys)) == len(keys)

    def test_context_separates(self):
        master = derive_key("master")
        assert subkey(master, "encrypt", b"file1") != subkey(master, "encrypt", b"file2")

    def test_unknown_purpose_rejected(self):
        with pytest.raises(InvalidKeyError):
            subkey(b"k" * 32, "exfiltrate")

    def test_empty_master_rejected(self):
        with pytest.raises(InvalidKeyError):
            subkey(b"", "encrypt")


class TestLevelHierarchy:
    def test_top_derives_all_lower(self):
        top = derive_key("top-secret")
        chain = level_keys(top, 4)
        assert len(chain) == 4
        assert chain[-1] == top
        # Each key hashes down to the one below it (the one-way property).
        for higher, lower in zip(chain[1:], chain[:-1]):
            assert sha256(higher + b"stegfs-level-down") == lower

    def test_lower_levels_do_not_reveal_higher(self):
        chain = level_keys(derive_key("x"), 3)
        # Knowing chain[0] lets you derive nothing above it by hashing down.
        assert sha256(chain[0] + b"stegfs-level-down") not in chain

    def test_single_level(self):
        top = derive_key("solo")
        assert level_keys(top, 1) == [top]

    def test_rejects_zero_levels(self):
        with pytest.raises(InvalidKeyError):
            level_keys(b"k" * 32, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_prefix_consistency(self, small, extra):
        """A hierarchy's lower levels are independent of its height.

        Signing on at level n must see the same level keys regardless of how
        many higher levels exist — guaranteed because lower keys are derived
        by hashing *down* from whatever key the user presents.
        """
        top = derive_key("hier")
        tall = level_keys(top, small + extra)
        short = level_keys(tall[small - 1], small)
        assert tall[:small] == short
