"""The bit-balance statistic sealed blocks are held to."""

from __future__ import annotations

from repro.crypto.modes import random_looking
from repro.crypto.vector_aes import ctr_xor

KEY = b"0123456789abcdef"


class TestBlockSealer:
    """What a block sealer emits — AES-CTR, as ``core/blockio`` seals —
    passes the statistic; the plaintext under it does not."""

    def test_sealed_block_looks_random(self):
        sealed = ctr_xor(KEY, b"n" * 8, b"\x00" * 4096)
        assert random_looking(sealed)
        # The all-zero plaintext itself must obviously fail the test.
        assert not random_looking(b"\x00" * 4096)
