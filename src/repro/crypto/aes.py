"""AES block cipher implemented from scratch (FIPS 197).

The paper encrypts every hidden-file block with AES (§4, reference [5]).
This module provides the single-block primitive for AES-128/192/256; the one
mode the file system uses, a numpy-vectorised bulk CTR, lives in
:mod:`repro.crypto.vector_aes`.

The S-box and its inverse are *derived*, not pasted: each entry is the
affine transform of the multiplicative inverse in GF(2^8) modulo the AES
polynomial x^8 + x^4 + x^3 + x + 1 (0x11B).  Tests pin the table against the
published FIPS 197 values and the cipher against the FIPS 197 / NIST SP
800-38A vectors.
"""

from __future__ import annotations

from repro.errors import InvalidKeyError

__all__ = ["AES", "SBOX", "INV_SBOX", "BLOCK_SIZE"]

BLOCK_SIZE = 16


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    """Construct the AES S-box from first principles.

    Inverses are generated by walking the cyclic group with generator 3
    (log/antilog tables), then applying the FIPS 197 affine transform.
    """
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transform: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        transformed = 0
        for bit in range(8):
            parity = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= parity << bit
        sbox[value] = transformed

    inv_sbox = bytearray(256)
    for value, substituted in enumerate(sbox):
        inv_sbox[substituted] = value
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)

# Precomputed xtime tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gf_mul(i, 2) for i in range(256))
_MUL3 = bytes(_gf_mul(i, 3) for i in range(256))
_MUL9 = bytes(_gf_mul(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul(i, 14) for i in range(256))

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


class AES:
    """AES-128/192/256 single-block cipher.

    The state is kept as a flat 16-byte list in column-major (FIPS) order:
    byte ``r + 4c`` of the list is state row ``r``, column ``c``.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise InvalidKeyError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = _ROUNDS_BY_KEYLEN[len(key)]
        self._round_keys = self._expand_key(key)

    @property
    def rounds(self) -> int:
        """Number of cipher rounds (10/12/14 for 128/192/256-bit keys)."""
        return self._rounds

    def _expand_key(self, key: bytes) -> list[list[int]]:
        """FIPS 197 key schedule; returns one 16-byte list per round key."""
        nk = len(key) // 4
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]
            words.append([w ^ t for w, t in zip(words[i - nk], temp)])
        return [
            [b for word in words[4 * r : 4 * r + 4] for b in word]
            for r in range(self._rounds + 1)
        ]

    @staticmethod
    def _shift_rows(state: list[int]) -> list[int]:
        # Column-major layout: entry r + 4c.  Row r rotates left by r.
        return [
            state[0], state[5], state[10], state[15],
            state[4], state[9], state[14], state[3],
            state[8], state[13], state[2], state[7],
            state[12], state[1], state[6], state[11],
        ]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> list[int]:
        return [
            state[0], state[13], state[10], state[7],
            state[4], state[1], state[14], state[11],
            state[8], state[5], state[2], state[15],
            state[12], state[9], state[6], state[3],
        ]

    @staticmethod
    def _mix_columns(state: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            out[c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return out

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = state[c : c + 4]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(plaintext)}")
        keys = self._round_keys
        state = [b ^ k for b, k in zip(plaintext, keys[0])]
        for rnd in range(1, self._rounds):
            state = [SBOX[b] for b in state]
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            state = [b ^ k for b, k in zip(state, keys[rnd])]
        state = [SBOX[b] for b in state]
        state = self._shift_rows(state)
        state = [b ^ k for b, k in zip(state, keys[self._rounds])]
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(ciphertext) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(ciphertext)}")
        keys = self._round_keys
        state = [b ^ k for b, k in zip(ciphertext, keys[self._rounds])]
        state = self._inv_shift_rows(state)
        state = [INV_SBOX[b] for b in state]
        for rnd in range(self._rounds - 1, 0, -1):
            state = [b ^ k for b, k in zip(state, keys[rnd])]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [INV_SBOX[b] for b in state]
        state = [b ^ k for b, k in zip(state, keys[0])]
        return bytes(state)
