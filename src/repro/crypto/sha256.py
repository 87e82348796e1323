"""SHA-256 (FIPS 180-2): specified here from scratch, computed by ``hashlib``.

The paper uses SHA-256 both as its one-way hash (file signatures, §3.1) and,
recursively applied, as the pseudorandom block-number generator used to place
and locate hidden-file headers (§4).  This module is the single door to the
hash for the whole library: everything under ``src/`` calls :func:`sha256` /
:func:`sha256_hex`, and both compute with the standard library's compiled
``hashlib.sha256``: every hidden access pays three HMACs and a candidate
chain, which the interpreted compression function prices at milliseconds.

:class:`SHA256` is the specification written out: message padding to a
multiple of 64 bytes with an appended 64-bit big-endian bit length, then
64 rounds of the compression function per block.  It is the *reference* —
the tests pin it against the FIPS 180-2 published vectors and pin the
one-shot functions against it — and no product code outside
``repro.crypto`` may import it.  There is no switch between the two.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["SHA256", "sha256", "sha256_hex", "DIGEST_SIZE", "BLOCK_SIZE"]

DIGEST_SIZE = 32
BLOCK_SIZE = 64

# First 32 bits of the fractional parts of the cube roots of the first 64
# primes (FIPS 180-2 §4.2.2).
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

# First 32 bits of the fractional parts of the square roots of the first 8
# primes (initial hash value, FIPS 180-2 §5.3.2).
_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    """One application of the SHA-256 compression function."""
    w = list(struct.unpack(">16I", block))
    for t in range(16, 64):
        s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
        s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
        w.append((w[t - 16] + s0 + w[t - 7] + s1) & _MASK)

    a, b, c, d, e, f, g, h = state
    for t in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        t1 = (h + big_s1 + ch + _K[t] + w[t]) & _MASK
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        t2 = (big_s0 + maj) & _MASK
        h, g, f, e = g, f, e, (d + t1) & _MASK
        d, c, b, a = c, b, a, (t1 + t2) & _MASK

    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
        (state[4] + e) & _MASK,
        (state[5] + f) & _MASK,
        (state[6] + g) & _MASK,
        (state[7] + h) & _MASK,
    )


class SHA256:
    """Incremental SHA-256 with the familiar ``update`` / ``digest`` API."""

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._state: tuple[int, ...] = _H0
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes, got {type(data).__name__}")
        data = bytes(data)
        self._length += len(data)
        buf = self._buffer + data
        n_whole = len(buf) // BLOCK_SIZE
        for i in range(n_whole):
            self._state = _compress(self._state, buf[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])
        self._buffer = buf[n_whole * BLOCK_SIZE :]

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything absorbed so far."""
        bit_length = self._length * 8
        pad_len = (55 - self._length) % 64
        tail = b"\x80" + b"\x00" * pad_len + struct.pack(">Q", bit_length)
        state = self._state
        buf = self._buffer + tail
        for i in range(0, len(buf), BLOCK_SIZE):
            state = _compress(state, buf[i : i + BLOCK_SIZE])
        return struct.pack(">8I", *state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self) -> "SHA256":
        """Return an independent clone of the current hash state."""
        clone = SHA256()
        clone._state = self._state
        clone._buffer = self._buffer
        clone._length = self._length
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data`` (any bytes-like object)."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """One-shot SHA-256 hex digest of ``data`` (any bytes-like object)."""
    return hashlib.sha256(data).hexdigest()
