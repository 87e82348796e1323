"""HMAC-SHA256 (RFC 2104): specified here from scratch, computed by ``hmac``.

StegFS keys everything off this MAC: the per-object subkeys and header
signature (:mod:`repro.crypto.kdf`), the passphrase KDF, block-integrity tags
in the StegRand baseline, authenticated sharing entries and backup images
(§3.3), and the wire handshake's proof.  :func:`hmac_sha256` computes with
the standard library's compiled ``hmac.digest``;
:func:`reference_hmac_sha256` is the RFC 2104 construction written out over
the reference :class:`~repro.crypto.sha256.SHA256`, which the tests hold the
former to.  No product code outside ``repro.crypto`` may import the
reference, and there is no switch between the two.
"""

from __future__ import annotations

import hmac

from repro.crypto.sha256 import BLOCK_SIZE, SHA256

__all__ = [
    "hmac_sha256",
    "reference_hmac_sha256",
    "verify_hmac_sha256",
    "constant_time_equal",
]


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256 of ``message`` under ``key`` (bytes-likes)."""
    return hmac.digest(key, message, "sha256")


def reference_hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 over the from-scratch SHA-256 — the tested reference."""
    key = bytes(key)
    if len(key) > BLOCK_SIZE:
        key = SHA256(key).digest()
    key = key.ljust(BLOCK_SIZE, b"\x00")
    inner_pad = bytes(b ^ 0x36 for b in key)
    outer_pad = bytes(b ^ 0x5C for b in key)
    inner = SHA256(inner_pad)
    inner.update(message)
    outer = SHA256(outer_pad)
    outer.update(inner.digest())
    return outer.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two bytes-likes in time independent of where they differ.

    False on unequal lengths, like the comparison it guards: the wire
    handshake's proof check and :func:`verify_hmac_sha256`.
    """
    return hmac.compare_digest(a, b)


def verify_hmac_sha256(key: bytes, message: bytes, tag: bytes) -> bool:
    """Return True iff ``tag`` is the HMAC-SHA256 of ``message`` under ``key``."""
    return constant_time_equal(hmac_sha256(key, message), tag)
