"""Cryptographic substrate, with no third-party crypto dependency.

The paper's construction names AES (FIPS 197) for block encryption, SHA-256
(FIPS 180-2) both as one-way hash and — recursively applied — as the
pseudorandom block-number generator, and public-key encryption for the
sharing workflow.  AES, CTR, RSA, IDA, the KDF and the hash-chain generator
are implemented here from scratch and pinned against published vectors.
SHA-256 and HMAC are *specified* here from scratch (:class:`SHA256`,
:func:`repro.crypto.hmac.reference_hmac_sha256`; pinned against FIPS 180-2,
RFC 4231 and ``hashlib``) and *computed* by the standard library:
:func:`sha256`, :func:`sha256_hex` and :func:`hmac_sha256` are the one door
every caller uses, and the only modules that import ``hashlib`` / ``hmac``.
"""

from repro.crypto.aes import AES, BLOCK_SIZE as AES_BLOCK_SIZE
from repro.crypto.hmac import constant_time_equal, hmac_sha256, verify_hmac_sha256
from repro.crypto.ida import Share, disperse, reconstruct
from repro.crypto.kdf import KEY_SIZE, derive_key, iterated_kdf, level_keys, subkey
from repro.crypto.modes import random_looking
from repro.crypto.prng import BlockNumberGenerator, HashChainPRNG
from repro.crypto.rsa import KeyPair, RSAPrivateKey, RSAPublicKey, generate_keypair
from repro.crypto.sha256 import SHA256, sha256, sha256_hex
from repro.crypto.vector_aes import VectorAES, ctr_keystream, ctr_xor

__all__ = [
    "AES",
    "AES_BLOCK_SIZE",
    "BlockNumberGenerator",
    "HashChainPRNG",
    "KEY_SIZE",
    "KeyPair",
    "RSAPrivateKey",
    "RSAPublicKey",
    "SHA256",
    "Share",
    "VectorAES",
    "constant_time_equal",
    "ctr_keystream",
    "ctr_xor",
    "derive_key",
    "disperse",
    "generate_keypair",
    "hmac_sha256",
    "iterated_kdf",
    "level_keys",
    "random_looking",
    "reconstruct",
    "sha256",
    "sha256_hex",
    "subkey",
    "verify_hmac_sha256",
]
