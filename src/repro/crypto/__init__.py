"""Cryptographic substrate, implemented from scratch.

The paper's construction names AES (FIPS 197) for block encryption, SHA-256
(FIPS 180-2) both as one-way hash and — recursively applied — as the
pseudorandom block-number generator, and public-key encryption for the
sharing workflow.  All of them are implemented here with no third-party
crypto dependency; the test suite pins each against published vectors (and
``hashlib`` as an oracle for SHA-256/HMAC).
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
