"""Key derivation for StegFS keys.

The paper distinguishes *user access keys* (UAKs), typically derived from
passphrases, from per-file random *file access keys* (FAKs).  §3.2 further
suggests organising a user's UAKs in a *linear access hierarchy*: signing on
at level ``n`` reveals every level ``<= n``.  We realise the hierarchy with a
one-way chain — ``level_key(n-1) = H(level_key(n) || tag)`` — so possession
of a high level derives all lower levels but never the reverse.
"""

from __future__ import annotations

from repro.crypto.hmac import hmac_sha256
from repro.crypto.sha256 import sha256
from repro.errors import InvalidKeyError

__all__ = [
    "derive_key",
    "iterated_kdf",
    "subkey",
    "level_keys",
    "KEY_SIZE",
]

KEY_SIZE = 32

# Domain-separation tags.  Each derived key states what it is for, so a key
# derived for encryption can never collide with one derived for signatures.
_PURPOSES = frozenset({"encrypt", "signature", "locator", "mac", "dummy"})


def iterated_kdf(passphrase: bytes, salt: bytes, iterations: int = 1000) -> bytes:
    """Stretch a passphrase into a 32-byte key by iterated keyed hashing.

    This is the 2003-era construction the paper era implies (password-based
    keys, cf. EFS reference [3]): ``k_0 = HMAC(salt, pass)``,
    ``k_i = HMAC(k_{i-1}, pass || i)``.
    """
    if iterations < 1:
        raise InvalidKeyError(f"iterations must be >= 1, got {iterations}")
    key = hmac_sha256(salt, passphrase)
    for i in range(1, iterations):
        key = hmac_sha256(key, passphrase + i.to_bytes(4, "little"))
    return key


def derive_key(passphrase: str | bytes, salt: bytes = b"stegfs", iterations: int = 1000) -> bytes:
    """Derive a UAK from a passphrase (convenience wrapper over the KDF)."""
    if isinstance(passphrase, str):
        passphrase = passphrase.encode("utf-8")
    if not passphrase:
        raise InvalidKeyError("passphrase must not be empty")
    return iterated_kdf(passphrase, salt, iterations)


def subkey(key: bytes, purpose: str, context: bytes = b"") -> bytes:
    """Derive a purpose-bound subkey from a master key.

    A hidden file's FAK is expanded into independent keys for data
    encryption, header signature, locator seeding, and MAC so that no two
    uses of the FAK ever feed the same keystream.
    """
    if purpose not in _PURPOSES:
        raise InvalidKeyError(f"unknown key purpose: {purpose!r}")
    if len(key) == 0:
        raise InvalidKeyError("empty master key")
    return hmac_sha256(key, purpose.encode("ascii") + b"\x00" + context)


def level_keys(top_key: bytes, levels: int) -> list[bytes]:
    """Return the linear access hierarchy derived from ``top_key``.

    Index ``levels - 1`` is the top (most privileged) key; index 0 the
    bottom.  Each key derives every key below it via a one-way hash chain,
    matching §3.2: signing on at a level reveals that level and lower.
    """
    if levels < 1:
        raise InvalidKeyError(f"levels must be >= 1, got {levels}")
    chain = [top_key]
    for _ in range(levels - 1):
        chain.append(sha256(chain[-1] + b"stegfs-level-down"))
    chain.reverse()
    return chain
