"""SHA-256: the from-scratch reference against FIPS 180-2 and ``hashlib``.

``sha256()`` / ``sha256_hex()`` compute with ``hashlib``, so comparing *them*
to ``hashlib`` would be a tautology: the vectors, the padding boundaries and
the properties below all go through the reference :class:`SHA256`, and the
one-shots are held to the published vectors and to the reference.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import SHA256, sha256, sha256_hex

FIPS_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


@pytest.mark.parametrize("message,expected", FIPS_VECTORS)
def test_fips_vectors(message, expected):
    assert SHA256(message).hexdigest() == expected
    assert sha256_hex(message) == expected
    assert sha256(message).hex() == expected


def test_single_a_block_boundaries():
    # Lengths that straddle the 55/56/64-byte padding boundaries.
    for n in (54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128):
        message = b"a" * n
        assert SHA256(message).digest() == hashlib.sha256(message).digest(), n


def test_incremental_matches_oneshot():
    h = SHA256()
    h.update(b"hello ")
    h.update(b"")
    h.update(b"world")
    assert h.digest() == sha256(b"hello world")


def test_digest_is_idempotent():
    h = SHA256(b"data")
    first = h.digest()
    assert h.digest() == first
    h.update(b"more")
    assert h.digest() != first


def test_copy_forks_state():
    h = SHA256(b"prefix")
    fork = h.copy()
    h.update(b"-left")
    fork.update(b"-right")
    assert h.digest() == sha256(b"prefix-left")
    assert fork.digest() == sha256(b"prefix-right")


def test_update_rejects_str():
    h = SHA256()
    with pytest.raises(TypeError):
        h.update("not bytes")  # type: ignore[arg-type]


def test_accepts_bytearray_and_memoryview():
    assert sha256(bytearray(b"abc")) == sha256(b"abc")
    assert sha256(memoryview(b"abc")) == sha256(b"abc")
    assert SHA256(bytearray(b"abc")).digest() == sha256(b"abc")
    h = SHA256()
    h.update(memoryview(b"abc"))
    assert h.digest() == sha256(b"abc")


def test_100kb_against_hashlib():
    message = bytes(range(256)) * 400
    assert SHA256(message).digest() == hashlib.sha256(message).digest()


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=300))
def test_matches_hashlib_oracle(message):
    reference = SHA256(message).digest()
    assert reference == hashlib.sha256(message).digest()
    assert sha256(message) == reference


@settings(max_examples=20, deadline=None)
@given(st.lists(st.binary(max_size=100), max_size=8))
def test_incremental_chunking_invariant(chunks):
    h = SHA256()
    for chunk in chunks:
        h.update(chunk)
    assert h.digest() == hashlib.sha256(b"".join(chunks)).digest()
