"""HMAC-SHA256: RFC 4231 vectors, and the RFC 2104 reference against the kernel.

``hmac_sha256`` computes with the standard library, so the from-scratch
construction (:func:`reference_hmac_sha256`) is what the ``hmac`` oracle and
the property below hold it to.
"""

from __future__ import annotations

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import (
    constant_time_equal,
    hmac_sha256,
    reference_hmac_sha256,
    verify_hmac_sha256,
)

RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        # Key longer than the hash block size (hashed down first).
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
]


@pytest.mark.parametrize("key,message,expected", RFC4231)
def test_rfc4231_vectors(key, message, expected):
    assert hmac_sha256(key, message).hex() == expected
    assert reference_hmac_sha256(key, message).hex() == expected


def test_verify_accepts_and_rejects():
    tag = hmac_sha256(b"key", b"message")
    assert verify_hmac_sha256(b"key", b"message", tag)
    assert not verify_hmac_sha256(b"key", b"message!", tag)
    assert not verify_hmac_sha256(b"yek", b"message", tag)
    assert not verify_hmac_sha256(b"key", b"message", tag[:-1])


def test_constant_time_equal():
    assert constant_time_equal(b"", b"")
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"ab")
    assert not constant_time_equal(b"", b"a")
    assert constant_time_equal(bytearray(b"abc"), memoryview(b"abc"))


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=200), st.binary(max_size=200))
def test_matches_stdlib_oracle(key, message):
    expected = std_hmac.new(key, message, hashlib.sha256).digest()
    assert reference_hmac_sha256(key, message) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.binary(max_size=200),  # both sides of the 64-byte hash-the-key branch
    st.binary(max_size=200),
    st.sampled_from([bytes, bytearray, memoryview]),
)
def test_reference_matches_kernel(key, message, as_type):
    assert hmac_sha256(key, as_type(message)) == reference_hmac_sha256(key, as_type(message))
