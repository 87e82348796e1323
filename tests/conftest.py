"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest


def pytest_configure(config):
    """Register suite-local markers (no pytest.ini at the repo root)."""
    config.addinivalue_line(
        "markers",
        "slow: multi-process / network-heavy tests "
        "(skip locally with -m 'not slow'; CI runs them)",
    )


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for tests that need randomness."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def rsa_keypair():
    """A small (fast) deterministic RSA key pair, session-cached."""
    return _cached_keypair()


def _cached_keypair():
    from repro.crypto.rsa import generate_keypair

    if not hasattr(_cached_keypair, "_pair"):
        # OAEP-SHA256 needs a >= 528-bit modulus; 768 keeps tests fast while
        # leaving ~30 bytes of message capacity.
        _cached_keypair._pair = generate_keypair(bits=768, rng=random.Random(7))
    return _cached_keypair._pair
