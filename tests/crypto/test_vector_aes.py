"""Vectorised AES must agree byte-for-byte with the scalar cipher."""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import vector_aes
from repro.crypto.aes import AES
from repro.crypto.vector_aes import VectorAES, ctr_keystream, ctr_xor, ctr_xor_many


def test_matches_scalar_on_random_blocks(rng):
    key = bytes(rng.getrandbits(8) for _ in range(16))
    blocks = np.frombuffer(
        bytes(rng.getrandbits(8) for _ in range(64 * 16)), dtype=np.uint8
    ).reshape(64, 16)
    scalar = AES(key)
    expected = [scalar.encrypt_block(blocks[i].tobytes()) for i in range(64)]
    got = VectorAES(key).encrypt_blocks(blocks)
    for i in range(64):
        assert got[i].tobytes() == expected[i]


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_all_key_sizes(rng, key_len):
    key = bytes(rng.getrandbits(8) for _ in range(key_len))
    block = bytes(rng.getrandbits(8) for _ in range(16))
    arr = np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
    assert VectorAES(key).encrypt_blocks(arr)[0].tobytes() == AES(key).encrypt_block(block)


@pytest.mark.parametrize(
    "key_hex,cipher_hex",
    [  # FIPS 197 Appendix C: one plaintext, three key sizes.
        ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"),
        (
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
    ],
)
def test_fips197_appendix_c_through_encrypt_blocks(key_hex, cipher_hex):
    plain = np.frombuffer(bytes.fromhex("00112233445566778899aabbccddeeff"), dtype=np.uint8)
    # Twice, so the vector also passes in a batch position other than 0.
    got = VectorAES(bytes.fromhex(key_hex)).encrypt_blocks(np.stack([plain, plain]))
    assert got[0].tobytes().hex() == cipher_hex
    assert got[1].tobytes().hex() == cipher_hex


def test_matches_scalar_around_the_batch_and_stride_edges(rng):
    stride = vector_aes._STRIDE
    key = rng.randbytes(32)
    blocks = np.frombuffer(rng.randbytes((stride + 1) * 16), dtype=np.uint8).reshape(-1, 16)
    scalar = AES(key)
    expected = np.frombuffer(
        b"".join(scalar.encrypt_block(row.tobytes()) for row in blocks), dtype=np.uint8
    ).reshape(-1, 16)
    cipher = VectorAES(key)
    for n in (0, 1, 2, 63, 64, 65, stride - 1, stride, stride + 1):
        got = cipher.encrypt_blocks(blocks[:n])
        assert got.shape == (n, 16) and got.dtype == np.uint8
        assert np.array_equal(got, expected[:n]), n


def test_non_contiguous_and_read_only_inputs(rng):
    cipher = VectorAES(rng.randbytes(16))
    wide = np.frombuffer(rng.randbytes(130 * 32), dtype=np.uint8).reshape(130, 32)
    assert not wide.flags.writeable  # frombuffer over bytes: read-only
    every_other = wide[::2, 8:24]
    assert not every_other.flags.c_contiguous
    expected = cipher.encrypt_blocks(np.ascontiguousarray(every_other))
    before = wide.copy()
    assert np.array_equal(cipher.encrypt_blocks(every_other), expected)
    assert np.array_equal(wide, before)  # the input is never the work buffer


def test_one_mib_ctr_xor_many_stays_under_the_parent_peak():
    # Un-strided, the gather's temporaries for this call are about 16 MiB;
    # the round it replaced peaked at 6.1 MiB.  Strides keep it under that.
    rng = random.Random(2)
    key = rng.randbytes(32)
    nonces = [rng.randbytes(8) for _ in range(256)]
    bodies = [rng.randbytes(4096) for _ in range(256)]
    ctr_xor_many(key, nonces, bodies)  # key schedule and tables outside the window
    tracemalloc.start()
    try:
        ctr_xor_many(key, nonces, bodies)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.1 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_cached_cipher_survives_racing_evictions():
    # More keys than the bound, more threads than cores, a switch interval
    # short enough that two misses pick their victims together.  The FIFO
    # dict this replaced died here with KeyError(<the raw AES key>).
    bound = vector_aes._CIPHER_CACHE_BOUND
    keys = [i.to_bytes(16, "big") for i in range(bound + 100)]
    failures: list[BaseException] = []
    largest: list[int] = []  # one entry per thread that ran to the end

    def drive(seed: int) -> None:
        order = random.Random(seed)
        seen = 0
        try:
            for _ in range(3000):
                vector_aes._cached_cipher(order.choice(keys))
                seen = max(seen, len(vector_aes._CIPHER_CACHE))
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            failures.append(exc)
        largest.append(seen)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(largest) == len(threads) and max(largest) <= bound


def test_rejects_bad_shape():
    with pytest.raises(ValueError):
        VectorAES(b"k" * 16).encrypt_blocks(np.zeros(16, dtype=np.uint8))


def test_ctr_roundtrip():
    key, nonce = b"0123456789abcdef", b"noncenon"
    data = b"The quick brown fox jumps over the lazy dog" * 7
    sealed = ctr_xor(key, nonce, data)
    assert sealed != data
    assert ctr_xor(key, nonce, sealed) == data


def test_ctr_keystream_offsets_are_consistent():
    key, nonce = b"0123456789abcdef", b"12345678"
    full = ctr_keystream(key, nonce, 160)
    tail = ctr_keystream(key, nonce, 160 - 32, start_block=2)
    assert full[32:] == tail


def test_ctr_keystream_lengths():
    key, nonce = b"k" * 16, b"n" * 8
    assert ctr_keystream(key, nonce, 0) == b""
    assert len(ctr_keystream(key, nonce, 1)) == 1
    assert len(ctr_keystream(key, nonce, 17)) == 17
    with pytest.raises(ValueError):
        ctr_keystream(key, nonce, -1)


def test_ctr_rejects_bad_nonce():
    with pytest.raises(ValueError):
        ctr_keystream(b"k" * 16, b"short", 16)


def test_ctr_keystream_is_sp800_38a_f51():
    # NIST SP 800-38A F.5.1 CTR-AES128: the init counter splits into our
    # (nonce, start_block) form as nonce = first 8 bytes, start = last 8.
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    nonce = bytes.fromhex("f0f1f2f3f4f5f6f7")
    start = int.from_bytes(bytes.fromhex("f8f9fafbfcfdfeff"), "big")
    plain = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
    assert ctr_xor(key, nonce, plain, start_block=start) == expected


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_ctr_roundtrip_property(data):
    key, nonce = b"propkeypropkey!!", b"propnonc"
    assert ctr_xor(key, nonce, ctr_xor(key, nonce, data)) == data
