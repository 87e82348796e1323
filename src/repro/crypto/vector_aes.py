"""Numpy-vectorised AES-CTR for bulk data.

The scalar :class:`repro.crypto.aes.AES` runs the full FIPS 197 round
function per block in pure Python, which is fine for headers and key blobs
but too slow for megabyte file bodies.  This module evaluates the identical
cipher over many blocks at once with the textbook T-table round (Daemen &
Rijmen's 32-bit formulation): SubBytes and MixColumns of one state byte are
one 32-bit table entry, so a round is a ShiftRows gather, one table gather,
an XOR of the four rows' entries and the round key.  Tests assert byte
equality against the scalar cipher on random inputs, so the two paths cannot
drift apart.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import AES, SBOX, _MUL2, _MUL3
from repro.util.lru import Lru

__all__ = [
    "VectorAES",
    "ctr_keystream",
    "ctr_xor",
    "ctr_xor_concat",
    "ctr_xor_many",
    "ctr_xor_pad",
]

_SBOX_NP = np.frombuffer(SBOX, dtype=np.uint8)


def _build_t_table() -> np.ndarray:
    """The four round tables as one flat ``4 x 256`` array of ``'<u4'``.

    Entry ``row * 256 + byte`` is what a state byte in row ``row`` adds to
    its output column: column ``row`` of the MixColumns matrix times
    ``SBOX[byte]``, row 0 in the low-order byte so that a little-endian word
    viewed as four bytes is a column in FIPS order.
    """
    s1 = _SBOX_NP
    s2 = np.frombuffer(_MUL2, dtype=np.uint8)[s1]
    s3 = np.frombuffer(_MUL3, dtype=np.uint8)[s1]
    matrix_columns = ((s2, s1, s1, s3), (s3, s2, s1, s1), (s1, s3, s2, s1), (s1, s1, s3, s2))
    table = np.empty((4, 256, 4), dtype=np.uint8)
    for row, column in enumerate(matrix_columns):
        for out_row, values in enumerate(column):
            table[row, :, out_row] = values
    return table.reshape(-1).view("<u4")


_T_TABLE = _build_t_table()
_T_ROW_OFFSET = (np.arange(4, dtype=np.intp) * 256).reshape(4, 1, 1)

# ShiftRows, by planes.  The rounds keep the state as ``(4, 4, n)`` planes,
# plane ``[row, column]`` holding that byte of every block's *shifted* state;
# ShiftRows puts the byte of input column ``(column + row) % 4`` there.
_SHIFT_COLUMN = np.array([[(col + row) % 4 for col in range(4)] for row in range(4)], dtype=np.intp)
_SHIFT_ROW = np.array([[row] * 4 for row in range(4)], dtype=np.intp)
# The same gather out of the bytes of a column-major (FIPS order) block.
_SHIFT_BYTE = 4 * _SHIFT_COLUMN + _SHIFT_ROW

#: Blocks per pass of :meth:`VectorAES.encrypt_blocks`.  A round's
#: temporaries are about 15 times the bytes of the blocks it works on, so a 1 MiB
#: extent in one pass would hold 15 MiB of them; in strides they stay at
#: about 1 MiB whatever the extent, and inside the L2 cache.
_STRIDE = 4096


class VectorAES:
    """AES encryption of many 16-byte blocks at once.

    Only the *encrypt* direction is vectorised: CTR mode needs nothing else,
    and CTR is the only mode this library uses for bulk data.
    """

    def __init__(self, key: bytes) -> None:
        scalar = AES(key)
        round_keys = np.array(scalar._round_keys, dtype=np.uint8)
        self._first_key = round_keys[0]
        self._round_words = round_keys[1 : scalar.rounds].view("<u4").reshape(-1, 4, 1)
        self._last_key = round_keys[scalar.rounds].reshape(4, 4)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 array of blocks; returns same shape."""
        if blocks.ndim != 2 or blocks.shape[1] != 16:
            raise ValueError(f"expected (n, 16) uint8 array, got {blocks.shape}")
        out = np.empty((len(blocks), 16), dtype=np.uint8)
        for start in range(0, len(blocks), _STRIDE):
            self._encrypt_stride(blocks[start : start + _STRIDE], out[start : start + _STRIDE])
        return out

    def _encrypt_stride(self, blocks: np.ndarray, out: np.ndarray) -> None:
        n = len(blocks)
        # One little-endian word per state column; its bytes, seen by row.
        columns = np.empty((4, n), dtype="<u4")
        by_row = columns.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
        index = np.empty((4, 4, n), dtype=np.intp)
        entries = np.empty((4, 4, n), dtype="<u4")
        planes = (blocks.astype(np.uint8, copy=False) ^ self._first_key).T[_SHIFT_BYTE]
        for words in self._round_words:
            np.add(planes, _T_ROW_OFFSET, out=index)
            # mode: every index is below 1024, and "raise" would buffer ``out``.
            _T_TABLE.take(index, out=entries, mode="wrap")
            np.bitwise_xor.reduce(entries, axis=0, out=columns)
            columns ^= words
            planes = by_row[_SHIFT_COLUMN, _SHIFT_ROW]
        # Last round: no MixColumns, and the planes go back to blocks.
        np.bitwise_xor(
            _SBOX_NP[planes].transpose(2, 1, 0), self._last_key, out=out.reshape(n, 4, 4)
        )


#: One key schedule per in-core hidden object
#: (:data:`repro.core.volume.OPEN_OBJECT_BOUND`): about 1 KiB each.
_CIPHER_CACHE_BOUND = 1024
_CIPHER_CACHE: Lru[bytes, VectorAES] = Lru()


def _cached_cipher(key: bytes) -> VectorAES:
    """Reuse key schedules: block-at-a-time I/O hits the same key repeatedly."""
    cipher = _CIPHER_CACHE.get(key)
    if cipher is None:
        cipher = VectorAES(key)
        _CIPHER_CACHE.put(key, cipher, _CIPHER_CACHE_BOUND)
    return cipher


def _write_counters(blocks: np.ndarray, counters: np.ndarray) -> None:
    """Big-endian split of 64-bit counters into bytes 8..16 of each block.

    The single source of truth for the CTR counter layout: both the
    scalar-nonce and the batched keystream builders call this, so the two
    paths cannot drift apart bit-wise.
    """
    for byte_index in range(8):
        shift = np.uint64(8 * (7 - byte_index))
        blocks[:, 8 + byte_index] = (counters >> shift).astype(np.uint8)


def _counter_blocks(nonce: bytes, start: int, count: int) -> np.ndarray:
    """Build ``count`` CTR input blocks: nonce(8) || big-endian counter(8)."""
    if len(nonce) != 8:
        raise ValueError(f"CTR nonce must be 8 bytes, got {len(nonce)}")
    blocks = np.zeros((count, 16), dtype=np.uint8)
    blocks[:, :8] = np.frombuffer(nonce, dtype=np.uint8)
    _write_counters(blocks, np.arange(start, start + count, dtype=np.uint64))
    return blocks


def ctr_keystream(key: bytes, nonce: bytes, length: int, start_block: int = 0) -> bytes:
    """Generate ``length`` bytes of AES-CTR keystream."""
    if length < 0:
        raise ValueError(f"negative keystream length: {length}")
    if length == 0:
        return b""
    n_blocks = (length + 15) // 16
    cipher = _cached_cipher(bytes(key))
    stream = cipher.encrypt_blocks(_counter_blocks(nonce, start_block, n_blocks))
    return stream.tobytes()[:length]


def ctr_xor(key: bytes, nonce: bytes, data: bytes, start_block: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is its own inverse)."""
    stream = ctr_keystream(key, nonce, len(data), start_block)
    arr = np.frombuffer(data, dtype=np.uint8) ^ np.frombuffer(stream, dtype=np.uint8)
    return arr.tobytes()


def ctr_xor_many(
    key: bytes,
    nonces: list[bytes],
    datas: list[bytes],
    start_block: int = 0,
) -> list[bytes]:
    """CTR-transform many equal-length messages in one vectorised pass.

    Each ``datas[i]`` gets an independent keystream from ``nonces[i]``, but
    the key schedule is built once and every AES block of the whole batch
    goes through a single :meth:`VectorAES.encrypt_blocks` call, so the
    per-call numpy overhead is amortised across the batch instead of being
    paid once per message.  This is the engine under
    :func:`repro.core.blockio.seal_many` / ``unseal_many``.

    All messages must share one length (sealed payloads do); byte-for-byte
    the result equals ``[ctr_xor(key, n, d, start_block) for n, d in ...]``.
    """
    if len(nonces) != len(datas):
        raise ValueError(f"got {len(nonces)} nonces for {len(datas)} messages")
    n_items = len(datas)
    if n_items == 0:
        return []
    length = len(datas[0])
    if any(len(d) != length for d in datas):
        raise ValueError("ctr_xor_many requires equal-length messages")
    if any(len(n) != 8 for n in nonces):
        raise ValueError("CTR nonces must be 8 bytes")
    if length == 0:
        return [b""] * n_items
    per = (length + 15) // 16
    cipher = _cached_cipher(bytes(key))
    blocks = np.zeros((n_items * per, 16), dtype=np.uint8)
    nonce_mat = np.frombuffer(b"".join(nonces), dtype=np.uint8).reshape(n_items, 8)
    blocks[:, :8] = np.repeat(nonce_mat, per, axis=0)
    _write_counters(
        blocks, np.tile(np.arange(start_block, start_block + per, dtype=np.uint64), n_items)
    )
    stream = cipher.encrypt_blocks(blocks).reshape(n_items, per * 16)[:, :length]
    data_mat = np.frombuffer(b"".join(datas), dtype=np.uint8).reshape(n_items, length)
    raw = (data_mat ^ stream).tobytes()
    return [raw[i * length : (i + 1) * length] for i in range(n_items)]


def _batch_keystream(
    key: bytes, nonces: list[bytes], item_len: int, start_block: int
) -> np.ndarray:
    """One keystream row per message: ``(n_items, item_len)`` uint8."""
    if any(len(n) != 8 for n in nonces):
        raise ValueError("CTR nonces must be 8 bytes")
    n_items = len(nonces)
    per = (item_len + 15) // 16
    cipher = _cached_cipher(bytes(key))
    blocks = np.zeros((n_items * per, 16), dtype=np.uint8)
    nonce_mat = np.frombuffer(b"".join(nonces), dtype=np.uint8).reshape(n_items, 8)
    blocks[:, :8] = np.repeat(nonce_mat, per, axis=0)
    _write_counters(
        blocks,
        np.tile(np.arange(start_block, start_block + per, dtype=np.uint64), n_items),
    )
    return cipher.encrypt_blocks(blocks).reshape(n_items, per * 16)[:, :item_len]


def ctr_xor_pad(
    key: bytes,
    nonces: list[bytes],
    datas: list,
    padded_length: int,
    start_block: int = 0,
) -> list[bytes]:
    """CTR-transform many messages, zero-padding each to ``padded_length``.

    Byte-for-byte equal to ``ctr_xor_many(key, nonces, [d.ljust(padded_
    length, b"\\x00") for d in datas])`` — zero bytes XOR the keystream to
    the keystream itself, exactly what ljust-then-encrypt produces — but
    without materialising a padded copy of every payload.  ``datas`` may
    hold any bytes-like objects (``bytes``, ``bytearray``, ``memoryview``
    slices of a wire frame), of *different* lengths up to the pad.
    """
    if len(nonces) != len(datas):
        raise ValueError(f"got {len(nonces)} nonces for {len(datas)} messages")
    n_items = len(datas)
    if n_items == 0:
        return []
    if padded_length <= 0:
        raise ValueError(f"padded_length must be positive, got {padded_length}")
    for d in datas:
        if len(d) > padded_length:
            raise ValueError(
                f"message of {len(d)} bytes exceeds padded length {padded_length}"
            )
    stream = _batch_keystream(key, nonces, padded_length, start_block)
    # One matrix holds the padded plaintext, the XOR runs in place, and
    # tobytes() is the single output allocation for the whole batch.
    mat = np.zeros((n_items, padded_length), dtype=np.uint8)
    for i, d in enumerate(datas):
        n = len(d)
        if n:
            mat[i, :n] = np.frombuffer(d, dtype=np.uint8)
    mat ^= stream
    raw = mat.tobytes()
    return [raw[i * padded_length : (i + 1) * padded_length] for i in range(n_items)]


def ctr_xor_concat(
    key: bytes,
    nonces: list[bytes],
    datas: list,
    *,
    start: int = 0,
    length: int | None = None,
    start_block: int = 0,
) -> bytes:
    """CTR-transform equal-length messages into ONE concatenated buffer.

    Returns ``plaintexts[start : start + length]`` of the logical
    concatenation — the whole run by default.  This is the read-path
    engine: a run of sealed block bodies becomes the caller's extent in a
    single pass, with one gather into the work matrix, an in-place XOR,
    and one output allocation — instead of per-block slices joined and
    re-sliced.  Accepts any bytes-like inputs.
    """
    n_items = len(datas)
    if len(nonces) != n_items:
        raise ValueError(f"got {len(nonces)} nonces for {n_items} messages")
    if n_items == 0:
        if start or length:
            raise ValueError("range requested from an empty batch")
        return b""
    item_len = len(datas[0])
    if any(len(d) != item_len for d in datas):
        raise ValueError("ctr_xor_concat requires equal-length messages")
    total = n_items * item_len
    if length is None:
        length = total - start
    if start < 0 or length < 0 or start + length > total:
        raise ValueError(
            f"range [{start}, {start + length}) outside the {total}-byte batch"
        )
    if item_len == 0:
        return b""
    stream = _batch_keystream(key, nonces, item_len, start_block)
    mat = np.empty((n_items, item_len), dtype=np.uint8)
    for i, d in enumerate(datas):
        mat[i] = np.frombuffer(d, dtype=np.uint8)
    mat ^= stream
    flat = mat.reshape(-1)
    if start == 0 and length == total:
        return flat.tobytes()
    return flat[start : start + length].tobytes()
