"""Small binary-serialization helpers shared by on-disk structures.

All on-disk integers in this library are little-endian and unsigned; these
helpers keep struct formats in one place and attach range checks with clear
error messages, which matters for structures that are decrypted before being
parsed (a wrong key yields garbage, which must fail loudly, not corrupt
state).
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import ReproError


class CodecError(ReproError):
    """A binary structure failed to parse."""


def _check_span(data: bytes, offset: int, width: int, kind: str) -> None:
    if offset < 0 or offset + width > len(data):
        raise CodecError(
            f"cannot read {kind} at offset {offset}: buffer has {len(data)} bytes"
        )


def pack_u16(value: int) -> bytes:
    """Pack ``value`` as an unsigned little-endian 16-bit integer."""
    if not 0 <= value <= 0xFFFF:
        raise CodecError(f"u16 out of range: {value}")
    return struct.pack("<H", value)


def pack_u32(value: int) -> bytes:
    """Pack ``value`` as an unsigned little-endian 32-bit integer."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise CodecError(f"u32 out of range: {value}")
    return struct.pack("<I", value)


def pack_u64(value: int) -> bytes:
    """Pack ``value`` as an unsigned little-endian 64-bit integer."""
    if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
        raise CodecError(f"u64 out of range: {value}")
    return struct.pack("<Q", value)


def unpack_u16(data: bytes, offset: int = 0) -> int:
    """Read an unsigned little-endian 16-bit integer at ``offset``."""
    _check_span(data, offset, 2, "u16")
    return struct.unpack_from("<H", data, offset)[0]


def unpack_u32(data: bytes, offset: int = 0) -> int:
    """Read an unsigned little-endian 32-bit integer at ``offset``."""
    _check_span(data, offset, 4, "u32")
    return struct.unpack_from("<I", data, offset)[0]


def unpack_u64(data: bytes, offset: int = 0) -> int:
    """Read an unsigned little-endian 64-bit integer at ``offset``."""
    _check_span(data, offset, 8, "u64")
    return struct.unpack_from("<Q", data, offset)[0]


def pack_bytes(data: bytes) -> bytes:
    """Pack a length-prefixed (u32) byte string."""
    return pack_u32(len(data)) + data


def pack_str(text: str) -> bytes:
    """Pack a length-prefixed UTF-8 string."""
    return pack_bytes(text.encode("utf-8"))


class Reader:
    """Sequential reader over a byte buffer with bounds checking.

    Decrypted-then-parsed structures use this so that garbage produced by a
    wrong key raises :class:`CodecError` instead of silently mis-parsing.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return len(self._data) - self._pos

    def take(self, n: int) -> bytes:
        """Consume and return the next ``n`` bytes."""
        if n < 0:
            raise CodecError(f"negative read length: {n}")
        if self._pos + n > len(self._data):
            raise CodecError(
                f"truncated structure: wanted {n} bytes at offset {self._pos}, "
                f"only {self.remaining} remain"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u16(self) -> int:
        """Consume an unsigned little-endian 16-bit integer."""
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        """Consume an unsigned little-endian 32-bit integer."""
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        """Consume an unsigned little-endian 64-bit integer."""
        return struct.unpack("<Q", self.take(8))[0]

    def bytes_(self, max_len: int | None = None) -> bytes:
        """Consume a length-prefixed byte string.

        ``max_len`` guards against garbage lengths from wrong-key decrypts.
        """
        n = self.u32()
        if max_len is not None and n > max_len:
            raise CodecError(f"length prefix {n} exceeds maximum {max_len}")
        return self.take(n)

    def str_(self, max_len: int | None = None) -> str:
        """Consume a length-prefixed UTF-8 string."""
        raw = self.bytes_(max_len)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string field") from exc

    def expect_exhausted(self) -> None:
        """Raise unless every byte has been consumed."""
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after structure")


def iter_chunks(data: bytes, size: int) -> Iterator[bytes]:
    """Yield successive ``size``-byte chunks of ``data`` (last may be short)."""
    if size <= 0:
        raise CodecError(f"chunk size must be positive, got {size}")
    for start in range(0, len(data), size):
        yield data[start : start + size]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (numpy-vectorised; hot path for
    the StegCover baseline, which XORs whole cover blocks per access)."""
    if len(a) != len(b):
        raise CodecError(f"xor length mismatch: {len(a)} vs {len(b)}")
    if not a:
        return b""
    import numpy as np

    return (np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b, dtype=np.uint8)).tobytes()
