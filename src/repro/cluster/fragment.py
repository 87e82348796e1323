"""The on-shard fragment envelope: versioned, digested, self-describing.

Every object the cluster stores on a shard — a full replica or one IDA
share — is wrapped in a fixed 56-byte header so that any coordinator can
decide, from bytes alone, which copy is newest and whether it is intact:

``magic(4) | mode(1) | version(8) | index(1) | m(1) | n(1) | digest(32) |
length(8) | payload``

* ``version`` — monotonically increasing per object; read-repair keeps
  the highest version whose digest verifies and rewrites the rest.
* ``digest`` — SHA-256 of the **logical object data** (not the share),
  so replicas can be compared without decoding and an IDA reconstruction
  can be verified end-to-end.
* ``index / m / n`` — the share's Vandermonde row and the dispersal
  parameters (``0 / 1 / replicas`` in replication mode).

The header is deliberately cheap to probe: a 56-byte
``steg_read_extent`` fetches everything needed for a version check
without moving the payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.sha256 import sha256
from repro.errors import FragmentFormatError

__all__ = [
    "HEADER_LEN",
    "MODE_IDA",
    "MODE_REPLICATE",
    "Fragment",
    "decode_fragment",
    "decode_header",
    "digest_of",
    "encode_fragment",
]

MAGIC = b"SFC1"
MODE_REPLICATE = "replicate"
MODE_IDA = "ida"
_MODE_BYTES = {MODE_REPLICATE: 0x52, MODE_IDA: 0x49}  # 'R' / 'I'
_BYTE_MODES = {value: key for key, value in _MODE_BYTES.items()}

_HEADER = struct.Struct(">4sBQBBB32sQ")
HEADER_LEN = _HEADER.size


def digest_of(data: bytes) -> bytes:
    """The envelope digest of one logical object payload."""
    return sha256(data)


@dataclass(frozen=True)
class Fragment:
    """One decoded shard fragment (replica or share)."""

    mode: str
    version: int
    index: int
    m: int
    n: int
    digest: bytes
    payload: bytes
    #: Payload length declared by the header — equals ``len(payload)``
    #: for full decodes; kept so header-only probes know the body size.
    declared_length: int = -1

    def __post_init__(self) -> None:
        if self.declared_length < 0:
            object.__setattr__(self, "declared_length", len(self.payload))


def encode_fragment(fragment: Fragment) -> bytes:
    """Serialize a fragment for storage on one shard."""
    mode_byte = _MODE_BYTES.get(fragment.mode)
    if mode_byte is None:
        raise FragmentFormatError(f"unknown fragment mode {fragment.mode!r}")
    if not 0 <= fragment.version < 1 << 64:
        raise FragmentFormatError(f"version out of range: {fragment.version}")
    if len(fragment.digest) != 32:
        raise FragmentFormatError("digest must be 32 bytes")
    header = _HEADER.pack(
        MAGIC,
        mode_byte,
        fragment.version,
        fragment.index,
        fragment.m,
        fragment.n,
        fragment.digest,
        len(fragment.payload),
    )
    return header + fragment.payload


def decode_header(blob: bytes) -> Fragment:
    """Decode just the header (payload left empty) — the probe path."""
    if len(blob) < HEADER_LEN:
        raise FragmentFormatError(
            f"fragment too short for header: {len(blob)} < {HEADER_LEN}"
        )
    magic, mode_byte, version, index, m, n, digest, length = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FragmentFormatError(f"bad fragment magic {magic!r}")
    mode = _BYTE_MODES.get(mode_byte)
    if mode is None:
        raise FragmentFormatError(f"unknown fragment mode byte {mode_byte:#x}")
    if not 1 <= m <= n:
        raise FragmentFormatError(f"bad dispersal parameters m={m}, n={n}")
    return Fragment(
        mode=mode,
        version=version,
        index=index,
        m=m,
        n=n,
        digest=digest,
        payload=b"",
        declared_length=length,
    )


def decode_fragment(blob: bytes) -> Fragment:
    """Decode a full fragment, checking the declared payload length."""
    header = decode_header(blob)
    payload = blob[HEADER_LEN:]
    if len(payload) != header.declared_length:
        raise FragmentFormatError(
            f"fragment payload truncated: declared {header.declared_length}, "
            f"got {len(payload)}"
        )
    return Fragment(
        mode=header.mode,
        version=header.version,
        index=header.index,
        m=header.m,
        n=header.n,
        digest=header.digest,
        payload=payload,
        declared_length=header.declared_length,
    )
