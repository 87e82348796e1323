"""StegRand — Anderson, Needham & Shamir's second construction [7], as
evaluated by the paper ("StegRand … writes a hidden file to absolute disk
addresses given by a pseudorandom process and replicates the file to reduce
data loss from overwritten blocks").

There is deliberately **no bitmap**: block addresses derive only from the
file's key, so nothing on disk records what is used — that is the scheme's
steganographic property and also its fatal flaw, because independent files
land on the same addresses and silently overwrite each other.  Writes
update every replica; reads take the first replica whose integrity tag
verifies and *hunt* through the others when the primary was clobbered.
A file is lost when, for any logical block, every replica is corrupt —
the event Figure 6 measures the onset of.

Each stored block is ``AES-CTR(key, addr-derived nonce, payload) || tag``
where the tag authenticates (file, block, replica, payload).  The tag
function is pluggable: ``"hmac"`` (default, HMAC-SHA256) or
``"crc"`` (zlib CRC-32, keyed) for large benchmark sweeps where only
accident-detection matters.
"""

from __future__ import annotations

import random
import zlib

from repro.baselines.interface import FileStore
from repro.crypto.hmac import hmac_sha256
from repro.crypto.prng import HashChainPRNG
from repro.crypto.vector_aes import ctr_xor
from repro.errors import DataLossError, FileNotFoundError_, NoSpaceError
from repro.storage.block_device import BlockDevice

__all__ = ["StegRandStore", "RECOMMENDED_REPLICATION"]

RECOMMENDED_REPLICATION = 4  # "a replication factor of 4 … per the authors"

_TAG_SIZE = 16
_LENGTH_PREFIX = 8


class StegRandStore(FileStore):
    """Anderson scheme 2 with replication over a block device."""

    name = "StegRand"

    def __init__(
        self,
        device: BlockDevice,
        replication: int = RECOMMENDED_REPLICATION,
        rng: random.Random | None = None,
        tag_mode: str = "hmac",
        strict: bool = True,
    ) -> None:
        """``strict=False`` makes :meth:`fetch` best-effort: an unrecoverable
        block yields zero-fill instead of :class:`DataLossError`, after
        paying the full replica-hunt I/O.  The performance benchmarks use
        this because the paper measures StegRand access times at load
        levels where corruption is already occurring (§5.3 vs Figure 6)."""
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if tag_mode not in ("hmac", "crc"):
            raise ValueError(f"tag_mode must be 'hmac' or 'crc', got {tag_mode!r}")
        self._device = device
        self._replication = replication
        self._rng = rng or random.Random(0)
        self._tag_mode = tag_mode
        self._strict = strict
        self._keys: dict[str, bytes] = {}
        self._sizes: dict[str, int] = {}

    @property
    def replication(self) -> int:
        """Replicas written per logical block."""
        return self._replication

    @property
    def payload_per_block(self) -> int:
        """Data bytes carried per device block (tag overhead removed)."""
        return self._device.block_size - _TAG_SIZE

    # ------------------------------------------------------------------
    # address & tag derivation
    # ------------------------------------------------------------------

    def _key_for(self, file_id: str) -> bytes:
        key = self._keys.get(file_id)
        if key is None:
            key = self._rng.randbytes(32)
            self._keys[file_id] = key
        return key

    def addresses(self, key: bytes, n_blocks: int) -> list[list[int]]:
        """Replica addresses per logical block, from the key alone.

        ``result[b][r]`` is the device block of replica ``r`` of logical
        block ``b``.  Addresses are raw PRNG draws — collisions *within*
        a file are possible and are part of the scheme's loss model.
        """
        prng = HashChainPRNG(key)
        total = self._device.total_blocks
        out: list[list[int]] = []
        mask = (1 << total.bit_length()) - 1
        for _ in range(n_blocks):
            replicas = []
            while len(replicas) < self._replication:
                candidate = int.from_bytes(prng.read(8), "big") & mask
                if candidate < total:
                    replicas.append(candidate)
            out.append(replicas)
        return out

    def _tag(self, key: bytes, block: int, replica: int, payload: bytes) -> bytes:
        context = block.to_bytes(8, "little") + replica.to_bytes(4, "little")
        if self._tag_mode == "hmac":
            return hmac_sha256(key, context + payload)[:_TAG_SIZE]
        crc1 = zlib.crc32(key + context + payload) & 0xFFFFFFFF
        crc2 = zlib.crc32(payload + context + key) & 0xFFFFFFFF
        return (crc1.to_bytes(4, "little") + crc2.to_bytes(4, "little")) * 2

    def _seal(self, key: bytes, block: int, replica: int, payload: bytes) -> bytes:
        nonce = hmac_sha256(key, b"nonce" + block.to_bytes(8, "little")
                            + replica.to_bytes(4, "little"))[:8]
        body = ctr_xor(key, nonce, payload)
        return body + self._tag(key, block, replica, body)

    def _open(self, key: bytes, block: int, replica: int, image: bytes) -> bytes | None:
        body, tag = image[:-_TAG_SIZE], image[-_TAG_SIZE:]
        if self._tag(key, block, replica, body) != tag:
            return None
        nonce = hmac_sha256(key, b"nonce" + block.to_bytes(8, "little")
                            + replica.to_bytes(4, "little"))[:8]
        return ctr_xor(key, nonce, body)

    # ------------------------------------------------------------------
    # FileStore interface
    # ------------------------------------------------------------------

    def store(self, file_id: str, data: bytes) -> None:
        """Write every replica of every block to its PRNG address."""
        key = self._key_for(file_id)
        framed = len(data).to_bytes(_LENGTH_PREFIX, "big") + data
        room = self.payload_per_block
        n_blocks = -(-len(framed) // room)
        if n_blocks == 0:
            n_blocks = 1
        if n_blocks * self._replication > self._device.total_blocks * 4:
            raise NoSpaceError(f"file of {len(data)} bytes is absurd for this volume")
        placement = self.addresses(key, n_blocks)
        for block_index, replicas in enumerate(placement):
            payload = framed[block_index * room : (block_index + 1) * room].ljust(room, b"\x00")
            for replica_index, address in enumerate(replicas):
                image = self._seal(key, block_index, replica_index, payload)
                self._device.write_block(address, image)
        self._sizes[file_id] = len(data)

    def fetch(self, file_id: str) -> bytes:
        """Read each block, hunting replicas when the primary is corrupt."""
        key = self._keys.get(file_id)
        if key is None:
            raise FileNotFoundError_(f"no such hidden file {file_id!r}")
        room = self.payload_per_block
        first = self._read_block(key, 0, self.addresses(key, 1)[0], file_id)
        if first is None:
            # Best-effort mode: frame length lost with block 0; fall back to
            # the stored size so the read still walks (and prices) the file.
            length = self._sizes[file_id]
            first = b"\x00" * room
        else:
            length = int.from_bytes(first[:_LENGTH_PREFIX], "big")
        n_blocks = max(1, -(-(length + _LENGTH_PREFIX) // room))
        placement = self.addresses(key, n_blocks)
        pieces = [first]
        for block_index in range(1, n_blocks):
            payload = self._read_block(key, block_index, placement[block_index], file_id)
            pieces.append(payload if payload is not None else b"\x00" * room)
        framed = b"".join(pieces)
        return framed[_LENGTH_PREFIX : _LENGTH_PREFIX + length]

    def _read_block(
        self, key: bytes, block_index: int, replicas: list[int], file_id: str
    ) -> bytes | None:
        for replica_index, address in enumerate(replicas):
            image = self._device.read_block(address)
            payload = self._open(key, block_index, replica_index, image)
            if payload is not None:
                return payload
        if self._strict:
            raise DataLossError(
                f"file {file_id!r}: all {len(replicas)} replicas of block "
                f"{block_index} were overwritten"
            )
        return None

    def delete(self, file_id: str) -> None:
        """Forget the key; the scheme has no reclamation (no bitmap)."""
        if file_id not in self._keys:
            raise FileNotFoundError_(f"no such hidden file {file_id!r}")
        del self._keys[file_id]

    def is_intact(self, file_id: str) -> bool:
        """Whether every block still has at least one live replica."""
        try:
            self.fetch(file_id)
            return True
        except DataLossError:
            return False
