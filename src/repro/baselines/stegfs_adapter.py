"""StegFS behind the common store interface, for head-to-head benchmarks.

Measurement semantics match the paper's: the evaluation times reads and
writes of *connected* hidden files (§4's ``steg_connect`` happens once,
then standard I/O flows through the hidden inode table), so this adapter
resolves each object's keys once and keeps the open handle; per-operation
cost is then exactly the hidden file's own block I/O, like the kernel
implementation being measured in §5.

Whole-object ``store``/``fetch`` ride the batched scatter-gather pipeline
(one device call + one vectorised AES pass per operation).
"""

from __future__ import annotations

import random

from repro.baselines.interface import FileStore
from repro.core.hidden_file import HiddenFile
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.errors import HiddenObjectNotFoundError
from repro.storage.block_device import BlockDevice

__all__ = ["StegFSStore"]

_BENCH_UAK = b"benchmark-uak-benchmark-uak-0000"


class StegFSStore(FileStore):
    """Hidden-file I/O through the full StegFS stack."""

    name = "StegFS"

    def __init__(
        self,
        device: BlockDevice,
        params: StegFSParams | None = None,
        inode_count: int | None = None,
        rng: random.Random | None = None,
        uak: bytes = _BENCH_UAK,
    ) -> None:
        self._steg = StegFS.mkfs(
            device,
            params=params,
            inode_count=inode_count,
            rng=rng or random.Random(0),
            auto_flush=False,
            # The paper's kernel StegFS has no journal; the fig6-9 trace
            # experiments are calibrated to that I/O profile.
            journal_blocks=0,
        )
        self._uak = uak
        self._handles: dict[str, HiddenFile] = {}

    @property
    def stegfs(self) -> StegFS:
        """The underlying StegFS instance."""
        return self._steg

    def _handle(self, file_id: str) -> HiddenFile:
        handle = self._handles.get(file_id)
        if handle is None:
            entry = self._steg._resolve_entry(file_id, self._uak)
            handle = HiddenFile.open(self._steg.volume, entry.keys())
            self._handles[file_id] = handle
        return handle

    def store(self, file_id: str, data: bytes) -> None:
        if file_id not in self._handles:
            self._steg.steg_create(file_id, self._uak)
            self._handle(file_id)  # resolve once ("connect")
        self._handle(file_id).write(data)

    def fetch(self, file_id: str) -> bytes:
        if file_id not in self._handles:
            raise HiddenObjectNotFoundError(f"no such hidden file {file_id!r}")
        return self._handle(file_id).read()

    def delete(self, file_id: str) -> None:
        if file_id not in self._handles:
            raise HiddenObjectNotFoundError(f"no such hidden file {file_id!r}")
        self._steg.steg_delete(file_id, self._uak)
        del self._handles[file_id]

    def flush(self) -> None:
        self._steg.flush()
