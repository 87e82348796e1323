"""StegFS: the user-facing facade implementing the paper's API (§4).

One object ties the layers together: a plain :class:`~repro.fs.FileSystem`
(the "central directory" world of Figure 1), a :class:`HiddenVolume` for the
steganographic layer sharing the same bitmap, the dummy-file manager, and
the nine ``steg_*`` operations the paper's implementation exports —

``steg_create``, ``steg_hide``, ``steg_unhide``, ``steg_connect``,
``steg_disconnect``, ``steg_getentry``, ``steg_addentry``, ``steg_backup``,
``steg_recovery`` — plus direct hidden I/O (``steg_read`` / ``steg_write`` /
``steg_delete`` / ``steg_list``) and sharing revocation (``steg_revoke``).

Standard file-system calls (create/read/write/mkdir/…) pass straight
through to the plain layer, so applications that only know about plain
files keep working — the paper's compatibility requirement.
"""

from __future__ import annotations

import random
from typing import ContextManager

from repro.core.backup import create_backup, restore_backup
from repro.core.dummy import DummyManager
from repro.core.header import OBJ_DIRECTORY, OBJ_FILE
from repro.core.hidden_dir import HiddenDirectory, HiddenDirEntry
from repro.core.hidden_file import HiddenFile
from repro.core.keys import generate_fak, physical_name
from repro.core.params import StegFSParams
from repro.core.session import Session
from repro.core.sharing import export_entry, import_entry
from repro.core.volume import HiddenVolume
from repro.crypto.rsa import RSAPrivateKey, RSAPublicKey
from repro.errors import (
    HiddenObjectExistsError,
    HiddenObjectNotFoundError,
    InvalidPathError,
    StegFSError,
)
from repro.fs.filesystem import FileStat, FileSystem
from repro.storage.block_device import BlockDevice

__all__ = ["StegFS"]

_TYPE_CODES = {"f": OBJ_FILE, "d": OBJ_DIRECTORY}


class StegFS:
    """A mounted steganographic file system."""

    def __init__(
        self,
        fs: FileSystem,
        params: StegFSParams | None = None,
        rng: random.Random | None = None,
        default_user: str = "user",
        auto_flush: bool = True,
    ) -> None:
        self._fs = fs
        self._params = params or StegFSParams()
        # Crypto-strength randomness by default: FAKs, dummy-file contents
        # and abandoned-block placement must be unpredictable to the §1
        # adversary.  Tests inject a seeded random.Random for determinism.
        self._rng = rng or random.SystemRandom()
        self._auto_flush = auto_flush
        self._default_user = default_user
        self._volume = HiddenVolume(
            device=fs.device,
            bitmap=fs.bitmap,
            params=self._params,
            rng=self._rng,
            data_start=fs.layout.data_start,
        )
        self._dummies = DummyManager(self._volume, fs.superblock.system_seed)
        self._session = Session(self._volume, default_user)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def mkfs(
        cls,
        device: BlockDevice,
        params: StegFSParams | None = None,
        inode_count: int | None = None,
        alloc_policy: str = "contiguous",
        fragment_blocks: int = 8,
        rng: random.Random | None = None,
        default_user: str = "user",
        auto_flush: bool = True,
        journal_blocks: int | None = None,
    ) -> "StegFS":
        """Create a StegFS volume: random fill, abandoned blocks, dummies.

        This is the §3.1 creation sequence: every block is filled with
        random patterns (lazily on a SparseDevice), a fraction
        ``params.abandoned_fraction`` of blocks is abandoned — marked
        allocated but owned by nothing — and ``params.dummy_count`` dummy
        hidden files are created for the snapshot defence.
        """
        params = params or StegFSParams()
        rng = rng or random.SystemRandom()
        fs = FileSystem.mkfs(
            device,
            inode_count=inode_count,
            alloc_policy=alloc_policy,
            fragment_blocks=fragment_blocks,
            rng=rng,
            fill_random=True,
            auto_flush=auto_flush,
            system_seed=rng.randbytes(32),
            journal_blocks=journal_blocks,
        )
        steg = cls(
            fs,
            params=params,
            rng=rng,
            default_user=default_user,
            auto_flush=auto_flush,
        )
        steg._abandon_blocks()
        steg._dummies.create_all()
        steg._after_hidden_op()
        return steg

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        params: StegFSParams | None = None,
        rng: random.Random | None = None,
        default_user: str = "user",
        auto_flush: bool = True,
    ) -> "StegFS":
        """Mount an existing StegFS volume."""
        fs = FileSystem.mount(device, rng=rng, auto_flush=auto_flush)
        return cls(
            fs,
            params=params,
            rng=rng,
            default_user=default_user,
            auto_flush=auto_flush,
        )

    def _abandon_blocks(self) -> None:
        count = int(self._params.abandoned_fraction * self._fs.device.total_blocks)
        count = min(count, self._fs.bitmap.free_count)
        self._volume.take_free_blocks(count)
        # The allocated indices are deliberately not recorded anywhere:
        # abandoned blocks are "untraceable and hence offer extra
        # protection" (§3.1) precisely because even StegFS forgets them.

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def fs(self) -> FileSystem:
        """The plain file-system layer."""
        return self._fs

    @property
    def volume(self) -> HiddenVolume:
        """The hidden layer's volume context."""
        return self._volume

    @property
    def params(self) -> StegFSParams:
        """The Table 1 parameters in force."""
        return self._params

    @property
    def device(self) -> BlockDevice:
        """The raw block device."""
        return self._fs.device

    @property
    def block_size(self) -> int:
        """Volume block size."""
        return self._fs.block_size

    @property
    def auto_flush(self) -> bool:
        """Whether every mutation flushes dirty metadata immediately."""
        return self._auto_flush

    @property
    def txn(self):
        """The volume's transaction manager (None on journal-less volumes)."""
        return self._fs.txn

    @property
    def last_recovery(self):
        """Mount-time journal replay report (None on fresh volumes)."""
        return self._fs.last_recovery

    def transaction(self) -> ContextManager[None]:
        """Scope several operations as one atomic journal commit.

        Delegates to :meth:`FileSystem.atomic`; every ``steg_*`` mutation
        already opens one internally, so explicit use is only needed to
        fuse *multiple* operations into a single all-or-nothing unit.
        """
        return self._fs.atomic()

    @property
    def session(self) -> Session:
        """The default user session."""
        return self._session

    @property
    def dummies(self) -> DummyManager:
        """Dummy-file maintenance (system side)."""
        return self._dummies

    def new_session(self, user_id: str) -> Session:
        """An additional session for another user."""
        return Session(self._volume, user_id)

    # ------------------------------------------------------------------
    # plain pass-through API ("supports existing applications", §4)
    # ------------------------------------------------------------------

    def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file."""
        self._fs.create(path, data)

    def read(self, path: str) -> bytes:
        """Read a plain file."""
        return self._fs.read(path)

    def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        self._fs.write(path, data)

    def append(self, path: str, data: bytes) -> None:
        """Append to a plain file."""
        self._fs.append(path, data)

    def unlink(self, path: str) -> None:
        """Delete a plain file."""
        self._fs.unlink(path)

    def mkdir(self, path: str) -> None:
        """Create a plain directory."""
        self._fs.mkdir(path)

    def rmdir(self, path: str) -> None:
        """Remove an empty plain directory."""
        self._fs.rmdir(path)

    def listdir(self, path: str = "/") -> list[str]:
        """List a plain directory."""
        return self._fs.listdir(path)

    def exists(self, path: str) -> bool:
        """Whether a plain path exists."""
        return self._fs.exists(path)

    def stat(self, path: str) -> FileStat:
        """Plain file metadata."""
        return self._fs.stat(path)

    # ------------------------------------------------------------------
    # hidden-object name resolution
    # ------------------------------------------------------------------

    def _resolve_parent(self, objname: str, uak: bytes) -> tuple[HiddenDirectory, str]:
        components = [part for part in objname.split("/") if part]
        if not components:
            raise InvalidPathError(f"invalid hidden object name {objname!r}")
        directory = HiddenDirectory.for_uak(self._volume, uak)
        for component in components[:-1]:
            entry = directory.get(component)
            if entry is None or not entry.is_directory:
                raise HiddenObjectNotFoundError(
                    f"no hidden directory {component!r} on the path"
                )
            directory = HiddenDirectory.open(self._volume, entry.keys())
        return directory, components[-1]

    def _resolve_entry(self, objname: str, uak: bytes) -> HiddenDirEntry:
        directory, name = self._resolve_parent(objname, uak)
        entry = directory.get(name)
        if entry is None:
            raise HiddenObjectNotFoundError(f"no hidden object {objname!r}")
        return entry

    # ------------------------------------------------------------------
    # steg API (§4)
    # ------------------------------------------------------------------

    def steg_create(
        self,
        objname: str,
        uak: bytes,
        objtype: str = "f",
        data: bytes = b"",
        owner: str | None = None,
    ) -> None:
        """Create a hidden file (``objtype='f'``) or directory (``'d'``)."""
        if objtype not in _TYPE_CODES:
            raise StegFSError(f"objtype must be 'f' or 'd', got {objtype!r}")
        with self.transaction():
            directory, name = self._resolve_parent(objname, uak)
            if directory.get(name) is not None:
                raise HiddenObjectExistsError(f"hidden object {objname!r} already exists")
            fak = generate_fak(self._rng)
            pname = physical_name(owner or self._default_user, objname)
            entry = HiddenDirEntry(
                name=name,
                physical_name=pname,
                fak=fak,
                object_type=_TYPE_CODES[objtype],
            )
            HiddenFile.create(
                self._volume,
                entry.keys(),
                _TYPE_CODES[objtype],
                data=data,
                check_exists=False,  # the FAK is fresh randomness; no collision
            )
            directory.add(entry)
            self._after_hidden_op()

    def steg_read(self, objname: str, uak: bytes) -> bytes:
        """Read a hidden file directly by (name, UAK).

        The whole object moves as one scatter-gather device read plus one
        vectorised unseal pass (see :mod:`repro.core.blockio`).
        """
        entry = self._resolve_entry(objname, uak)
        return HiddenFile.open(self._volume, entry.keys()).read()

    def steg_read_extent(self, objname: str, uak: bytes, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` of a hidden file.

        Touches only the blocks overlapping the extent — one batched
        device read for the run; reads past EOF truncate.
        """
        entry = self._resolve_entry(objname, uak)
        return HiddenFile.open(self._volume, entry.keys()).read_extent(offset, length)

    def steg_write(self, objname: str, uak: bytes, data: bytes) -> None:
        """Replace a hidden file's contents (one batched seal + write)."""
        with self.transaction():
            entry = self._resolve_entry(objname, uak)
            hidden = HiddenFile.open(self._volume, entry.keys())
            if hidden.is_directory:
                raise StegFSError(f"{objname!r} is a hidden directory")
            hidden.write(data)
            self._after_hidden_op()

    def steg_write_extent(self, objname: str, uak: bytes, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset`` of a hidden file.

        Only the blocks overlapping the extent are re-sealed and
        rewritten; writing past the end grows the file, zero-filling any
        gap (see :meth:`HiddenFile.write_extent`).
        """
        with self.transaction():
            entry = self._resolve_entry(objname, uak)
            hidden = HiddenFile.open(self._volume, entry.keys())
            if hidden.is_directory:
                raise StegFSError(f"{objname!r} is a hidden directory")
            hidden.write_extent(offset, data)
            self._after_hidden_op()

    def steg_delete(self, objname: str, uak: bytes) -> None:
        """Delete a hidden object (directories must be empty)."""
        with self.transaction():
            directory, name = self._resolve_parent(objname, uak)
            entry = directory.get(name)
            if entry is None:
                raise HiddenObjectNotFoundError(f"no hidden object {objname!r}")
            hidden = HiddenFile.open(self._volume, entry.keys())
            if hidden.is_directory and HiddenDirectory(hidden).names():
                raise StegFSError(f"hidden directory {objname!r} is not empty")
            hidden.delete()
            directory.remove(name)
            self._after_hidden_op()

    def steg_list(self, uak: bytes, objname: str | None = None) -> list[str]:
        """Names in the UAK directory, or in a nested hidden directory."""
        if objname is None:
            return HiddenDirectory.for_uak(self._volume, uak).names()
        entry = self._resolve_entry(objname, uak)
        if not entry.is_directory:
            raise StegFSError(f"{objname!r} is not a hidden directory")
        return HiddenDirectory.open(self._volume, entry.keys()).names()

    def steg_hide(self, pathname: str, objname: str, uak: bytes) -> None:
        """Convert a plain file/directory into a hidden object (§4 API 2).

        The plain source is deleted upon completion, as the paper specifies.
        """
        with self.transaction():
            stat = self._fs.stat(pathname)
            if stat.is_dir:
                self.steg_create(objname, uak, objtype="d")
                for child in self._fs.listdir(pathname):
                    self.steg_hide(f"{pathname.rstrip('/')}/{child}", f"{objname}/{child}", uak)
                self._fs.rmdir(pathname)
            else:
                content = self._fs.read(pathname)
                self.steg_create(objname, uak, objtype="f", data=content)
                self._fs.unlink(pathname)
            self._after_hidden_op()

    def steg_unhide(self, pathname: str, objname: str, uak: bytes) -> None:
        """Convert a hidden object back into a plain file/directory (§4 API 3).

        The hidden source is deleted upon completion.
        """
        with self.transaction():
            entry = self._resolve_entry(objname, uak)
            hidden = HiddenFile.open(self._volume, entry.keys())
            if hidden.is_directory:
                self._fs.mkdir(pathname)
                for child_name in HiddenDirectory(hidden).names():
                    self.steg_unhide(
                        f"{pathname.rstrip('/')}/{child_name}", f"{objname}/{child_name}", uak
                    )
                self.steg_delete(objname, uak)
            else:
                self._fs.create(pathname, hidden.read())
                self.steg_delete(objname, uak)
            self._after_hidden_op()

    def steg_connect(self, objname: str, uak: bytes, session: Session | None = None) -> None:
        """Reveal a hidden object in a session (§4 API 4)."""
        target = session or self._session
        entry = self._resolve_entry(objname, uak)
        target.connect_entry(objname, entry)

    def steg_disconnect(self, objname: str, session: Session | None = None) -> None:
        """Hide a connected object again (§4 API 5)."""
        (session or self._session).disconnect(objname)

    def steg_getentry(
        self,
        objname: str,
        uak: bytes,
        recipient_public: RSAPublicKey,
    ) -> bytes:
        """Export a sharing blob encrypted for the recipient (§4 API 6)."""
        entry = self._resolve_entry(objname, uak)
        return export_entry(entry, recipient_public, self._rng)

    def steg_addentry(
        self,
        entry_blob: bytes,
        uak: bytes,
        recipient_private: RSAPrivateKey,
        new_name: str | None = None,
    ) -> str:
        """Import a sharing blob into this user's UAK directory (§4 API 7).

        Returns the name under which the object was registered.
        """
        with self.transaction():
            return self._steg_addentry(entry_blob, uak, recipient_private, new_name)

    def _steg_addentry(
        self,
        entry_blob: bytes,
        uak: bytes,
        recipient_private: RSAPrivateKey,
        new_name: str | None,
    ) -> str:
        entry = import_entry(entry_blob, recipient_private)
        if new_name is not None:
            entry = HiddenDirEntry(
                name=new_name,
                physical_name=entry.physical_name,
                fak=entry.fak,
                object_type=entry.object_type,
            )
        directory = HiddenDirectory.for_uak(self._volume, uak)
        if directory.get(entry.name) is not None:
            raise HiddenObjectExistsError(
                f"hidden entry {entry.name!r} already exists; pass new_name"
            )
        # Validate the entry actually opens before registering it.
        HiddenFile.open(self._volume, entry.keys())
        directory.add(entry)
        self._after_hidden_op()
        return entry.name

    def steg_revoke(self, objname: str, uak: bytes) -> None:
        """Revoke a sharing arrangement by re-keying the object (§3.2).

        "StegFS first makes a new copy with a fresh FAK and possibly a
        different file name, then removes the original file to invalidate
        the old FAK."
        """
        with self.transaction():
            self._steg_revoke(objname, uak)

    def _steg_revoke(self, objname: str, uak: bytes) -> None:
        directory, name = self._resolve_parent(objname, uak)
        entry = directory.get(name)
        if entry is None:
            raise HiddenObjectNotFoundError(f"no hidden object {objname!r}")
        old = HiddenFile.open(self._volume, entry.keys())
        content = old.read()
        object_type = old.object_type
        fresh_fak = generate_fak(self._rng)
        fresh_pname = f"{entry.physical_name}#r{self._rng.getrandbits(32):08x}"
        replacement = HiddenDirEntry(
            name=name,
            physical_name=fresh_pname,
            fak=fresh_fak,
            object_type=object_type,
        )
        HiddenFile.create(
            self._volume, replacement.keys(), object_type, data=content, check_exists=False
        )
        old.delete()
        directory.replace(replacement)
        self._after_hidden_op()

    def steg_prune(self, uak: bytes) -> list[str]:
        """Drop entries whose objects no longer resolve (revoked shares).

        §3.2: "The outdated FAK will be deleted from the directories of
        other users the next time they log in with their UAKs."  Returns
        the names removed.
        """
        with self.transaction():
            directory = HiddenDirectory.for_uak(self._volume, uak)
            stale = []
            for name, entry in directory.entries.items():
                try:
                    HiddenFile.open(self._volume, entry.keys())
                except HiddenObjectNotFoundError:
                    stale.append(name)
            for name in stale:
                directory.remove(name)
            if stale:
                self._after_hidden_op()
            return stale

    def steg_backup(self) -> bytes:
        """Snapshot the volume per §3.3 (§4 API 8)."""
        self._fs.flush()
        return create_backup(self._fs)

    @classmethod
    def steg_recovery(
        cls,
        device: BlockDevice,
        backup_blob: bytes,
        params: StegFSParams | None = None,
        rng: random.Random | None = None,
        default_user: str = "user",
    ) -> "StegFS":
        """Rebuild a volume from a §3.3 backup image (§4 API 9)."""
        fs = restore_backup(device, backup_blob, rng=rng)
        return cls(fs, params=params, rng=rng, default_user=default_user)

    # ------------------------------------------------------------------
    # maintenance & analysis hooks
    # ------------------------------------------------------------------

    def dummy_tick(self) -> int | None:
        """Run one round of dummy-file churn (§3.1 "updates periodically")."""
        with self.transaction():
            updated = self._dummies.tick()
            self._after_hidden_op()
            return updated

    def dummy_interval(self, base_s: float, jitter: float = 0.5) -> float:
        """Draw the next churn delay from the volume RNG (seeded, jittered).

        The scheduling hook behind the cluster ``DummyScheduler``: the
        delay comes from the same seeded stream as dummy contents, so a
        volume's entire churn schedule replays from its seed.
        """
        return self._dummies.next_interval(base_s, jitter)

    def hidden_footprint(self, objname: str, uak: bytes) -> dict[str, list[int]]:
        """Ground-truth block ownership of one hidden object (analysis)."""
        entry = self._resolve_entry(objname, uak)
        return HiddenFile.open(self._volume, entry.keys()).footprint()

    def flush(self) -> None:
        """Persist all dirty metadata."""
        self._fs.mark_bitmap_dirty()
        self._fs.flush()

    def _after_hidden_op(self) -> None:
        self._fs.mark_bitmap_dirty()
        if self._auto_flush:
            self._fs.flush()
