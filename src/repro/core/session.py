"""User sessions: the connect/disconnect model of §4.

``steg_connect`` makes a hidden object visible to the current session
(recursively revealing a directory's offspring); ``steg_disconnect`` — or
session logout — makes it invisible again.  Data is decrypted on the fly at
access time, never en masse at connect time, matching the paper's API
notes.

A session remembers *which* objects it connected (their directory entries);
the objects themselves are the volume's open-object table entries, shared
with every other path to them.  So a connected name always reads what was
last written — by this session, the facade or another user sharing the
object — and raises :class:`~repro.errors.HiddenObjectNotFoundError` once
the object is deleted or re-keyed.
"""

from __future__ import annotations

from repro.core.hidden_dir import HiddenDirectory, HiddenDirEntry
from repro.core.hidden_file import HiddenFile
from repro.core.volume import HiddenVolume
from repro.errors import NotConnectedError

__all__ = ["Session"]


class Session:
    """One user's view of connected hidden objects."""

    def __init__(self, volume: HiddenVolume, user_id: str = "user") -> None:
        self._volume = volume
        self._user_id = user_id
        self._entries: dict[str, HiddenDirEntry] = {}

    @property
    def user_id(self) -> str:
        """Identity used for physical-name derivation."""
        return self._user_id

    def connected_names(self) -> list[str]:
        """Sorted names currently visible in this session."""
        return sorted(self._entries)

    # ------------------------------------------------------------------
    # connect / disconnect
    # ------------------------------------------------------------------

    def connect_entry(self, name: str, entry: HiddenDirEntry) -> HiddenFile:
        """Attach a resolved entry under ``name``; recurses into directories."""
        hidden = HiddenFile.open(self._volume, entry.keys())
        self._entries[name] = entry
        if hidden.is_directory:
            # "Connecting a hidden directory reveals all its offsprings."
            for child in HiddenDirectory(hidden).entries.values():
                self.connect_entry(f"{name}/{child.name}", child)
        return hidden

    def disconnect(self, name: str) -> None:
        """Detach ``name`` (and, for directories, everything beneath it)."""
        if name not in self._entries:
            raise NotConnectedError(f"{name!r} is not connected")
        prefix = name + "/"
        for victim in [n for n in self._entries if n == name or n.startswith(prefix)]:
            del self._entries[victim]

    def disconnect_all(self) -> None:
        """Logout semantics: every connected object becomes invisible."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # I/O on connected objects
    # ------------------------------------------------------------------

    def get(self, name: str) -> HiddenFile:
        """The connected object: :class:`NotConnectedError` if ``name`` is not
        connected, :class:`HiddenObjectNotFoundError` if it no longer exists."""
        return HiddenFile.open(self._volume, self.entry(name).keys())

    def entry(self, name: str) -> HiddenDirEntry:
        """The directory entry behind a connected name."""
        if name not in self._entries:
            raise NotConnectedError(f"{name!r} is not connected")
        return self._entries[name]

    def read(self, name: str) -> bytes:
        """Read a connected object (decrypt-on-access)."""
        return self.get(name).read()

    def write(self, name: str, data: bytes) -> None:
        """Replace a connected object's contents."""
        self.get(name).write(data)
