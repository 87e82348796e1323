"""Hidden directories: the per-UAK directory of §3.2 and nested hidden dirs.

Figure 3: for each user access key, StegFS keeps "a directory of file name
and FAK pairs for all the hidden files that are accessed with that UAK",
itself encrypted with the UAK and stored as a hidden file.  The same entry
format also serves as the *content* of hidden directory objects
(``objtype='d'``), giving a nested hidden namespace — §4's ``steg_connect``
on a directory "reveals all its offsprings".

Each entry carries the child's display name, its on-disk *physical name*
(owner-qualified, so shared entries stay resolvable), its FAK and its type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.header import OBJ_DIRECTORY, OBJ_FILE
from repro.core.hidden_file import HiddenFile
from repro.core.keys import FAK_SIZE, ObjectKeys
from repro.core.volume import HiddenVolume
from repro.errors import HiddenObjectNotFoundError, StegFSError
from repro.util.serialization import Reader, pack_bytes, pack_str, pack_u16, pack_u32

__all__ = ["HiddenDirEntry", "HiddenDirectory", "UAK_DIRECTORY_NAME"]

# Well-known physical name of the per-UAK directory: the object a user can
# always locate knowing only their UAK.
UAK_DIRECTORY_NAME = "__uakdir__"

_MAX_NAME = 4096


@dataclass(frozen=True)
class HiddenDirEntry:
    """One (name, FAK) pair — the shareable unit of §3.2."""

    name: str
    physical_name: str
    fak: bytes
    object_type: int

    def __post_init__(self) -> None:
        if not self.name:
            raise StegFSError("entry name must not be empty")
        if len(self.fak) != FAK_SIZE:
            raise StegFSError(f"FAK must be {FAK_SIZE} bytes, got {len(self.fak)}")
        if self.object_type not in (OBJ_FILE, OBJ_DIRECTORY):
            raise StegFSError(f"bad object type {self.object_type}")

    @property
    def is_directory(self) -> bool:
        """Whether the entry names a hidden directory."""
        return self.object_type == OBJ_DIRECTORY

    @cached_property
    def _keys(self) -> ObjectKeys:
        # Derived once per entry (three HMACs), so the entries of a cached
        # listing keep theirs; cached_property writes the instance dict
        # directly, which a frozen dataclass allows.
        return ObjectKeys.derive(self.physical_name, self.fak)

    def keys(self) -> ObjectKeys:
        """Key bundle addressing the entry's object."""
        return self._keys

    def to_bytes(self) -> bytes:
        """Serialise one entry."""
        return (
            pack_str(self.name)
            + pack_str(self.physical_name)
            + pack_bytes(self.fak)
            + pack_u16(self.object_type)
        )

    @classmethod
    def read_from(cls, reader: Reader) -> "HiddenDirEntry":
        """Parse one entry at the reader's position."""
        return cls(
            name=reader.str_(max_len=_MAX_NAME),
            physical_name=reader.str_(max_len=_MAX_NAME),
            fak=reader.bytes_(max_len=FAK_SIZE),
            object_type=reader.u16(),
        )


def serialize_entries(entries: dict[str, HiddenDirEntry]) -> bytes:
    """Encode a directory listing."""
    body = pack_u32(len(entries))
    for name in sorted(entries):
        body += entries[name].to_bytes()
    return body


def parse_entries(raw: bytes) -> dict[str, HiddenDirEntry]:
    """Decode a directory listing."""
    if not raw:
        return {}
    reader = Reader(raw)
    count = reader.u32()
    entries: dict[str, HiddenDirEntry] = {}
    for _ in range(count):
        entry = HiddenDirEntry.read_from(reader)
        entries[entry.name] = entry
    reader.expect_exhausted()
    return entries


class HiddenDirectory:
    """A directory listing stored inside a hidden object.

    A view, not a copy: the parsed listing lives on the shared
    :class:`HiddenFile`, so every ``HiddenDirectory`` over one object sees
    the same entries and only the first after a miss parses them.  A saved
    listing is a new dict, never a mutated one — readers under a shared
    lock may be iterating the old one.
    """

    def __init__(self, hidden: HiddenFile) -> None:
        self._hidden = hidden

    @property
    def _entries(self) -> dict[str, HiddenDirEntry]:
        listing = self._hidden.listing
        if listing is None:
            listing = self._hidden.listing = parse_entries(self._hidden.read())
        return listing

    @classmethod
    def open(cls, volume: HiddenVolume, keys: ObjectKeys) -> "HiddenDirectory":
        """Open an existing hidden directory object."""
        return cls(HiddenFile.open(volume, keys))

    @classmethod
    def open_or_create(
        cls, volume: HiddenVolume, keys: ObjectKeys
    ) -> "HiddenDirectory":
        """Open, or create empty on first use (e.g. a user's first login)."""
        try:
            return cls.open(volume, keys)
        except HiddenObjectNotFoundError:
            # The failed open just proved absence; skip a second full scan.
            hidden = HiddenFile.create(
                volume, keys, object_type=OBJ_DIRECTORY, check_exists=False
            )
            return cls(hidden)

    @classmethod
    def for_uak(cls, volume: HiddenVolume, uak: bytes) -> "HiddenDirectory":
        """The per-UAK directory of Figure 3 (created on first use)."""
        return cls.open_or_create(volume, ObjectKeys.derive(UAK_DIRECTORY_NAME, uak))

    @property
    def hidden_file(self) -> HiddenFile:
        """The backing hidden object."""
        return self._hidden

    @property
    def entries(self) -> dict[str, HiddenDirEntry]:
        """Current listing (name → entry); treat as read-only."""
        return dict(self._entries)

    def names(self) -> list[str]:
        """Sorted entry names."""
        return sorted(self._entries)

    def get(self, name: str) -> HiddenDirEntry | None:
        """Entry for ``name`` or None."""
        return self._entries.get(name)

    def add(self, entry: HiddenDirEntry) -> None:
        """Insert an entry and persist the listing."""
        entries = self._entries
        if entry.name in entries:
            raise StegFSError(f"hidden entry {entry.name!r} already exists")
        self._save({**entries, entry.name: entry})

    def replace(self, entry: HiddenDirEntry) -> None:
        """Overwrite an entry (used by revocation's re-keying) and persist."""
        entries = self._entries
        if entry.name not in entries:
            raise HiddenObjectNotFoundError(f"no hidden entry {entry.name!r}")
        self._save({**entries, entry.name: entry})

    def remove(self, name: str) -> HiddenDirEntry:
        """Delete an entry and persist; returns the removed entry."""
        entries = dict(self._entries)
        if name not in entries:
            raise HiddenObjectNotFoundError(f"no hidden entry {name!r}")
        entry = entries.pop(name)
        self._save(entries)
        return entry

    def _save(self, entries: dict[str, HiddenDirEntry]) -> None:
        self._hidden.write(serialize_entries(entries))
        self._hidden.listing = entries
