"""Directory entry encoding and path utilities for the plain file system.

Directories are regular files whose content is a sequence of
``(inode, name)`` records; the whole listing is rewritten on change, which
is simple and plenty for the central directory's role in the experiments.
"""

from __future__ import annotations

from repro.errors import InvalidPathError
from repro.util.serialization import Reader, pack_str, pack_u32

__all__ = ["DirectoryData", "split_path", "validate_name", "MAX_NAME_LENGTH"]

MAX_NAME_LENGTH = 255


def validate_name(name: str) -> str:
    """Check a single path component; returns it unchanged."""
    if not name or name in (".", ".."):
        raise InvalidPathError(f"invalid file name {name!r}")
    if "/" in name or "\x00" in name:
        raise InvalidPathError(f"invalid character in file name {name!r}")
    if len(name.encode("utf-8")) > MAX_NAME_LENGTH:
        raise InvalidPathError(f"file name too long: {name[:32]!r}…")
    return name


def split_path(path: str) -> list[str]:
    """Split an absolute path into validated components.

    ``"/"`` → ``[]``; ``"/a/b"`` → ``["a", "b"]``.
    """
    if not path.startswith("/"):
        raise InvalidPathError(f"path must be absolute, got {path!r}")
    components = [part for part in path.split("/") if part]
    return [validate_name(part) for part in components]


class DirectoryData:
    """In-memory listing of one directory, with binary (de)serialisation."""

    def __init__(self, entries: dict[str, int] | None = None) -> None:
        self._entries: dict[str, int] = dict(entries or {})

    @property
    def entries(self) -> dict[str, int]:
        """Mapping of name → inode number (a live view; treat as read-only)."""
        return self._entries

    def copy(self) -> "DirectoryData":
        """An independent listing with the same entries."""
        return DirectoryData(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> int | None:
        """Inode number for ``name``, or None."""
        return self._entries.get(name)

    def add(self, name: str, inode: int) -> None:
        """Insert an entry (name must be new and valid)."""
        validate_name(name)
        if name in self._entries:
            raise InvalidPathError(f"duplicate directory entry {name!r}")
        self._entries[name] = inode

    def remove(self, name: str) -> int:
        """Delete an entry, returning its inode number."""
        if name not in self._entries:
            raise InvalidPathError(f"no directory entry {name!r}")
        return self._entries.pop(name)

    def names(self) -> list[str]:
        """Sorted entry names."""
        return sorted(self._entries)

    def to_bytes(self) -> bytes:
        """Serialise: u32 count, then (u32 inode, length-prefixed name)*."""
        body = pack_u32(len(self._entries))
        for name in sorted(self._entries):
            body += pack_u32(self._entries[name]) + pack_str(name)
        return body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DirectoryData":
        """Parse the :meth:`to_bytes` format."""
        reader = Reader(raw)
        count = reader.u32()
        entries: dict[str, int] = {}
        for _ in range(count):
            inode = reader.u32()
            name = reader.str_(max_len=MAX_NAME_LENGTH)
            entries[name] = inode
        reader.expect_exhausted()
        return cls(entries)
