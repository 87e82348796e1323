"""Exception hierarchy for the StegFS reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with one clause.  Subsystem-specific
errors derive from one of the intermediate classes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# crypto
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidKeyError(CryptoError):
    """A key had the wrong length or structure for the requested algorithm."""


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for block-device level failures."""


class OutOfRangeError(StorageError):
    """A block index fell outside the device geometry."""


class DeviceClosedError(StorageError):
    """An operation was attempted on a closed device."""


class JournalError(StorageError):
    """The write-ahead journal is malformed or cannot accept a record."""


class PowerCutError(StorageError):
    """A simulated power cut interrupted device I/O (crash injection)."""


class NoSpaceError(StorageError):
    """The device or file system has no free blocks left."""


# ---------------------------------------------------------------------------
# plain file system
# ---------------------------------------------------------------------------


class FileSystemError(ReproError):
    """Base class for plain-file-system failures."""


class BadSuperblockError(FileSystemError):
    """The superblock magic or geometry was invalid (not a repro FS)."""


class FileNotFoundError_(FileSystemError):
    """The named file does not exist.

    Named with a trailing underscore to avoid shadowing the builtin; exported
    as ``repro.errors.FileNotFoundError_``.
    """


class FileExistsError_(FileSystemError):
    """A file with that name already exists."""


class NotADirectoryError_(FileSystemError):
    """A path component that must be a directory is a regular file."""


class IsADirectoryError_(FileSystemError):
    """A file operation was attempted on a directory."""


class InvalidPathError(FileSystemError):
    """A path was syntactically invalid."""


class FileTooLargeError(FileSystemError):
    """A write would exceed the maximum file size the inode can index."""


# ---------------------------------------------------------------------------
# StegFS core
# ---------------------------------------------------------------------------


class StegFSError(ReproError):
    """Base class for steganographic-layer failures."""


class HiddenObjectNotFoundError(StegFSError):
    """No hidden object matched the (name, key) pair.

    Deliberately indistinguishable from "wrong key": revealing which would
    break plausible deniability.
    """


class HiddenObjectExistsError(StegFSError):
    """A hidden object with the same (name, key) locator already exists."""


class NotConnectedError(StegFSError):
    """The hidden object is not connected to the current session."""


class SignatureMismatchError(StegFSError):
    """A candidate header block failed its signature check (internal)."""


class BackupFormatError(StegFSError):
    """A backup image was malformed or failed verification."""


class SharingError(StegFSError):
    """Import/export of a sharing entry file failed."""


# ---------------------------------------------------------------------------
# service layer
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for multi-client service-layer failures."""


class SessionNotFoundError(ServiceError):
    """No live session matches the given session id (never opened, closed,
    or evicted for idleness)."""


class SessionAuthError(ServiceError):
    """Session authentication failed: unknown user or wrong credential."""


class ServiceClosedError(ServiceError):
    """An operation was submitted to a service that has been shut down."""


class UnknownOperationError(ServiceError):
    """A dispatch named an operation the service registry does not list."""


# ---------------------------------------------------------------------------
# network layer
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for wire-protocol / remote-access failures."""


class ProtocolError(NetworkError):
    """A frame or value on the wire was malformed."""


class FrameTooLargeError(ProtocolError):
    """A frame exceeded the negotiated maximum size."""


class ConnectionClosedError(NetworkError):
    """The peer closed the connection while a reply was outstanding."""


class HandshakeError(NetworkError):
    """The authentication handshake was violated (out-of-order or missing)."""


class RemoteError(NetworkError):
    """The server raised an exception outside the typed ``repro.errors``
    hierarchy; the original class name and message are in the text."""


# ---------------------------------------------------------------------------
# cluster layer
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for multi-volume cluster-coordination failures."""


class ShardUnavailableError(ClusterError):
    """No shard in an object's placement could serve the request."""


class ClusterQuorumError(ClusterError):
    """A mutation reached fewer shards than its write quorum requires."""


class FragmentFormatError(ClusterError):
    """A stored fragment envelope was malformed or failed its digest."""


class RebalanceError(ClusterError):
    """A shard add/remove/replace migration failed verification."""


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class BaselineError(ReproError):
    """Base class for baseline (StegCover / StegRand / native) failures."""


class DataLossError(BaselineError):
    """All replicas of some block were overwritten (StegRand data loss)."""


class CoverConfigError(BaselineError):
    """Invalid cover-file configuration for StegCover."""
