"""The cluster data plane: one asyncio engine, two call styles.

A *client-side* fourth tier that holds no data of its own.  Every
operation hashes the object's name onto the ring
(:mod:`repro.cluster.ring`), takes the first ``width`` distinct shards as
the object's **placement**, and fans the call out to the placement's
alive members as tasks on one event loop — an in-flight leg costs a
task, never a thread:

* :class:`AsyncShardBackend` — what the coordinator needs from one
  shard, satisfied by :class:`AsyncServiceShard` (in-process volumes
  through an :class:`~repro.service.aio.AsyncServiceFront`) and
  :class:`AsyncRemoteShard` (pipelined
  :class:`~repro.net.client.AsyncStegFSClient` connections — many
  in-flight legs per socket).
* :class:`AsyncClusterClient` — the coordinator.  ``mode="replicate"``
  stores a full copy per placement shard inside a versioned
  :mod:`~repro.cluster.fragment` envelope (W-of-N write quorum);
  ``mode="ida"`` disperses hidden files with
  :func:`repro.crypto.ida.disperse` into one share per shard, any
  ``ida_m`` of which reconstruct the file while fewer reveal nothing
  beyond the share length (plain files are always replicated).  Writes
  are **early-ack**: legs go out concurrently and the call returns at
  write quorum while the remaining "straggler" legs drain in the
  background, serialized against the next same-key mutation.  Dead
  shards (:class:`~repro.cluster.health.HealthMonitor`) are skipped by
  reads and writes alike, and stale, missing or corrupt fragments a read
  meets — or knows of, from a write leg that failed or was skipped — are
  **read-repaired** under the per-key lock.
* :class:`BlockingClusterClient` — the same surface for threaded
  callers: a thin wrapper that submits each call to one
  :class:`AsyncClusterClient` on a private event-loop thread.

One object path: to the coordinator a plain file and a hidden file are
the same thing, a versioned fragment per placement shard.  What differs
— ring key, the shard calls that carry the fragment, the typed errors
for *missing* / *exists*, whether the mode may disperse it — is one
:class:`_Subject`, and write, read, delete, the union listing and the
rebalancer's ``fetch`` / ``store_at`` / ``purge`` are each written once
over it; the public verbs of both namespaces are shells.

Read semantics, recorded once: a read issues the legs it **needs** —
one replica, or ``ida_m`` shares — and adds a leg only for a reason.  A
finished leg that leaves the verdict short (shard down, object missing,
corrupt fragment, version at or below the tombstone floor or below the
version this coordinator last acked) is replaced at once: a *widening*.
A leg that merely has not answered is **hedged**: after the p99 of this
process's own completed read legs (``cluster.async.read_leg_ms``;
:data:`_HEDGE_DELAY_S` until it holds :data:`_HEDGE_MIN_SAMPLES`) one
more replica is asked, the first acceptable answer wins and the legs
still pending are cancelled — a stalled replica costs one delay, a
healthy cluster about 1 % extra legs.  Replica order is ring order with
the replicas this coordinator *knows* miss the acked version last (a
write leg still draining, failed, or skipped as dead), so a read
straight after an early ack goes to a shard that has the bytes.  That
makes reads read-your-writes *per coordinator*; a coordinator with no
knowledge of a key may return an older intact version than another
replica holds.  Only when no leg meets the acked version does a read
consult the whole alive placement and take the highest version there.

Deletions are quorum deletes plus an **in-memory tombstone** (the
version floor below which fragments are ignored), which keeps a revived
stale replica from resurrecting a deleted object within a coordinator's
lifetime; persisting tombstones cluster-wide is an open roadmap item.

Counters land on :class:`ClusterStats` under ``async.*`` names, which the
process registry exposes as ``cluster.async.reads``,
``cluster.async.read_legs``, ``cluster.async.hedged_reads``,
``cluster.async.quorum_widenings``, ``cluster.async.cancelled_legs``,
``cluster.async.early_acks`` and so on.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Coroutine,
    Iterable,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.cluster.backend import SHARD_FAILURES
from repro.cluster.fragment import (
    HEADER_LEN,
    MODE_IDA,
    MODE_REPLICATE,
    Fragment,
    decode_fragment,
    decode_header,
    digest_of,
    encode_fragment,
)
from repro.cluster.health import HealthMonitor
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.crypto.ida import Share, disperse, reconstruct
from repro.crypto.sha256 import sha256, sha256_hex
from repro.errors import (
    ClusterError,
    ClusterQuorumError,
    CryptoError,
    FileExistsError_,
    FileNotFoundError_,
    FragmentFormatError,
    HiddenObjectExistsError,
    HiddenObjectNotFoundError,
    ReproError,
    ServiceClosedError,
    ShardUnavailableError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import maybe_span
from repro.service.aio import AsyncServiceFront
from repro.util.loop_thread import LoopThread

if TYPE_CHECKING:
    from repro.cluster.rebalance import RebalanceReport

__all__ = [
    "AsyncClusterClient",
    "AsyncRemoteShard",
    "AsyncServiceShard",
    "AsyncShardBackend",
    "BlockingClusterClient",
    "ClusterStats",
    "hidden_key",
    "plain_key",
]

_ShardCall = Callable[[str, "AsyncShardBackend"], Awaitable[Any]]
_ShardPut = Callable[[str, "AsyncShardBackend", bytes], Awaitable[None]]

#: ``min_version`` no stored fragment can meet: the read then consults
#: the whole alive placement in one wave and takes the newest intact
#: version there (what a migration must copy).
_NEWEST_OF_ALL = 1 << 64

#: Hedge delay (seconds) until ``cluster.async.read_leg_ms`` holds enough
#: samples (:data:`_HEDGE_MIN_SAMPLES`) for its p99 to mean something.
_HEDGE_DELAY_S = 0.1
_HEDGE_MIN_SAMPLES = 100


def _canonical(name: str) -> str:
    return "/".join(part for part in name.split("/") if part)


def _key_tag(uak: bytes) -> str:
    # Non-reversible: enough to tell two keys apart, useless for
    # recovering either.
    return sha256_hex(uak)[:16]


def plain_key(path: str) -> str:
    """Ring key for a plain path (spelling variants collapse)."""
    return "p:" + _canonical(path)


def hidden_key(objname: str, uak: bytes) -> str:
    """Ring key for a hidden object — a hash tag, never the raw UAK."""
    return f"h:{_key_tag(uak)}:{_canonical(objname)}"


class ClusterStats:
    """Thread-safe cluster-level counters (reads, repairs, failovers).

    Every increment is mirrored onto the process-wide
    :class:`~repro.obs.metrics.MetricRegistry` as ``cluster.<name>``, so
    ``obs_metrics`` shows cluster behaviour next to device, cache and
    journal traffic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._mirrors: dict[str, Any] = {}

    def increment(self, name: str, by: int = 1) -> None:
        """Bump one counter (created on first use)."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by
            mirror = self._mirrors.get(name)
            if mirror is None:
                mirror = self._mirrors[name] = get_registry().counter(
                    f"cluster.{name}"
                )
        mirror.inc(by)

    def snapshot(self) -> dict[str, int]:
        """Point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)


@dataclass
class _Outcome:
    """Result of one per-shard call inside a fan-out."""

    value: Any = None
    error: ReproError | None = None
    down: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.down


@dataclass
class _ReadVerdict:
    """What a redundancy-mode read resolved to."""

    data: bytes
    version: int
    #: Alive placement shards that must be rewritten to regain full
    #: redundancy (missing / stale / corrupt fragment).
    stale: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class _Subject:
    """One object of either namespace: all a plain and a hidden file differ in.

    Built by :meth:`AsyncClusterClient.plain` / :meth:`AsyncClusterClient.hidden`;
    a path that takes one stops knowing which namespace it serves.  Error
    text names ``kind`` and ``what`` (the caller's name for it), never
    ``key`` — a hidden key carries the UAK's hash tag.
    """

    key: str
    kind: str
    what: str
    fetch: _ShardCall
    probe: _ShardCall
    put: _ShardPut
    delete: _ShardCall
    missing: type[ReproError]
    exists: type[ReproError]
    dispersed: bool = False


@runtime_checkable
class AsyncShardBackend(Protocol):
    """What the coordinator needs from one shard (awaitable)."""

    async def ping(self) -> bool:  # pragma: no cover - protocol
        """Liveness check: ``True`` when the shard answers."""
        ...

    # plain namespace -------------------------------------------------
    async def put(self, path: str, data: bytes) -> None:  # pragma: no cover
        """Create-or-replace a plain file at ``path``."""
        ...

    async def read(self, path: str) -> bytes:  # pragma: no cover - protocol
        """Read a plain file's full contents."""
        ...

    async def unlink(self, path: str) -> None:  # pragma: no cover - protocol
        """Delete a plain file."""
        ...

    async def listdir(self, path: str = "/") -> list[str]:  # pragma: no cover
        """List plain directory entries under ``path``."""
        ...

    # hidden namespace ------------------------------------------------
    async def steg_put(
        self, objname: str, uak: bytes, data: bytes
    ) -> None:  # pragma: no cover - protocol
        """Create-or-replace a hidden object's stored bytes."""
        ...

    async def steg_read(
        self, objname: str, uak: bytes
    ) -> bytes:  # pragma: no cover - protocol
        """Read a hidden object's stored bytes."""
        ...

    async def steg_read_extent(
        self, objname: str, uak: bytes, offset: int, length: int
    ) -> bytes:  # pragma: no cover - protocol
        """Read ``length`` bytes of a hidden object from ``offset``."""
        ...

    async def steg_delete(
        self, objname: str, uak: bytes
    ) -> None:  # pragma: no cover - protocol
        """Delete a hidden object."""
        ...

    async def steg_list(self, uak: bytes) -> list[str]:  # pragma: no cover
        """List hidden object names readable with ``uak``."""
        ...

    async def flush(self) -> None:  # pragma: no cover - protocol
        """Make the shard's volume durable."""
        ...

    async def close(self) -> None:  # pragma: no cover - protocol
        """Release the shard's resources (connection or service)."""
        ...


class _ShardVerbs:
    """The shard verbs and the one upsert ladder, once for both adapters.

    Each verb names a service operation and its arguments by keyword;
    the adapter's one hook, :meth:`_call`, carries that to the volume —
    in-process through the service front with the key passed along, over
    the wire through the client verb of the same name, which drops the
    key (the session token stands for it).
    """

    async def _call(self, op: str, uak: bytes | None = None, **kwargs: Any) -> Any:
        raise NotImplementedError

    async def _upsert(
        self,
        write_op: str,
        create_op: str,
        missing: type[ReproError],
        exists: type[ReproError],
        uak: bytes | None = None,
        **kwargs: Any,
    ) -> None:
        """Write, falling back to create — the ladder under both ``put`` verbs.

        The create leg tolerates Exists and re-writes — a concurrent
        repair or a second coordinator may have created the object in
        between, and an upsert must converge on the newest payload.
        """
        try:
            await self._call(write_op, uak, **kwargs)
        except missing:
            try:
                await self._call(create_op, uak, **kwargs)
            except exists:
                await self._call(write_op, uak, **kwargs)

    # plain namespace -------------------------------------------------

    async def put(self, path: str, data: bytes) -> None:
        """Upsert a plain file (write, falling back to create)."""
        await self._upsert(
            "write", "create", FileNotFoundError_, FileExistsError_, path=path, data=data
        )

    async def read(self, path: str) -> bytes:
        """Read a plain file."""
        return await self._call("read", path=path)

    async def unlink(self, path: str) -> None:
        """Delete a plain file."""
        await self._call("unlink", path=path)

    async def listdir(self, path: str = "/") -> list[str]:
        """List a plain directory."""
        return await self._call("listdir", path=path)

    # hidden namespace ------------------------------------------------

    async def steg_put(self, objname: str, uak: bytes, data: bytes) -> None:
        """Upsert a hidden file (write, falling back to create)."""
        await self._upsert(
            "steg_write",
            "steg_create",
            HiddenObjectNotFoundError,
            HiddenObjectExistsError,
            uak,
            objname=objname,
            data=data,
        )

    async def steg_read(self, objname: str, uak: bytes) -> bytes:
        """Read a hidden file."""
        return await self._call("steg_read", uak, objname=objname)

    async def steg_read_extent(
        self, objname: str, uak: bytes, offset: int, length: int
    ) -> bytes:
        """Read one extent of a hidden file (fragment-header probes)."""
        return await self._call(
            "steg_read_extent", uak, objname=objname, offset=offset, length=length
        )

    async def steg_delete(self, objname: str, uak: bytes) -> None:
        """Delete a hidden object."""
        await self._call("steg_delete", uak, objname=objname)

    async def steg_list(self, uak: bytes) -> list[str]:
        """List the hidden root for ``uak``."""
        return await self._call("steg_list", uak)

    async def flush(self) -> None:
        """Flush the shard volume."""
        await self._call("flush")

    # observability ---------------------------------------------------

    async def obs_snapshot(self) -> str:
        """The shard process's merge-ready telemetry document (JSON; scrape hook)."""
        return await self._call("obs_snapshot")

    async def obs_trace(self, trace_id: str = "") -> str:
        """The shard process's span records for one trace (JSON; stitch hook)."""
        return await self._call("obs_trace", trace_id=trace_id)


class AsyncServiceShard(_ShardVerbs):
    """In-process async shard: a service behind an awaitable front.

    Blocking volume work runs on the service's own worker pool via
    :class:`~repro.service.aio.AsyncServiceFront`, so the event loop
    never blocks on crypto or block I/O.  Cancelling a leg that already
    entered the pool does not abort the disk work — the thread finishes
    and the result is discarded — but legs still queued are freed.

    Args:
        service: the :class:`~repro.service.StegFSService` to wrap.
        owns_service: close the service when this shard is closed.
    """

    def __init__(self, service: Any, *, owns_service: bool = False) -> None:
        self._service = service
        self._front = AsyncServiceFront(service)
        self._owns_service = owns_service

    @property
    def service(self) -> Any:
        """The wrapped service (tests reach through for inspection)."""
        return self._service

    async def _call(self, op: str, uak: bytes | None = None, **kwargs: Any) -> Any:
        if uak is not None:
            kwargs["uak"] = uak
        return await self._front.call(op, **kwargs)

    async def ping(self) -> bool:
        """Liveness: a closed service raises, which the caller maps to dead."""
        if getattr(self._service, "closed", False):
            raise ServiceClosedError("shard service has been shut down")
        return True

    async def close(self) -> None:
        """Shut the service down if this adapter owns it."""
        if self._owns_service and not getattr(self._service, "closed", True):
            await asyncio.to_thread(self._service.close)


class AsyncRemoteShard(_ShardVerbs):
    """Remote async shard: a pipelined client logged in as one user.

    The client's session token encodes the UAK server-side, so hidden
    calls drop the key on the wire; per-call keys are checked against a
    hash of the login key so a routing bug can never silently cross
    namespaces (and the raw key is never stored here).

    Args:
        client: an opened, logged-in :class:`AsyncStegFSClient`.
        uak: the key the client's session was opened with.
        owns_client: close the client when this shard is closed.

    Raises:
        ClusterError: a call carries a key other than the login key.
    """

    def __init__(self, client: Any, uak: bytes, *, owns_client: bool = True) -> None:
        self._client = client
        self._tag = _key_tag(uak)
        self._owns_client = owns_client

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        user_id: str,
        uak: bytes,
        *,
        pool_size: int = 2,
        max_message: int | None = None,
    ) -> "AsyncRemoteShard":
        """Dial a ``StegFSServer`` and log in; returns the ready adapter.

        ``max_message`` bounds one streamed transfer (IDA share legs and
        replica payloads larger than a wire frame travel as CHUNK runs);
        ``None`` keeps the client's default.
        """
        from repro.net.client import DEFAULT_MAX_MESSAGE, AsyncStegFSClient

        client = AsyncStegFSClient(
            host,
            port,
            pool_size=pool_size,
            max_message=DEFAULT_MAX_MESSAGE if max_message is None else max_message,
        )
        await client.open()
        try:
            await client.login(user_id, uak)
        except BaseException:
            await client.close()
            raise
        return cls(client, uak)

    def _check_key(self, uak: bytes) -> None:
        if _key_tag(uak) != self._tag:
            raise ClusterError(
                "remote shard session was authenticated with a different key"
            )

    async def _call(self, op: str, uak: bytes | None = None, **kwargs: Any) -> Any:
        if uak is not None:
            self._check_key(uak)
        return await getattr(self._client, op)(**kwargs)

    async def ping(self) -> bool:
        """Round-trip liveness check over the wire."""
        return await self._client.ping()

    async def close(self) -> None:
        """Close the pipelined connections if this adapter owns them."""
        if self._owns_client:
            await self._client.close()


def _classify_empty_read(
    outcomes: dict[str, _Outcome],
    missing_error: type[ReproError],
    what: str,
) -> ReproError:
    downs = [sid for sid, outcome in outcomes.items() if outcome.down]
    corrupt = [
        sid
        for sid, outcome in outcomes.items()
        if outcome.ok is False and not outcome.down
        and isinstance(outcome.error, FragmentFormatError)
    ]
    if downs:
        return ShardUnavailableError(
            f"{what}: no intact copy reachable "
            f"({len(downs)} placement shard(s) down)"
        )
    if corrupt:
        return FragmentFormatError(f"{what}: every reachable copy corrupt")
    return missing_error(what)


class _ReplicaVerdict:
    """What a replicate-mode read's finished legs add up to.

    The first *acceptable* fragment decides the read: intact (decodes,
    above the tombstone ``floor``, digest matches) and at or above
    ``min_version`` — the newest version this coordinator itself acked,
    so a read can never travel back past the caller's own writes.
    """

    #: Legs a healthy read issues.
    need = 1

    def __init__(self, floor: int, min_version: int) -> None:
        self.floor = floor
        self.min_version = min_version
        self.outcomes: dict[str, _Outcome] = {}
        #: Shard id → its intact fragment above the floor, any version.
        self.intact: dict[str, Fragment] = {}
        #: ``(data, version)`` once an acceptable answer exists.
        self.decided: tuple[bytes, int] | None = None

    def absorb(self, shard_id: str, outcome: _Outcome) -> None:
        """Judge one finished leg."""
        self.outcomes[shard_id] = outcome
        if not outcome.ok:
            return
        try:
            fragment = decode_fragment(outcome.value)
            if fragment.version > self.floor:
                self._admit(shard_id, fragment)
        except FragmentFormatError as exc:
            self.outcomes[shard_id] = _Outcome(error=exc)

    def _admit(self, shard_id: str, fragment: Fragment) -> None:
        if digest_of(fragment.payload) != fragment.digest:
            raise FragmentFormatError("replica digest mismatch")
        self.intact[shard_id] = fragment
        if self.decided is None and fragment.version >= self.min_version:
            self.decided = (fragment.payload, fragment.version)

    def wanted(self) -> int:
        """Legs that should be in flight for the verdict to close."""
        return 0 if self.decided else 1

    def settle(self, missing_error: type[ReproError], what: str) -> tuple[bytes, int]:
        """Every leg is in and none was acceptable: newest intact, or raise."""
        if not self.intact:
            raise _classify_empty_read(self.outcomes, missing_error, what)
        newest = max(self.intact.values(), key=lambda f: f.version)
        return newest.payload, newest.version


class _ShareVerdict(_ReplicaVerdict):
    """The ida-mode accumulator: the first version at or above
    ``min_version`` holding ``m`` intact shares is reconstructed."""

    def __init__(self, floor: int, min_version: int, m: int) -> None:
        super().__init__(floor, min_version)
        self.need = m
        self.by_version: dict[int, dict[int, Fragment]] = {}

    def _admit(self, shard_id: str, fragment: Fragment) -> None:
        self.intact[shard_id] = fragment
        group = self.by_version.setdefault(fragment.version, {})
        group[fragment.index] = fragment
        if self.decided is None and fragment.version >= self.min_version:
            data = self._reconstruct(group)
            if data is not None:
                self.decided = (data, fragment.version)

    @staticmethod
    def _reconstruct(group: dict[int, Fragment]) -> bytes | None:
        sample = next(iter(group.values()))
        if len(group) < min(f.m for f in group.values()):
            return None
        try:
            data = reconstruct(
                [Share(f.index, f.payload) for f in group.values()], sample.m
            )
        except CryptoError:
            return None
        return data if digest_of(data) == sample.digest else None

    def wanted(self) -> int:
        if self.decided:
            return 0
        best = max(
            (len(g) for v, g in self.by_version.items() if v >= self.min_version),
            default=0,
        )
        return max(1, self.need - best)

    def settle(self, missing_error: type[ReproError], what: str) -> tuple[bytes, int]:
        for version in sorted(self.by_version, reverse=True):
            data = self._reconstruct(self.by_version[version])
            if data is not None:
                return data, version
        if not self.intact:
            raise _classify_empty_read(self.outcomes, missing_error, what)
        downs = sum(1 for outcome in self.outcomes.values() if outcome.down)
        if downs:
            raise ShardUnavailableError(
                f"{what}: only {len(self.intact)} share(s) reachable, "
                f"{downs} placement shard(s) down"
            )
        raise ClusterError(
            f"{what}: {len(self.intact)} share(s) survive, need "
            f"{min(f.m for f in self.intact.values())} to reconstruct"
        )


def _reap(tasks: Iterable[asyncio.Task]) -> None:
    """Cancel tasks without awaiting them; mark exceptions retrieved."""

    def silence(task: asyncio.Task) -> None:
        if not task.cancelled():
            task.exception()

    for task in tasks:
        task.cancel()
        task.add_done_callback(silence)


class AsyncClusterClient:
    """Route file and hidden-file operations across N StegFS shards.

    Placement (consistent-hash ring), redundancy modes (``replicate`` /
    ``ida``), quorum rules, version clock, tombstones, read-repair and
    failover live here, once.  Every fan-out leg is a task on the
    caller's event loop; a read issues the legs it needs (one replica,
    ``ida_m`` shares) to the replicas known to hold the acked version,
    replaces a leg that came back short at once and hedges one that is
    merely slow after the p99 of its own read-leg history; writes return
    at quorum with the remaining legs draining in the background.  Not
    promised: a coordinator that never wrote or read a key may return an
    older intact version than another replica holds.

    One instance belongs to one event loop; it is safe for any number of
    tasks on that loop.  Threaded callers want
    :class:`BlockingClusterClient`.

    Args:
        shards: shard id → :class:`AsyncShardBackend`.
        mode: ``"replicate"`` (full copies) or ``"ida"`` (m-of-n shares).
        replication / write_quorum: N and W for replicate mode.
        ida_m / ida_n / ida_write_quorum: dispersal geometry.
        vnodes: ring virtual nodes per shard.
        health: shared failure detector (one is created if omitted).
        owns_backends: close every backend on :meth:`close`.

    Raises:
        ClusterError: invalid geometry, or operations after close.
        ShardUnavailableError: no alive shard can serve an operation.
        ClusterQuorumError: a write could not reach its quorum.
    """

    def __init__(
        self,
        shards: Mapping[str, AsyncShardBackend]
        | Iterable[tuple[str, AsyncShardBackend]],
        *,
        mode: str = MODE_REPLICATE,
        replication: int = 3,
        write_quorum: int = 2,
        ida_m: int = 2,
        ida_n: int = 4,
        ida_write_quorum: int | None = None,
        vnodes: int = DEFAULT_VNODES,
        health: HealthMonitor | None = None,
        owns_backends: bool = False,
    ) -> None:
        if mode not in (MODE_REPLICATE, MODE_IDA):
            raise ClusterError(f"unknown cluster mode {mode!r}")
        if not 1 <= write_quorum <= replication:
            raise ClusterError(
                f"need 1 <= write_quorum <= replication, "
                f"got W={write_quorum}, N={replication}"
            )
        if not 1 <= ida_m <= ida_n:
            raise ClusterError(f"need 1 <= m <= n, got m={ida_m}, n={ida_n}")
        if ida_write_quorum is None:
            # m shares are *sufficient*, but acking at m would make the
            # very next shard loss fatal; m+1 keeps one spare per ack.
            ida_write_quorum = min(ida_n, ida_m + 1)
        if not ida_m <= ida_write_quorum <= ida_n:
            raise ClusterError(
                f"need m <= ida_write_quorum <= n, got {ida_write_quorum}"
            )
        self._mode = mode
        self._replication = replication
        self._write_quorum = write_quorum
        self._ida_m = ida_m
        self._ida_n = ida_n
        self._ida_write_quorum = ida_write_quorum
        self._shards: dict[str, AsyncShardBackend] = dict(
            shards.items() if isinstance(shards, Mapping) else shards
        )
        if not self._shards:
            raise ClusterError("a cluster needs at least one shard")
        self._ring = HashRing(sorted(self._shards), vnodes=vnodes)
        self._health = health or HealthMonitor()
        for shard_id in self._shards:
            self._health.register(shard_id)
        self._stats = ClusterStats()
        self._owns_backends = owns_backends
        # Coordinator write clock and tombstones: key -> (version, exists).
        # Loop-confined — every mutation happens on the owning event loop.
        self._versions: dict[str, tuple[int, bool]] = {}
        # Striped per-key asyncio locks: a write and a read-repair of the
        # same object must not interleave their shard puts (the classic
        # read-repair/write race), and a new same-key write must not race
        # the previous write's straggler legs.
        self._key_locks = tuple(asyncio.Lock() for _ in range(64))
        # key -> (version, shards known to hold it), kept only for versions
        # this coordinator stored itself: every other placement member is
        # then *known* to miss it (leg failed, skipped as dead) or is still
        # draining below.  Orders read legs and feeds read-repair.
        self._ackers: dict[str, tuple[int, set[str]]] = {}
        # key -> background write legs (task -> shard id) still draining
        # after an early ack.
        self._stragglers: dict[str, dict[asyncio.Task, str]] = {}
        # Telemetry for the straggler machinery: backlog depth and how
        # long callers queue on the per-key stripes.  Process-wide series
        # — two clients in one process add into the same instruments.
        registry = get_registry()
        self._straggler_gauge = registry.gauge(
            "cluster.async.stragglers.pending",
            "early-acked write legs still draining in the background",
        )
        self._lock_wait_hist = registry.histogram(
            "cluster.async.key_lock_wait_ms",
            "milliseconds spent queueing on a per-key stripe lock",
        )
        self._read_leg_hist = registry.histogram(
            "cluster.async.read_leg_ms",
            "milliseconds a completed read leg took (its p99 is the hedge delay)",
        )
        self._closed = False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """Redundancy mode for hidden files (``replicate`` or ``ida``)."""
        return self._mode

    @property
    def shards(self) -> dict[str, AsyncShardBackend]:
        """Shard id → backend (a copy)."""
        return dict(self._shards)

    @property
    def health(self) -> HealthMonitor:
        """The failure detector the coordinator routes by."""
        return self._health

    @property
    def stats(self) -> ClusterStats:
        """Cluster-level counters (``async.*`` names)."""
        return self._stats

    @property
    def width(self) -> int:
        """Placement width: replicas or IDA shares per object."""
        return self._ida_n if self._mode == MODE_IDA else self._replication

    def stats_snapshot(self) -> dict[str, Any]:
        """One observable view of the cluster: counters plus shard states.

        ``counters`` is the :class:`ClusterStats` snapshot; ``shards``
        maps shard id → routing state (``"alive"`` / ``"dead"``) with the
        success/failure tallies the failure detector has seen.  Shard ids
        are operator-chosen labels — no keys or hidden names appear here.
        """
        health = {
            shard_id: {
                "state": record.state.value,
                "successes": record.successes,
                "failures": record.failures,
                "consecutive_failures": record.consecutive_failures,
            }
            for shard_id, record in self._health.snapshot().items()
        }
        return {
            "mode": self._mode,
            "width": self.width,
            "counters": self._stats.snapshot(),
            "shards": health,
        }

    def placement(self, key: str) -> tuple[str, ...]:
        """The ordered shard placement for a ring key."""
        return self._ring.nodes_for(key, self.width)

    def ring_copy(self) -> HashRing:
        """Snapshot of the current ring (the rebalancer diffs against it)."""
        return self._ring.copy()

    def attach_shard(self, shard_id: str, backend: AsyncShardBackend) -> None:
        """Add a shard to the ring — placement changes immediately; use
        :func:`repro.cluster.rebalance.add_shard` to also migrate data."""
        if shard_id in self._shards:
            raise ClusterError(f"shard {shard_id!r} already attached")
        self._ring.add_node(shard_id)
        self._shards[shard_id] = backend
        self._health.register(shard_id)
        self._ackers.clear()  # placements moved: who-holds-what is void

    def detach_shard(self, shard_id: str) -> AsyncShardBackend:
        """Remove a shard from the ring; returns its backend (not closed)."""
        if shard_id not in self._shards:
            raise ClusterError(f"shard {shard_id!r} is not attached")
        if len(self._shards) == 1:
            raise ClusterError("cannot detach the last shard")
        self._ring.remove_node(shard_id)
        backend = self._shards.pop(shard_id)
        self._health.forget(shard_id)
        self._ackers.clear()
        return backend

    # ------------------------------------------------------------------
    # fan-out plumbing
    # ------------------------------------------------------------------

    async def _guarded(self, shard_id: str, call: _ShardCall) -> _Outcome:
        backend = self._shards.get(shard_id)
        if backend is None:
            return _Outcome(
                down=True, error=ClusterError(f"shard {shard_id!r} detached")
            )
        with maybe_span("cluster.shard_call", shard=shard_id):
            try:
                value = await call(shard_id, backend)
            except SHARD_FAILURES as exc:
                self._health.record_failure(shard_id)
                self._stats.increment("async.failovers")
                return _Outcome(down=True, error=exc)
            except ReproError as exc:
                self._health.record_success(shard_id)
                return _Outcome(error=exc)
        self._health.record_success(shard_id)
        return _Outcome(value=value)

    def _spawn(
        self, shard_ids: Iterable[str], call: _ShardCall
    ) -> dict[asyncio.Task, str]:
        if self._closed:
            raise ClusterError("cluster client has been closed")
        return {
            asyncio.ensure_future(self._guarded(sid, call)): sid
            for sid in shard_ids
        }

    async def _fanout(
        self, shard_ids: Iterable[str], call: _ShardCall
    ) -> dict[str, _Outcome]:
        """Run ``call`` on every named shard concurrently; await them all."""
        tasks = self._spawn(shard_ids, call)
        if not tasks:
            return {}
        try:
            results = await asyncio.gather(*tasks)
        except BaseException:
            _reap(tasks)
            raise
        return dict(zip(tasks.values(), results))

    def _alive(self, placement: tuple[str, ...] | list[str]) -> list[str]:
        alive = self._health.alive_of(tuple(placement))
        if not alive:
            raise ShardUnavailableError(
                f"no alive shard in placement {tuple(placement)!r}"
            )
        return alive

    # ------------------------------------------------------------------
    # version clock and tombstones (loop-confined, no locks needed)
    # ------------------------------------------------------------------

    def _key_lock(self, key: str) -> asyncio.Lock:
        digest = int.from_bytes(sha256(key.encode())[:4], "big")
        return self._key_locks[digest % len(self._key_locks)]

    @contextlib.asynccontextmanager
    async def _locked(self, key: str):
        """Hold ``key``'s stripe lock, recording how long we queued for it."""
        lock = self._key_lock(key)
        started = time.perf_counter()
        await lock.acquire()
        self._lock_wait_hist.observe((time.perf_counter() - started) * 1000.0)
        try:
            yield
        finally:
            lock.release()

    def _observe_version(self, key: str, version: int, exists: bool = True) -> None:
        current = self._versions.get(key)
        if current is None or version > current[0]:
            self._versions[key] = (version, exists)

    def _next_version(self, key: str, floor: int) -> int:
        # Deliberately does NOT touch the cache: a write commits its
        # version only after its store reached quorum, so a refused write
        # cannot poison it (a failed create marking the object existing).
        current = self._versions.get(key, (0, False))[0]
        return max(current, floor) + 1

    def _tombstone(self, key: str) -> None:
        current = self._versions.get(key, (0, False))[0]
        self._versions[key] = (current, False)

    def _version_floor(self, key: str) -> int:
        version, exists = self._versions.get(key, (0, True))
        return 0 if exists else version

    def _acked_version(self, key: str) -> int:
        cached = self._versions.get(key)
        return cached[0] if cached and cached[1] else 0

    async def _probe_versions(
        self, alive: list[str], probe: _ShardCall
    ) -> int | None:
        self._stats.increment("async.version_probes")
        outcomes = await self._fanout(alive, probe)
        best: int | None = None
        for outcome in outcomes.values():
            if not outcome.ok:
                continue
            try:
                header = decode_header(outcome.value)
            except FragmentFormatError:
                continue
            if best is None or header.version > best:
                best = header.version
        return best

    async def _resolve_write_version(
        self, key: str, alive: list[str], probe: _ShardCall
    ) -> tuple[int, bool]:
        cached = self._versions.get(key)
        if cached is not None:
            version, exists = cached
            return self._next_version(key, version), exists
        observed = await self._probe_versions(alive, probe)
        if observed is None:
            return self._next_version(key, 0), False
        return self._next_version(key, observed), True

    def _commit_version(self, key: str, version: int) -> None:
        self._observe_version(key, version, exists=True)

    # ------------------------------------------------------------------
    # write stragglers (early-acked legs still draining)
    # ------------------------------------------------------------------

    def _note_holders(self, key: str, version: int, shard_ids: Iterable[str]) -> None:
        entry = self._ackers.get(key)
        if entry is not None and entry[0] == version:
            entry[1].update(shard_ids)

    def _lagging(self, key: str, placement: tuple[str, ...], version: int) -> list[str]:
        """Alive placement shards known to miss ``version`` (not mid-drain)."""
        entry = self._ackers.get(key)
        if entry is None or entry[0] != version:
            return []
        draining = self._stragglers.get(key, {}).values()
        return [
            shard_id
            for shard_id in self._health.alive_of(placement)
            if shard_id not in entry[1] and shard_id not in draining
        ]

    def _track_stragglers(
        self, key: str, version: int, tasks: dict[asyncio.Task, str]
    ) -> None:
        self._stragglers.setdefault(key, {}).update(tasks)
        for task in tasks:
            self._straggler_gauge.add(1)
            task.add_done_callback(
                lambda t: self._straggler_done(key, version, t)
            )

    def _straggler_done(self, key: str, version: int, task: asyncio.Task) -> None:
        self._straggler_gauge.add(-1)
        bucket = self._stragglers.get(key, {})
        shard_id = bucket.pop(task, None)
        if not bucket:
            self._stragglers.pop(key, None)
        if task.cancelled() or task.exception() is not None:
            return
        if task.result().ok:
            self._note_holders(key, version, (shard_id,))
        else:
            self._stats.increment("async.straggler_failures")

    async def _drain_stragglers(self, key: str) -> None:
        """Wait out the previous same-key write's background legs."""
        tasks = list(self._stragglers.get(key, ()))
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _drain_all_stragglers(self) -> None:
        tasks = [t for bucket in self._stragglers.values() for t in bucket]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # fragment store primitives (early-ack at quorum)
    # ------------------------------------------------------------------

    async def _store_quorum(
        self,
        key: str,
        version: int,
        tasks: dict[asyncio.Task, str],
        total: int,
        quorum: int,
        what: str,
    ) -> None:
        """Await write legs until ``quorum`` acks; leave the rest draining."""
        pending: set[asyncio.Task] = set(tasks)
        acked: set[str] = set()
        try:
            while pending and len(acked) < quorum:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                acked.update(tasks[task] for task in done if task.result().ok)
        except BaseException:
            _reap(pending)
            raise
        if len(acked) < quorum:
            raise ClusterQuorumError(
                f"{what} reached {len(acked)} of {total} shards (quorum {quorum})"
            )
        self._ackers[key] = (version, acked)
        if pending:
            self._stats.increment("async.early_acks")
            self._track_stragglers(
                key, version, {task: tasks[task] for task in pending}
            )
        elif len(acked) < total:
            self._stats.increment("async.degraded_writes")

    def _envelopes(
        self, placement: tuple[str, ...], version: int, data: bytes, dispersed: bool
    ) -> dict[str, bytes]:
        """Shard id → the encoded fragment each placement member stores."""
        n = len(placement)
        digest = digest_of(data)
        if not dispersed:
            replica = Fragment(
                mode=MODE_REPLICATE,
                version=version,
                index=0,
                m=1,
                n=n,
                digest=digest,
                payload=data,
            )
            return dict.fromkeys(placement, encode_fragment(replica))
        if n < self._ida_m:
            raise ClusterError(
                f"cannot disperse across {n} shards with m={self._ida_m}"
            )
        # disperse() is deterministic (fixed Vandermonde rows), so shares
        # regenerated for a repair are byte-identical to the surviving ones.
        return {
            shard_id: encode_fragment(
                Fragment(
                    mode=MODE_IDA,
                    version=version,
                    index=share.index,
                    m=self._ida_m,
                    n=n,
                    digest=digest,
                    payload=share.payload,
                )
            )
            for shard_id, share in zip(placement, disperse(data, self._ida_m, n))
        }

    async def _store(
        self, subject: _Subject, placement: tuple[str, ...], version: int, data: bytes
    ) -> None:
        """One fragment per alive placement shard, early-acked at quorum."""
        envelopes = self._envelopes(placement, version, data, subject.dispersed)
        tasks = self._spawn(
            self._alive(placement),
            lambda sid, backend: subject.put(sid, backend, envelopes[sid]),
        )
        n = len(placement)
        if subject.dispersed:
            quorum, what = max(self._ida_m, min(self._ida_write_quorum, n)), "dispersal"
        else:
            quorum, what = min(self._write_quorum, n), "write"
        await self._store_quorum(subject.key, version, tasks, n, quorum, what)

    # ------------------------------------------------------------------
    # reads: the legs a read needs, then one more for a reason
    # ------------------------------------------------------------------

    def _hedge_delay(self) -> float:
        """Seconds an open verdict waits before one more replica is asked:
        the p99 of completed read legs (bucket upper bound, so never below
        the true p99), or the cold-start constant while the histogram is
        short — it records nothing while observability is switched off."""
        if self._read_leg_hist.count < _HEDGE_MIN_SAMPLES:
            return _HEDGE_DELAY_S
        return self._read_leg_hist.percentile(99.0) / 1000.0

    async def _read(
        self, subject: _Subject, placement: tuple[str, ...], *, newest_of_all: bool = False
    ) -> _ReadVerdict:
        """The one read launch loop (replicate, ida, plain, rebalancer).

        Wave one is the legs the verdict needs, to the alive replicas in
        ring order with those known to miss the acked version last.  A
        finished leg that leaves the verdict short is replaced at once (a
        widening); an unanswered one is hedged after :meth:`_hedge_delay`.
        The first acceptable answer cancels what is still pending (late
        errors are swallowed; a leg already on a shard's worker pool
        finishes there and is discarded).  ``newest_of_all`` consults the
        whole alive placement in wave one and takes the newest intact
        version.  Only legs that finished are judged stale.
        """
        key = subject.key
        queue = self._alive(placement)
        entry = self._ackers.get(key)
        min_version = _NEWEST_OF_ALL if newest_of_all else self._acked_version(key)
        if entry is not None and entry[0] == min_version:
            queue.sort(key=lambda shard_id: shard_id not in entry[1])
        floor = self._version_floor(key)
        state = (
            _ShareVerdict(floor, min_version, self._ida_m)
            if subject.dispersed
            else _ReplicaVerdict(floor, min_version)
        )
        legs: dict[asyncio.Task, tuple[str, float]] = {}
        pending: set[asyncio.Task] = set()

        def launch(count: int) -> int:
            wave = queue[: max(0, count)]
            del queue[: len(wave)]
            now = time.perf_counter()
            for task, shard_id in self._spawn(wave, subject.fetch).items():
                legs[task] = (shard_id, now)
                pending.add(task)
            if wave:
                self._stats.increment("async.read_legs", len(wave))
            return len(wave)

        launch(len(queue) if newest_of_all else state.need)
        try:
            while pending and state.decided is None:
                done, pending = await asyncio.wait(
                    pending,
                    timeout=self._hedge_delay() if queue else None,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    self._stats.increment("async.hedged_reads", launch(1))
                    continue
                now = time.perf_counter()
                for task in done:
                    shard_id, started = legs[task]
                    outcome = task.result()
                    if outcome.ok:
                        self._read_leg_hist.observe((now - started) * 1000.0)
                    state.absorb(shard_id, outcome)
                widened = launch(state.wanted() - len(pending))
                if widened:
                    self._stats.increment("async.quorum_widenings", widened)
        except BaseException:
            _reap(pending)
            raise
        if pending:
            self._stats.increment("async.cancelled_legs", len(pending))
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        data, version = state.decided or state.settle(subject.missing, subject.what)
        if subject.dispersed:
            self._stats.increment("async.reconstructions")
        stale = [
            shard_id
            for shard_id in state.outcomes
            if shard_id not in state.intact
            or state.intact[shard_id].version < version
        ]
        return _ReadVerdict(data=data, version=version, stale=stale)

    async def _read_repairing(self, subject: _Subject) -> bytes:
        """A client read: :meth:`_read`, then heal what it found or knew.

        Repair targets are the legs that came back stale plus the alive
        placement shards *known* to miss the winning version (their write
        leg failed, or they were dead when it went out) — rewritten once
        under the key lock, at no extra read leg, and then recorded as
        holders.
        """
        key = subject.key
        placement = self.placement(key)
        verdict = await self._read(subject, placement)
        self._observe_version(key, verdict.version)
        if verdict.stale or self._lagging(key, placement, verdict.version):
            async with self._locked(key):
                await self._drain_stragglers(key)
                # Re-check under the lock: a writer may have advanced the
                # object past this read's winner, making the repair stale.
                if verdict.version >= self._acked_version(key):
                    targets = dict.fromkeys(
                        verdict.stale
                        + self._lagging(key, placement, verdict.version)
                    )
                    envelopes = self._envelopes(
                        placement, verdict.version, verdict.data, subject.dispersed
                    )
                    outcomes = await self._fanout(
                        targets,
                        lambda sid, backend: subject.put(sid, backend, envelopes[sid]),
                    )
                    repaired = [sid for sid, outcome in outcomes.items() if outcome.ok]
                    if repaired:
                        self._stats.increment("async.read_repairs", len(repaired))
                        self._note_holders(key, verdict.version, repaired)
        self._stats.increment("async.reads")
        return verdict.data

    # ------------------------------------------------------------------
    # one object path: the subject, and each verb's body once
    # ------------------------------------------------------------------

    def plain(self, path: str) -> _Subject:
        """The plain file at ``path`` as a subject (always replicated)."""
        return _Subject(
            key=plain_key(path),
            kind="plain",
            what=path,
            fetch=lambda sid, backend: backend.read(path),
            probe=lambda sid, backend: backend.read(path),  # no plain extent read on a shard
            put=lambda sid, backend, envelope: backend.put(path, envelope),
            delete=lambda sid, backend: backend.unlink(path),
            missing=FileNotFoundError_,
            exists=FileExistsError_,
        )

    def hidden(self, objname: str, uak: bytes) -> _Subject:
        """The hidden object ``objname`` under ``uak`` as a subject (dispersed in ida mode)."""
        return _Subject(
            key=hidden_key(objname, uak),
            kind="hidden",
            what=objname,
            fetch=lambda sid, backend: backend.steg_read(objname, uak),
            probe=lambda sid, backend: backend.steg_read_extent(objname, uak, 0, HEADER_LEN),
            put=lambda sid, backend, envelope: backend.steg_put(objname, uak, envelope),
            delete=lambda sid, backend: backend.steg_delete(objname, uak),
            missing=HiddenObjectNotFoundError,
            exists=HiddenObjectExistsError,
            dispersed=self._mode == MODE_IDA,
        )

    async def _write(self, subject: _Subject, data: bytes, *, create: bool) -> None:
        """The one client write: next version, store at quorum, commit.

        ``create`` demands the object absent (the subject's *exists*
        error otherwise); a replace demands it present (*missing*).
        """
        key = subject.key
        placement = self.placement(key)
        alive = self._alive(placement)
        async with self._locked(key):
            await self._drain_stragglers(key)
            version, exists = await self._resolve_write_version(key, alive, subject.probe)
            if exists and create:
                raise subject.exists(subject.what)
            if not exists and not create:
                raise subject.missing(subject.what)
            await self._store(subject, placement, version, data)
            self._commit_version(key, version)
        self._stats.increment("async.writes")

    async def _delete(self, subject: _Subject) -> None:
        """The one client delete: every reachable placement shard, then the tombstone."""
        key = subject.key
        placement = self.placement(key)
        alive = self._alive(placement)
        async with self._locked(key):
            await self._drain_stragglers(key)
            outcomes = await self._fanout(alive, subject.delete)
            removed = sum(1 for outcome in outcomes.values() if outcome.ok)
            missing = sum(
                1
                for outcome in outcomes.values()
                if isinstance(outcome.error, subject.missing)
            )
            if removed == 0 and missing == len(outcomes):
                raise subject.missing(subject.what)
            if removed == 0 and missing == 0:
                raise _classify_empty_read(outcomes, subject.missing, subject.what)
            self._tombstone(key)
        self._stats.increment("async.deletes")

    async def _union(self, listing: _ShardCall, key_of: Callable[[str], str]) -> list[str]:
        """Union of one listing call across every alive shard; ``key_of``
        maps a listed name to its ring key."""
        alive = self._health.alive_of(tuple(self._shards))
        if not alive:
            raise ShardUnavailableError("no alive shard to list")
        outcomes = await self._fanout(alive, listing)
        names: set[str] = set()
        for outcome in outcomes.values():
            if outcome.ok:
                names.update(outcome.value)
        # Tombstoned names stay hidden even while stale shards hold them.
        return sorted(name for name in names if self._version_floor(key_of(name)) == 0)

    # ------------------------------------------------------------------
    # plain namespace (always replicated)
    # ------------------------------------------------------------------

    async def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file across its placement (early-acked W-of-N)."""
        await self._write(self.plain(path), data, create=True)

    async def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents (must exist somewhere)."""
        await self._write(self.plain(path), data, create=False)

    async def read(self, path: str) -> bytes:
        """Read a plain file from one replica (hedged, read-repairing)."""
        return await self._read_repairing(self.plain(path))

    async def unlink(self, path: str) -> None:
        """Delete a plain file from every reachable replica."""
        await self._delete(self.plain(path))

    async def exists(self, path: str) -> bool:
        """Whether any reachable replica holds a live version of ``path``."""
        try:
            await self.read(path)
        except (FileNotFoundError_, FragmentFormatError):
            return False
        return True

    async def listdir(self, path: str = "/") -> list[str]:
        """Union of the path's listing across every alive shard."""
        return await self._union(
            lambda sid, backend: backend.listdir(path),
            lambda name: plain_key(f"{path}/{name}"),
        )

    # ------------------------------------------------------------------
    # hidden namespace (mode-dependent redundancy)
    # ------------------------------------------------------------------

    async def steg_create(
        self, objname: str, uak: bytes, data: bytes = b"", objtype: str = "f"
    ) -> None:
        """Create a hidden file, replicated or dispersed per the mode."""
        if objtype != "f":
            raise ClusterError(
                "the cluster namespace is flat: hidden directories are "
                "a per-shard concept"
            )
        await self._write(self.hidden(objname, uak), data, create=True)

    async def steg_write(self, objname: str, uak: bytes, data: bytes) -> None:
        """Replace a hidden file's contents."""
        await self._write(self.hidden(objname, uak), data, create=False)

    async def steg_read(self, objname: str, uak: bytes) -> bytes:
        """Read a hidden file: one replica, or ``m`` shares reconstructed."""
        return await self._read_repairing(self.hidden(objname, uak))

    async def steg_delete(self, objname: str, uak: bytes) -> None:
        """Delete a hidden object from every reachable placement shard."""
        await self._delete(self.hidden(objname, uak))

    async def steg_list(self, uak: bytes) -> list[str]:
        """Union of hidden names for ``uak`` across every alive shard."""
        return await self._union(
            lambda sid, backend: backend.steg_list(uak),
            lambda name: hidden_key(name, uak),
        )

    # ------------------------------------------------------------------
    # rebalancer primitives (placement-explicit fetch/store/purge)
    # ------------------------------------------------------------------

    @contextlib.asynccontextmanager
    async def exclusive(self, key: str) -> AsyncIterator[None]:
        """Hold ``key``'s stripe lock with its write stragglers drained.

        The rebalancer's critical section: :meth:`fetch`,
        :meth:`store_at` and :meth:`purge` take no lock themselves, so
        one object's fetch → store → purge → verify runs as a unit that
        no early-acked leg of a previous write can land inside.
        """
        async with self._locked(key):
            await self._drain_stragglers(key)
            yield

    async def fetch(self, subject: _Subject, placement: tuple[str, ...]) -> tuple[bytes, int]:
        """(data, version) of an object: the newest intact (or
        reconstructable) version among ``placement``'s alive shards —
        every one consulted, no repair."""
        verdict = await self._read(subject, placement, newest_of_all=True)
        return verdict.data, verdict.version

    async def store_at(
        self, subject: _Subject, data: bytes, placement: tuple[str, ...], version: int
    ) -> None:
        """Write an object's fragments at an explicit placement.

        Unlike a client write this waits for *every* leg: a migration is
        not done while a replica is still in flight.
        """
        await self._store(subject, placement, version, data)
        await self._drain_stragglers(subject.key)
        self._observe_version(subject.key, version)

    async def purge(self, subject: _Subject, shard_ids: Iterable[str]) -> int:
        """Best-effort fragment removal from shards leaving a placement."""
        outcomes = await self._fanout(self._health.alive_of(list(shard_ids)), subject.delete)
        return sum(1 for outcome in outcomes.values() if outcome.ok)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    async def probe_dead_shards(self) -> dict[str, bool]:
        """Ping every dead shard concurrently; revived ones rejoin routing."""
        return await self._health.probe_all_async(dict(self._shards))

    async def flush(self) -> None:
        """Drain straggler writes, then flush every alive shard volume."""
        await self._drain_all_stragglers()
        alive = self._health.alive_of(tuple(self._shards))
        await self._fanout(alive, lambda sid, backend: backend.flush())

    async def close(self) -> None:
        """Drain stragglers, optionally close the backends."""
        if self._closed:
            return
        await self._drain_all_stragglers()
        self._closed = True
        if self._owns_backends:
            for backend in self._shards.values():
                try:
                    await backend.close()
                except Exception:
                    pass

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class BlockingClusterClient:
    """Threaded facade over an :class:`AsyncClusterClient`.

    Runs a private event loop on a daemon thread (a
    :class:`~repro.util.loop_thread.LoopThread`, the one
    :class:`~repro.net.client.StegFSClient` uses too), builds the async
    client there, and exposes the familiar blocking cluster surface by
    submitting each call onto that loop — the async
    data plane (pipelined legs, hedged reads, early-ack writes)
    without the caller adopting asyncio.  Safe for many threads; every
    operation is serialized onto the one loop.

    Args:
        factory: zero-argument callable (plain or async) executed *on
            the loop thread* that returns the
            :class:`AsyncClusterClient` to drive.  Backends that must be
            created on the loop (e.g. :meth:`AsyncRemoteShard.connect`)
            belong inside the factory.

    Raises:
        ClusterError: operations after :meth:`close`.
    """

    def __init__(
        self,
        factory: Callable[
            [], "AsyncClusterClient | Awaitable[AsyncClusterClient]"
        ],
    ) -> None:
        from repro.cluster import rebalance  # it imports this module

        self._rebalance = rebalance
        self._loop = LoopThread("stegfs-cluster-aio")
        self._closed = False

        async def build() -> AsyncClusterClient:
            built = factory()
            if inspect.isawaitable(built):
                built = await built
            return built

        try:
            self._client = self._loop.run(build())
        except BaseException:
            self._loop.close()
            raise

    def _run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        if self._closed:
            coro.close()
            raise ClusterError("cluster client has been closed")
        return self._loop.run(coro)

    @property
    def async_client(self) -> AsyncClusterClient:
        """The wrapped coordinator (inspect its ring, shards and stats)."""
        return self._client

    @property
    def stats(self) -> ClusterStats:
        """Cluster-level counters (``async.*`` names)."""
        return self._client.stats

    @property
    def health(self) -> HealthMonitor:
        """The failure detector the coordinator routes by."""
        return self._client.health

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters plus per-shard routing state.

        The health snapshot is loop-confined state, so the read is
        delegated onto the private loop rather than taken from this
        thread mid-probe.
        """

        async def grab() -> dict[str, Any]:
            return self._client.stats_snapshot()

        return self._run(grab())

    def scrape_targets(self, *, include_self: bool = True) -> dict[str, Any]:
        """Scrapeables for a :class:`~repro.obs.cluster.TelemetryCollector`.

        Each shard entry is a :class:`~repro.obs.cluster.ScrapeTarget`
        whose callables submit the backend's ``obs_snapshot`` /
        ``obs_trace`` coroutines onto the private loop, so a collector
        thread can poll remote and embedded shards alike without touching
        asyncio.  ``include_self`` adds a ``_coordinator`` entry for this
        process's own registry and tracer.
        """
        from repro.obs.cluster import ScrapeTarget  # avoid import cycle

        targets: dict[str, Any] = {}
        for shard_id, backend in self._client.shards.items():
            targets[shard_id] = ScrapeTarget(
                lambda b=backend: self._run(b.obs_snapshot()),
                lambda trace_id, b=backend: self._run(b.obs_trace(trace_id)),
            )
        if include_self:
            targets["_coordinator"] = ScrapeTarget.local(role="coordinator")
        return targets

    # plain namespace -------------------------------------------------

    def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file across its placement."""
        self._run(self._client.create(path, data))

    def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        self._run(self._client.write(path, data))

    def read(self, path: str) -> bytes:
        """Read a plain file."""
        return self._run(self._client.read(path))

    def unlink(self, path: str) -> None:
        """Delete a plain file."""
        self._run(self._client.unlink(path))

    def exists(self, path: str) -> bool:
        """Whether any reachable replica holds a live version."""
        return self._run(self._client.exists(path))

    def listdir(self, path: str = "/") -> list[str]:
        """Union listing across every alive shard."""
        return self._run(self._client.listdir(path))

    # hidden namespace ------------------------------------------------

    def steg_create(
        self, objname: str, uak: bytes, data: bytes = b"", objtype: str = "f"
    ) -> None:
        """Create a hidden file under ``uak``."""
        self._run(self._client.steg_create(objname, uak, data, objtype))

    def steg_write(self, objname: str, uak: bytes, data: bytes) -> None:
        """Replace a hidden file's contents."""
        self._run(self._client.steg_write(objname, uak, data))

    def steg_read(self, objname: str, uak: bytes) -> bytes:
        """Read a hidden file."""
        return self._run(self._client.steg_read(objname, uak))

    def steg_delete(self, objname: str, uak: bytes) -> None:
        """Delete a hidden object."""
        self._run(self._client.steg_delete(objname, uak))

    def steg_list(self, uak: bytes) -> list[str]:
        """Union of hidden names for ``uak`` across alive shards."""
        return self._run(self._client.steg_list(uak))

    # membership (the repro.cluster.rebalance verbs, on the loop) ------

    def add_shard(
        self, shard_id: str, backend: AsyncShardBackend, uaks: tuple[bytes, ...] = ()
    ) -> RebalanceReport:
        """Attach a shard and migrate the ring-affected objects onto it."""
        return self._run(
            self._rebalance.add_shard(self._client, shard_id, backend, uaks)
        )

    def remove_shard(
        self, shard_id: str, uaks: tuple[bytes, ...] = ()
    ) -> tuple[RebalanceReport, AsyncShardBackend]:
        """Drain a shard (alive or dead) and detach it; returns its backend."""
        return self._run(self._rebalance.remove_shard(self._client, shard_id, uaks))

    def replace_shard(
        self,
        dead_id: str,
        new_id: str,
        backend: AsyncShardBackend,
        uaks: tuple[bytes, ...] = (),
    ) -> RebalanceReport:
        """Swap a failed shard for a fresh one and restore full redundancy."""
        return self._run(
            self._rebalance.replace_shard(
                self._client, dead_id, new_id, backend, uaks
            )
        )

    def repair(self, uaks: tuple[bytes, ...] = ()) -> RebalanceReport:
        """Rewrite every object at its current placement at full redundancy."""
        return self._run(self._rebalance.repair(self._client, uaks))

    # maintenance -----------------------------------------------------

    def probe_dead_shards(self) -> dict[str, bool]:
        """Ping every dead shard; revived ones rejoin routing."""
        return self._run(self._client.probe_dead_shards())

    def flush(self) -> None:
        """Drain stragglers and flush every alive shard."""
        self._run(self._client.flush())

    def close(self) -> None:
        """Close the async client, stop the loop thread, join it."""
        if self._closed:
            return
        try:
            self._loop.run(self._client.close())
        finally:
            self._closed = True
            self._loop.close()

    def __enter__(self) -> "BlockingClusterClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
