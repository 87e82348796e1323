"""Thread-safe multi-client service over one mounted :class:`StegFS`.

The core layers (:mod:`repro.fs`, :mod:`repro.core`) are deliberately
single-threaded — they share one bitmap, one inode cache and one device.
:class:`StegFSService` is the concurrency boundary that lets real client
threads hammer a volume the way §5.3 of the paper hammers its testbed:

* **Striped reader–writer locks** (:class:`~repro.service.locks.
  LockStripes`) — every operation locks the stripe(s) of the objects it
  names: shared for reads, exclusive for mutations.  Two sessions reading
  *different* objects never wait on each other's stripes; two writers of
  the *same* object always serialize.  Multi-object operations
  (``steg_hide``/``steg_unhide`` touch a plain path *and* a hidden name)
  take their stripes in canonical index order, so they cannot deadlock.
* **A global volume reader–writer lock** — readers share it, mutations
  hold it exclusively.  This is what protects the core's shared
  structures (bitmap, allocators, inode cache, dirty sets) until they
  grow finer-grained locking; the stripes are the scaffolding future
  sharding PRs will hang parallel mutations on.
* **Read–modify–write without lost updates** — :meth:`steg_update` holds
  the object's stripe exclusively across the whole read→compute→write
  cycle while taking the volume lock only as needed, so concurrent
  updates to one object serialize and updates to different objects
  overlap their compute phases.
* **A worker pool** — :meth:`submit` dispatches any service operation to
  a :class:`~concurrent.futures.ThreadPoolExecutor` and returns a
  :class:`~concurrent.futures.Future`, giving callers an async surface
  without a framework dependency.

Sessions (authentication, idle eviction) are managed by the embedded
:class:`~repro.service.sessions.SessionManager`; per-operation counters
live in :class:`ServiceStats`.

For write-heavy workloads mount the :class:`StegFS` with
``auto_flush=False`` and call :meth:`flush` at checkpoints — otherwise
every mutation pays a full metadata write-back while holding the volume
lock exclusively.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.stegfs import StegFS
from repro.crypto.sha256 import sha256_hex
from repro.errors import ServiceClosedError
from repro.fs.filesystem import FileStat
from repro.obs import _state as _obs_state
from repro.obs.admin import install_obs_ops
from repro.obs.metrics import Reservoir, get_registry, percentile
from repro.obs.slowlog import get_slowlog
from repro.obs.trace import current_context, maybe_span
from repro.service.locks import LockStripes, RWLock
from repro.service.registry import build_registry, lookup, service_op
from repro.service.sessions import ServiceSession, SessionManager
from repro.storage.txn import JournalMetrics

__all__ = ["OpStats", "ServiceStats", "StatsSnapshot", "StegFSService"]

#: Latency samples kept per operation for percentile estimation.  A
#: bounded reservoir (Vitter's algorithm R) keeps memory O(1) per op while
#: remaining an unbiased sample of the whole run.
RESERVOIR_SIZE = 512


@dataclass(frozen=True)
class OpStats:
    """Counters for one operation name."""

    count: int
    errors: int
    total_s: float
    #: Sorted latency reservoir in milliseconds (at most RESERVOIR_SIZE
    #: samples, an unbiased subset of all calls).
    samples_ms: tuple[float, ...] = field(default=())

    @property
    def mean_ms(self) -> float:
        """Mean wall-clock per call in milliseconds."""
        return self.total_s / self.count * 1000.0 if self.count else 0.0

    def percentile_ms(self, p: float) -> float:
        """Nearest-rank latency percentile over the reservoir (ms)."""
        return percentile(self.samples_ms, p)

    @property
    def p50_ms(self) -> float:
        """Median latency (ms)."""
        return self.percentile_ms(50.0)

    @property
    def p95_ms(self) -> float:
        """95th-percentile latency (ms)."""
        return self.percentile_ms(95.0)

    @property
    def p99_ms(self) -> float:
        """99th-percentile latency (ms)."""
        return self.percentile_ms(99.0)


class StatsSnapshot(dict):
    """``snapshot()`` result: an ``op → OpStats`` mapping that also carries
    the volume's journal/commit counters (``.journal``, None when the
    volume has no write-ahead journal)."""

    journal: JournalMetrics | None = None


class ServiceStats:
    """Thread-safe per-operation counters with latency percentiles.

    **Locking invariant** — every piece of mutable state (the four
    counter dicts, each per-op reservoir list, and the shared
    replacement RNG) is touched *only* while holding ``self._lock``;
    :meth:`record` performs its read-slot-then-replace sequence inside
    one critical section, so the Vitter algorithm-R bookkeeping
    (``seen``/slot draw/replacement) can never interleave between
    threads.  This matters beyond the service's own worker pool: the
    cluster coordinator fans one logical operation out to many shard
    services from *its* thread pool, so ``record`` races are the common
    case, not the exception (see ``tests/service/test_stats_concurrency``
    for the stress proof).  Keep any future fast-path sampling inside
    the lock, or give each op its own lock — never sample lock-free.
    """

    def __init__(self, reservoir_size: int = RESERVOIR_SIZE) -> None:
        #: Callable returning the journal metrics to embed in snapshots
        #: (wired by the owning service; None → no journal).
        self.journal_source: Callable[[], JournalMetrics | None] | None = None
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._times: dict[str, float] = {}
        self._samples: dict[str, Reservoir] = {}
        self._reservoir_size = reservoir_size
        # Deterministic reservoir replacement: percentiles are repeatable
        # for a given call sequence, which the benches rely on.  Shared
        # across ops, so draws happen under the lock (random.Random is
        # not itself thread-safe for reproducibility purposes).
        self._rng = random.Random(0x5E5)

    def record(self, op: str, elapsed_s: float, failed: bool) -> None:
        """Account one completed (or failed) call."""
        elapsed_ms = elapsed_s * 1000.0
        with self._lock:
            self._counts[op] = self._counts.get(op, 0) + 1
            self._times[op] = self._times.get(op, 0.0) + elapsed_s
            if failed:
                self._errors[op] = self._errors.get(op, 0) + 1
            reservoir = self._samples.get(op)
            if reservoir is None:
                # Per-op reservoirs share the one seeded RNG; its draws
                # happen inside this critical section (see class docstring).
                reservoir = self._samples[op] = Reservoir(
                    self._reservoir_size, rng=self._rng
                )
            reservoir.add(elapsed_ms)

    def snapshot(self) -> StatsSnapshot:
        """Point-in-time copy of every operation's counters.

        The returned mapping behaves exactly like the historical
        ``dict[str, OpStats]`` and additionally exposes ``.journal`` —
        commits, fsyncs, group-commit batch percentiles, checkpoints and
        replayed records — when the volume is journaled.
        """
        with self._lock:
            snap = StatsSnapshot(
                {
                    op: OpStats(
                        count=self._counts[op],
                        errors=self._errors.get(op, 0),
                        total_s=self._times[op],
                        samples_ms=(
                            self._samples[op].values()
                            if op in self._samples
                            else ()
                        ),
                    )
                    for op in self._counts
                }
            )
        snap.journal = self.journal_source() if self.journal_source else None
        return snap

    @property
    def total_ops(self) -> int:
        """Total calls recorded across all operations."""
        with self._lock:
            return sum(self._counts.values())


def _observe_op(name: str, elapsed_ms: float, failed: bool) -> None:
    """Mirror one completed service call onto the obs subsystem.

    One shared latency histogram labels by op name; errors get a per-op
    counter only once one occurs.  Every completion is *offered* to the
    slow-op log (kept only over its threshold) with the active trace
    context attached, so slowlog lines point at span trees.
    """
    registry = get_registry()
    registry.histogram(
        f"service.op.{name}.latency_ms", "service call latency"
    ).observe(elapsed_ms)
    if failed:
        registry.counter(f"service.op.{name}.errors", "failed calls").inc()
    get_slowlog().note(
        name, elapsed_ms, failed=failed, trace=current_context()
    )


def _counted(method: Callable[..., Any]) -> Callable[..., Any]:
    """Record latency/err counters and reject calls after shutdown."""
    name = method.__name__
    span_name = f"service.{name}"

    @functools.wraps(method)
    def wrapper(self: "StegFSService", *args: Any, **kwargs: Any) -> Any:
        if self._closed:
            raise ServiceClosedError("service has been shut down")
        start = time.perf_counter()
        failed = True
        try:
            with maybe_span(span_name):
                result = method(self, *args, **kwargs)
            failed = False
            return result
        finally:
            elapsed_s = time.perf_counter() - start
            self._stats.record(name, elapsed_s, failed)
            if _obs_state.enabled():
                _observe_op(name, elapsed_s * 1000.0, failed)

    return wrapper


class _CommitWindow:
    """Captures the journal sequence one locked mutation produced.

    ``open()``/``close()`` bracket the mutation *while the volume lock is
    held* (mutations serialize on it, so the delta is exactly this op's
    commit); ``wait()`` runs after every lock is released, which is what
    lets concurrent clients share one fsync.  A window built with
    ``txn=None`` (non-durable service) is a no-op.
    """

    __slots__ = ("_txn", "_before", "seq")

    def __init__(self, txn: Any | None) -> None:
        self._txn = txn
        self._before = 0
        self.seq = 0

    def open(self) -> None:
        """Record the pre-mutation commit sequence (call under the lock)."""
        if self._txn is not None:
            self._before = self._txn.last_commit_seq

    def close(self) -> None:
        """Record the post-mutation sequence (still under the lock); ops
        that committed nothing produce no wait."""
        if self._txn is not None:
            after = self._txn.last_commit_seq
            if after != self._before:
                self.seq = after

    def wait(self) -> None:
        """Block until this op's record is durable (group commit)."""
        if self._txn is not None and self.seq:
            self._txn.wait_durable(self.seq)


class StegFSService:
    """Concurrent facade over one mounted :class:`StegFS` volume.

    Plain-namespace calls mirror :class:`StegFS`'s pass-through API;
    hidden-object calls mirror the ``steg_*`` API; session calls address
    objects through an authenticated :class:`ServiceSession`.  Every call
    is safe to issue from any thread.
    """

    def __init__(
        self,
        steg: StegFS,
        n_stripes: int = 64,
        max_workers: int = 8,
        idle_timeout: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._steg = steg
        self._stripes = LockStripes(n_stripes)
        self._volume_lock = RWLock()
        self._sessions = SessionManager(steg, idle_timeout=idle_timeout, clock=clock)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="stegfs-svc"
        )
        self._stats = ServiceStats()
        self._closed = False
        # Group commit: on a journaled auto-flush volume the commit itself
        # only *appends*; the durable ack happens here, outside the volume
        # lock, so one fsync can cover every client whose record is already
        # in the log.  Without a journal, or with auto_flush off, the
        # volume keeps the durability it was configured with.
        self._txn = steg.txn
        self._durable = self._txn is not None and steg.auto_flush
        self._restore_sync: bool | None = None
        if self._durable:
            self._restore_sync = self._txn.sync_on_commit
            self._txn.sync_on_commit = False
        if self._txn is not None:
            self._stats.journal_source = self._txn.stats.snapshot

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def steg(self) -> StegFS:
        """The wrapped single-threaded facade (do not call it directly
        while service clients are running)."""
        return self._steg

    @property
    def sessions(self) -> SessionManager:
        """The session registry."""
        return self._sessions

    @property
    def stats(self) -> ServiceStats:
        """Per-operation counters."""
        return self._stats

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The worker pool (front ends dispatch blocking calls onto it)."""
        return self._executor

    # ------------------------------------------------------------------
    # locking helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _canonical(path: str) -> str:
        # Same split-and-filter that name resolution applies, so spelling
        # variants ("a//b", "/a/b/") land on one stripe.
        return "/".join(part for part in path.split("/") if part)

    @classmethod
    def _plain_key(cls, path: str) -> str:
        return "p:" + cls._canonical(path)

    @classmethod
    def _hidden_key(cls, objname: str, uak: bytes) -> str:
        # The stripe key must separate users who reuse an object name
        # without leaking the UAK into any data structure: an 8-byte hash
        # prefix keeps collisions harmless (extra contention only).
        tag = sha256_hex(uak)[:16]
        return f"h:{tag}:{cls._canonical(objname)}"

    @contextmanager
    def _shared(self, *keys: str) -> Iterator[None]:
        """Shared stripes + shared volume lock (read-only operations)."""
        with ExitStack() as stack:
            for stripe in self._stripes.stripes_for(*keys):
                stack.enter_context(stripe.read_locked())
            stack.enter_context(self._volume_lock.read_locked())
            yield

    @contextmanager
    def _exclusive(self, *keys: str) -> Iterator[None]:
        """Exclusive stripes + exclusive volume lock (mutations).

        On a durable service the commit sequence the mutation produced is
        captured while the lock is still held (see :class:`_CommitWindow`),
        and the durability wait — the group-commit fsync — happens *after*
        every lock is released.
        """
        with self._durable_window() as window:
            with ExitStack() as stack:
                for stripe in self._stripes.stripes_for(*keys):
                    stack.enter_context(stripe.write_locked())
                stack.enter_context(self._volume_lock.write_locked())
                window.open()
                yield
                window.close()

    @contextmanager
    def _durable_window(self) -> Iterator[_CommitWindow]:
        """The group-commit ack protocol in one place (used by every
        mutation path): yields a window the caller opens/closes under the
        volume lock; the wait runs here, outside all locks.  An exception
        skips the wait — a failed op acknowledges nothing."""
        window = _CommitWindow(self._txn if self._durable else None)
        yield window
        window.wait()

    # ------------------------------------------------------------------
    # plain namespace
    # ------------------------------------------------------------------

    @service_op("plain", mutates=True, streams=True)
    @_counted
    def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file."""
        with self._exclusive(self._plain_key(path)):
            self._steg.create(path, data)

    @service_op("plain", mutates=False, streams=True)
    @_counted
    def read(self, path: str) -> bytes:
        """Read a plain file."""
        with self._shared(self._plain_key(path)):
            return self._steg.read(path)

    @service_op("plain", mutates=True, streams=True)
    @_counted
    def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        with self._exclusive(self._plain_key(path)):
            self._steg.write(path, data)

    @service_op("plain", mutates=True, streams=True)
    @_counted
    def append(self, path: str, data: bytes) -> None:
        """Append to a plain file (read–modify–write, stripe-serialized)."""
        with self._exclusive(self._plain_key(path)):
            self._steg.append(path, data)

    @service_op("plain", mutates=True)
    @_counted
    def unlink(self, path: str) -> None:
        """Delete a plain file."""
        with self._exclusive(self._plain_key(path)):
            self._steg.unlink(path)

    @service_op("plain", mutates=True)
    @_counted
    def mkdir(self, path: str) -> None:
        """Create a plain directory."""
        with self._exclusive(self._plain_key(path)):
            self._steg.mkdir(path)

    @service_op("plain", mutates=True)
    @_counted
    def rmdir(self, path: str) -> None:
        """Remove an empty plain directory."""
        with self._exclusive(self._plain_key(path)):
            self._steg.rmdir(path)

    @service_op("plain", mutates=False)
    @_counted
    def listdir(self, path: str = "/") -> list[str]:
        """List a plain directory."""
        with self._shared(self._plain_key(path)):
            return self._steg.listdir(path)

    @service_op("plain", mutates=False)
    @_counted
    def exists(self, path: str) -> bool:
        """Whether a plain path exists."""
        with self._shared(self._plain_key(path)):
            return self._steg.exists(path)

    @service_op("plain", mutates=False)
    @_counted
    def stat(self, path: str) -> FileStat:
        """Plain file metadata."""
        with self._shared(self._plain_key(path)):
            return self._steg.stat(path)

    # ------------------------------------------------------------------
    # hidden namespace (direct, UAK-addressed)
    # ------------------------------------------------------------------

    @service_op("hidden", mutates=True, injects="uak", streams=True)
    @_counted
    def steg_create(
        self,
        objname: str,
        uak: bytes,
        objtype: str = "f",
        data: bytes = b"",
        owner: str | None = None,
    ) -> None:
        """Create a hidden file or directory."""
        with self._exclusive(self._hidden_key(objname, uak)):
            self._steg.steg_create(objname, uak, objtype=objtype, data=data, owner=owner)

    @service_op("hidden", mutates=False, injects="uak", streams=True)
    @_counted
    def steg_read(self, objname: str, uak: bytes) -> bytes:
        """Read a hidden file."""
        with self._shared(self._hidden_key(objname, uak)):
            return self._steg.steg_read(objname, uak)

    @service_op("hidden", mutates=False, injects="uak", streams=True)
    @_counted
    def steg_read_extent(self, objname: str, uak: bytes, offset: int, length: int) -> bytes:
        """Read one extent of a hidden file (batched block run)."""
        with self._shared(self._hidden_key(objname, uak)):
            return self._steg.steg_read_extent(objname, uak, offset, length)

    @service_op("hidden", mutates=True, injects="uak", streams=True)
    @_counted
    def steg_write(self, objname: str, uak: bytes, data: bytes) -> None:
        """Replace a hidden file's contents."""
        with self._exclusive(self._hidden_key(objname, uak)):
            self._steg.steg_write(objname, uak, data)

    @service_op("hidden", mutates=True, injects="uak", streams=True)
    @_counted
    def steg_write_extent(self, objname: str, uak: bytes, offset: int, data: bytes) -> None:
        """Write one extent of a hidden file in place (batched run;
        grows the file when the extent reaches past the end)."""
        with self._exclusive(self._hidden_key(objname, uak)):
            self._steg.steg_write_extent(objname, uak, offset, data)

    @service_op("hidden", mutates=True, injects="uak", remote=False)
    @_counted
    def steg_update(
        self, objname: str, uak: bytes, fn: Callable[[bytes], bytes | None]
    ) -> bytes | None:
        """Atomically transform a hidden file: ``new = fn(current)``.

        The object's stripe is held exclusively across the whole
        read→compute→write cycle, so concurrent updates to the same
        object cannot lose each other's effects; the global volume lock
        is only taken around the I/O phases, so updates to *different*
        objects overlap their compute.  ``fn`` returning ``None`` skips
        the write.  Returns what was written (or ``None``).
        """
        key = self._hidden_key(objname, uak)
        stripes = self._stripes.stripes_for(key)
        with self._durable_window() as window:
            with ExitStack() as stack:
                for stripe in stripes:
                    stack.enter_context(stripe.write_locked())
                with self._volume_lock.read_locked():
                    current = self._steg.steg_read(objname, uak)
                new = fn(current)
                if new is None:
                    return None
                with self._volume_lock.write_locked():
                    window.open()
                    self._steg.steg_write(objname, uak, new)
                    window.close()
            return new

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_delete(self, objname: str, uak: bytes) -> None:
        """Delete a hidden object."""
        with self._exclusive(self._hidden_key(objname, uak)):
            self._steg.steg_delete(objname, uak)

    @service_op("hidden", mutates=False, injects="uak")
    @_counted
    def steg_list(self, uak: bytes, objname: str | None = None) -> list[str]:
        """List a hidden directory (the UAK root by default)."""
        key = self._hidden_key(objname if objname is not None else "/", uak)
        with self._shared(key):
            return self._steg.steg_list(uak, objname)

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_hide(self, pathname: str, objname: str, uak: bytes) -> None:
        """Convert a plain object into a hidden one (both stripes held)."""
        with self._exclusive(
            self._plain_key(pathname), self._hidden_key(objname, uak)
        ):
            self._steg.steg_hide(pathname, objname, uak)

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_unhide(self, pathname: str, objname: str, uak: bytes) -> None:
        """Convert a hidden object back into a plain one."""
        with self._exclusive(
            self._plain_key(pathname), self._hidden_key(objname, uak)
        ):
            self._steg.steg_unhide(pathname, objname, uak)

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_revoke(self, objname: str, uak: bytes) -> None:
        """Re-key a hidden object, invalidating outstanding shares."""
        with self._exclusive(self._hidden_key(objname, uak)):
            self._steg.steg_revoke(objname, uak)

    # ------------------------------------------------------------------
    # authenticated sessions
    # ------------------------------------------------------------------

    @service_op("session", mutates=False, remote=False)
    @_counted
    def open_session(self, user_id: str, uak: bytes) -> str:
        """Authenticate ``user_id`` and open a session; returns its id."""
        return self._sessions.open_session(user_id, uak).session_id

    @service_op("session", mutates=False, injects="session_id", remote=False)
    @_counted
    def close_session(self, session_id: str) -> None:
        """Logout: all connected objects become invisible again."""
        self._sessions.close_session(session_id)

    @service_op("session", mutates=False, injects="session_id")
    @_counted
    def connect(self, session_id: str, objname: str) -> None:
        """``steg_connect``: reveal a hidden object in the session."""
        with self._sessions.use(session_id) as record:
            with record.lock, self._shared(self._session_key(record, objname)):
                self._steg.steg_connect(objname, record.uak, session=record.session)

    @service_op("session", mutates=False, injects="session_id")
    @_counted
    def disconnect(self, session_id: str, objname: str) -> None:
        """``steg_disconnect``: hide a connected object again."""
        with self._sessions.use(session_id) as record:
            with record.lock:
                self._steg.steg_disconnect(objname, session=record.session)

    @service_op("session", mutates=False, injects="session_id")
    @_counted
    def connected_names(self, session_id: str) -> list[str]:
        """Names currently visible in the session."""
        with self._sessions.use(session_id) as record:
            with record.lock:
                return record.session.connected_names()

    @service_op("session", mutates=False, injects="session_id", streams=True)
    @_counted
    def session_read(self, session_id: str, objname: str) -> bytes:
        """Read a connected object through the session."""
        with self._sessions.use(session_id) as record:
            with record.lock, self._shared(self._session_key(record, objname)):
                return record.session.read(objname)

    @service_op("session", mutates=True, injects="session_id", streams=True)
    @_counted
    def session_write(self, session_id: str, objname: str, data: bytes) -> None:
        """Write a connected object through the session."""
        with self._sessions.use(session_id) as record:
            with record.lock, self._exclusive(self._session_key(record, objname)):
                # Session writes bypass the facade, so open the fused
                # transaction ourselves: object blocks and the bitmap
                # commit as ONE journal record — a crash between them
                # could otherwise leave allocated data blocks marked free.
                with self._steg.transaction():
                    record.session.write(objname, data)
                    self._steg.fs.mark_bitmap_dirty()
                    if self._steg.auto_flush:
                        self._steg.fs.flush()

    def _session_key(self, record: ServiceSession, objname: str) -> str:
        return self._hidden_key(objname, record.uak)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    @service_op("admin", mutates=True)
    @_counted
    def flush(self) -> None:
        """Persist dirty metadata and flush the device stack (cache
        write-back, file fsync) under the exclusive volume lock."""
        with self._volume_lock.write_locked():
            self._steg.flush()
            self._steg.device.flush()

    @service_op("admin", mutates=True)
    @_counted
    def dummy_tick(self) -> int | None:
        """One round of dummy-file churn, serialized like any mutation."""
        with self._durable_window() as window:
            with self._volume_lock.write_locked():
                window.open()
                updated = self._steg.dummy_tick()
                window.close()
            return updated

    def dummy_interval(self, base_s: float, jitter: float = 0.5) -> float:
        """Draw the next churn delay from the volume RNG (local-only hook).

        Serialized under the exclusive volume lock because the draw
        advances the shared seeded stream.  Not a registered op: the
        cluster ``DummyScheduler`` calls it on embedded shards, while
        remote shards fall back to the scheduler's own RNG rather than
        spending a round trip per delay.
        """
        with self._volume_lock.write_locked():
            return self._steg.dummy_interval(base_s, jitter)

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------

    def dispatch(self, op: str, /, *args: Any, **kwargs: Any) -> Any:
        """Call a registered operation by name (synchronously).

        Routing goes through the shared op registry (:data:`OPS`), so a
        misspelled name raises :class:`~repro.errors.UnknownOperationError`
        instead of an ``AttributeError`` deep in ``getattr``.
        """
        lookup(self.OPS, op)
        return getattr(self, op)(*args, **kwargs)

    def submit(
        self, op: str | Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Dispatch an operation to the worker pool; returns its future.

        ``op`` is a registered operation name (``"steg_read"``) or any
        callable.
        """
        if self._closed:
            raise ServiceClosedError("service has been shut down")
        if isinstance(op, str):
            lookup(self.OPS, op)
            target = getattr(self, op)
        else:
            target = op
        return self._executor.submit(target, *args, **kwargs)

    def close(self) -> None:
        """Drain the pool, log out every session, flush, and shut down."""
        if self._closed:
            return
        self._executor.shutdown(wait=True)
        self._sessions.close_all()
        with self._volume_lock.write_locked():
            self._steg.flush()
            self._steg.device.flush()
            # In-core hidden objects are keyed material in RAM: none
            # outlives the service that served them.
            self._steg.volume.objects.clear()
        if self._restore_sync is not None:
            # Hand the volume back with its own durability policy: direct
            # StegFS use after the service must not silently lose the
            # per-mutation fsync auto_flush promised.
            self._txn.sync_on_commit = self._restore_sync
        self._closed = True

    def __enter__(self) -> "StegFSService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Registry of every dispatchable operation, collected from the
#: ``@service_op`` declarations above plus the read-only observability
#: admin ops grafted on from :mod:`repro.obs.admin` (the install must
#: precede ``build_registry``, which walks ``vars(cls)``).  Front ends
#: (the worker pool, the TCP server, example drivers) route by name
#: through this table.
install_obs_ops(StegFSService)
StegFSService.OPS = build_registry(StegFSService)
