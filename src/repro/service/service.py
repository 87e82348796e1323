"""Thread-safe multi-client service over one mounted :class:`StegFS`.

The core layers (:mod:`repro.fs`, :mod:`repro.core`) are deliberately
single-threaded — they share one bitmap, one inode cache and one device.
:class:`StegFSService` is the concurrency boundary that lets real client
threads hammer a volume the way §5.3 of the paper hammers its testbed:

* **One reader–writer volume lock** (:class:`~repro.service.locks.
  RWLock`) — every operation takes it once: shared for reads, exclusive
  for mutations.  The structures the core shares (bitmap, allocators,
  free pools, inode cache, journal) are all volume-wide, so this one
  lock is what protects them; load spreads over volumes
  (:mod:`repro.cluster`), not over locks inside one.
* **Group commit** — on a journaled auto-flush volume a mutation only
  appends its record under the lock and waits for the fsync after
  releasing it, so concurrent clients share one barrier.
* **Read–modify–write without lost updates** — :meth:`steg_update` holds
  the volume lock exclusively across read → ``fn`` → write, so it is
  atomic against every other operation.  ``fn`` runs under that lock and
  must not call back into the service.
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
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.stegfs import StegFS
from repro.errors import ServiceClosedError
from repro.fs.filesystem import FileStat
from repro.obs import _state as _obs_state
from repro.obs.admin import install_obs_ops
from repro.obs.metrics import Reservoir, get_registry, percentile
from repro.obs.slowlog import get_slowlog
from repro.obs.trace import current_context, maybe_span
from repro.service.locks import RWLock
from repro.service.registry import build_registry, lookup, service_op
from repro.service.sessions import SessionManager

__all__ = ["OpStats", "ServiceStats", "StegFSService"]

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

    def snapshot(self) -> dict[str, OpStats]:
        """Point-in-time copy of every operation's counters.

        The volume's journal counters (commits, fsyncs, group-commit
        batches) are ``steg.txn.stats.snapshot()``, not repeated here.
        """
        with self._lock:
            return {
                op: OpStats(
                    count=self._counts[op],
                    errors=self._errors.get(op, 0),
                    total_s=self._times[op],
                    samples_ms=self._samples[op].values(),
                )
                for op in self._counts
            }


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
        max_workers: int = 8,
        idle_timeout: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._steg = steg
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
        # volume keeps the durability it was configured with (``_txn`` is
        # None, and a mutation waits for nothing).
        self._txn = steg.txn if steg.auto_flush else None
        if self._txn is not None:
            self._restore_sync = self._txn.sync_on_commit
            self._txn.sync_on_commit = False

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

    def _shared(self) -> AbstractContextManager[None]:
        """The volume lock, shared (read-only operations)."""
        return self._volume_lock.read_locked()

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """The volume lock, exclusive (mutations), with the group-commit ack.

        On a durable service the commit sequence is read on both sides of
        the mutation while the lock is held (mutations serialize on it, so
        a moved sequence is exactly this op's record), and the durability
        wait — the group-commit fsync — runs after the lock is released.
        An exception skips the wait: a failed op acknowledges nothing.
        """
        txn = self._txn
        with self._volume_lock.write_locked():
            before = txn.last_commit_seq if txn else 0
            yield
            after = txn.last_commit_seq if txn else 0
        if after != before:
            txn.wait_durable(after)

    # ------------------------------------------------------------------
    # plain namespace
    # ------------------------------------------------------------------

    @service_op("plain", mutates=True, streams=True)
    @_counted
    def create(self, path: str, data: bytes = b"") -> None:
        """Create a plain file."""
        with self._exclusive():
            self._steg.create(path, data)

    @service_op("plain", mutates=False, streams=True)
    @_counted
    def read(self, path: str) -> bytes:
        """Read a plain file."""
        with self._shared():
            return self._steg.read(path)

    @service_op("plain", mutates=True, streams=True)
    @_counted
    def write(self, path: str, data: bytes) -> None:
        """Replace a plain file's contents."""
        with self._exclusive():
            self._steg.write(path, data)

    @service_op("plain", mutates=True, streams=True)
    @_counted
    def append(self, path: str, data: bytes) -> None:
        """Append to a plain file (read–modify–write under the volume lock)."""
        with self._exclusive():
            self._steg.append(path, data)

    @service_op("plain", mutates=True)
    @_counted
    def unlink(self, path: str) -> None:
        """Delete a plain file."""
        with self._exclusive():
            self._steg.unlink(path)

    @service_op("plain", mutates=True)
    @_counted
    def mkdir(self, path: str) -> None:
        """Create a plain directory."""
        with self._exclusive():
            self._steg.mkdir(path)

    @service_op("plain", mutates=True)
    @_counted
    def rmdir(self, path: str) -> None:
        """Remove an empty plain directory."""
        with self._exclusive():
            self._steg.rmdir(path)

    @service_op("plain", mutates=False)
    @_counted
    def listdir(self, path: str = "/") -> list[str]:
        """List a plain directory."""
        with self._shared():
            return self._steg.listdir(path)

    @service_op("plain", mutates=False)
    @_counted
    def exists(self, path: str) -> bool:
        """Whether a plain path exists."""
        with self._shared():
            return self._steg.exists(path)

    @service_op("plain", mutates=False)
    @_counted
    def stat(self, path: str) -> FileStat:
        """Plain file metadata."""
        with self._shared():
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
        with self._exclusive():
            self._steg.steg_create(objname, uak, objtype=objtype, data=data, owner=owner)

    @service_op("hidden", mutates=False, injects="uak", streams=True)
    @_counted
    def steg_read(self, objname: str, uak: bytes) -> bytes:
        """Read a hidden file."""
        with self._shared():
            return self._steg.steg_read(objname, uak)

    @service_op("hidden", mutates=False, injects="uak", streams=True)
    @_counted
    def steg_read_extent(self, objname: str, uak: bytes, offset: int, length: int) -> bytes:
        """Read one extent of a hidden file (batched block run)."""
        with self._shared():
            return self._steg.steg_read_extent(objname, uak, offset, length)

    @service_op("hidden", mutates=True, injects="uak", streams=True)
    @_counted
    def steg_write(self, objname: str, uak: bytes, data: bytes) -> None:
        """Replace a hidden file's contents."""
        with self._exclusive():
            self._steg.steg_write(objname, uak, data)

    @service_op("hidden", mutates=True, injects="uak", streams=True)
    @_counted
    def steg_write_extent(self, objname: str, uak: bytes, offset: int, data: bytes) -> None:
        """Write one extent of a hidden file in place (batched run;
        grows the file when the extent reaches past the end)."""
        with self._exclusive():
            self._steg.steg_write_extent(objname, uak, offset, data)

    @service_op("hidden", mutates=True, injects="uak", remote=False)
    @_counted
    def steg_update(
        self, objname: str, uak: bytes, fn: Callable[[bytes], bytes | None]
    ) -> bytes | None:
        """Atomically transform a hidden file: ``new = fn(current)``.

        The volume lock is held exclusively across read → ``fn`` → write,
        so the update is atomic against every other operation and no
        concurrent write is lost.  ``fn`` runs under that lock: it must
        not call back into the service (the lock is not reentrant, so
        such a call deadlocks).  ``fn`` returning ``None`` skips the
        write.  Returns what was written (or ``None``).
        """
        with self._exclusive():
            new = fn(self._steg.steg_read(objname, uak))
            if new is not None:
                self._steg.steg_write(objname, uak, new)
            return new

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_delete(self, objname: str, uak: bytes) -> None:
        """Delete a hidden object."""
        with self._exclusive():
            self._steg.steg_delete(objname, uak)

    @service_op("hidden", mutates=False, injects="uak")
    @_counted
    def steg_list(self, uak: bytes, objname: str | None = None) -> list[str]:
        """List a hidden directory (the UAK root by default)."""
        with self._shared():
            return self._steg.steg_list(uak, objname)

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_hide(self, pathname: str, objname: str, uak: bytes) -> None:
        """Convert a plain object into a hidden one."""
        with self._exclusive():
            self._steg.steg_hide(pathname, objname, uak)

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_unhide(self, pathname: str, objname: str, uak: bytes) -> None:
        """Convert a hidden object back into a plain one."""
        with self._exclusive():
            self._steg.steg_unhide(pathname, objname, uak)

    @service_op("hidden", mutates=True, injects="uak")
    @_counted
    def steg_revoke(self, objname: str, uak: bytes) -> None:
        """Re-key a hidden object, invalidating outstanding shares."""
        with self._exclusive():
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
            with record.lock, self._shared():
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
            with record.lock, self._shared():
                return record.session.read(objname)

    @service_op("session", mutates=True, injects="session_id", streams=True)
    @_counted
    def session_write(self, session_id: str, objname: str, data: bytes) -> None:
        """Write a connected object through the session."""
        with self._sessions.use(session_id) as record:
            with record.lock, self._exclusive():
                # Session writes bypass the facade, so open the fused
                # transaction ourselves: object blocks and the bitmap
                # commit as ONE journal record — a crash between them
                # could otherwise leave allocated data blocks marked free.
                with self._steg.transaction():
                    record.session.write(objname, data)
                    self._steg.fs.mark_bitmap_dirty()
                    if self._steg.auto_flush:
                        self._steg.fs.flush()

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
        with self._exclusive():
            return self._steg.dummy_tick()

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

    def submit(
        self, op: str | Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Dispatch an operation to the worker pool; returns its future.

        ``op`` is a registered operation name (``"steg_read"``) or any
        callable.  Names route through the shared op registry
        (:data:`OPS`), so a misspelled one raises
        :class:`~repro.errors.UnknownOperationError` here, not an
        ``AttributeError`` deep in ``getattr``.
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
        if self._txn is not None:
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
