"""Concurrent session lifecycles: authenticate, connect, evict on idle.

The paper's multi-user model (§4) has many agents, each addressing hidden
objects through their own UAK; ``steg_connect``/``steg_disconnect`` bound
the window in which an object is visible.  :class:`SessionManager` makes
that lifecycle safe under concurrency:

* **Authentication** — the first ``open_session`` for a user binds their
  UAK: the manager stores a salted SHA-256 *verifier* (never the key, and
  only in RAM — nothing about users or keys ever touches the disk image,
  preserving deniability).  Later opens must present a UAK with the same
  verifier or fail with :class:`~repro.errors.SessionAuthError`.
* **Isolation** — each session wraps its own
  :class:`~repro.core.session.Session` plus a per-session lock, so two
  clients of the *same* session serialize while different sessions run in
  parallel.
* **Idle eviction** — sessions unused for ``idle_timeout`` seconds are
  reaped (their connected objects become invisible again, the logout
  semantics of §4).  Eviction runs opportunistically on every manager
  call and on demand via :meth:`evict_idle`.
* **Pinned use** — :meth:`SessionManager.use` re-validates the session id
  under the manager lock and *pins* the record for the duration of the
  caller's operation, so an idle-eviction sweep on another thread can
  never disconnect a session between token validation and use; a stale id
  raises the typed :class:`~repro.errors.SessionNotFoundError` rather
  than surfacing as a ``KeyError`` (or worse, operating on a logged-out
  session).

One session = one authenticated client connection; the
:class:`~repro.service.StegFSService` executes operations on behalf of
session holders.
"""

from __future__ import annotations

import secrets
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.session import Session
from repro.core.stegfs import StegFS
from repro.crypto.hmac import constant_time_equal
from repro.crypto.sha256 import sha256
from repro.errors import SessionAuthError, SessionNotFoundError

__all__ = ["ServiceSession", "SessionManager"]

_VERIFIER_SALT = b"repro.service.session-verifier.v1"

#: A session id is a bearer credential (the network server hands its 16
#: bytes out as the session token), so no error message carries one.
_NO_SESSION = "no live session with that id (closed, evicted, or never opened)"


def _verifier(uak: bytes) -> bytes:
    return sha256(_VERIFIER_SALT + uak)


class ServiceSession:
    """One authenticated client's live session."""

    def __init__(self, session_id: str, user_id: str, uak: bytes, session: Session,
                 now: float) -> None:
        self.session_id = session_id
        self.user_id = user_id
        self.uak = uak
        self.session = session
        self.created_at = now
        self.last_used = now
        self.lock = threading.RLock()
        # In-flight operations currently holding this record via
        # SessionManager.use(); guarded by the *manager* lock.
        self.pins = 0

    def touch(self, now: float) -> None:
        """Record activity (resets the idle clock)."""
        self.last_used = now

    def idle_for(self, now: float) -> float:
        """Seconds since the session was last used."""
        return now - self.last_used


class SessionManager:
    """Thread-safe registry of live sessions over one :class:`StegFS`."""

    def __init__(
        self,
        steg: StegFS,
        idle_timeout: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._steg = steg
        self._idle_timeout = idle_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, ServiceSession] = {}
        self._verifiers: dict[str, bytes] = {}
        self._evicted_total = 0

    @property
    def idle_timeout(self) -> float | None:
        """Idle seconds after which a session is evicted (None = never)."""
        return self._idle_timeout

    @property
    def evicted_total(self) -> int:
        """Number of sessions reaped for idleness since construction."""
        return self._evicted_total

    def active_count(self) -> int:
        """Number of live sessions (after reaping idle ones)."""
        self.evict_idle()
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open_session(self, user_id: str, uak: bytes) -> ServiceSession:
        """Authenticate and return a fresh live session (the user's first
        open binds their UAK verifier)."""
        self.evict_idle()
        now = self._clock()
        candidate = _verifier(uak)
        with self._lock:
            known = self._verifiers.setdefault(user_id, candidate)
            if not constant_time_equal(known, candidate):
                raise SessionAuthError(f"authentication failed for user {user_id!r}")
            session_id = secrets.token_hex(16)
            record = ServiceSession(
                session_id=session_id,
                user_id=user_id,
                uak=uak,
                session=self._steg.new_session(user_id),
                now=now,
            )
            self._sessions[session_id] = record
            return record

    def get(self, session_id: str) -> ServiceSession:
        """The live session for ``session_id``; touches its idle clock.

        The returned record is *not* protected against concurrent idle
        eviction — callers that go on to operate on the session should
        prefer :meth:`use`, which pins it for the operation's duration.
        """
        self.evict_idle()
        now = self._clock()
        with self._lock:
            record = self._sessions.get(session_id)
            if record is None:
                raise SessionNotFoundError(_NO_SESSION)
            record.touch(now)
            return record

    @contextmanager
    def use(self, session_id: str) -> Iterator[ServiceSession]:
        """Validate ``session_id`` and pin the record while in use.

        Validation and pinning happen atomically under the manager lock,
        closing the race where an idle sweep on another thread evicts the
        session *between* token validation and the operation that uses it:
        :meth:`evict_idle` skips pinned records, so a session observed
        live here stays live (and connected) until the ``with`` block
        exits.  A dead id raises the typed
        :class:`~repro.errors.SessionNotFoundError`.
        """
        self.evict_idle()
        now = self._clock()
        with self._lock:
            record = self._sessions.get(session_id)
            if record is None:
                raise SessionNotFoundError(_NO_SESSION)
            record.touch(now)
            record.pins += 1
        try:
            yield record
        finally:
            with self._lock:
                record.pins -= 1
                record.touch(self._clock())

    def close_session(self, session_id: str) -> None:
        """Explicit logout: disconnect everything and forget the session."""
        with self._lock:
            record = self._sessions.pop(session_id, None)
        if record is None:
            raise SessionNotFoundError(_NO_SESSION)
        with record.lock:
            record.session.disconnect_all()

    def close_all(self) -> None:
        """Logout every session (service shutdown)."""
        with self._lock:
            records = list(self._sessions.values())
            self._sessions.clear()
        for record in records:
            with record.lock:
                record.session.disconnect_all()

    def evict_idle(self) -> list[str]:
        """Reap sessions idle past the timeout; returns their ids.

        Victims are removed from the registry under the manager lock (so
        no new operation can reach them), then disconnected under their
        own session lock (so any in-flight operation drains first).
        Records pinned by :meth:`use` are never victims: an operation that
        validated its token is guaranteed its session survives until it
        finishes.
        """
        if self._idle_timeout is None:
            return []
        now = self._clock()
        with self._lock:
            victims = [
                record
                for record in self._sessions.values()
                if record.pins == 0 and record.idle_for(now) > self._idle_timeout
            ]
            for record in victims:
                del self._sessions[record.session_id]
                self._evicted_total += 1
        for record in victims:
            with record.lock:
                record.session.disconnect_all()
        return [record.session_id for record in victims]
