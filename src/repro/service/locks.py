"""The reader–writer lock behind the multi-client service's volume lock.

:class:`RWLock` is a classic condition-variable reader–writer lock with
writer preference: any number of readers share it, a writer gets it alone,
and arriving readers queue behind a waiting writer so sustained read
traffic cannot starve mutations.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["RWLock"]


class RWLock:
    """Shared/exclusive lock with writer preference.

    Not reentrant: a thread must not re-acquire a lock it already holds in
    either mode (the service takes its volume lock exactly once per
    operation).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        """Block until the lock can be shared, then hold it shared."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        """Release one shared hold."""
        with self._cond:
            self._readers -= 1
            if self._readers < 0:
                self._readers = 0
                raise RuntimeError("release_read without matching acquire_read")
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is free, then hold it exclusively."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Release the exclusive hold."""
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with`` helper for a shared hold."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with`` helper for an exclusive hold."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

