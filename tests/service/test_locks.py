"""RWLock semantics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.locks import RWLock


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader() -> None:
            with lock.read_locked():
                inside.wait()                            # all 3 in simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order: list[str] = []
        lock.acquire_write()

        def reader() -> None:
            with lock.read_locked():
                order.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        order.append("write-done")
        lock.release_write()
        thread.join(timeout=5)
        assert order == ["write-done", "read"]

    def test_writers_exclude_each_other(self):
        lock = RWLock()
        counter = {"value": 0}

        def writer() -> None:
            for _ in range(200):
                with lock.write_locked():
                    current = counter["value"]
                    counter["value"] = current + 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert counter["value"] == 800

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_has_lock = threading.Event()
        reader_done = threading.Event()

        def writer() -> None:
            with lock.write_locked():
                writer_has_lock.set()

        def late_reader() -> None:
            with lock.read_locked():
                reader_done.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.05)                                 # writer is now waiting
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        assert not reader_done.is_set()                  # queued behind writer
        lock.release_read()
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert writer_has_lock.is_set() and reader_done.is_set()

    def test_unbalanced_release_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_write()
        with pytest.raises(RuntimeError):
            lock.release_read()

