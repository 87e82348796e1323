"""Concurrency stress: ≥16 client threads, no lost updates, no corruption.

This is the acceptance gate of the service subsystem: real threads doing
mixed hidden create/read/write/delete through :class:`StegFSService` over
a write-back :class:`CachedDevice`, then proving that

* every thread's surviving files hold exactly the bytes that thread wrote
  last (no torn or interleaved writes);
* a shared counter incremented via ``steg_update`` equals the exact
  number of increments issued (no lost updates);
* after ``flush()`` the cache and the backing device agree byte-for-byte.
"""

from __future__ import annotations

import random
import threading

N_THREADS = 16
FILES_PER_THREAD = 2
INCREMENTS_PER_THREAD = 5


def test_sixteen_thread_mixed_workload_no_corruption(service, cached, backing, uak):
    service.steg_create("counter", uak, data=b"0")
    errors: list[BaseException] = []
    finals: dict[str, bytes] = {}
    finals_lock = threading.Lock()
    barrier = threading.Barrier(N_THREADS)

    def increment(current: bytes) -> bytes:
        return str(int(current) + 1).encode()

    def client(tid: int) -> None:
        rng = random.Random(1000 + tid)
        try:
            barrier.wait(timeout=120)
            mine: dict[str, bytes] = {}
            # create
            for j in range(FILES_PER_THREAD):
                name = f"t{tid}-f{j}"
                payload = rng.randbytes(rng.randint(100, 500))
                service.steg_create(name, uak, data=payload)
                mine[name] = payload
            # read-verify, overwrite, re-verify
            for name, payload in list(mine.items()):
                assert service.steg_read(name, uak) == payload
                replacement = rng.randbytes(rng.randint(100, 500))
                service.steg_write(name, uak, replacement)
                mine[name] = replacement
                assert service.steg_read(name, uak) == replacement
            # delete one
            victim = f"t{tid}-f0"
            service.steg_delete(victim, uak)
            del mine[victim]
            # shared-counter increments (lost-update detector)
            for _ in range(INCREMENTS_PER_THREAD):
                service.steg_update("counter", uak, increment)
            with finals_lock:
                finals.update(mine)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(tid,), name=f"stress-{tid}")
        for tid in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    # No lost updates: every increment landed.
    expected = N_THREADS * INCREMENTS_PER_THREAD
    assert service.steg_read("counter", uak) == str(expected).encode()

    # Every surviving file holds its owner's last write.
    for name, payload in finals.items():
        assert service.steg_read(name, uak) == payload

    # Deleted files stay deleted; survivors are listed.
    names = set(service.steg_list(uak))
    assert {f"t{tid}-f0" for tid in range(N_THREADS)}.isdisjoint(names)
    assert {f"t{tid}-f1" for tid in range(N_THREADS)} <= names

    # After flush, cache and backing device agree byte-for-byte.
    service.flush()
    assert cached.stats.dirty_blocks == 0
    for index, data in cached.snapshot().items():
        assert backing.read_block(index) == data
    assert cached.image() == backing.image()

