"""ServiceStats under concurrent fan-out: the reservoir stays coherent.

The cluster coordinator hammers one shard service's stats from many
threads at once (every cluster op is a parallel fan-out), so ``record``
and ``snapshot`` must hold their locking invariant under real
contention.  These tests drive the counters far past the reservoir size
from many threads and assert exact bookkeeping — a lost update, an
oversized reservoir, or a torn snapshot fails them.
"""

from __future__ import annotations

import random
import threading

from repro.service.service import RESERVOIR_SIZE, ServiceStats


def _hammer(stats: ServiceStats, n_threads: int, per_thread: int, ops: list[str]):
    barrier = threading.Barrier(n_threads)

    def worker(index: int) -> None:
        rng = random.Random(index)
        barrier.wait()
        for i in range(per_thread):
            op = ops[i % len(ops)]
            stats.record(op, rng.random() / 1000.0, failed=(i % 97 == 0))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestConcurrentRecord:
    def test_no_update_lost_across_16_threads(self):
        stats = ServiceStats()
        ops = ["steg_read", "steg_write", "create"]
        n_threads, per_thread = 16, 2000
        _hammer(stats, n_threads, per_thread, ops)
        snap = stats.snapshot()
        assert sum(s.count for s in snap.values()) == n_threads * per_thread
        for slot, op in enumerate(ops):
            per_op = len([i for i in range(per_thread) if i % len(ops) == slot])
            assert snap[op].count == n_threads * per_op

    def test_reservoir_never_exceeds_bound(self):
        stats = ServiceStats(reservoir_size=64)
        _hammer(stats, 8, 1000, ["op"])
        snap = stats.snapshot()
        assert len(snap["op"].samples_ms) == 64
        assert snap["op"].count == 8000

    def test_error_counts_are_exact(self):
        stats = ServiceStats()
        n_threads, per_thread = 8, 970
        _hammer(stats, n_threads, per_thread, ["op"])
        expected_errors = n_threads * len([i for i in range(per_thread) if i % 97 == 0])
        assert stats.snapshot()["op"].errors == expected_errors

    def test_snapshot_under_fire_is_internally_consistent(self):
        """Readers racing writers must never see torn per-op stats."""
        stats = ServiceStats(reservoir_size=32)
        stop = threading.Event()
        problems: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                snap = stats.snapshot()
                for op, op_stats in snap.items():
                    if op_stats.count < len(op_stats.samples_ms) and (
                        op_stats.count < 32
                    ):
                        problems.append(f"{op}: more samples than calls")
                    if op_stats.errors > op_stats.count:
                        problems.append(f"{op}: more errors than calls")
                    if op_stats.count and op_stats.total_s < 0:
                        problems.append(f"{op}: negative time")
                    # Percentiles must be readable mid-run without raising.
                    op_stats.p50_ms, op_stats.p99_ms  # noqa: B018

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            _hammer(stats, 8, 1500, ["a", "b"])
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not problems, problems[:5]
        assert sum(s.count for s in stats.snapshot().values()) == 8 * 1500

    def test_reservoir_is_deterministic_for_a_serial_sequence(self):
        """The seeded replacement RNG stays repeatable when calls are
        serialized — the property the benches print percentiles from."""
        runs = []
        for _ in range(2):
            stats = ServiceStats(reservoir_size=16)
            for i in range(500):
                stats.record("op", (i % 37) / 1000.0, failed=False)
            runs.append(stats.snapshot()["op"].samples_ms)
        assert runs[0] == runs[1]

    def test_mean_reflects_all_calls_not_just_reservoir(self):
        stats = ServiceStats(reservoir_size=RESERVOIR_SIZE)
        _hammer(stats, 4, 500, ["op"])
        snap = stats.snapshot()["op"]
        assert snap.mean_ms > 0
        assert snap.total_s > 0
