"""Run protocol: cold builds, warm-up, a window of fixed-count slices, checks.

What keeps it quiet on a small shared sandbox (measurements in README.md):

* the window is ``SLICES`` slices of a **fixed op count**, sized from
  ``--seconds`` and the workload's sizing rate, so every count — device
  traffic, flushes, modelled disk time, space — is a function of the seed
  and not of how fast the machine happened to be;
* the end-to-end metrics are those counts.  Wall-clock timings of the window
  are reported raw, as medians over the slices, in the per-layer set
  (``bench.*``): on this sandbox identical code differs by 10 to 25 % from
  run to run, which no bound of a tenth can hold;
* nothing sleeps, fsyncs or is triggered by the wall clock inside a slice;
  ``gc.collect()`` runs between slices, outside the clock; clients meet
  between slices;
* ``setup_s``, the one timing with a bound, is taken on one CPU and scaled by
  a benchmark-owned kernel run between the build's steps, because the
  machine's speed drifts by up to a factor of two over the minutes that
  separate two sets of runs.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from devices import modelled_ms
from workloads import SLICES, Op, System, Workload, stragglers_pending

from repro.analysis.entropy import scan_volume
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.crypto.kdf import derive_key
from repro.obs.metrics import get_registry
from repro.service.service import StegFSService
from repro.storage.crash import CrashInjectionDevice

__all__ = [
    "Window",
    "durability_failures",
    "end_to_end",
    "measure_setup",
    "run_window",
    "tail",
    "verify_failures",
]

#: Most blocks ``scan_volume`` may flag in the data region: the paper's
#: indistinguishability promise (the false-positive floor is about 0.2 %).
MAX_FLAGGED_FRAC = 0.005
#: Acked mutations replayed over the crash device by the durability check.
DURABILITY_MUTATIONS = 200
#: Seconds the kernel takes on the reference machine ``setup_s`` is scaled
#: to.  A constant, not the run's own fastest sample: over six runs here that
#: sample ranged from 3.96 to 5.77 ms, which is the drift scaling removes.
KERNEL_REFERENCE_S = 0.0040


def kernel_s() -> float:
    """Seconds a fixed integer loop takes right now: the machine's speed."""
    started = time.perf_counter()
    x = 0
    for i in range(48_000):
        x = (x * 1103515245 + 12345 + i) & 0xFFFFFFFF
    return time.perf_counter() - started


class Pace:
    """Kernel samples between the steps of one build, and the build's time
    with each stretch between two samples scaled by the speed they saw."""

    #: Seconds of build between two samples (a sample takes 4 to 8 ms).
    GAP_S = 0.1

    def __init__(self) -> None:
        self.kernel = [kernel_s()]
        self._resumed = time.perf_counter()
        self._stretches: list[float] = []

    def __call__(self) -> None:
        if time.perf_counter() - self._resumed >= self.GAP_S:
            self._sample()

    def _sample(self) -> None:
        self._stretches.append(time.perf_counter() - self._resumed)
        self.kernel.append(kernel_s())
        self._resumed = time.perf_counter()

    def scaled_s(self) -> float:
        """Close the last stretch; the build's time on the reference machine."""
        self._sample()
        return sum(
            stretch * KERNEL_REFERENCE_S * 2 / (before + after)
            for stretch, before, after in zip(self._stretches, self.kernel, self.kernel[1:])
        )


def measure_setup(workload: Workload, seed: int, builds: int) -> tuple[System, float, float]:
    """Cold-build ``builds`` times on one CPU; keep the last.

    Returns the system, the median scaled build time and the median kernel
    sample (how fast the machine was).
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        times, kernel = [], []
        system = None
        for _ in range(builds):
            if system is not None:
                system.close()
                system = None
            gc.collect()
            pace = Pace()
            system = workload.build(seed, pace)
            times.append(pace.scaled_s())
            kernel.extend(pace.kernel)
    finally:
        os.sched_setaffinity(0, cpus)
    return system, statistics.median(times), statistics.median(kernel)


@dataclass
class SliceStats:
    """One slice of the window: ops issued, wall and process CPU seconds."""

    ops: int
    wall_s: float
    cpu_s: float


@dataclass
class Window:
    """Everything one timed window produced."""

    slices: list[SliceStats] = field(default_factory=list)
    reads_s: list[float] = field(default_factory=list)
    writes_s: list[float] = field(default_factory=list)
    ticks_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    user_read: int = 0
    user_written: int = 0
    mutations: int = 0
    before: dict[str, Any] = field(default_factory=dict)
    after: dict[str, Any] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.slices)

    def delta(self, name: str) -> float:
        return self.after[name] - self.before[name]

    def median(self, fn: Callable[[SliceStats], float]) -> float:
        return statistics.median(fn(s) for s in self.slices)


def _quiesce() -> None:
    """Wait for early-acked cluster legs to drain."""
    while stragglers_pending() > 0:
        time.sleep(0.0005)


def counters(system: System) -> dict[str, Any]:
    """Snapshot of every count the window reports as a delta."""
    snap: dict[str, Any] = {
        "requests": 0,
        "blocks_read": 0,
        "blocks_written": 0,
        "flushes": 0,
        "bytes_read": 0,
        "bytes_written": 0,
    }
    for device in system.devices:
        c = device.counters()
        for key in ("requests", "blocks_read", "blocks_written", "flushes"):
            snap[key] += c[key]
        snap["bytes_read"] += c["blocks_read"] * device.block_size
        snap["bytes_written"] += c["blocks_written"] * device.block_size
    for key in ("commits", "fsyncs", "checkpoints", "blocks_journaled"):
        snap[f"journal_{key}"] = sum(
            getattr(s.txn.stats.snapshot(), key) for s in system.stegs
        )
    for key in ("hits", "misses", "evictions", "writebacks"):
        snap[f"cache_{key}"] = sum(getattr(c.stats, key) for c in system.caches)
    snap["dummy_updates"] = sum(s.dummies.updates for s in system.stegs)
    if system.server is not None:
        snap["frames"] = system.server.stats.frames_in + system.server.stats.frames_out
    else:
        snap["frames"] = 0
    cluster = system.cluster.stats.snapshot() if system.cluster else {}
    for key in ("cancelled_legs", "read_repairs", "quorum_widenings", "early_acks"):
        snap[f"cluster_{key}"] = cluster.get(f"async.{key}", 0)
    snap["read_legs"] = system.legs.read_legs if system.legs else 0
    snap["write_legs"] = system.legs.write_legs if system.legs else 0
    registry = get_registry().snapshot()
    snap["registry_events"] = sum(
        m["value"] for m in registry.values() if m["type"] == "counter"
    )
    lock_wait = registry.get("cluster.async.key_lock_wait_ms")
    snap["key_lock_wait_ms"] = lock_wait["sum"] if lock_wait else 0.0
    return snap


@dataclass
class _ClientLog:
    """What one client thread saw in one slice; merged after the rendezvous."""

    reads_s: list[float] = field(default_factory=list)
    writes_s: list[float] = field(default_factory=list)
    failed: int = 0
    user_read: int = 0
    user_written: int = 0


def _drive(
    workload: Workload,
    system: System,
    plan: list[Op],
    run_op: Callable[[Op], Any],
    log: _ClientLog,
    after_op: Callable[[], None] | None = None,
) -> None:
    """One client's share of a slice, closed loop: issue, wait, check."""
    for op in plan:
        started = time.perf_counter()
        try:
            got = run_op(op)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            log.failed += 1
            continue
        elapsed = time.perf_counter() - started
        if op.kind == "r":
            log.reads_s.append(elapsed)
            log.user_read += len(got)
            if got != workload.expected(system, op):
                log.failed += 1
        else:
            log.writes_s.append(elapsed)
            log.user_written += len(op.payload)
            workload.apply(system, op)
        if after_op is not None:
            after_op()


def run_window(
    workload: Workload,
    system: System,
    rng: random.Random,
    seconds: float,
    *,
    slices: int = SLICES,
    clients: int | None = None,
    tracer: Any = None,
) -> Window:
    """Drive the op count ``seconds`` is sized for, in ``slices`` equal slices."""
    window = Window(before=counters(system))
    for device in system.devices:
        del device.trace[:]
        device.recording = True
    outer = workload.outer_layer()

    def run_op(op: Op) -> Any:
        if tracer is None:
            return workload.run_op(system, op)
        return tracer.run_op(outer, workload.run_op, system, op)

    ops_done = 0
    ticks: list[float] = []

    def tick_when_due() -> None:
        # Triggered by the op count, so counts repeat; inside the slice's
        # wall time, outside the latency samples.
        nonlocal ops_done
        ops_done += 1
        if ops_done % workload.tick_every == 0:
            started = time.perf_counter()
            system.call["tick"]()
            ticks.append(time.perf_counter() - started)

    for plan in workload.slices(system, rng, seconds, slices, clients or workload.clients):
        logs = [_ClientLog() for _ in plan]
        _quiesce()
        gc.collect()
        cpu_before = time.process_time()
        started = time.perf_counter()
        if len(plan) == 1:
            after_op = tick_when_due if workload.tick_every else None
            _drive(workload, system, plan[0], run_op, logs[0], after_op)
        else:
            threads = [
                threading.Thread(target=_drive, args=(workload, system, ops, run_op, log))
                for ops, log in zip(plan, logs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        _quiesce()
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_before
        ops = sum(len(ops) for ops in plan)
        window.slices.append(SliceStats(ops=ops, wall_s=wall, cpu_s=cpu))
        window.attempted += ops
        for log in logs:
            window.reads_s.extend(log.reads_s)
            window.writes_s.extend(log.writes_s)
            window.failed += log.failed
            window.user_read += log.user_read
            window.user_written += log.user_written
            window.mutations += len(log.writes_s)
    window.ticks_s = ticks
    window.mutations += len(ticks)
    for device in system.devices:
        device.recording = False
    window.after = counters(system)
    return window


def verify_failures(workload: Workload, system: System) -> tuple[int, int, float]:
    """Post-window checks: (checks made, checks failed, flagged block share).

    Every object is read back in full and compared with the shadow copy, and
    the data region of every volume must still look like random fill.
    """
    checks = failed = 0
    for key in range(workload.n_objects):
        checks += 1
        try:
            intact = bytes(workload.read_all(system, key)) == bytes(system.shadow[key])
        except Exception:  # a read-back that raises is a lost object
            traceback.print_exc(file=sys.stderr)
            intact = False
        failed += not intact
    flagged = total = 0
    for steg in system.stegs:
        steg.device.flush()
        report = scan_volume(
            steg.fs.raw_device, skip=set(range(steg.fs.layout.data_start))
        )
        flagged += len(report.flagged)
        total += report.total_blocks
    checks += 1
    if flagged > MAX_FLAGGED_FRAC * total:
        failed += 1
    return checks, failed, flagged / total


def durability_failures(workload: Workload, seed: int) -> tuple[int, int]:
    """Restart from only the bytes flushed: (objects checked, objects lost).

    The same stack (journaled, auto-flush, durable service) acks
    ``DURABILITY_MUTATIONS`` writes over a ``CrashInjectionDevice``; the
    device then loses power with no further flush — every un-flushed block
    survives or not by a seeded coin — and the remounted volume must return
    every object as its last acked write left it, byte for byte.
    """
    rng = random.Random(seed ^ 0xD0AB1E)
    device = CrashInjectionDevice(1024, 4096, seed=seed)
    steg = StegFS.mkfs(
        device,
        params=StegFSParams(dummy_count=2, dummy_avg_size=4096),
        rng=rng,
        auto_flush=True,
    )
    service = StegFSService(steg)
    uak = derive_key(f"stegbench-{seed}", iterations=8)
    acked: dict[str, bytes] = {}
    names = [workload.objname(key) for key in range(DURABILITY_MUTATIONS // 2)]
    for name in names * 2:  # a create, later an overwrite, of every object
        data = rng.randbytes(workload.object_size)
        if workload.hidden:
            if name in acked:
                service.steg_write(name, uak, data)
            else:
                service.steg_create(name, uak, data=data)
        elif name in acked:
            service.write(name, data)
        else:
            service.create(name, data)
        acked[name] = data
    survivor = device.reincarnate(subset_seed=seed)
    service.close()
    remounted = StegFS.mount(survivor, rng=random.Random(seed))
    lost = 0
    for name, data in acked.items():
        try:
            got = remounted.steg_read(name, uak) if workload.hidden else remounted.read(name)
        except Exception:  # an acked object that cannot be read is lost
            traceback.print_exc(file=sys.stderr)
            got = None
        lost += got != data
    return len(acked), lost


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return 0.0, ordered[-1] if ordered else 0.0
    return 100.0 * (1 - 10 / len(ordered)), ordered[-11]


def end_to_end(
    workload: Workload, system: System, window: Window, setup_s: float
) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one window, by name with units.

    ``verified_frac`` is completed by the caller, after the post-run checks.
    """
    ops = window.ops
    live_bytes = workload.n_objects * workload.object_size
    disk_ms = sum(modelled_ms(device) for device in system.devices)
    return {
        "disk_ms_per_op": (disk_ms / ops, "ms"),
        "read_amp": (window.delta("bytes_read") / window.user_read, "B/B"),
        "write_amp": (window.delta("bytes_written") / window.user_written, "B/B"),
        "space_amp": ((system.allocated_bytes() - system.mkfs_bytes) / live_bytes, "B/B"),
        "flushes_per_write": (window.delta("flushes") / window.mutations, "1"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
