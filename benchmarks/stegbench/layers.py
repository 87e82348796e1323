"""Per-layer metrics: counts, raw timings, the traced window, kernel probes.

A ``--trace 1`` run drives up to three windows on one system: the workload as
it is (all its clients; counts, raw timings and lock waits come from here),
the workload with one client if it has more (the base for the tracing
overhead and for ``service.concurrency_speedup``), and the traced window —
one client, a third of the ops, benchmark-owned timing wrappers at the public
boundaries between layers.  The wrappers are attribute patches at the import
sites, installed for that window only and removed after it.  Nothing under
``src/`` changes; spans inside the program are a later issue.  End-to-end
metrics never come from this run.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from typing import Any

import harness
import probes
from tracing import ROOT, Patches, Tracer, attribute
from workloads import System, Workload

import repro.core.blockio as blockio
import repro.core.dummy as dummy_mod
import repro.core.keys as keys_mod
import repro.core.locator as locator
import repro.crypto.kdf as kdf
import repro.crypto.prng as prng
import repro.net.protocol as protocol
import repro.net.server as server_mod
from repro.core.hidden_file import HiddenFile
from repro.core.stegfs import StegFS
from repro.fs.filesystem import FileSystem
from repro.service.locks import RWLock
from repro.service.service import StegFSService
from repro.storage.txn import TransactionManager

__all__ = ["SPAN_METRICS", "traced_run"]

#: Span name -> the per-layer metric that reports its self time per op.
SPAN_METRICS = {
    ROOT: "bench.unattributed_ms_per_op",
    "net.client": "net.client_self_ms_per_op",
    "net.server": "net.server_self_ms_per_op",
    "net.codec": "net.codec_ms_per_op",
    "cluster.coordinator": "cluster.coordinator_self_ms_per_op",
    "service.queue": "service.executor_queue_ms_per_op",
    "service.op": "service.self_ms_per_op",
    "core.stegfs": "core.facade_self_ms_per_op",
    "core.locator": "core.locator_ms_per_op",
    "core.hidden_file": "core.hidden_file_self_ms_per_op",
    "core.seal": "core.seal_self_ms_per_op",
    "core.unseal": "core.unseal_self_ms_per_op",
    "crypto.ctr": "crypto.ctr_ms_per_op",
    "crypto.kdf": "crypto.kdf_ms_per_op",
    "crypto.hmac": "crypto.hmac_ms_per_op",
    "crypto.sha256": "crypto.prng_sha256_ms_per_op",
    "fs.read": "fs.plain_read_self_ms_per_op",
    "fs.write": "fs.plain_write_self_ms_per_op",
    "fs.flush": "fs.flush_self_ms_per_op",
    "storage.commit": "storage.txn_commit_ms_per_op",
    "storage.durable": "storage.durable_wait_ms_per_op",
    "storage.device": "storage.device_self_ms_per_op",
}

_WRAPS = [
    (locator, "find_header", "core.locator"),
    (blockio, "seal_many", "core.seal"),
    (blockio, "unseal_many", "core.unseal"),
    (blockio, "unseal_concat", "core.unseal"),
    (blockio, "ctr_xor", "crypto.ctr"),
    (blockio, "ctr_xor_many", "crypto.ctr"),
    (blockio, "ctr_xor_pad", "crypto.ctr"),
    (blockio, "ctr_xor_concat", "crypto.ctr"),
    (keys_mod, "subkey", "crypto.kdf"),
    (dummy_mod, "subkey", "crypto.kdf"),
    (kdf, "hmac_sha256", "crypto.hmac"),
    (prng, "sha256", "crypto.sha256"),
    (HiddenFile, "read", "core.hidden_file"),
    (HiddenFile, "write", "core.hidden_file"),
    (HiddenFile, "read_extent", "core.hidden_file"),
    (HiddenFile, "write_extent", "core.hidden_file"),
    (StegFS, "steg_read", "core.stegfs"),
    (StegFS, "steg_write", "core.stegfs"),
    (StegFS, "steg_read_extent", "core.stegfs"),
    (StegFS, "steg_write_extent", "core.stegfs"),
    (FileSystem, "read", "fs.read"),
    (FileSystem, "write", "fs.write"),
    (FileSystem, "flush", "fs.flush"),
    (TransactionManager, "commit", "storage.commit"),
    (TransactionManager, "wait_durable", "storage.durable"),
    (StegFSService, "read", "service.op"),
    (StegFSService, "write", "service.op"),
    (StegFSService, "steg_read", "service.op"),
    (StegFSService, "steg_write", "service.op"),
    (StegFSService, "steg_read_extent", "service.op"),
    (StegFSService, "steg_write_extent", "service.op"),
    (protocol, "encode_message_vectored", "net.codec"),
    (protocol, "decode_frame", "net.codec"),
    (server_mod, "encode_message_vectored", "net.codec"),
    (server_mod, "decode_frame", "net.codec"),
]


def _install(tracer: Tracer, system: System) -> None:
    for owner, attr, name in _WRAPS:
        tracer.wrap(owner, attr, name)
    for device in system.devices:
        device.timer = tracer.span
    if system.legs is not None:
        system.legs.clock = time.perf_counter
    if system.server is not None:
        serve = server_mod.StegFSServer._serve_request

        async def traced_serve(self: Any, conn: Any, request: Any, **kwargs: Any) -> None:
            # The request span lives across awaits, so it is recorded by
            # hand; while it is open, worker-thread spans parent to it.
            outer, started = tracer.cross_parent, time.perf_counter()
            sid = tracer.record("net.server", started, 0.0, outer)
            tracer.cross_parent = sid
            try:
                await serve(self, conn, request, **kwargs)
            finally:
                tracer.spans[sid][2] = time.perf_counter()
                tracer.cross_parent = outer

        tracer.patches.set(server_mod.StegFSServer, "_serve_request", traced_serve)
    for service in system.services:
        executor = service.executor
        submit = executor.submit

        def traced_submit(fn: Any, *args: Any, _submit: Any = submit, **kwargs: Any) -> Any:
            parent, queued = tracer.cross_parent, time.perf_counter()

            def run() -> Any:
                if tracer.op_id is not None:
                    tracer.record("service.queue", queued, time.perf_counter(), parent)
                return fn(*args, **kwargs)

            return _submit(run)

        tracer.patches.set(executor, "submit", traced_submit)


def _uninstall(tracer: Tracer, system: System) -> None:
    tracer.patches.undo()
    for device in system.devices:
        device.timer = None
    if system.legs is not None:
        system.legs.clock = None


def _time_lock_waits(patches: Patches) -> list[float]:
    """Record how long every ``RWLock`` acquisition took, on any thread.

    Flat timers, not spans: they also work with several clients in flight,
    which is when a lock has anyone to wait for.
    """
    waits: list[float] = []
    for attr in ("acquire_read", "acquire_write"):

        def timed(lock: RWLock, _acquire: Any = getattr(RWLock, attr)) -> None:
            started = time.perf_counter()
            _acquire(lock)
            waits.append(time.perf_counter() - started)

        patches.set(RWLock, attr, timed)
    return waits


def _breakdown(tracer: Tracer) -> tuple[dict[str, float], dict[str, int], int, int]:
    """Self seconds and span counts per name, ops seen, device reads inside the locator."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    ops = probes_seen = 0
    for root, spans in tracer.by_op().items():
        if root not in tracer.spans or tracer.spans[root][2] == 0.0:
            continue
        ops += 1
        for name, value in attribute(spans, root).items():
            seconds[name] += value
        names = {sid: record[0] for sid, record in spans}
        for _, record in spans:
            counts[record[0]] += 1
            if record[0] == "storage.device" and names.get(record[3]) == "core.locator":
                probes_seen += 1
    return seconds, counts, ops, probes_seen


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _alloc_peak_kib(workload: Workload, system: System) -> float:
    """tracemalloc peak over a few reads (wire workloads only)."""
    if system.server is None:
        return 0.0
    peaks = []
    tracemalloc.start()
    try:
        for key in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            workload.read_all(system, key)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 1024


def _service_p50(system: System, names: tuple[str, ...]) -> float:
    values = []
    for service in system.services:
        snapshot = service.stats.snapshot()
        values.extend(snapshot[name].p50_ms for name in names if name in snapshot)
    return statistics.mean(values) if values else 0.0


def traced_run(
    workload: Workload, system: System, rng: Any, args: Any
) -> tuple[dict[str, tuple[float, str]], int, int]:
    """The workload as it is, with one client, and traced.

    Returns the per-layer metrics and the ops attempted and failed.
    """
    patches = Patches()
    lock_waits = _time_lock_waits(patches)
    try:
        full = harness.run_window(workload, system, rng, args.seconds * 2 / 3)
    finally:
        patches.undo()
    solo = full
    if workload.clients > 1:
        solo = harness.run_window(workload, system, rng, args.seconds / 3, clients=1)
    tracer = Tracer()
    _install(tracer, system)
    try:
        traced = harness.run_window(
            workload, system, rng, args.seconds / 3, clients=1, tracer=tracer
        )
    finally:
        _uninstall(tracer, system)
    seconds, counts, ops, locator_probes = _breakdown(tracer)
    if args.trace_out:
        with open(args.trace_out, "w") as out:
            for sid, (name, start, end, parent, op) in sorted(tracer.spans.items()):
                out.write(json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")

    m: dict[str, tuple[float, str]] = {}
    for span_name, metric in SPAN_METRICS.items():
        m[metric] = (_per(seconds.get(span_name, 0.0), ops) * 1000, "ms")
    m["crypto.hmac_calls_per_op"] = (_per(counts.get("crypto.hmac", 0), ops), "1")
    m["core.locator_probes_per_lookup"] = (_per(locator_probes, counts.get("core.locator", 0)), "1")

    n = full.ops
    delta = full.delta
    reads, writes = len(full.reads_s), len(full.writes_s)
    commits = delta("journal_commits")
    m["storage.device_requests_per_op"] = (delta("requests") / n, "1")
    m["storage.device_blocks_read_per_op"] = (delta("blocks_read") / n, "1")
    m["storage.device_blocks_written_per_op"] = (delta("blocks_written") / n, "1")
    m["storage.device_flushes_per_op"] = (delta("flushes") / n, "1")
    m["storage.journal_commits_per_fsync"] = (_per(commits, delta("journal_fsyncs")), "1")
    m["storage.journal_blocks_per_commit"] = (_per(delta("journal_blocks_journaled"), commits), "1")
    m["storage.journal_checkpoints_per_kop"] = (1000 * delta("journal_checkpoints") / n, "1")
    lookups_cache = delta("cache_hits") + delta("cache_misses")
    m["storage.cache_hit_rate"] = (_per(delta("cache_hits"), lookups_cache), "1")
    m["storage.cache_evictions_per_op"] = (delta("cache_evictions") / n, "1")
    m["storage.cache_writebacks_per_op"] = (delta("cache_writebacks") / n, "1")
    data_blocks = workload.object_size // system.stegs[0].block_size
    m["fs.metadata_blocks_per_write"] = (
        (0.0, "1") if workload.hidden
        else (_per(delta("journal_blocks_journaled"), commits) - data_blocks, "1")
    )
    m["core.dummy_tick_ms"] = (
        statistics.median(full.ticks_s) * 1000 if full.ticks_s else 0.0, "ms")
    m["core.dummy_ticks_per_kop"] = (1000 * delta("dummy_updates") / n, "1")
    m["core.pool_blocks_per_object"] = (_pool_blocks(workload, system), "1")
    m["service.read_ms_p50"] = (
        _service_p50(system, ("read", "steg_read", "steg_read_extent")), "ms")
    m["service.write_ms_p50"] = (
        _service_p50(system, ("write", "steg_write", "steg_write_extent")), "ms")
    m["service.lock_wait_ms_per_op"] = (sum(lock_waits) / n * 1000, "ms")
    m["service.concurrency_speedup"] = (_ops_s(full) / _ops_s(solo), "1")
    m["net.frames_per_op"] = (delta("frames") / n, "1")
    m["net.ping_rtt_ms_p50"] = (_ping_p50(system), "ms")
    m["net.alloc_peak_kib_per_read"] = (_alloc_peak_kib(workload, system), "KiB")
    legs = system.legs
    m["cluster.read_legs_per_read"] = (_per(delta("read_legs"), reads), "1")
    m["cluster.write_legs_per_write"] = (_per(delta("write_legs"), writes), "1")
    m["cluster.cancelled_legs_per_read"] = (_per(delta("cluster_cancelled_legs"), reads), "1")
    m["cluster.early_acks_per_write"] = (_per(delta("cluster_early_acks"), writes), "1")
    m["cluster.read_repairs_per_kop"] = (1000 * delta("cluster_read_repairs") / n, "1")
    m["cluster.quorum_widenings_per_kop"] = (1000 * delta("cluster_quorum_widenings") / n, "1")
    m["cluster.key_lock_wait_ms_per_op"] = (delta("key_lock_wait_ms") / n, "ms")
    m["cluster.leg_ms_p50"] = (
        statistics.median(legs.leg_s) * 1000 if legs and legs.leg_s else 0.0, "ms")
    m["obs.registry_events_per_op"] = (delta("registry_events") / n, "1")

    # The timings a user would see, raw: this sandbox cannot hold them to a
    # bound of a tenth, so they carry none (see README.md).
    pct_r, tail_r = harness.tail(full.reads_s)
    pct_w, tail_w = harness.tail(full.writes_s)
    slice_rates = [s.ops / s.wall_s for s in full.slices]
    m["bench.ops_s"] = (_ops_s(full), "1/s")
    m["bench.read_p50_ms"] = (statistics.median(full.reads_s) * 1000, "ms")
    m["bench.write_p50_ms"] = (statistics.median(full.writes_s) * 1000, "ms")
    m["bench.cpu_ms_per_op"] = (full.median(lambda s: s.cpu_s / s.ops) * 1000, "ms")
    m["bench.read_tail_ms"] = (tail_r * 1000, "ms")
    m["bench.write_tail_ms"] = (tail_w * 1000, "ms")
    m["bench.tail_pct"] = (min(pct_r, pct_w), "%")
    m["bench.samples_read"] = (reads, "count")
    m["bench.samples_write"] = (writes, "count")
    m["bench.slice_cv"] = (statistics.pstdev(slice_rates) / statistics.mean(slice_rates), "1")
    m["bench.trace_overhead_frac"] = (_ops_s(solo) / _ops_s(traced) - 1, "1")
    m["bench.traced_op_ms"] = (_per(sum(seconds.values()), ops) * 1000, "ms")
    m.update(probes.run_all())
    windows = {id(w): w for w in (full, solo, traced)}.values()
    return m, sum(w.attempted for w in windows), sum(w.failed for w in windows)


def _ops_s(window: harness.Window) -> float:
    return window.median(lambda s: s.ops / s.wall_s)


def _pool_blocks(workload: Workload, system: System) -> float:
    if not workload.hidden or system.cluster is not None:
        return 0.0
    steg, uaks = system.stegs[0], system.uaks
    return statistics.mean(
        len(steg.hidden_footprint(workload.objname(key), uaks[key % len(uaks)])["pool"])
        for key in range(workload.n_objects)
    )


def _ping_p50(system: System) -> float:
    ping = system.call.get("ping")
    if ping is None:
        return 0.0
    samples = []
    for _ in range(200):
        started = time.perf_counter()
        ping()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000
