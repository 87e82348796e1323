"""Cluster telemetry plane: pull-based scraping and merged time-series.

One process's registry answers "what is *this* process doing"; a sharded
cluster needs the same answer across N processes at once.  This module
is the aggregation side of that story:

* :func:`build_snapshot` — the merge-ready document behind the
  ``obs_snapshot`` admin op: a metrics snapshot, a health stanza, a
  slow-op digest and process identity, JSON-serialisable as-is.  When
  built inside a service process it also injects synthetic
  ``shard.op.*`` counters from the per-service ``ServiceStats``, which
  is what keeps per-shard attribution honest even when several embedded
  shards share one process-wide registry.
* :class:`TimeSeriesRing` — a fixed-size ring of timestamped snapshots
  per shard, with counter→rate conversion, histogram deltas and
  windowed percentile estimates derived from consecutive samples.
* :class:`TelemetryCollector` — the pull loop: scrape every target
  (remote shards over the wire, embedded shards in-process, plus the
  coordinator's own process), normalise the JSON, feed the rings, merge
  the per-shard metric snapshots into one labelled cluster view, and
  run the :mod:`repro.obs.rules` engine over the result.
* :func:`stitch_trace` — pull ``obs_trace`` from every shard for one
  trace id and assemble the full fan-out tree (deduplicated by span id,
  so embedded shards sharing the coordinator's tracer don't double up).

Deniability is inherited, not re-argued: a snapshot only repackages
surfaces that are already scrubbed (metric names, op names, durations,
counts, shard ids) — never keys, security levels or hidden-object
names.  The wire-privacy tests sniff a scraped snapshot byte-for-byte.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs.metrics import (
    bucket_percentile,
    get_registry,
    merge_snapshots,
    normalize_snapshot,
    render_labeled_text,
)
from repro.obs.rules import Alert, Rule, RuleEngine, default_rules
from repro.obs.slowlog import get_slowlog
from repro.obs.trace import get_tracer

__all__ = [
    "SNAPSHOT_SCHEMA",
    "ClusterView",
    "ScrapeTarget",
    "ShardSample",
    "TelemetryCollector",
    "TimeSeriesRing",
    "build_snapshot",
    "stitch_trace",
]

#: Version tag on every ``obs_snapshot`` document.
SNAPSHOT_SCHEMA = 1

#: Snapshots kept per shard ring by default (~2 minutes at 1 Hz).
DEFAULT_HISTORY = 128


# ---------------------------------------------------------------------------
# the snapshot document
# ---------------------------------------------------------------------------


def build_snapshot(*, role: str = "shard", service: Any = None) -> dict:
    """One process's merge-ready telemetry document (plain JSON-able dict).

    ``service`` — the hosting :class:`~repro.service.StegFSService`, when
    there is one.  Its per-instance op counters become synthetic
    ``shard.op.<op>.count`` / ``.errors`` counters in the metrics
    stanza: unlike the process-wide registry they are distinct per
    embedded shard, so a collector merging several in-process shards
    still attributes traffic to the right one.
    """
    metrics = get_registry().snapshot()
    up = True
    if service is not None:
        up = not getattr(service, "closed", False)
        try:
            per_op = service.stats.snapshot()
        except Exception:
            per_op = {}
        total = 0
        for op, stats in per_op.items():
            count = getattr(stats, "count", 0)
            errors = getattr(stats, "errors", 0)
            total += count
            metrics[f"shard.op.{op}.count"] = {"type": "counter", "value": count}
            if errors:
                metrics[f"shard.op.{op}.errors"] = {
                    "type": "counter",
                    "value": errors,
                }
        metrics["shard.ops_total"] = {"type": "counter", "value": total}
        # Deniability-observatory series: per-shard allocation level and
        # cumulative dummy churn, read from in-RAM state only (the bitmap
        # and the tick counter live in memory; nothing touches the
        # device).  Per-service like shard.op.*, so embedded shards
        # sharing one registry still attribute churn to the right disk.
        try:
            steg = service.steg
            metrics["steg.alloc.blocks"] = {
                "type": "gauge",
                "value": int(steg.fs.bitmap.allocated_count),
            }
            metrics["steg.dummy.updates"] = {
                "type": "counter",
                "value": int(steg.dummies.updates),
            }
        except Exception:
            pass  # not every scraped service wraps a StegFS volume
    slow = get_slowlog()
    digest: dict[str, dict] = {}
    for record in slow.records(limit=128):
        entry = digest.setdefault(
            record["op"], {"count": 0, "max_ms": 0.0, "failed": 0}
        )
        entry["count"] += 1
        entry["max_ms"] = max(entry["max_ms"], record["duration_ms"])
        if record.get("failed"):
            entry["failed"] += 1
    return {
        "schema": SNAPSHOT_SCHEMA,
        "ts_unix": time.time(),
        "process": {"pid": os.getpid(), "role": role},
        "health": {"up": up},
        "metrics": metrics,
        "slowlog": {"stats": slow.stats(), "ops": digest},
    }


# ---------------------------------------------------------------------------
# scrape targets
# ---------------------------------------------------------------------------


class ScrapeTarget:
    """One scrapeable endpoint: a snapshot callable plus optional trace pull.

    :meth:`wrap` adapts anything with an ``obs_snapshot()`` method (both
    shard adapters, both net clients, a raw service) or a bare callable
    returning the snapshot document (dict or JSON string).
    """

    __slots__ = ("_snapshot_fn", "_trace_fn")

    def __init__(
        self,
        snapshot_fn: Callable[[], Any],
        trace_fn: Callable[[str], Any] | None = None,
    ) -> None:
        self._snapshot_fn = snapshot_fn
        self._trace_fn = trace_fn

    @classmethod
    def wrap(cls, target: Any) -> "ScrapeTarget":
        if isinstance(target, ScrapeTarget):
            return target
        snapshot_fn = getattr(target, "obs_snapshot", None)
        if snapshot_fn is not None:
            return cls(snapshot_fn, getattr(target, "obs_trace", None))
        if callable(target):
            return cls(target)
        raise TypeError(
            f"cannot scrape {type(target).__name__}: needs obs_snapshot() "
            "or to be callable"
        )

    @classmethod
    def local(cls, role: str = "coordinator", service: Any = None) -> "ScrapeTarget":
        """The calling process itself (the coordinator's own telemetry)."""
        return cls(
            lambda: build_snapshot(role=role, service=service),
            lambda trace_id: {
                "trace_id": trace_id,
                "spans": get_tracer().spans(trace_id),
            },
        )

    def snapshot(self) -> dict:
        """Pull one snapshot and normalise it to a plain dict."""
        raw = self._snapshot_fn()
        doc = json.loads(raw) if isinstance(raw, str) else dict(raw)
        doc["metrics"] = normalize_snapshot(doc.get("metrics", {}))
        return doc

    def trace(self, trace_id: str) -> list[dict]:
        """Pull this target's spans for ``trace_id`` (empty if unsupported)."""
        if self._trace_fn is None:
            return []
        raw = self._trace_fn(trace_id)
        doc = json.loads(raw) if isinstance(raw, str) else raw
        return list(doc.get("spans", ()))


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------


class TimeSeriesRing:
    """Fixed-size ring of timestamped snapshots for one shard.

    Samples are the scraped documents themselves; the ring derives what
    dashboards and rules need from *pairs* of samples: counter rates,
    histogram bucket deltas, and windowed percentile estimates.  Failed
    scrapes are recorded too (``_scrape.ok == False``) so flap detection
    can see the gaps; derivation skips them.
    """

    def __init__(self, capacity: int = DEFAULT_HISTORY) -> None:
        if capacity < 2:
            raise ValueError(f"ring capacity must be >= 2, got {capacity}")
        self._lock = threading.Lock()
        self._samples: deque[dict] = deque(maxlen=capacity)

    def append(self, sample: dict) -> None:
        """Add one scraped (or failed-scrape) sample, newest last."""
        with self._lock:
            self._samples.append(sample)

    def samples(self) -> list[dict]:
        """Oldest-first copies of the ring contents."""
        with self._lock:
            return list(self._samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def latest(self) -> dict | None:
        """Newest sample, failed scrapes included."""
        with self._lock:
            return self._samples[-1] if self._samples else None

    # -- derivation ----------------------------------------------------

    def _window(self, window_s: float | None) -> list[dict]:
        """Ok samples in the window, oldest first (all, if no window)."""
        samples = [s for s in self.samples() if s.get("_scrape", {}).get("ok", True)]
        if window_s is None or not samples:
            return samples
        horizon = samples[-1]["ts_unix"] - window_s
        return [s for s in samples if s["ts_unix"] >= horizon]

    @staticmethod
    def _value(sample: dict, name: str) -> float | None:
        data = sample.get("metrics", {}).get(name)
        if data is None or data.get("type") not in ("counter", "gauge"):
            return None
        return float(data["value"])

    def series(self, name: str, window_s: float | None = None) -> list[tuple[float, float]]:
        """``(ts, value)`` pairs for a counter/gauge over the window."""
        out = []
        for sample in self._window(window_s):
            value = self._value(sample, name)
            if value is not None:
                out.append((sample["ts_unix"], value))
        return out

    def rate(self, name: str, window_s: float | None = None) -> float:
        """Counter increase per second between the window's endpoints.

        Negative deltas (a restarted process reset its counters) clamp
        to zero rather than reporting a nonsense negative rate.  A
        counter absent from the window's first sample but present later
        was born mid-window: counters start at zero, so its whole value
        is increase that happened inside the window rather than a
        single-point series with no derivable rate.
        """
        samples = self._window(window_s)
        if len(samples) < 2:
            return 0.0
        values = [(s["ts_unix"], self._value(s, name)) for s in samples]
        present = [(t, v) for t, v in values if v is not None]
        if not present:
            return 0.0
        t1, v1 = present[-1]
        t0, v0 = values[0]
        if v0 is None:
            v0 = 0.0
        if t1 <= t0:
            return 0.0
        return max(0.0, v1 - v0) / (t1 - t0)

    def histogram_delta(self, name: str, window_s: float | None = None) -> dict:
        """Bucket/count/sum increase between the window's endpoints.

        Returns ``{"buckets": {le: delta}, "inf": d, "count": d, "sum": d,
        "seconds": dt}`` with every delta clamped at zero (restarts).
        An absent metric or a single-sample window yields all zeros.
        """
        empty = {"buckets": {}, "inf": 0, "count": 0, "sum": 0.0, "seconds": 0.0}
        samples = [
            s
            for s in self._window(window_s)
            if s.get("metrics", {}).get(name, {}).get("type") == "histogram"
        ]
        if len(samples) < 2:
            return empty
        first = samples[0]["metrics"][name]
        last = samples[-1]["metrics"][name]
        buckets = {
            le: max(0, count - first["buckets"].get(le, 0))
            for le, count in last["buckets"].items()
        }
        return {
            "buckets": buckets,
            "inf": max(0, last["inf"] - first["inf"]),
            "count": max(0, last["count"] - first["count"]),
            "sum": max(0.0, last["sum"] - first["sum"]),
            "seconds": samples[-1]["ts_unix"] - samples[0]["ts_unix"],
        }

    def windowed_percentile(
        self, name: str, p: float, window_s: float | None = None
    ) -> float:
        """Bucket-resolution percentile over the window's new observations.

        The estimate is the upper bound of the bucket holding the target
        rank among observations recorded *within the window* (histogram
        deltas, not lifetime shape).  Observations past the last bound
        resolve to the latest sample's ``max``.
        """
        delta = self.histogram_delta(name, window_s)
        latest = (self.latest() or {}).get("metrics", {}).get(name, {})
        return bucket_percentile(delta["buckets"], delta["count"], p, float(latest.get("max", 0.0)))


# ---------------------------------------------------------------------------
# cluster view
# ---------------------------------------------------------------------------


@dataclass
class ShardSample:
    """Outcome of scraping one shard once."""

    shard_id: str
    ok: bool
    ts: float
    snapshot: dict | None = None
    #: Exception *class name* on failure — never a message, which could
    #: echo caller-supplied strings.
    error: str | None = None
    #: Routing state: ``alive`` / ``dead`` (health monitor) or
    #: ``unreachable`` (the scrape itself failed).
    state: str = "alive"


@dataclass
class ClusterView:
    """One scrape sweep: per-shard samples plus the merged metric space."""

    ts: float
    samples: dict[str, ShardSample]
    merged: dict[str, dict]
    alerts: list[Alert] = field(default_factory=list)

    def states(self) -> dict[str, str]:
        """Shard id → routing state."""
        return {sid: sample.state for sid, sample in self.samples.items()}

    def render_text(self) -> str:
        """Labelled exposition: per-shard samples, then the merged space."""
        parts = []
        for sid in sorted(self.samples):
            sample = self.samples[sid]
            if sample.snapshot is None:
                continue
            parts.append(
                render_labeled_text(sample.snapshot["metrics"], {"shard": sid})
            )
        parts.append(render_labeled_text(self.merged, {"shard": "_merged"}))
        return "".join(parts)


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------


class TelemetryCollector:
    """Pull-based scraper over a set of shard targets.

    Each sweep pulls ``obs_snapshot`` from every target, stamps routing
    state (scrape failures count as ``unreachable``; an attached
    :class:`~repro.cluster.health.HealthMonitor` can also vote a shard
    ``dead``), appends to the per-shard time-series ring, merges the
    per-shard metric snapshots, and evaluates the rules engine.

    Args:
        targets: shard id → scrapeable (see :meth:`ScrapeTarget.wrap`).
        interval_s: sweep period for :meth:`start`'s daemon thread.
        history: ring capacity per shard.
        rules: rules to evaluate per sweep (default: the built-in set).
        health: optional shared failure detector consulted for state.
        on_alert: callback ``(alert, state)`` on firing/resolved edges.
        clock: time source (tests inject a fake).
    """

    def __init__(
        self,
        targets: Mapping[str, Any],
        *,
        interval_s: float = 1.0,
        history: int = DEFAULT_HISTORY,
        rules: Iterable[Rule] | None = None,
        health: Any = None,
        on_alert: Callable[[Alert, str], None] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"scrape interval must be positive, got {interval_s}")
        self._targets = {
            sid: ScrapeTarget.wrap(target) for sid, target in targets.items()
        }
        if not self._targets:
            raise ValueError("a collector needs at least one target")
        self._interval_s = float(interval_s)
        self._clock = clock
        self._health = health
        self._rings = {sid: TimeSeriesRing(history) for sid in self._targets}
        self._engine = RuleEngine(
            default_rules() if rules is None else rules,
            on_alert=on_alert,
            clock=clock,
        )
        self._view_lock = threading.Lock()
        self._last_view: ClusterView | None = None
        self._stop: threading.Event | None = None
        self._thread: threading.Thread | None = None

    @property
    def interval_s(self) -> float:
        """Sweep period of the background loop."""
        return self._interval_s

    @property
    def shard_ids(self) -> list[str]:
        """Scraped shard ids, sorted."""
        return sorted(self._targets)

    def ring(self, shard_id: str) -> TimeSeriesRing:
        """The time-series ring for one shard."""
        return self._rings[shard_id]

    def latest(self) -> ClusterView | None:
        """The most recent sweep's view (None before the first sweep)."""
        with self._view_lock:
            return self._last_view

    def alerts(self) -> list[Alert]:
        """Currently-firing alerts, stable order."""
        return self._engine.active()

    # -- scraping ------------------------------------------------------

    def _state_of(self, shard_id: str, scraped_ok: bool) -> str:
        if not scraped_ok:
            return "unreachable"
        if self._health is not None:
            try:
                state = self._health.state_of(shard_id)
            except Exception:
                return "alive"
            return getattr(state, "value", str(state))
        return "alive"

    def scrape_once(self) -> ClusterView:
        """One sweep: scrape, ring, merge, evaluate rules."""
        ts = self._clock()
        samples: dict[str, ShardSample] = {}
        for sid, target in self._targets.items():
            try:
                snapshot = target.snapshot()
            except Exception as exc:
                sample = ShardSample(
                    shard_id=sid,
                    ok=False,
                    ts=ts,
                    error=type(exc).__name__,
                    state=self._state_of(sid, scraped_ok=False),
                )
                self._rings[sid].append(
                    {"ts_unix": ts, "metrics": {}, "_scrape": {"ok": False}}
                )
            else:
                sample = ShardSample(
                    shard_id=sid,
                    ok=True,
                    ts=ts,
                    snapshot=snapshot,
                    state=self._state_of(sid, scraped_ok=True),
                )
                ringed = dict(snapshot)
                ringed["ts_unix"] = ts
                ringed["_scrape"] = {"ok": True, "state": sample.state}
                self._rings[sid].append(ringed)
            samples[sid] = sample
        merged = merge_snapshots(
            sample.snapshot["metrics"]
            for sample in samples.values()
            if sample.snapshot is not None
        )
        view = ClusterView(ts=ts, samples=samples, merged=merged)
        view.alerts = self._engine.evaluate(view, self._rings)
        with self._view_lock:
            self._last_view = view
        return view

    # -- background loop -----------------------------------------------

    def start(self) -> None:
        """Run :meth:`scrape_once` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("collector already running")
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(self._interval_s):
                try:
                    self.scrape_once()
                except Exception:
                    # A sweep must never kill the loop; individual scrape
                    # failures are already recorded per shard.
                    pass

        thread = threading.Thread(target=loop, name="obs-collector", daemon=True)
        self._stop = stop
        self._thread = thread
        thread.start()

    def stop(self) -> None:
        """Stop the background loop, if running."""
        if self._stop is not None:
            self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._stop = None
        self._thread = None

    def __enter__(self) -> "TelemetryCollector":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- derived dashboards --------------------------------------------

    def stitch_trace(self, trace_id: str) -> dict:
        """Assemble one trace's full fan-out tree across every target."""
        return stitch_trace(trace_id, self._targets.values())

    def table(self, window_s: float | None = 30.0) -> list[dict]:
        """Per-shard dashboard rows (the data behind ``obs top``).

        Each row: shard id, routing state, ops/sec, p99 latency over the
        window, cache hit ratio over the window, and scrape liveness.
        """
        view = self.latest()
        rows = []
        for sid in self.shard_ids:
            ring = self._rings[sid]
            ops_rate = ring.rate("shard.ops_total", window_s)
            if ops_rate == 0.0:
                # Remote single-service processes report per-service ops;
                # a coordinator target reports none — fall back to the
                # coordinator's own read / write counters.
                ops_rate = ring.rate("cluster.async.reads", window_s) + ring.rate(
                    "cluster.async.writes", window_s
                )
            hits = ring.rate("storage.cache.hits", window_s)
            misses = ring.rate("storage.cache.misses", window_s)
            lookups = hits + misses
            sample = view.samples.get(sid) if view else None
            rows.append(
                {
                    "shard": sid,
                    "state": sample.state if sample else "unknown",
                    "ops_per_s": ops_rate,
                    "p99_ms": _latency_p99(ring, window_s),
                    "cache_hit_ratio": hits / lookups if lookups else 0.0,
                    "samples": len(ring),
                }
            )
        return rows


def _latency_p99(ring: TimeSeriesRing, window_s: float | None) -> float:
    """p99 over the window's new observations across every per-op
    ``service.op.<name>.latency_ms`` histogram combined."""
    latest = ring.latest() or {}
    names = [
        name
        for name in latest.get("metrics", {})
        if name.startswith("service.op.") and name.endswith(".latency_ms")
    ]
    buckets: dict[float, int] = {}
    total = 0
    maxima = 0.0
    for name in names:
        delta = ring.histogram_delta(name, window_s)
        for le, count in delta["buckets"].items():
            buckets[le] = buckets.get(le, 0) + count
        total += delta["count"]
        data = latest.get("metrics", {}).get(name, {})
        maxima = max(maxima, float(data.get("max", 0.0)))
    return bucket_percentile(buckets, total, 99.0, maxima)


# ---------------------------------------------------------------------------
# cross-shard trace stitching
# ---------------------------------------------------------------------------


def stitch_trace(
    trace_id: str,
    targets: Iterable[Any],
    *,
    include_local: bool = True,
) -> dict:
    """Pull one trace id's spans from every target and merge the tree.

    Spans are deduplicated by span id — embedded shards share the
    calling process's tracer, so the same records arrive several times —
    and sorted by start time.  The document matches ``obs_trace``'s
    single-trace shape (``{"trace_id": ..., "spans": [...]}``), so the
    CLI renderer works on it unchanged.
    """
    spans: dict[str, dict] = {}
    if include_local:
        for record in get_tracer().spans(trace_id):
            spans[record["span_id"]] = dict(record)
    for target in targets:
        wrapped = ScrapeTarget.wrap(target)
        try:
            pulled = wrapped.trace(trace_id)
        except Exception:
            continue  # an unreachable shard must not sink the whole stitch
        for record in pulled:
            spans.setdefault(record["span_id"], dict(record))
    ordered = sorted(spans.values(), key=lambda s: s.get("start_unix", 0.0))
    return {"trace_id": trace_id, "spans": ordered}
