"""Deniability-safe observability: metrics, tracing, slow-op diagnostics.

Five layers deep (block device → FS/journal → service → net → cluster),
the stack needs one answer to "why is p99 bad at 8 shards?" — and it must
produce that answer without breaking the property the whole system
exists for.  The paper's adversary holds the raw disk (§1, §3); a
persisted trace of hidden-file operations would hand them exactly the
evidence StegFS denies.  So this subsystem's hard invariant, enforced by
design and by test (``tests/obs/test_deniability.py``):

* **RAM-only** — no metric, span, slow-op record or event ever allocates
  a block, opens a file, or reaches any device.  Running a workload with
  observability on and off yields byte-identical disk images.
* **Scrubbed** — exported records carry operation names, sizes, counts
  and durations; never keys, security levels, or hidden-object names, in
  any spelling.

Five parts:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricRegistry` of
  named counters, gauges and fixed-bucket histograms (one creation
  lock, lock-free lookup, O(1) record, mergeable snapshots, text
  exposition).  ``ServiceStats``,
  ``TxnStats``, ``CacheStats``, ``ServerStats`` and the cluster counters
  all mirror onto it.
* :mod:`repro.obs.trace` — span-tree tracing with ``contextvars``
  propagation, instrumented at every seam (device batch I/O, journal
  commit/fsync, service dispatch, net request/response, cluster fan-out
  legs).  Trace context rides the wire protocol as an optional frame
  field, so one client op yields a single cross-process span tree.
* :mod:`repro.obs.slowlog` — a bounded in-memory ring of structured
  records for operations over a latency threshold, with span
  attribution, plus a general event ring (shard health transitions,
  probe results).
* :mod:`repro.obs.admin` — read-only ``obs_metrics`` / ``obs_slowlog`` /
  ``obs_trace`` / ``obs_events`` / ``obs_snapshot`` service ops, exposed
  through :class:`~repro.net.server.StegFSServer` and both clients, and
  a ``python -m repro.obs`` CLI against a live server (including the
  cluster ``scrape`` / ``top`` subcommands).
* :mod:`repro.obs.cluster` + :mod:`repro.obs.rules` — the pull-based
  cluster telemetry plane: a :class:`TelemetryCollector` scrapes every
  shard's ``obs_snapshot`` document, keeps a per-shard
  :class:`TimeSeriesRing` (counter rates, histogram deltas, windowed
  percentiles), merges labeled snapshots cluster-wide, stitches
  cross-shard traces, and evaluates declarative alert rules
  (dead/flapping shards, quorum widening, error-budget burn, fsync tail
  latency, straggler backlog).
* :mod:`repro.obs.steg` — the deniability observatory: reduces the
  scraped ``steg.alloc.blocks`` / ``steg.dummy.updates`` series through
  :class:`~repro.analysis.timeline.SnapshotTimeline` into the timing
  features a multi-disk snapshot attacker would extract, fuses them
  into a :class:`DetectabilityScore` exported as ``steg.detectability.*``
  gauges, the read-only ``obs_deniability`` admin op, the
  ``detectability_budget`` alert rule and ``python -m repro.obs
  deniability`` (see ``docs/deniability.md``).

**Kill switch** — ``REPRO_OBS=off`` in the environment (or
:func:`set_enabled`\\ ``(False)`` at runtime) turns every instrument into
a cheap no-op; what the instruments cost when on is counted by stegbench
as ``obs.registry_events_per_op`` and ``obs.registry_inc_ns``.
"""

from __future__ import annotations

__all__ = [
    "EventRing",
    "Histogram",
    "MetricRegistry",
    "Reservoir",
    "SlowLog",
    "Span",
    "Tracer",
    "enabled",
    "get_events",
    "get_registry",
    "get_slowlog",
    "get_tracer",
    "maybe_span",
    "percentile",
    "set_enabled",
]


from repro.obs._state import enabled, set_enabled
from repro.obs.metrics import (
    Histogram,
    MetricRegistry,
    Reservoir,
    get_registry,
    percentile,
)
from repro.obs.slowlog import EventRing, SlowLog, get_events, get_slowlog
from repro.obs.trace import Span, Tracer, get_tracer, maybe_span
