"""Process-wide metric registry: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

* **O(1) record** — instruments are plain objects with one small lock;
  hot paths hold a direct reference or a lock-free dict lookup.  The
  registry's one lock guards metric *creation* (once per name) and
  catalog iteration; recording never takes it.
* **RAM-only** — nothing here imports a device, opens a file, or keeps a
  reference to anything that could; snapshots and exposition are strings
  and dicts built on demand.
* **Mergeable snapshots** — :meth:`MetricRegistry.snapshot` returns plain
  nested dicts; :func:`merge_snapshots` folds several processes' (or
  runs') snapshots into one, which is how multi-process benches aggregate.
* **Scrubbed names** — metric names identify subsystems and operations
  (``service.ops.steg_read``), never objects: no hidden names, keys or
  security levels may appear in a name or snapshot (enforced by
  ``tests/obs/test_deniability.py``).

The shared percentile machinery lives here too: :func:`percentile`
(nearest-rank) and :class:`Reservoir` (Vitter's algorithm R with a
deterministic, caller-locked RNG) are the single implementation that
``ServiceStats`` and the journal's batch percentiles build on;
:func:`bucket_percentile` is the one bucket-resolution estimate behind
histograms and the collector's windowed views.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Iterable, Sequence

from repro.obs._state import enabled

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Reservoir",
    "bucket_percentile",
    "escape_label_value",
    "get_registry",
    "merge_snapshots",
    "normalize_snapshot",
    "percentile",
    "render_labeled_text",
]

#: Default histogram bucket upper bounds in milliseconds: sub-ms cache
#: hits through multi-second cluster fan-outs, roughly ×2.5 per step.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)


# ---------------------------------------------------------------------------
# shared percentile / reservoir primitives
# ---------------------------------------------------------------------------


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sequence.

    The single implementation behind ``OpStats.percentile_ms``, the
    journal's batch percentiles and the registry histograms' estimates;
    empty input yields 0.0.
    """
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return float(ordered[rank])


def bucket_percentile(buckets: dict[float, int], count: int, p: float, overflow: float) -> float:
    """Bucket-resolution percentile: the upper bound of the bucket holding
    rank ``p`` of ``count`` observations, else ``overflow`` (the observed
    max, for ranks past the last bound); no observations yield 0.0."""
    if count <= 0:
        return 0.0
    target = max(1, int(round(p / 100.0 * count)))
    running = 0
    for le in sorted(buckets):
        running += buckets[le]
        if running >= target:
            return float(le)
    return overflow


class Reservoir:
    """Bounded unbiased sample of a stream (Vitter's algorithm R).

    Replacement draws come from ``rng`` — pass a deterministically seeded
    ``random.Random`` so percentiles are repeatable for a given call
    sequence (the benches rely on this).  The reservoir itself is **not**
    locked: the owner serialises :meth:`add` (``ServiceStats`` holds its
    one lock around every reservoir *and* the shared RNG — see the
    locking invariant documented there) or uses a private instance.
    """

    __slots__ = ("_size", "_rng", "_samples", "seen")

    def __init__(self, size: int, rng: random.Random | None = None) -> None:
        if size <= 0:
            raise ValueError(f"reservoir size must be positive, got {size}")
        self._size = size
        self._rng = rng if rng is not None else random.Random(0x5E5)
        self._samples: list[float] = []
        #: Stream length observed so far (admissions + replacements).
        self.seen = 0

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def size(self) -> int:
        """Capacity bound."""
        return self._size

    def add(self, value: float) -> None:
        """Offer one observation (admitted or replacing, per algorithm R)."""
        if len(self._samples) < self._size:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self.seen + 1)
            if slot < self._size:
                self._samples[slot] = value
        self.seen += 1

    def values(self) -> tuple[float, ...]:
        """Current samples, ascending (a copy)."""
        return tuple(sorted(self._samples))

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the current samples."""
        return percentile(self.values(), p)


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------


class Counter:
    """Monotonically increasing count; O(1) thread-safe increments."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, by: int = 1) -> None:
        """Add ``by`` (no-op while observability is disabled)."""
        if not enabled():
            return
        with self._lock:
            self._value += by

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down, or is computed on demand.

    A callback gauge (``fn`` given) reads its function at snapshot time —
    used for "current" quantities someone else already tracks (cached
    blocks, open connections) without double bookkeeping.
    """

    __slots__ = ("name", "help", "_lock", "_value", "_fn")

    def __init__(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        if not enabled():
            return
        with self._lock:
            self._value = float(value)

    def add(self, by: float) -> None:
        """Adjust the gauge by ``by`` (may be negative)."""
        if not enabled():
            return
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        """Current value (calls the callback for function-backed gauges)."""
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return 0.0
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution: O(buckets) memory, O(log b) record.

    Buckets are cumulative-style upper bounds (``le``); everything above
    the last bound lands in the implicit ``+Inf`` bucket.  ``count``,
    ``sum``, ``min`` and ``max`` ride along, so snapshots can report both
    bucket shapes and exact means.
    """

    __slots__ = ("name", "help", "_lock", "_bounds", "_counts", "count", "sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot: +Inf
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def bounds(self) -> tuple[float, ...]:
        """Bucket upper bounds (ascending, +Inf implicit)."""
        return self._bounds

    def _bucket_of(self, value: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        """Record one observation (no-op while disabled)."""
        if not enabled():
            return
        slot = self._bucket_of(value)
        with self._lock:
            self._counts[slot] += 1
            self.count += 1
            self.sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> dict:
        """Bucket counts plus count/sum/min/max/mean as plain data."""
        with self._lock:
            counts = list(self._counts)
            count, total = self.count, self.sum
            mn = self._min if count else 0.0
            mx = self._max if count else 0.0
        return {
            "buckets": {le: c for le, c in zip(self._bounds, counts)},
            "inf": counts[-1],
            "count": count,
            "sum": total,
            "min": mn,
            "max": mx,
            "mean": total / count if count else 0.0,
        }

    def percentile(self, p: float) -> float:
        """Bucket-resolution percentile estimate (upper bound of the
        bucket holding the target rank; ``max`` for the +Inf bucket)."""
        with self._lock:
            buckets = dict(zip(self._bounds, self._counts))
            count, mx = self.count, self._max
        return bucket_percentile(buckets, count, p, mx)


Metric = Counter | Gauge | Histogram


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class MetricRegistry:
    """Named instruments for one process.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create and
    idempotent; asking for an existing name with a different instrument
    type raises, so two subsystems cannot silently alias one metric.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        # Guards registration and catalog copies; a lookup of an existing
        # name (every record after the first) reads the dict without it.
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory: Callable[[], Metric], kind: type) -> Metric:
        if not name:
            raise ValueError("metric name must be non-empty")
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = factory()
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a counter."""
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> Gauge:
        """Get or create a gauge (optionally function-backed)."""
        return self._get_or_create(name, lambda: Gauge(name, help, fn), Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get_or_create(name, lambda: Histogram(name, help, buckets), Histogram)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Metric | None:
        """The instrument behind ``name``, if registered."""
        with self._lock:
            return self._metrics.get(name)

    def unregister(self, name: str) -> None:
        """Drop one metric (tests; production metrics live forever)."""
        with self._lock:
            self._metrics.pop(name, None)

    def reset(self) -> None:
        """Drop every metric (tests only — references held by
        instrumented code keep counting into the orphaned objects)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    # snapshots and exposition
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time copy of every metric as plain nested dicts.

        Shape per metric: ``{"type": "counter"|"gauge"|"histogram",
        "value"| histogram fields...}`` — mergeable with
        :func:`merge_snapshots` and JSON-serialisable as-is.
        """
        with self._lock:
            items = list(self._metrics.items())
        out: dict[str, dict] = {}
        for name, metric in sorted(items):
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value}
            else:
                data = metric.snapshot()
                data["type"] = "histogram"
                out[name] = data
        return out

    def render_text(self) -> str:
        """Text exposition: one ``name value`` line per sample.

        Counters/gauges are single lines; histograms expand into
        cumulative ``{le=...}`` lines plus ``_count``/``_sum``, the shape
        scrapers and the benches' result tables both consume.
        """
        return render_labeled_text(self.snapshot())


def merge_snapshots(snapshots: Iterable[dict[str, dict]]) -> dict[str, dict]:
    """Fold several registry snapshots into one (sum counters and
    histogram buckets, last-write-wins for gauges).

    Lets multi-process benches aggregate per-worker registries, and a
    coordinator fold per-shard server snapshots into a cluster view.
    """
    merged: dict[str, dict] = {}
    for snap in snapshots:
        for name, data in snap.items():
            if name not in merged:
                merged[name] = {
                    **data,
                    **(
                        {"buckets": dict(data["buckets"])}
                        if data["type"] == "histogram"
                        else {}
                    ),
                }
                continue
            base = merged[name]
            if base["type"] != data["type"]:
                raise TypeError(
                    f"cannot merge {name!r}: {base['type']} vs {data['type']}"
                )
            if data["type"] == "counter":
                base["value"] += data["value"]
            elif data["type"] == "gauge":
                base["value"] = data["value"]
            else:
                for le, count in data["buckets"].items():
                    base["buckets"][le] = base["buckets"].get(le, 0) + count
                base["inf"] += data["inf"]
                nonempty_before = base["count"] > 0
                base["count"] += data["count"]
                base["sum"] += data["sum"]
                if data["count"]:
                    # An empty part encodes min/max as 0.0 — those are
                    # placeholders, not observations, so only real parts
                    # may participate in the min/max fold (anything else
                    # breaks merge associativity).
                    if nonempty_before:
                        base["min"] = min(base["min"], data["min"])
                        base["max"] = max(base["max"], data["max"])
                    else:
                        base["min"] = data["min"]
                        base["max"] = data["max"]
                base["mean"] = base["sum"] / base["count"] if base["count"] else 0.0
    return merged


def normalize_snapshot(snapshot: dict[str, dict]) -> dict[str, dict]:
    """Undo a JSON round-trip's damage to a registry snapshot.

    JSON object keys are always strings, so a snapshot that crossed the
    wire comes back with histogram bucket bounds as ``"0.5"`` instead of
    ``0.5`` — and merging it with a local float-keyed snapshot would
    silently double the bucket space.  Returns a deep-enough copy with
    every bucket key coerced back to float; counters and gauges pass
    through untouched.
    """
    out: dict[str, dict] = {}
    for name, data in snapshot.items():
        if data.get("type") == "histogram":
            fixed = dict(data)
            fixed["buckets"] = {
                float(le): count for le, count in data["buckets"].items()
            }
            out[name] = fixed
        else:
            out[name] = dict(data)
    return out


def escape_label_value(value: str) -> str:
    """Escape a label value for text exposition (backslash, quote, newline)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_labeled_text(
    snapshot: dict[str, dict], labels: dict[str, str] | None = None
) -> str:
    """Text exposition of one snapshot, with optional labels on every line.

    The rendering behind :meth:`MetricRegistry.render_text` (no labels)
    and the cluster collector's per-shard view (``shard="s0"`` on each
    sample).  Label values are escaped; histogram bucket keys may be
    floats or strings (post-JSON snapshots).
    """
    pairs = [
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in (labels or {}).items()
    ]

    def fmt(extra: list[str]) -> str:
        merged_pairs = pairs + extra
        return "{" + ",".join(merged_pairs) + "}" if merged_pairs else ""

    lines: list[str] = []
    for name, data in sorted(snapshot.items()):
        if data["type"] in ("counter", "gauge"):
            value = data["value"]
            rendered = f"{value:.6f}".rstrip("0").rstrip(".") if isinstance(
                value, float
            ) else str(value)
            lines.append(f"{name}{fmt([])} {rendered}")
            continue
        running = 0
        for le, count in data["buckets"].items():
            running += count
            bucket_label = 'le="{:g}"'.format(float(le))
            lines.append(f"{name}{fmt([bucket_label])} {running}")
        running += data["inf"]
        inf_label = 'le="+Inf"'
        lines.append(f"{name}{fmt([inf_label])} {running}")
        lines.append(f"{name}_count{fmt([])} {data['count']}")
        lines.append(f"{name}_sum{fmt([])} {data['sum']:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry every subsystem records into by default.
REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide default registry."""
    return REGISTRY
