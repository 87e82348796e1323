"""Unit tests for the metric registry and the shared percentile machinery."""

from __future__ import annotations

import random
import threading

import pytest

from repro.obs import set_enabled
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Reservoir,
    merge_snapshots,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_nearest_rank_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 5.0
        assert percentile(data, 50.0) == 3.0


class TestReservoir:
    def test_fills_then_bounds(self):
        res = Reservoir(8, rng=random.Random(1))
        for value in range(20):
            res.add(float(value))
        assert len(res) == 8
        assert res.seen == 20

    def test_deterministic_for_a_seed(self):
        def run() -> tuple[float, ...]:
            res = Reservoir(16, rng=random.Random(0x5E5))
            for value in range(1000):
                res.add(float(value))
            return res.values()

        assert run() == run()

    def test_small_stream_is_exact(self):
        res = Reservoir(100, rng=random.Random(2))
        for value in (4.0, 1.0, 3.0, 2.0):
            res.add(value)
        assert res.values() == (1.0, 2.0, 3.0, 4.0)
        assert res.percentile(100.0) == 4.0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Reservoir(0)


class TestInstruments:
    def test_counter_counts(self):
        counter = Counter("t.counter")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_add_and_callback(self):
        gauge = Gauge("t.gauge")
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == 7.0
        backed = Gauge("t.fn", fn=lambda: 42)
        assert backed.value == 42.0
        broken = Gauge("t.broken", fn=lambda: 1 / 0)
        assert broken.value == 0.0

    def test_histogram_buckets_and_percentile(self):
        hist = Histogram("t.hist", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {1.0: 1, 10.0: 1, 100.0: 1}
        assert snap["inf"] == 1
        assert snap["count"] == 4
        assert snap["min"] == 0.5 and snap["max"] == 500.0
        # p50 lands in the second bucket -> its upper bound.
        assert hist.percentile(50.0) == 10.0
        # p100 lands in +Inf -> the observed max.
        assert hist.percentile(100.0) == 500.0

    def test_disabled_records_nothing(self):
        counter = Counter("t.off")
        hist = Histogram("t.off.h", buckets=(1.0,))
        gauge = Gauge("t.off.g")
        set_enabled(False)
        try:
            counter.inc()
            hist.observe(5.0)
            gauge.set(9.0)
        finally:
            set_enabled(True)
        assert counter.value == 0
        assert hist.snapshot()["count"] == 0
        assert gauge.value == 0.0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("")

    def test_snapshot_shape(self):
        reg = MetricRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(10.0,)).observe(4.0)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"] == {"type": "gauge", "value": 1.5}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["buckets"] == {10.0: 1}

    def test_render_text_lines(self):
        reg = MetricRegistry()
        reg.counter("requests").inc(7)
        reg.histogram("lat", buckets=(1.0, 5.0)).observe(0.5)
        text = reg.render_text()
        assert "requests 7" in text
        assert 'lat{le="1"} 1' in text
        assert 'lat{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_concurrent_creation_yields_one_instrument(self):
        reg = MetricRegistry()
        got: list[Counter] = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            got.append(reg.counter("contended"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in got}) == 1


class TestMergeSnapshots:
    def test_merges_counters_and_histograms(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(5)
        a.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        b.histogram("h", buckets=(1.0, 10.0)).observe(7.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["n"]["value"] == 7
        assert merged["h"]["count"] == 2
        assert merged["h"]["buckets"] == {1.0: 1, 10.0: 1}
        assert merged["h"]["max"] == 7.0

    def test_gauge_last_write_wins(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["g"]["value"] == 9.0

    def test_type_clash_raises(self):
        a = MetricRegistry()
        b = MetricRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1.0)
        with pytest.raises(TypeError):
            merge_snapshots([a.snapshot(), b.snapshot()])
