"""The rules engine and every built-in rule, driven by synthetic rings.

Each built-in rule gets the smallest ring history that should trip it
and the nearest history that should not, so thresholds are pinned from
both sides.  Engine mechanics (edges, incident identity, misbehaving
rules and callbacks) are covered with hand-rolled rules.
"""

from __future__ import annotations

from repro.obs.cluster import ClusterView, ShardSample, TimeSeriesRing
from repro.obs.rules import (
    Firing,
    Rule,
    RuleEngine,
    error_budget_rule,
    flapping_shard_rule,
    fsync_p99_rule,
    quorum_widening_rule,
    straggler_backlog_rule,
)
from repro.obs.slowlog import get_events


def entry(ts: float, metrics: dict | None = None, ok: bool = True) -> dict:
    return {"ts_unix": ts, "metrics": metrics or {}, "_scrape": {"ok": ok}}


def counter(value: float) -> dict:
    return {"type": "counter", "value": value}


def gauge(value: float) -> dict:
    return {"type": "gauge", "value": value}


def histogram(buckets: dict, count: int, total: float, maximum: float) -> dict:
    return {
        "type": "histogram",
        "buckets": buckets,
        "inf": 0,
        "count": count,
        "sum": total,
        "min": 0.0,
        "max": maximum,
        "mean": total / count if count else 0.0,
    }


def view_of(states: dict[str, str]) -> ClusterView:
    samples = {
        sid: ShardSample(shard_id=sid, ok=state != "unreachable", ts=0.0, state=state)
        for sid, state in states.items()
    }
    return ClusterView(ts=0.0, samples=samples, merged={})


def ring_of(*entries: dict) -> TimeSeriesRing:
    ring = TimeSeriesRing(max(2, len(entries)))
    for item in entries:
        ring.append(item)
    return ring


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


class TestRuleEngine:
    def always(self, name: str = "r") -> Rule:
        return Rule(
            name=name,
            severity="warning",
            check=lambda view, rings: [Firing(shard="s0", message="m")],
        )

    def test_edges_fire_once_and_resolve_once(self):
        clock = {"now": 100.0}
        edges = []
        firing = {"on": True}
        rule = Rule(
            name="toggle",
            severity="critical",
            check=lambda view, rings: (
                [Firing(shard="s0", message="down")] if firing["on"] else []
            ),
        )
        engine = RuleEngine(
            [rule],
            on_alert=lambda alert, state: edges.append((alert.rule, state)),
            clock=lambda: clock["now"],
        )
        view = view_of({"s0": "alive"})

        first = engine.evaluate(view, {})
        assert [a.since for a in first] == [100.0]
        clock["now"] = 105.0
        second = engine.evaluate(view, {})
        assert [a.since for a in second] == [100.0]  # same incident
        assert second[0].last_seen == 105.0

        firing["on"] = False
        assert engine.evaluate(view, {}) == []
        assert edges == [("toggle", "firing"), ("toggle", "resolved")]

        alert_events = get_events().events(kind="obs.alert", limit=16)
        assert [e["state"] for e in alert_events] == ["resolved", "firing"]

    def test_broken_rule_does_not_silence_others(self):
        def explode(view, rings):
            raise RuntimeError("bad rule")

        engine = RuleEngine(
            [Rule(name="broken", severity="warning", check=explode), self.always()]
        )
        alerts = engine.evaluate(view_of({}), {})
        assert [a.rule for a in alerts] == ["r"]

    def test_callback_errors_are_swallowed(self):
        def bad_callback(alert, state):
            raise RuntimeError("operator bug")

        engine = RuleEngine([self.always()], on_alert=bad_callback)
        assert [a.rule for a in engine.evaluate(view_of({}), {})] == ["r"]

    def test_active_is_sorted_by_rule_then_shard(self):
        rules = [
            Rule(
                name=name,
                severity="warning",
                check=lambda view, rings, name=name: [
                    Firing(shard=shard, message="m")
                    for shard in ("s1", "s0", None)
                ],
            )
            for name in ("zeta", "alpha")
        ]
        engine = RuleEngine(rules)
        alerts = engine.evaluate(view_of({}), {})
        assert [(a.rule, a.shard) for a in alerts] == [
            ("alpha", None),
            ("alpha", "s0"),
            ("alpha", "s1"),
            ("zeta", None),
            ("zeta", "s0"),
            ("zeta", "s1"),
        ]


# ---------------------------------------------------------------------------
# built-in rules
# ---------------------------------------------------------------------------


class TestFlappingShard:
    def test_fires_on_repeated_liveness_flips(self):
        ring = ring_of(
            entry(0.0, ok=True),
            entry(1.0, ok=False),
            entry(2.0, ok=True),
            entry(3.0, ok=False),
        )
        rule = flapping_shard_rule(window_s=60.0, min_flips=3)
        (firing,) = rule.check(view_of({}), {"s0": ring})
        assert firing.shard == "s0"
        assert firing.value == 3.0

    def test_stable_or_singly_failed_shard_does_not_fire(self):
        stable = ring_of(entry(0.0), entry(1.0), entry(2.0))
        one_dip = ring_of(entry(0.0), entry(1.0, ok=False), entry(2.0))
        rule = flapping_shard_rule(window_s=60.0, min_flips=3)
        assert rule.check(view_of({}), {"s0": stable, "s1": one_dip}) == []

    def test_old_flips_age_out_of_the_window(self):
        ring = ring_of(
            entry(0.0, ok=True),
            entry(1.0, ok=False),
            entry(2.0, ok=True),
            entry(3.0, ok=False),
            entry(100.0, ok=True),
        )
        rule = flapping_shard_rule(window_s=10.0, min_flips=3)
        assert rule.check(view_of({}), {"s0": ring}) == []


class TestQuorumWidening:
    def test_fires_cluster_wide_on_sustained_rate(self):
        ring = ring_of(
            entry(0.0, {"cluster.async.quorum_widenings": counter(0)}),
            entry(10.0, {"cluster.async.quorum_widenings": counter(10)}),
        )
        rule = quorum_widening_rule(per_second=0.5, window_s=30.0)
        (firing,) = rule.check(view_of({}), {"s0": ring})
        assert firing.shard is None
        assert firing.value == 1.0

    def test_async_counter_counts_too_and_slow_rate_does_not_fire(self):
        fast = ring_of(
            entry(0.0, {"cluster.async.quorum_widenings": counter(0)}),
            entry(10.0, {"cluster.async.quorum_widenings": counter(10)}),
        )
        slow = ring_of(
            entry(0.0, {"cluster.async.quorum_widenings": counter(0)}),
            entry(10.0, {"cluster.async.quorum_widenings": counter(1)}),
        )
        rule = quorum_widening_rule(per_second=0.5, window_s=30.0)
        assert len(rule.check(view_of({}), {"s0": fast})) == 1
        assert rule.check(view_of({}), {"s0": slow}) == []

    def test_hedges_over_a_merely_slow_shard_do_not_fire(self):
        ring = ring_of(
            entry(
                0.0,
                {
                    "cluster.async.hedged_reads": counter(0),
                    "cluster.async.quorum_widenings": counter(0),
                },
            ),
            entry(
                10.0,
                {
                    "cluster.async.hedged_reads": counter(100),
                    "cluster.async.quorum_widenings": counter(0),
                },
            ),
        )
        rule = quorum_widening_rule(per_second=0.5, window_s=30.0)
        assert rule.check(view_of({}), {"s0": ring}) == []


class TestErrorBudget:
    def ring_with(self, errors_then: float, errors_now: float) -> TimeSeriesRing:
        return ring_of(
            entry(
                0.0,
                {
                    "service.op.read.latency_ms": histogram({1.0: 0}, 0, 0.0, 0.0),
                    "service.op.read.errors": counter(errors_then),
                },
            ),
            entry(
                10.0,
                {
                    "service.op.read.latency_ms": histogram(
                        {1.0: 100}, 100, 50.0, 0.9
                    ),
                    "service.op.read.errors": counter(errors_now),
                },
            ),
        )

    def test_burn_over_budget_fires_per_shard(self):
        rule = error_budget_rule(budget=0.01, window_s=60.0)
        (firing,) = rule.check(
            view_of({}), {"s0": self.ring_with(0, 5)}
        )
        assert firing.shard == "s0"
        assert firing.value == 0.05

    def test_within_budget_is_quiet(self):
        rule = error_budget_rule(budget=0.01, window_s=60.0)
        assert rule.check(view_of({}), {"s0": self.ring_with(0, 1)}) == []


class TestFsyncP99:
    def ring_with(self, slow_fsyncs: int) -> TimeSeriesRing:
        buckets_then = {50.0: 0, 250.0: 0}
        buckets_now = {50.0: 100 - slow_fsyncs, 250.0: slow_fsyncs}
        return ring_of(
            entry(0.0, {"journal.fsync_ms": histogram(buckets_then, 0, 0.0, 0.0)}),
            entry(
                10.0,
                {"journal.fsync_ms": histogram(buckets_now, 100, 1000.0, 240.0)},
            ),
        )

    def test_slow_tail_fires(self):
        rule = fsync_p99_rule(threshold_ms=100.0, window_s=60.0)
        (firing,) = rule.check(view_of({}), {"s0": self.ring_with(5)})
        assert firing.shard == "s0"
        assert firing.value == 250.0

    def test_fast_fsyncs_are_quiet(self):
        rule = fsync_p99_rule(threshold_ms=100.0, window_s=60.0)
        assert rule.check(view_of({}), {"s0": self.ring_with(0)}) == []


class TestStragglerBacklog:
    NAME = "cluster.async.stragglers.pending"

    def test_monotone_growth_fires(self):
        ring = ring_of(
            entry(0.0, {self.NAME: gauge(1)}),
            entry(1.0, {self.NAME: gauge(3)}),
            entry(2.0, {self.NAME: gauge(7)}),
        )
        (firing,) = straggler_backlog_rule(min_samples=3).check(
            view_of({}), {"s0": ring}
        )
        assert firing.shard == "s0"
        assert firing.value == 7.0

    def test_draining_or_flat_backlog_is_quiet(self):
        draining = ring_of(
            entry(0.0, {self.NAME: gauge(7)}),
            entry(1.0, {self.NAME: gauge(3)}),
            entry(2.0, {self.NAME: gauge(1)}),
        )
        flat = ring_of(
            entry(0.0, {self.NAME: gauge(2)}),
            entry(1.0, {self.NAME: gauge(2)}),
            entry(2.0, {self.NAME: gauge(2)}),
        )
        rule = straggler_backlog_rule(min_samples=3)
        assert rule.check(view_of({}), {"s0": draining, "s1": flat}) == []

    def test_growth_to_zero_is_quiet(self):
        ring = ring_of(
            entry(0.0, {self.NAME: gauge(-2)}),
            entry(1.0, {self.NAME: gauge(-1)}),
            entry(2.0, {self.NAME: gauge(0)}),
        )
        assert (
            straggler_backlog_rule(min_samples=3).check(view_of({}), {"s0": ring})
            == []
        )
