"""Declarative alert rules over scraped cluster telemetry.

A :class:`Rule` is a named, severity-tagged predicate over one scrape
sweep (the :class:`~repro.obs.cluster.ClusterView`) plus the per-shard
time-series rings; it returns zero or more *firings*, each attributed
to a shard (or to the cluster as a whole).  The :class:`RuleEngine`
tracks firing/resolved edges across sweeps: a new firing emits an
``obs.alert`` event into the process :class:`~repro.obs.slowlog.
EventRing` (state ``firing``), a disappearing one emits ``resolved``,
and both edges invoke optional operator callbacks.  Alerts that stay
firing are updated in place — no event spam while a shard stays down.

The built-in set (:func:`default_rules`) covers the failure shapes the
cluster tier actually produces:

* ``dead_shard`` — a shard is unreachable or voted dead by the health
  monitor.
* ``flapping_shard`` — scrape liveness flipped repeatedly inside the
  window (a dying-not-dead shard, worse than a dead one).
* ``quorum_widening`` — the coordinator is widening read quorums at a
  sustained rate (replicas disagree; repair is running behind).
* ``error_budget_burn`` — failed ops exceed the error budget across
  the window's traffic.
* ``fsync_p99`` — journal fsync latency p99 over the window crossed
  the threshold (durability is about to become the bottleneck).
* ``straggler_backlog`` — the async write path's straggler backlog is
  growing sweep over sweep (legs piling up behind a dying shard).
* ``detectability_budget`` — the deniability observatory's fused
  steganalysis score (cross-shard churn synchrony, per-shard
  periodicity; :mod:`repro.obs.steg`) burst its budget: the fleet is
  behaving like a fleet, which is exactly what a multi-disk snapshot
  attacker looks for.

Alert payloads obey the scrub rules by construction: rule names,
shard ids, counts and thresholds — never keys, levels or hidden names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs.slowlog import get_events

__all__ = [
    "Alert",
    "Firing",
    "Rule",
    "RuleEngine",
    "dead_shard_rule",
    "default_rules",
    "error_budget_rule",
    "flapping_shard_rule",
    "fsync_p99_rule",
    "quorum_widening_rule",
    "straggler_backlog_rule",
]


@dataclass
class Firing:
    """One rule's verdict for one shard (``shard=None`` = cluster-wide)."""

    shard: str | None
    message: str
    value: float = 0.0


@dataclass(frozen=True)
class Rule:
    """A named predicate evaluated once per scrape sweep.

    ``check`` receives the sweep's view and the per-shard rings and
    returns the currently-true firings; the engine handles edges.
    """

    name: str
    severity: str
    check: Callable[[Any, Mapping[str, Any]], list[Firing]]


@dataclass
class Alert:
    """A firing rule instance, tracked across sweeps."""

    rule: str
    severity: str
    shard: str | None
    message: str
    since: float
    value: float = 0.0
    last_seen: float = field(default=0.0)

    def key(self) -> tuple[str, str | None]:
        return (self.rule, self.shard)

    def to_dict(self) -> dict:
        """JSON-ready copy (CLI / event payloads)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "shard": self.shard,
            "message": self.message,
            "since": self.since,
            "value": self.value,
        }


class RuleEngine:
    """Evaluate rules per sweep; emit alert edges into the event ring."""

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        *,
        on_alert: Callable[[Alert, str], None] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._rules = list(rules)
        self._on_alert = on_alert
        self._clock = clock
        self._active: dict[tuple[str, str | None], Alert] = {}

    @property
    def rules(self) -> list[Rule]:
        """The evaluated rules (a copy)."""
        return list(self._rules)

    def active(self) -> list[Alert]:
        """Currently-firing alerts, ordered by rule then shard."""
        return sorted(
            self._active.values(), key=lambda a: (a.rule, a.shard or "")
        )

    def _edge(self, alert: Alert, state: str) -> None:
        get_events().emit(
            "obs.alert",
            state=state,
            rule=alert.rule,
            severity=alert.severity,
            shard=alert.shard,
            message=alert.message,
            value=alert.value,
        )
        if self._on_alert is not None:
            try:
                self._on_alert(alert, state)
            except Exception:
                pass  # operator callbacks must never break the sweep

    def evaluate(self, view: Any, rings: Mapping[str, Any]) -> list[Alert]:
        """Run every rule; fire/resolve edges; return the firing set."""
        now = self._clock()
        current: dict[tuple[str, str | None], Alert] = {}
        for rule in self._rules:
            try:
                firings = rule.check(view, rings)
            except Exception:
                continue  # one broken rule must not silence the others
            for firing in firings:
                key = (rule.name, firing.shard)
                alert = self._active.get(key)
                if alert is None:
                    alert = Alert(
                        rule=rule.name,
                        severity=rule.severity,
                        shard=firing.shard,
                        message=firing.message,
                        since=now,
                    )
                alert.message = firing.message
                alert.value = firing.value
                alert.last_seen = now
                current[key] = alert
        for key, alert in current.items():
            if key not in self._active:
                self._edge(alert, "firing")
        for key, alert in self._active.items():
            if key not in current:
                self._edge(alert, "resolved")
        self._active = current
        return self.active()


# ---------------------------------------------------------------------------
# built-in rules
# ---------------------------------------------------------------------------


def dead_shard_rule() -> Rule:
    """A shard is unreachable, or the health monitor routed around it."""

    def check(view: Any, rings: Mapping[str, Any]) -> list[Firing]:
        out = []
        for sid, state in sorted(view.states().items()):
            if state != "alive":
                out.append(
                    Firing(
                        shard=sid,
                        message=f"shard {sid} is {state}",
                        value=1.0,
                    )
                )
        return out

    return Rule(name="dead_shard", severity="critical", check=check)


def flapping_shard_rule(
    window_s: float = 60.0, min_flips: int = 3
) -> Rule:
    """Scrape liveness flipped ≥ ``min_flips`` times within the window."""

    def check(view: Any, rings: Mapping[str, Any]) -> list[Firing]:
        out = []
        for sid in sorted(rings):
            samples = rings[sid].samples()
            if samples:
                horizon = samples[-1]["ts_unix"] - window_s
                samples = [s for s in samples if s["ts_unix"] >= horizon]
            flips = 0
            previous: bool | None = None
            for sample in samples:
                ok = bool(sample.get("_scrape", {}).get("ok", True))
                if previous is not None and ok != previous:
                    flips += 1
                previous = ok
            if flips >= min_flips:
                out.append(
                    Firing(
                        shard=sid,
                        message=(
                            f"shard {sid} flapped {flips} times in "
                            f"{window_s:g}s"
                        ),
                        value=float(flips),
                    )
                )
        return out

    return Rule(name="flapping_shard", severity="critical", check=check)


def quorum_widening_rule(
    per_second: float = 0.5, window_s: float = 30.0
) -> Rule:
    """Sustained quorum widenings: replicas disagree faster than repair.

    Hedged legs (``cluster.async.hedged_reads``) are deliberately not
    counted: a slow shard is not a disagreeing one.
    """

    def check(view: Any, rings: Mapping[str, Any]) -> list[Firing]:
        total = sum(
            ring.rate("cluster.async.quorum_widenings", window_s)
            for ring in rings.values()
        )
        if total > per_second:
            return [
                Firing(
                    shard=None,
                    message=(
                        f"quorum widenings at {total:.2f}/s "
                        f"(threshold {per_second:g}/s)"
                    ),
                    value=total,
                )
            ]
        return []

    return Rule(name="quorum_widening", severity="warning", check=check)


def error_budget_rule(budget: float = 0.01, window_s: float = 60.0) -> Rule:
    """Failed service ops exceed ``budget`` of the window's traffic."""

    def check(view: Any, rings: Mapping[str, Any]) -> list[Firing]:
        out = []
        for sid in sorted(rings):
            ring = rings[sid]
            latest = ring.latest() or {}
            metrics = latest.get("metrics", {})
            ops = 0
            errors = 0.0
            for name in metrics:
                if name.startswith("service.op.") and name.endswith(
                    ".latency_ms"
                ):
                    ops += ring.histogram_delta(name, window_s)["count"]
                elif name.startswith("service.op.") and name.endswith(
                    ".errors"
                ):
                    series = ring.series(name, window_s)
                    if len(series) >= 2:
                        errors += max(0.0, series[-1][1] - series[0][1])
            if ops and errors / ops > budget:
                out.append(
                    Firing(
                        shard=sid,
                        message=(
                            f"shard {sid} error rate {errors / ops:.1%} "
                            f"exceeds budget {budget:.1%}"
                        ),
                        value=errors / ops,
                    )
                )
        return out

    return Rule(name="error_budget_burn", severity="warning", check=check)


def fsync_p99_rule(threshold_ms: float = 100.0, window_s: float = 60.0) -> Rule:
    """Journal fsync latency p99 over the window crossed the threshold."""

    def check(view: Any, rings: Mapping[str, Any]) -> list[Firing]:
        out = []
        for sid in sorted(rings):
            p99 = rings[sid].windowed_percentile(
                "journal.fsync_ms", 99.0, window_s
            )
            if p99 > threshold_ms:
                out.append(
                    Firing(
                        shard=sid,
                        message=(
                            f"shard {sid} fsync p99 {p99:.1f}ms over "
                            f"{threshold_ms:g}ms"
                        ),
                        value=p99,
                    )
                )
        return out

    return Rule(name="fsync_p99", severity="warning", check=check)


def straggler_backlog_rule(min_samples: int = 3) -> Rule:
    """The async straggler backlog grew across the last ``min_samples``
    sweeps and is still non-empty (drains piling up behind a shard)."""

    name = "cluster.async.stragglers.pending"

    def check(view: Any, rings: Mapping[str, Any]) -> list[Firing]:
        out = []
        for sid in sorted(rings):
            series = rings[sid].series(name)
            if len(series) < min_samples:
                continue
            tail = [value for _, value in series[-min_samples:]]
            growing = all(a < b for a, b in zip(tail, tail[1:]))
            if growing and tail[-1] > 0:
                out.append(
                    Firing(
                        shard=sid,
                        message=(
                            f"straggler backlog on {sid} grew to "
                            f"{tail[-1]:g} over {min_samples} sweeps"
                        ),
                        value=tail[-1],
                    )
                )
        return out

    return Rule(name="straggler_backlog", severity="warning", check=check)


def default_rules() -> list[Rule]:
    """The built-in rule set, each rule at its factory's own thresholds.

    A collector that wants other thresholds passes its own ``rules=[…]``.
    The detectability rule caps the fused steganalysis score from
    :mod:`repro.obs.steg` (imported lazily: that module builds on this
    one's :class:`Rule`/:class:`Firing` types).
    """
    from repro.obs.steg import detectability_budget_rule

    return [
        dead_shard_rule(),
        flapping_shard_rule(),
        quorum_widening_rule(),
        error_budget_rule(),
        fsync_p99_rule(),
        straggler_backlog_rule(),
        detectability_budget_rule(),
    ]
