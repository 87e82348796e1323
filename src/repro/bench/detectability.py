"""Detectability before/after jittered dummy scheduling — the knob's gate.

The deniability observatory (:mod:`repro.obs.steg`) claims that
fleet-wide lockstep dummy churn is a near-perfect timing signature and
that the :class:`~repro.cluster.dummy_sched.DummyScheduler`'s stagger +
jitter provably removes it.  This experiment prices both claims on a
four-shard embedded cluster driven entirely by a fake clock, so the
numbers are deterministic and CI-fast: the same scheduler, collector
and rule engine a deployment would run, just with time injected.

Two arms, identical except for the scheduler's knobs:

* **lockstep** — ``jitter=0, stagger=False``: every shard's churn lands
  on the same deadline, the naive per-shard "updates periodically".
* **jittered** — ``jitter=0.5, stagger=True``: per-shard gaps drawn
  from each volume's own seeded RNG, start phases spread.

Each arm scrapes at 1 Hz (fake), rebuilds the attacker's timeline from
the rings, and reports the fused :class:`DetectabilityScore`.  The CI
gates (``benchmarks/bench_detectability.py``): the lockstep arm's
cross-shard correlation must exceed 0.8 **and** fire the
``detectability_budget`` alert; the jittered arm must sit below the
correlation threshold, keep its fused score inside the 0.6 budget, and
fire nothing.

Run from the command line (``--smoke`` for the CI-sized configuration)::

    python -m repro.bench.detectability [--smoke]
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field

from repro.bench.common import format_table, write_result
from repro.cluster.dummy_sched import DummyScheduler
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.obs.cluster import TelemetryCollector
from repro.obs.steg import score_timeline, timeline_from_rings
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

__all__ = [
    "DetectabilityConfig",
    "DetectabilityResult",
    "run",
    "render",
    "main",
]

ARMS = ("lockstep", "jittered")


@dataclass(frozen=True)
class DetectabilityConfig:
    """Knobs for one lockstep-vs-jittered timing comparison."""

    shards: int = 4
    base_interval_s: float = 6.0
    scrape_interval_s: float = 1.0
    duration_s: float = 120.0
    #: ±60% rather than the scheduler's ±50% default: with only ~10-20
    #: events per arm the sample CV and correlation estimates are noisy,
    #: and the extra spread buys deterministic margin on every gate.
    jitter: float = 0.6
    block_size: int = 512
    total_blocks: int = 2048
    seed: int = 2003
    #: Gate: the lockstep arm must look at least this synchronised.
    lockstep_floor: float = 0.8
    #: Gate: the jittered arm's correlation must stay below this.
    jittered_ceiling: float = 0.35
    #: Gate: the jittered arm's fused score must stay inside the budget.
    budget: float = 0.6

    @classmethod
    def smoke(cls) -> "DetectabilityConfig":
        """CI-sized configuration (fake-clock, so only tick count shrinks)."""
        return cls(duration_s=60.0)


@dataclass
class DetectabilityResult:
    """Per-arm fused scores, event counts, and fired alerts."""

    config: DetectabilityConfig
    scores: dict[str, dict] = field(default_factory=dict)
    events: dict[str, dict[str, int]] = field(default_factory=dict)
    alerts: dict[str, list[str]] = field(default_factory=dict)

    def correlation(self, arm: str) -> float:
        value = self.scores.get(arm, {}).get("timing_correlation")
        return -1.0 if value is None else value

    def fused(self, arm: str) -> float:
        return self.scores.get(arm, {}).get("score", -1.0)

    @property
    def gate_ok(self) -> bool:
        """All four CI claims at once (see the module docstring)."""
        return (
            self.correlation("lockstep") >= self.config.lockstep_floor
            and "detectability_budget" in self.alerts.get("lockstep", [])
            and self.correlation("jittered") <= self.config.jittered_ceiling
            and self.fused("jittered") <= self.config.budget
            and "detectability_budget" not in self.alerts.get("jittered", [])
        )


def _run_arm(
    config: DetectabilityConfig, *, jitter: float, stagger: bool
) -> tuple[dict, dict[str, int], list[str]]:
    """One arm: fresh shards, scheduler + collector on one fake clock."""
    shards = {}
    for index in range(config.shards):
        steg = StegFS.mkfs(
            RamDevice(config.block_size, config.total_blocks),
            params=StegFSParams.for_tests(),
            inode_count=64,
            rng=random.Random(config.seed + index),
            auto_flush=False,
        )
        shards[f"shard-{index}"] = StegFSService(steg, max_workers=2)
    now = [0.0]
    try:
        collector = TelemetryCollector(
            shards,
            interval_s=config.scrape_interval_s,
            clock=lambda: now[0],
        )
        scheduler = DummyScheduler(
            shards,
            base_interval_s=config.base_interval_s,
            jitter=jitter,
            stagger=stagger,
            seed=config.seed,
            clock=lambda: now[0],
        )
        collector.scrape_once()
        steps = int(config.duration_s / config.scrape_interval_s)
        for _ in range(steps):
            now[0] += config.scrape_interval_s
            scheduler.poll(now[0])
            collector.scrape_once()
        rings = {sid: collector.ring(sid) for sid in collector.shard_ids}
        timeline = timeline_from_rings(rings)
        score = score_timeline(timeline)
        events = {
            shard: len(timeline.churn_events(shard))
            for shard in timeline.shards()
        }
        fired = sorted({alert.rule for alert in collector.alerts()})
        return score.to_dict(), events, fired
    finally:
        for shard in shards.values():
            shard.close()


def run(
    smoke: bool = False, config: DetectabilityConfig | None = None
) -> DetectabilityResult:
    """Both arms under identical workloads; only the scheduler differs."""
    config = config or (
        DetectabilityConfig.smoke() if smoke else DetectabilityConfig()
    )
    result = DetectabilityResult(config=config)
    for arm in ARMS:
        jitter = 0.0 if arm == "lockstep" else config.jitter
        stagger = arm != "lockstep"
        score, events, fired = _run_arm(config, jitter=jitter, stagger=stagger)
        result.scores[arm] = score
        result.events[arm] = events
        result.alerts[arm] = fired
    return result


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def render(result: DetectabilityResult) -> str:
    """Comparison table plus the gate verdicts; lands as an artifact."""
    config = result.config
    headers = ["arm", "corr", "periodicity", "alloc", "fused", "events/shard", "alerts"]
    rows = []
    for arm in ARMS:
        score = result.scores.get(arm, {})
        events = result.events.get(arm, {})
        counts = sorted(events.values())
        span = f"{counts[0]}–{counts[-1]}" if counts else "0"
        rows.append(
            [
                arm,
                _fmt(score.get("timing_correlation")),
                _fmt(score.get("churn_periodicity")),
                _fmt(score.get("alloc_predictability")),
                _fmt(score.get("score")),
                span,
                ",".join(result.alerts.get(arm, [])) or "-",
            ]
        )
    text = format_table(
        f"Detectability before/after jitter ({config.shards}-shard cluster, "
        f"base {config.base_interval_s:g}s, jitter ±{config.jitter:.0%}, "
        f"{config.duration_s:g}s fake-clock run)",
        headers,
        rows,
    )
    text += (
        f"\nGated: lockstep correlation ≥ {config.lockstep_floor:g} and fires "
        f"detectability_budget;\n"
        f"jittered correlation ≤ {config.jittered_ceiling:g}, fused score ≤ "
        f"{config.budget:g} budget, no alert.\n"
        f"Verdict: {'PASS' if result.gate_ok else 'FAIL'}.\n"
    )
    write_result("detectability", text)
    return text


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``--smoke`` for the CI configuration)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized configuration"
    )
    args = parser.parse_args(argv)
    result = run(smoke=args.smoke)
    print(render(result))
    if not result.gate_ok:
        print("FAIL: jitter did not clear the detectability budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
