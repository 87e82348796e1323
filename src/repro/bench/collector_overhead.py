"""Telemetry-collector overhead: a scraped cluster vs an unwatched one.

The cluster telemetry plane (:class:`~repro.obs.cluster.TelemetryCollector`)
promises to be cheap enough to leave running: one scrape per interval
walks every shard's ``obs_snapshot`` — a registry snapshot, a slowlog
digest and some JSON — entirely off the data path.  This experiment
prices that promise on the harshest honest setup: a four-shard embedded
cluster on RAM devices serving nothing but small hidden-file reads, with
a collector sweeping all shards (plus the coordinator process) at 1 Hz.
Embedded shards make the scrape maximally intrusive — collector and
workload share one process and one GIL, so every snapshot steals cycles
the reads would otherwise get; a deployment scraping real servers over
TCP amortises the cost across processes.

Trials alternate off/on in round-robin so drift (page cache, CPU
frequency, GC) lands evenly on both arms, and each "on" trial runs with
its own live collector thread.  The CI gate
(``benchmarks/bench_collector_overhead.py``) asserts the best-trial
slowdown stays ≤ 2%.

Run from the command line (``--smoke`` for the CI-sized configuration)::

    python -m repro.bench.collector_overhead [--smoke]
"""

from __future__ import annotations

import argparse
import random
import time
from dataclasses import dataclass, field

from repro.bench.common import format_table, write_result
from repro.cluster.aio import AsyncClusterClient, AsyncServiceShard, BlockingClusterClient
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.obs.cluster import TelemetryCollector
from repro.obs.metrics import median
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice

__all__ = [
    "CollectorOverheadConfig",
    "CollectorOverheadResult",
    "run",
    "render",
    "main",
]

_UAK = b"T" * 32


@dataclass(frozen=True)
class CollectorOverheadConfig:
    """Knobs for one off/on collector overhead run."""

    shards: int = 4
    trials: int = 7
    ops_per_trial: int = 300
    n_files: int = 8
    file_size: int = 1024
    scrape_interval_s: float = 1.0
    block_size: int = 512
    total_blocks: int = 4096
    seed: int = 2003

    @classmethod
    def smoke(cls) -> "CollectorOverheadConfig":
        """CI-sized configuration: seconds, not minutes."""
        return cls(trials=5, ops_per_trial=120, n_files=4)


@dataclass
class CollectorOverheadResult:
    """Per-arm microsecond-per-op samples and the derived overhead."""

    config: CollectorOverheadConfig
    us_per_op: dict[str, list[float]] = field(default_factory=dict)
    scrapes: int = 0
    merged_text: str = ""

    def median_us(self, arm: str) -> float:
        return median(sorted(self.us_per_op.get(arm, [])))

    def best_us(self, arm: str) -> float:
        """Fastest trial — the classic noise-robust bench statistic."""
        samples = self.us_per_op.get(arm, [])
        return min(samples) if samples else 0.0

    @property
    def overhead_pct(self) -> float:
        """Best-trial scraped-vs-unwatched slowdown, percent (gated).

        Minima rather than medians: scheduler and frequency noise only
        ever *adds* time, so each arm's fastest trial is its closest
        approach to the true cost, and their ratio isolates the
        collector from the environment.
        """
        off = self.best_us("off")
        if off <= 0:
            return 0.0
        return (self.best_us("on") / off - 1.0) * 100.0


def _build_cluster(
    config: CollectorOverheadConfig,
) -> tuple[BlockingClusterClient, list[str]]:
    shards = {}
    for index in range(config.shards):
        steg = StegFS.mkfs(
            RamDevice(config.block_size, config.total_blocks),
            params=StegFSParams.for_tests(),
            inode_count=max(64, config.n_files * 8),
            rng=random.Random(config.seed + index),
            auto_flush=False,
        )
        shards[f"shard-{index}"] = AsyncServiceShard(
            StegFSService(steg, max_workers=4), owns_service=True
        )
    cluster = BlockingClusterClient(
        lambda: AsyncClusterClient(shards, replication=2, write_quorum=2)
    )
    payload_rng = random.Random(config.seed)
    names = []
    for index in range(config.n_files):
        name = f"bench-obj-{index}"
        cluster.steg_create(
            name, _UAK, data=payload_rng.randbytes(config.file_size)
        )
        names.append(name)
    return cluster, names


def _trial(cluster: BlockingClusterClient, names: list[str], ops: int) -> float:
    """Mean microseconds per cluster steg_read over one trial."""
    started = time.perf_counter()
    for index in range(ops):
        cluster.steg_read(names[index % len(names)], _UAK)
    return (time.perf_counter() - started) * 1e6 / ops


def run(
    smoke: bool = False, config: CollectorOverheadConfig | None = None
) -> CollectorOverheadResult:
    """Interleaved off/on trials; "on" runs a live 1 Hz collector."""
    config = config or (
        CollectorOverheadConfig.smoke() if smoke else CollectorOverheadConfig()
    )
    result = CollectorOverheadResult(config=config)
    cluster, names = _build_cluster(config)
    try:
        # Warm-up, one whole trial un-timed: code paths, the FS's own
        # caches, every shard's worker pool, and enough read legs for the
        # hedge delay to be the measured p99 rather than the cold-start
        # constant in every timed trial.
        _trial(cluster, names, config.ops_per_trial)
        for _ in range(config.trials):
            result.us_per_op.setdefault("off", []).append(
                _trial(cluster, names, config.ops_per_trial)
            )
            collector = TelemetryCollector(
                cluster.scrape_targets(),
                interval_s=config.scrape_interval_s,
                health=cluster.health,
            )
            with collector:
                collector.scrape_once()  # guarantee ≥1 sweep per trial
                result.us_per_op.setdefault("on", []).append(
                    _trial(cluster, names, config.ops_per_trial)
                )
                view = collector.scrape_once()
                result.scrapes += sum(
                    len(ring) for ring in map(collector.ring, collector.shard_ids)
                )
                result.merged_text = view.render_text()
    finally:
        cluster.close()
    return result


def render(result: CollectorOverheadResult) -> str:
    """Comparison table; artifacts for the bench and the merged view."""
    headers = ["arm", "best µs/op", "median", "max", "vs off (best)"]
    rows = []
    for arm in ("off", "on"):
        samples = result.us_per_op.get(arm, [])
        if not samples:
            continue
        off = result.best_us("off")
        delta = (result.best_us(arm) / off - 1.0) * 100.0 if off > 0 else 0.0
        rows.append(
            [
                arm,
                f"{result.best_us(arm):.1f}",
                f"{result.median_us(arm):.1f}",
                f"{max(samples):.1f}",
                f"{delta:+.2f}%",
            ]
        )
    text = format_table(
        f"Collector overhead ({result.config.shards}-shard cluster, "
        f"{result.config.trials} interleaved trials, "
        f"{result.config.scrape_interval_s:g}s scrape interval)",
        headers,
        rows,
    )
    text += (
        f"\nGated: scraped-vs-unwatched overhead "
        f"{result.overhead_pct:+.2f}% (limit +2%).\n"
        f"Ring samples accumulated across trials: {result.scrapes}.\n"
    )
    write_result("collector_overhead", text)
    # The merged, per-shard-labeled cluster view — what `obs scrape`
    # would print against this cluster — as its own artifact.
    write_result("cluster_metrics_dump", result.merged_text)
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
    if result.overhead_pct > 2.0:
        print(
            f"FAIL: overhead {result.overhead_pct:+.2f}% exceeds the +2% gate"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
