"""Cluster throughput: ops/sec vs shard count on latency-priced volumes.

The tentpole claim of the cluster tier: aggregate throughput **scales
with shard count**, because consistent-hash routing spreads independent
objects over independent volumes whose (real-sleep) device latencies
overlap.  Each shard is a full StegFS service over a
:class:`~repro.storage.latency.LatencyDevice`-priced RAM volume; a fixed
pool of client threads drives the familiar read-heavy hidden-file mix
through a :class:`~repro.cluster.BlockingClusterClient` at 1 → 8 shards.

The geometry is held constant while the cluster grows: replication 2
(degrading gracefully to 1 on the single-shard baseline), write quorum
1, and a read is one replica leg as everywhere else.  So the per-op work
is constant and any rise in ops/sec is genuine horizontal scaling.

Run from the command line (``--smoke`` for the CI-sized configuration)::

    python -m repro.bench.cluster_throughput [--smoke]

or through pytest via ``benchmarks/bench_cluster_throughput.py``, which
asserts the >= 1.5x 1→4 shard scaling claim the CI smoke job gates on.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field

from repro.bench.common import format_table, write_result
from repro.cluster.aio import AsyncClusterClient, AsyncServiceShard, BlockingClusterClient
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.service.service import StegFSService
from repro.storage.block_device import RamDevice
from repro.storage.latency import LatencyDevice
from repro.workload.live import OpMix, run_live_clients

__all__ = ["ClusterThroughputConfig", "ClusterThroughputResult", "run", "render", "main"]


@dataclass(frozen=True)
class ClusterThroughputConfig:
    """Knobs for one experiment run."""

    shard_counts: tuple[int, ...] = (1, 2, 4, 8)
    n_clients: int = 8
    ops_per_client: int = 16
    n_files: int = 12
    file_size: int = 2048
    payload_size: int = 2048
    block_size: int = 512
    blocks_per_shard: int = 4096
    replication: int = 2
    write_quorum: int = 1
    time_scale: float = 1.0
    seed: int = 2003

    @classmethod
    def smoke(cls) -> "ClusterThroughputConfig":
        """CI-sized configuration: seconds, not minutes."""
        return cls(
            shard_counts=(1, 2, 4),
            n_clients=6,
            ops_per_client=8,
            n_files=8,
            file_size=1024,
            payload_size=1024,
            blocks_per_shard=2048,
            time_scale=0.5,
        )


@dataclass
class ClusterThroughputResult:
    """Everything the render and the claim assertions need."""

    config: ClusterThroughputConfig
    shard_counts: list[int]
    ops_per_sec: list[float] = field(default_factory=list)
    p50_ms: list[float] = field(default_factory=list)
    errors: list[int] = field(default_factory=list)
    repairs: list[int] = field(default_factory=list)
    degraded: list[int] = field(default_factory=list)

    def _ops_at(self, shards: int) -> float:
        return self.ops_per_sec[self.shard_counts.index(shards)]

    @property
    def scaling_1_to_4(self) -> float:
        """The acceptance ratio: ops/sec at 4 shards over 1 shard."""
        if 1 not in self.shard_counts or 4 not in self.shard_counts:
            return 0.0
        base = self._ops_at(1)
        return self._ops_at(4) / base if base > 0 else 0.0

    @property
    def peak_scaling(self) -> float:
        """Best ratio over the single-shard baseline."""
        base = self.ops_per_sec[0] if self.ops_per_sec else 0.0
        return max(self.ops_per_sec) / base if base > 0 else 0.0


def _build_cluster(
    n_shards: int, config: ClusterThroughputConfig
) -> BlockingClusterClient:
    """n independent latency-priced StegFS volumes behind one coordinator."""
    shards = {}
    for index in range(n_shards):
        # exclusive=True: each shard models ONE spindle — requests on a
        # shard serialize, so extra shards are extra spindles and the
        # sweep measures horizontal scaling, not sleep overlap.
        device = LatencyDevice(
            RamDevice(config.block_size, config.blocks_per_shard),
            time_scale=config.time_scale,
            exclusive=True,
        )
        steg = StegFS.mkfs(
            device,
            params=StegFSParams.for_tests(),
            inode_count=max(64, config.n_files * 4),
            rng=random.Random(config.seed + index),
            auto_flush=False,
        )
        service = StegFSService(steg, max_workers=config.n_clients)
        shards[f"shard-{index}"] = AsyncServiceShard(service, owns_service=True)
    return BlockingClusterClient(
        lambda: AsyncClusterClient(
            shards,
            replication=config.replication,
            write_quorum=config.write_quorum,
            owns_backends=True,
        )
    )


def run(
    smoke: bool = False, config: ClusterThroughputConfig | None = None
) -> ClusterThroughputResult:
    """Sweep shard counts; the client pool and op mix stay fixed."""
    config = config or (
        ClusterThroughputConfig.smoke() if smoke else ClusterThroughputConfig()
    )
    uak = b"K" * 32
    result = ClusterThroughputResult(
        config=config, shard_counts=list(config.shard_counts)
    )
    for n_shards in config.shard_counts:
        cluster = _build_cluster(n_shards, config)
        rng = random.Random(config.seed)
        names = []
        for index in range(config.n_files):
            name = f"bench-{index:04d}"
            cluster.steg_create(name, uak, data=rng.randbytes(config.file_size))
            names.append(name)
        cluster.flush()
        run_result = run_live_clients(
            cluster,  # duck-typed: the coordinator speaks the service surface
            uak,
            names,
            n_clients=config.n_clients,
            ops_per_client=config.ops_per_client,
            mix=OpMix.read_heavy(),
            payload_size=config.payload_size,
            seed=config.seed + n_shards,
        )
        stats = cluster.stats
        result.ops_per_sec.append(run_result.ops_per_sec)
        result.p50_ms.append(run_result.latency_ms(50))
        result.errors.append(run_result.total_errors)
        result.repairs.append(stats["async.read_repairs"])
        result.degraded.append(stats["async.degraded_writes"])
        cluster.close()
    return result


def render(result: ClusterThroughputResult) -> str:
    """Paper-style table; persisted to benchmarks/results/."""
    headers = ["shards"] + [str(n) for n in result.shard_counts]
    rows = [
        ["ops/s"] + [f"{v:.1f}" for v in result.ops_per_sec],
        ["p50 ms"] + [f"{v:.1f}" for v in result.p50_ms],
        ["errors"] + [str(v) for v in result.errors],
        ["read repairs"] + [str(v) for v in result.repairs],
        ["degraded writes"] + [str(v) for v in result.degraded],
    ]
    config = result.config
    text = format_table(
        f"Cluster throughput vs shard count "
        f"({config.n_clients} clients, read-heavy mix, "
        f"RF={config.replication} W={config.write_quorum})",
        headers,
        rows,
    )
    if result.scaling_1_to_4:
        text += f"\nScaling 1 -> 4 shards: {result.scaling_1_to_4:.2f}x"
    text += f"\nPeak scaling over 1 shard: {result.peak_scaling:.2f}x\n"
    write_result("cluster_throughput", text)
    return text


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``--smoke`` gates the scaling claim for CI)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized configuration"
    )
    args = parser.parse_args(argv)
    result = run(smoke=args.smoke)
    print(render(result))
    if args.smoke:
        if result.scaling_1_to_4 < 1.5:
            print(
                f"FAIL: 1->4 shard scaling {result.scaling_1_to_4:.2f}x < 1.5x"
            )
            return 1
        if any(result.errors):
            print(f"FAIL: client errors during sweep: {result.errors}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
