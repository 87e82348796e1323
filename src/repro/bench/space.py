"""§5.2 — effective space utilisation of the three steganographic schemes.

The section's headline numbers:

* **StegCover** ≈ 75 % — 2 MB covers holding (1, 2] MB files;
* **StegRand** ≈ 5 % at its best replication on a 1 KB-block volume —
  "file servers … can achieve only 5 % space utilization for a 1 GByte
  volume … before data corruption sets in";
* **StegFS** > 80 % with the Table 1 defaults, i.e. "at least 10 times
  more space-efficient than StegRand".

Each number is *measured* here: the stores are filled until they refuse
(or, for StegRand, until the capacity simulation hits first data loss).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.baselines.stegcover import RECOMMENDED_COVERS, StegCoverStore
from repro.baselines.stegfs_adapter import StegFSStore
from repro.bench.common import bench_scale, format_table
from repro.bench.fig6 import simulate_capacity
from repro.core.params import StegFSParams
from repro.errors import NoSpaceError
from repro.storage.block_device import SparseDevice
from repro.workload.generator import KB, WorkloadSpec

__all__ = ["SpaceResult", "run", "render"]


@dataclass(frozen=True)
class SpaceResult:
    """Measured utilisations and the headline ratio."""

    stegfs: float
    stegcover: float
    stegrand: float
    scale: float

    @property
    def stegfs_vs_stegrand(self) -> float:
        """The paper's ≥10× space-efficiency claim."""
        return self.stegfs / self.stegrand if self.stegrand else float("inf")


def _fill_until_full(store, spec: WorkloadSpec, rng: random.Random) -> int:
    """Store random-sized files until the volume refuses; returns bytes."""
    stored = 0
    index = 0
    while True:
        size = rng.randint(spec.file_size_min, spec.file_size_max)
        try:
            store.store(f"fill{index:05d}", rng.randbytes(size))
        except NoSpaceError:
            return stored
        stored += size
        index += 1
        if index > 100_000:  # safety net; cannot happen on a finite volume
            return stored


def run(seed: int = 0) -> SpaceResult:
    """Measure §5.2's utilisation comparison at the configured scale."""
    scale = bench_scale()
    spec = WorkloadSpec.paper_defaults().scaled(scale)

    rng = random.Random(seed)
    stegfs_store = StegFSStore(
        SparseDevice(spec.block_size, spec.total_blocks, fill_seed=seed),
        params=StegFSParams(
            dummy_avg_size=max(4096, int((1 << 20) * spec.volume_bytes / (1 << 30)))
        ),
        inode_count=128,
        rng=rng,
    )
    stegfs_util = _fill_until_full(stegfs_store, spec, rng) / spec.volume_bytes

    cover_store = StegCoverStore(
        SparseDevice(spec.block_size, spec.total_blocks, fill_seed=seed),
        cover_size=spec.file_size_max,
        n_covers=RECOMMENDED_COVERS,
        rng=random.Random(seed),
    )
    cover_util = _fill_until_full(cover_store, spec, random.Random(seed)) / spec.volume_bytes

    # StegRand: best utilisation across replication factors at 1 KB blocks.
    block_size = 1 * KB
    total_blocks = spec.volume_bytes // block_size
    fb_min = max(1, spec.file_size_min // block_size)
    fb_max = max(fb_min, spec.file_size_max // block_size)
    stegrand_util = max(
        simulate_capacity(total_blocks, fb_min, fb_max, r, random.Random(seed + r))
        for r in (1, 2, 4, 8, 16, 32, 64)
    )

    return SpaceResult(
        stegfs=stegfs_util, stegcover=cover_util, stegrand=stegrand_util, scale=scale
    )


def render(result: SpaceResult) -> str:
    """Format §5.2's comparison."""
    rows = [
        ["StegFS", f"{result.stegfs * 100:.1f}%", "> 80%"],
        ["StegCover", f"{result.stegcover * 100:.1f}%", "~ 75%"],
        ["StegRand (best r)", f"{result.stegrand * 100:.1f}%", "~ 5%"],
        [
            "StegFS / StegRand",
            f"{result.stegfs_vs_stegrand:.1f}x",
            ">= 10x",
        ],
    ]
    return format_table(
        f"Section 5.2 — effective space utilization, scale={result.scale:g}",
        ["system", "measured", "paper"],
        rows,
    )
