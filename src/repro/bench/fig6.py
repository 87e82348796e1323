"""Figure 6 — StegRand effective space utilisation vs replication factor.

Paper protocol (§5.2): "For each replication factor in the range of 1 and
64, we load the data files one at a time until all copies of any data
block of a file are overwritten … At that point, we sum up the size of the
loaded files and divide it by the disk volume size."  Files are (1, 2] MB;
block size sweeps 0.5–64 KB.  Expected shape: utilisation rises with
replication up to a peak around 8–16, falls beyond (replication overhead
dominates), and smaller blocks do worse everywhere; the peak sits in the
mid-single-digit percents.

The sweep runs on a *capacity simulation* that performs the identical
placement/overwrite process without materialising bytes; tests validate it
against the real :class:`~repro.baselines.stegrand.StegRandStore` at small
scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bench.common import bench_scale, format_table
from repro.workload.generator import KB, MB

__all__ = ["Fig6Result", "simulate_capacity", "run", "render"]

DEFAULT_REPLICATIONS = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_BLOCK_SIZES_KB = (0.5, 1, 2, 4, 8, 16, 32, 64)


def simulate_capacity(
    total_blocks: int,
    file_blocks_min: int,
    file_blocks_max: int,
    replication: int,
    rng: random.Random,
    max_files: int = 1_000_000,
) -> float:
    """Load files until the first unrecoverable block; return utilisation.

    Utilisation counts the *unique* data blocks of files fully loaded
    before the fatal write, divided by the volume size — each file counted
    once regardless of replication, exactly as §5.2 specifies.
    """
    if total_blocks <= 0 or replication < 1:
        raise ValueError("need total_blocks > 0 and replication >= 1")
    if not 0 < file_blocks_min <= file_blocks_max:
        raise ValueError("need 0 < file_blocks_min <= file_blocks_max")
    occupant = [-1] * total_blocks  # global logical-block id per address
    live: list[int] = []  # live replica count per global logical block
    completed_blocks = 0
    randrange = rng.randrange
    for _ in range(max_files):
        n_blocks = rng.randint(file_blocks_min, file_blocks_max)
        base = len(live)
        live.extend([0] * n_blocks)
        for logical in range(n_blocks):
            gid = base + logical
            for _replica in range(replication):
                address = randrange(total_blocks)
                victim = occupant[address]
                if victim == gid:
                    continue  # replica landed on a sibling replica: no change
                if victim >= 0:
                    live[victim] -= 1
                    if live[victim] == 0:
                        # "StegRand has just passed the limit."
                        return completed_blocks / total_blocks
                occupant[address] = gid
                live[gid] += 1
        completed_blocks += n_blocks
    return completed_blocks / total_blocks


@dataclass
class Fig6Result:
    """Utilisation per (block size, replication factor)."""

    replications: tuple[int, ...]
    block_sizes_kb: tuple[float, ...]
    scale: float
    utilization: dict[float, list[float]] = field(default_factory=dict)

    def peak(self, block_kb: float) -> tuple[int, float]:
        """(replication, utilisation) at the peak for one block size."""
        series = self.utilization[block_kb]
        best = max(range(len(series)), key=lambda i: series[i])
        return self.replications[best], series[best]


def run(
    replications: tuple[int, ...] = DEFAULT_REPLICATIONS,
    block_sizes_kb: tuple[float, ...] = DEFAULT_BLOCK_SIZES_KB,
    seed: int = 0,
    trials: int = 3,
) -> Fig6Result:
    """Regenerate Figure 6's grid (averaged over ``trials`` runs)."""
    scale = bench_scale()
    volume_bytes = int(1024 * MB * scale)
    file_min = max(1, int((1 * MB + 1) * scale))
    file_max = max(file_min, int(2 * MB * scale))
    result = Fig6Result(
        replications=replications, block_sizes_kb=block_sizes_kb, scale=scale
    )
    for block_kb in block_sizes_kb:
        block_size = int(block_kb * KB)
        total_blocks = volume_bytes // block_size
        fb_min = max(1, file_min // block_size)
        fb_max = max(fb_min, file_max // block_size)
        series = []
        for replication in replications:
            total = 0.0
            for trial in range(trials):
                rng = random.Random((seed, block_kb, replication, trial).__hash__())
                total += simulate_capacity(
                    total_blocks, fb_min, fb_max, replication, rng
                )
            series.append(total / trials)
        result.utilization[block_kb] = series
    return result


def render(result: Fig6Result) -> str:
    """Format the figure as a table (rows = block size, cols = replication)."""
    headers = ["block size"] + [f"r={r}" for r in result.replications]
    rows = []
    for block_kb in result.block_sizes_kb:
        rows.append(
            [f"{block_kb:g} KB"]
            + [f"{u * 100:.2f}%" for u in result.utilization[block_kb]]
        )
    return format_table(
        f"Figure 6 — StegRand effective space utilization, scale={result.scale:g}",
        headers,
        rows,
    )
