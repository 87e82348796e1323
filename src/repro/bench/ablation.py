"""Ablations over the §3.1 design choices (our additions, not a paper
figure): what each deniability mechanism costs and buys.

* **Abandoned blocks** trade raw capacity for census-attack cover: sweep
  f_abandoned, report utilisation overhead and attacker precision.
* **Dummy files** blunt the snapshot-differencing intruder: sweep
  n_dummy, report how much decoy material pollutes the suspicion set.
* **Internal pools** hide data-vs-free structure inside a file: sweep
  rho_max, report per-file space overhead and the pool fraction of the
  file's own footprint (blocks a perfectly-informed attacker would still
  misclassify).
* **IDA (Mnemosyne [10])**: m-of-n dispersal as an alternative resilience
  layer — storage factor n/m versus tolerated losses n−m, the trade §2
  discusses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.attacker import census_unaccounted, detection_report
from repro.analysis.snapshot import SnapshotMonitor
from repro.bench.common import format_table
from repro.core.params import StegFSParams
from repro.core.stegfs import StegFS
from repro.crypto.ida import disperse, reconstruct
from repro.storage.block_device import SparseDevice

__all__ = ["AblationResult", "run", "render"]

_UAK = b"ablation-uak-ablation-uak-00000!"
_BLOCK_SIZE = 1024
_TOTAL_BLOCKS = 16384  # 16 MB ablation volume: fast yet non-trivial


@dataclass
class AblationResult:
    """All four sweeps, as printable rows."""

    abandoned_rows: list[list[str]] = field(default_factory=list)
    dummy_rows: list[list[str]] = field(default_factory=list)
    pool_rows: list[list[str]] = field(default_factory=list)
    ida_rows: list[list[str]] = field(default_factory=list)


def _fresh_steg(params: StegFSParams, seed: int) -> StegFS:
    device = SparseDevice(_BLOCK_SIZE, _TOTAL_BLOCKS, fill_seed=seed)
    return StegFS.mkfs(device, params=params, inode_count=128, rng=random.Random(seed))


def _hidden_blocks(steg: StegFS, names: list[str]) -> set[int]:
    blocks: set[int] = set()
    for name in names:
        for category in steg.hidden_footprint(name, _UAK).values():
            blocks.update(category)
    return blocks


def sweep_abandoned(fractions=(0.0, 0.01, 0.02, 0.05), seed: int = 0) -> list[list[str]]:
    """Census precision and capacity cost as f_abandoned grows."""
    rows = []
    for fraction in fractions:
        params = StegFSParams(
            abandoned_fraction=fraction, dummy_count=4, dummy_avg_size=16 * 1024
        )
        steg = _fresh_steg(params, seed)
        names = [f"s{i}" for i in range(4)]
        rng = random.Random(seed + 1)
        for name in names:
            steg.steg_create(name, _UAK, data=rng.randbytes(64 * 1024))
        report = detection_report(
            census_unaccounted(steg.fs), _hidden_blocks(steg, names)
        )
        rows.append(
            [
                f"{fraction * 100:g}%",
                f"{fraction * 100:g}%",  # capacity forfeited ≡ fraction
                f"{report.precision:.2f}",
                f"{report.decoy_fraction:.2f}",
            ]
        )
    return rows


def sweep_dummies(counts=(0, 4, 10), seed: int = 0) -> list[list[str]]:
    """Snapshot-intruder pollution as the dummy population grows.

    Dummy sizes are redrawn each tick, so churn genuinely reallocates
    blocks between snapshots rather than rewriting in place.
    """
    rows = []
    for count in counts:
        params = StegFSParams(dummy_count=count, dummy_avg_size=64 * 1024)
        steg = _fresh_steg(params, seed)
        monitor = SnapshotMonitor()
        monitor.observe(steg.fs)
        rng = random.Random(seed + 2)
        names = []
        for index in range(3):
            name = f"s{index}"
            steg.steg_create(name, _UAK, data=rng.randbytes(48 * 1024))
            names.append(name)
            for _ in range(2):
                steg.dummy_tick()
            monitor.observe(steg.fs)
        suspicious = monitor.cumulative_suspicious()
        hidden = _hidden_blocks(steg, names)
        report = detection_report(suspicious, hidden & suspicious)
        rows.append(
            [str(count), str(len(suspicious)), f"{report.precision:.2f}",
             f"{report.decoy_fraction:.2f}"]
        )
    return rows


def sweep_pool(pool_maxes=(1, 5, 10, 20), seed: int = 0) -> list[list[str]]:
    """Space overhead and in-file cover provided by the free pool.

    The file is grown then truncated: shrinkage feeds freed blocks into the
    pool up to ρ_max (§3.1), which is the steady state a snapshot attacker
    faces — data blocks and held-free blocks are indistinguishable.
    """
    rows = []
    for pool_max in pool_maxes:
        params = StegFSParams(pool_max=pool_max, dummy_count=0)
        steg = _fresh_steg(params, seed)
        rng = random.Random(seed + 3)
        steg.steg_create("f", _UAK, data=rng.randbytes(96 * 1024))
        steg.steg_write("f", _UAK, rng.randbytes(48 * 1024))  # truncation
        footprint = steg.hidden_footprint("f", _UAK)
        total = sum(len(blocks) for blocks in footprint.values())
        pool = len(footprint["pool"])
        rows.append(
            [str(pool_max), str(total), str(pool), f"{pool / total:.3f}"]
        )
    return rows


def sweep_ida(seed: int = 0) -> list[list[str]]:
    """m-of-n dispersal: storage factor versus tolerated share losses."""
    rng = random.Random(seed + 4)
    data = rng.randbytes(64 * 1024)
    rows = []
    for m, n in ((1, 4), (2, 4), (3, 4), (4, 4), (4, 8), (8, 10)):
        shares = disperse(data, m, n)
        stored = sum(len(s.payload) for s in shares)
        survivors = shares[n - m :]  # worst case: lose the first n-m shares
        ok = reconstruct(survivors, m) == data
        rows.append(
            [f"{m}-of-{n}", f"{stored / len(data):.2f}x", str(n - m), "yes" if ok else "NO"]
        )
    return rows


def run(seed: int = 0) -> AblationResult:
    """All four ablation sweeps."""
    return AblationResult(
        abandoned_rows=sweep_abandoned(seed=seed),
        dummy_rows=sweep_dummies(seed=seed),
        pool_rows=sweep_pool(seed=seed),
        ida_rows=sweep_ida(seed=seed),
    )


def render(result: AblationResult) -> str:
    """Format all sweeps."""
    return "\n".join(
        [
            format_table(
                "Ablation — abandoned blocks (census attack)",
                ["f_abandoned", "capacity cost", "attacker precision", "decoy fraction"],
                result.abandoned_rows,
            ),
            format_table(
                "Ablation — dummy hidden files (snapshot attack)",
                ["n_dummy", "suspicious blocks", "attacker precision", "decoy fraction"],
                result.dummy_rows,
            ),
            format_table(
                "Ablation — internal free pool (rho_max)",
                ["rho_max", "file footprint (blocks)", "pool blocks", "pool fraction"],
                result.pool_rows,
            ),
            format_table(
                "Ablation — IDA dispersal (Mnemosyne [10])",
                ["scheme", "storage factor", "tolerated losses", "recovers"],
                result.ida_rows,
            ),
        ]
    )
