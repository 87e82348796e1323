#!/usr/bin/env python3
"""Where a stegbench workload's modelled disk time goes, by volume region.

    python3 tools/disk_ms_by_region.py --workload plain_wire --seed 2003 --seconds 15

builds the workload exactly as ``benchmarks/stegbench/run.py --trace 0`` does
(set-up, warm-up, window), then replays each device's window trace through
``DiskModel.ultra_ata_100`` in order — the pricing behind ``disk_ms_per_op``
— and books every request's milliseconds to the region its first block lies
in: superblock, bitmap, inode table, journal, the root directory's blocks (as
the root inode lists them after the window) or data.  A barrier is a row of
its own.  Prints ms, requests and blocks per op for every (region, read/write)
pair and fails unless the rows sum to ``disk_ms_per_op``.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "stegbench")]

import harness  # noqa: E402
from devices import _OPS, FLUSH_MS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.storage.disk_model import DiskModel  # noqa: E402


def region_of(fs, root_blocks: set[int], block: int) -> str:
    """The region of ``fs``'s volume that ``block`` lies in."""
    layout = fs.layout
    if block in root_blocks:
        return "root directory"
    for name, end in (
        ("superblock", layout.bitmap_start),
        ("bitmap", layout.inode_table_start),
        ("inode table", layout.journal_start),
        ("journal", layout.data_start),
    ):
        if block < end:
            return name
    return "data"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    system, setup_s, _ = harness.measure_setup(workload, args.seed, 1)
    try:
        rng = random.Random(args.seed * 7919 + 1)
        harness.run_window(workload, system, rng, args.seconds / 10, slices=1)  # warm-up
        window = harness.run_window(workload, system, rng, args.seconds)
        expected = harness.end_to_end(workload, system, window, setup_s)["disk_ms_per_op"][0]
        rows: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0, 0])
        for steg, device in zip(system.stegs, system.devices):
            root_blocks = set(steg.fs.file_blocks("/"))
            model = DiskModel.ultra_ata_100(device.block_size, device.total_blocks)
            for packed in device.trace:
                op, start, count = _OPS[packed & 3], packed >> 2 & (1 << 40) - 1, packed >> 42
                if op == "f":
                    row, ms = rows[("barrier", "flush")], FLUSH_MS
                else:
                    region = region_of(steg.fs, root_blocks, start)
                    row = rows[(region, "read" if op == "r" else "write")]
                    ms = model.service(op, start, count)
                row[0] += ms
                row[1] += 1
                row[2] += count
    finally:
        system.close()

    ops = window.ops
    print(f"{args.workload} seed {args.seed}: {ops} ops, per op")
    print(f"{'region':<16}{'op':<7}{'ms':>10}{'requests':>10}{'blocks':>10}")
    for (region, op), (ms, requests, blocks) in sorted(rows.items()):
        print(f"{region:<16}{op:<7}{ms / ops:>10.3f}{requests / ops:>10.3f}{blocks / ops:>10.3f}")
    total = sum(row[0] for row in rows.values()) / ops
    print(f"{'sum':<23}{total:>10.3f}   disk_ms_per_op {expected:.3f}")
    if abs(total - expected) > 1e-6 * max(expected, 1.0):
        print("regions do not sum to disk_ms_per_op", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
