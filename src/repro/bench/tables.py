"""Tables 1–4 of the paper, regenerated from the live configuration objects.

These are configuration tables rather than measurements; regenerating them
from the code (not from constants pasted into the docs) pins the defaults:
if a refactor drifted a Table 1 value, the corresponding benchmark test
fails.
"""

from __future__ import annotations

from repro.bench.common import ALL_SYSTEMS, format_table
from repro.core.params import StegFSParams
from repro.storage.disk_model import DiskParameters
from repro.workload.generator import WorkloadSpec

__all__ = ["table1", "table2", "table3", "table4", "render_all"]

_SYSTEM_DESCRIPTIONS = {
    "StegFS": "Our proposed StegFS scheme",
    "StegCover": "Steganographic scheme using cover files in [7]",
    "StegRand": "Steganographic scheme using random block assignment in [7]",
    "CleanDisk": "Freshly defragmented Linux file system",
    "FragDisk": "Well-used Linux file system with fragmentation",
}


def table1() -> str:
    """Table 1 — StegFS parameters and defaults."""
    params = StegFSParams.paper_defaults()
    rows = [
        ["f_abandoned", "Percentage of abandoned blocks in the disk volume",
         f"{params.abandoned_fraction * 100:g}%"],
        ["rho_min", "Minimum number of free blocks within a hidden file",
         str(params.pool_min)],
        ["rho_max", "Maximum number of free blocks within a hidden file",
         str(params.pool_max)],
        ["n_dummy", "Number of dummy hidden files in the file system",
         str(params.dummy_count)],
        ["s_dummy", "Average size of the dummy hidden files",
         f"{params.dummy_avg_size // (1 << 20)} MB"],
    ]
    return format_table("Table 1 — Parameters of StegFS", ["parameter", "meaning", "default"], rows)


def table2() -> str:
    """Table 2 stand-in — disk model calibration (see ``docs/storage.md``)."""
    params = DiskParameters()
    rows = [
        ["seek (min..max)", f"{params.seek_min_ms:g}..{params.seek_max_ms:g} ms"],
        ["rotation (avg)", f"{params.rotation_avg_ms:.2f} ms ({params.rpm:g} rpm)"],
        ["transfer rate", f"{params.transfer_mb_per_s:g} MB/s"],
        ["per-request overhead", f"{params.overhead_ms:g} ms"],
        ["read-ahead segments", str(params.read_segments)],
        ["write-behind segments", str(params.write_segments)],
        ["read-ahead window", f"{params.readahead_blocks} blocks"],
    ]
    return format_table(
        "Table 2 — Physical resource parameters (DiskModel calibration "
        "standing in for the P4 / Ultra ATA-100 testbed)",
        ["parameter", "value"],
        rows,
    )


def table3() -> str:
    """Table 3 — workload parameters."""
    spec = WorkloadSpec.paper_defaults()
    rows = [
        ["Size of each disk block", f"{spec.block_size // 1024} KB"],
        ["Size of each file", "(1, 2] MB uniform"],
        ["Capacity of the disk volume", f"{spec.volume_bytes // (1 << 30)} GB"],
        ["Number of files in the file system", str(spec.n_files)],
        ["File access pattern", "Interleaved"],
        ["Number of concurrent users", "1"],
    ]
    return format_table("Table 3 — Workload parameters", ["parameter", "default"], rows)


def table4() -> str:
    """Table 4 — algorithm indicators."""
    rows = [[name, _SYSTEM_DESCRIPTIONS[name]] for name in ALL_SYSTEMS]
    return format_table("Table 4 — Algorithm indicators", ["indicator", "meaning"], rows)


def render_all() -> str:
    """All four tables as one text."""
    return "\n".join([table1(), table2(), table3(), table4()])
