"""Figure 9 — serial (single-user) access time vs block size.

Paper setup (§5.4): one user retrieves each 1 MB file in its entirety
before opening the next; block size swept from 0.5 KB to 64 KB.  Expected
shape: CleanDisk fastest (contiguous + read-ahead), FragDisk pays a seek
per 8-block fragment, StegFS/StegRand pay a seek per block, StegCover pays
~K/2 I/Os per block; every curve falls as the block size grows and the
gaps compress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.common import ALL_SYSTEMS, bench_scale, format_table, prepared_system
from repro.workload.generator import KB, MB, WorkloadSpec
from repro.workload.runner import replay_serial

__all__ = ["Fig9Result", "run", "render"]

DEFAULT_BLOCK_SIZES_KB = (0.5, 1, 2, 4, 8, 16, 32, 64)
DEFAULT_FILES = 16


@dataclass
class Fig9Result:
    """Mean serial access time (seconds) per system per block size."""

    block_sizes_kb: tuple[float, ...]
    scale: float
    read_s: dict[str, list[float]] = field(default_factory=dict)
    write_s: dict[str, list[float]] = field(default_factory=dict)


def run(
    block_sizes_kb: tuple[float, ...] = DEFAULT_BLOCK_SIZES_KB,
    systems: tuple[str, ...] = ALL_SYSTEMS,
    n_files: int = DEFAULT_FILES,
    seed: int = 0,
) -> Fig9Result:
    """Regenerate Figure 9's data points."""
    scale = bench_scale()
    file_size = max(int(1 * MB * scale), 64 * KB)  # paper: 1 MB files
    result = Fig9Result(block_sizes_kb=block_sizes_kb, scale=scale)
    for name in systems:
        result.read_s[name] = []
        result.write_s[name] = []
    volume = max(int(1024 * MB * scale), file_size * n_files * 4)
    for block_kb in block_sizes_kb:
        block_size = int(block_kb * KB)
        spec = WorkloadSpec(
            block_size=block_size,
            file_size_min=file_size,
            file_size_max=file_size,
            volume_bytes=volume,
            n_files=n_files,
            seed=seed,
        )
        for name in systems:
            setup = prepared_system(name, spec, seed=seed)
            result.read_s[name].append(
                replay_serial(setup.read_traces, setup.disk_model()).mean_access_ms
                / 1000.0
            )
            result.write_s[name].append(
                replay_serial(setup.write_traces, setup.disk_model()).mean_access_ms
                / 1000.0
            )
    return result


def render(result: Fig9Result) -> str:
    """Format both panels."""
    chunks = []
    for op, table in (("read", result.read_s), ("write", result.write_s)):
        headers = ["system"] + [f"{kb:g} KB" for kb in result.block_sizes_kb]
        rows = [
            [name] + [f"{seconds:.3f}" for seconds in series]
            for name, series in table.items()
        ]
        chunks.append(
            format_table(
                f"Figure 9({'a' if op == 'read' else 'b'}) — serial {op} access "
                f"time (s), 1 user, scale={result.scale:g}",
                headers,
                rows,
            )
        )
    return "\n".join(chunks)
