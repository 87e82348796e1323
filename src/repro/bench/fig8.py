"""Figure 8 — normalized access time (sec/KB) vs file size.

Paper setup (§5.3, Figures 8a/8b): the multi-user interleaved workload of
Figure 7 with the file size swept from 200 KB to 2000 KB.  The claim being
reproduced: "the relative trade-offs between the various schemes are
independent of the file size" — i.e. each system's sec/KB curve is roughly
flat and the ordering never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.common import ALL_SYSTEMS, bench_scale, format_table, prepared_system
from repro.workload.generator import KB, WorkloadSpec
from repro.workload.runner import replay_interleaved

__all__ = ["Fig8Result", "run", "render"]

DEFAULT_SIZES_KB = (200, 600, 1000, 1400, 1800)
DEFAULT_USERS = 8
DEFAULT_FILES = 32


@dataclass
class Fig8Result:
    """Normalized access time (sec/KB, at paper-equivalent file sizes)."""

    sizes_kb: tuple[int, ...]
    users: int
    scale: float
    read_s_per_kb: dict[str, list[float]] = field(default_factory=dict)
    write_s_per_kb: dict[str, list[float]] = field(default_factory=dict)


def run(
    sizes_kb: tuple[int, ...] = DEFAULT_SIZES_KB,
    users: int = DEFAULT_USERS,
    systems: tuple[str, ...] = ALL_SYSTEMS,
    n_files: int = DEFAULT_FILES,
    seed: int = 0,
) -> Fig8Result:
    """Regenerate Figure 8's data points."""
    scale = bench_scale()
    base = WorkloadSpec.paper_defaults().scaled(scale)
    result = Fig8Result(sizes_kb=sizes_kb, users=users, scale=scale)
    for name in systems:
        result.read_s_per_kb[name] = []
        result.write_s_per_kb[name] = []
    for size_kb in sizes_kb:
        size = max(base.block_size, int(size_kb * KB * scale))
        spec = WorkloadSpec(
            block_size=base.block_size,
            file_size_min=size,
            file_size_max=size,
            volume_bytes=base.volume_bytes,
            n_files=n_files,
            seed=seed,
        )
        sizes = {f"file{i:04d}": size for i in range(n_files)}
        for name in systems:
            setup = prepared_system(name, spec, seed=seed)
            read = replay_interleaved(setup.read_traces, users, setup.disk_model())
            write = replay_interleaved(setup.write_traces, users, setup.disk_model())
            # Normalise by the paper-equivalent size so values are comparable
            # with the paper's axis despite volume scaling.
            factor = size / (size_kb * KB)
            result.read_s_per_kb[name].append(
                read.normalized_access_s_per_kb(sizes) * factor
            )
            result.write_s_per_kb[name].append(
                write.normalized_access_s_per_kb(sizes) * factor
            )
    return result


def render(result: Fig8Result) -> str:
    """Format both panels."""
    chunks = []
    for op, table in (
        ("read", result.read_s_per_kb),
        ("write", result.write_s_per_kb),
    ):
        headers = ["system"] + [f"{kb} KB" for kb in result.sizes_kb]
        rows = [
            [name] + [f"{value * 1000:.3f}" for value in series]
            for name, series in table.items()
        ]
        chunks.append(
            format_table(
                f"Figure 8({'a' if op == 'read' else 'b'}) — normalized {op} "
                f"access time (ms/KB), {result.users} users, scale={result.scale:g}",
                headers,
                rows,
            )
        )
    return "\n".join(chunks)
