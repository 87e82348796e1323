"""Figure 7 — read/write access time vs number of concurrent users.

Paper setup (§5.3): 1 GB volume, 1 KB blocks, 100 files of (1, 2] MB,
interleaved access, users ∈ {1, 2, 4, 8, 16, 32}.  Expected shape:

* StegCover is far above everything (≈K/2 cover I/Os per block);
* StegRand reads sit slightly above StegFS (replica hunting), its writes
  far above (all replicas written);
* CleanDisk/FragDisk beat StegFS at low concurrency but converge —
  "StegFS matches both CleanDisk and FragDisk from 16 concurrent users
  onwards for read operations, and from just 8 users for write".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.common import ALL_SYSTEMS, bench_scale, format_table, prepared_system
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import replay_interleaved

__all__ = ["Fig7Result", "run", "render"]

DEFAULT_USERS = (1, 2, 4, 8, 16, 32)


@dataclass
class Fig7Result:
    """Mean access time (seconds) per system per user count."""

    users: tuple[int, ...]
    scale: float
    read_s: dict[str, list[float]] = field(default_factory=dict)
    write_s: dict[str, list[float]] = field(default_factory=dict)

    def series(self, op: str, system: str) -> list[float]:
        """One curve of the figure (``op`` is ``"read"`` or ``"write"``)."""
        table = self.read_s if op == "read" else self.write_s
        return table[system]


def run(
    spec: WorkloadSpec | None = None,
    users: tuple[int, ...] = DEFAULT_USERS,
    systems: tuple[str, ...] = ALL_SYSTEMS,
    seed: int = 0,
) -> Fig7Result:
    """Regenerate Figure 7's data points."""
    scale = bench_scale()
    if spec is None:
        spec = WorkloadSpec.paper_defaults().scaled(scale)
    result = Fig7Result(users=users, scale=scale)
    for name in systems:
        setup = prepared_system(name, spec, seed=seed)
        result.read_s[name] = [
            replay_interleaved(setup.read_traces, n, setup.disk_model()).mean_access_ms
            / 1000.0
            for n in users
        ]
        result.write_s[name] = [
            replay_interleaved(setup.write_traces, n, setup.disk_model()).mean_access_ms
            / 1000.0
            for n in users
        ]
    return result


def render(result: Fig7Result) -> str:
    """Format both panels as paper-shaped tables."""
    chunks = []
    for op, table in (("read", result.read_s), ("write", result.write_s)):
        headers = ["system"] + [f"{n} users" for n in result.users]
        rows = [
            [name] + [f"{seconds:.2f}" for seconds in series]
            for name, series in table.items()
        ]
        chunks.append(
            format_table(
                f"Figure 7({'a' if op == 'read' else 'b'}) — {op} access time (s), "
                f"scale={result.scale:g}",
                headers,
                rows,
            )
        )
    return "\n".join(chunks)
