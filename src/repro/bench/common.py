"""Shared machinery for the experiment drivers (one module per figure).

Pipeline: build each Table 4 system over a trace-recording
sparse device → run the Table 3 workload through it for real → replay the
recorded block traces through the calibrated disk model at each
concurrency level.  Absolute times depend on the model calibration;
orderings, ratios and crossovers are the reproduction target.

Experiments default to a scaled-down volume (``DEFAULT_SCALE``) so the full
suite runs in minutes; set ``REPRO_BENCH_SCALE=1`` in the environment for
paper-scale runs.  Scaling divides the volume and file sizes by the same
factor, preserving every ratio that drives the results.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.baselines.interface import FileStore
from repro.baselines.nativefs import clean_disk, frag_disk
from repro.baselines.stegcover import RECOMMENDED_COVERS, StegCoverStore
from repro.baselines.stegfs_adapter import StegFSStore
from repro.baselines.stegrand import RECOMMENDED_REPLICATION, StegRandStore
from repro.core.params import StegFSParams
from repro.storage.block_device import SparseDevice
from repro.storage.disk_model import DiskModel
from repro.storage.trace import BlockOp, TraceRecordingDevice
from repro.workload.generator import FileJob, WorkloadSpec, generate_jobs

__all__ = [
    "ALL_SYSTEMS",
    "DEFAULT_SCALE",
    "SystemSetup",
    "bench_scale",
    "build_store",
    "collect_traces",
    "format_table",
    "prepared_system",
    "write_result",
]

ALL_SYSTEMS = ("CleanDisk", "FragDisk", "StegCover", "StegRand", "StegFS")

DEFAULT_SCALE = 1 / 16

# Experiment → its committed table under ``benchmarks/results/``.
_RESULT_FILES = {
    "tables": "tables_1_to_4",
    "fig6": "fig6_stegrand_space",
    "fig7": "fig7_concurrent_users",
    "fig8": "fig8_file_size",
    "fig9": "fig9_block_size",
    "space": "space_utilization",
    "ablation": "ablations",
}


def bench_scale() -> float:
    """Experiment scale factor (``REPRO_BENCH_SCALE`` env override)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    if not raw:
        return DEFAULT_SCALE
    value = float(raw)
    if value <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {raw!r}")
    return value


@dataclass
class SystemSetup:
    """One system instantiated over a trace-recording device."""

    name: str
    store: FileStore
    device: TraceRecordingDevice
    spec: WorkloadSpec
    write_traces: list[tuple[str, list[BlockOp]]] = field(default_factory=list)
    read_traces: list[tuple[str, list[BlockOp]]] = field(default_factory=list)

    #: Table 2: the 1 GB experiment volume sits on a 20 GB disk, so seeks
    #: within the volume span at most 1/20 of the stroke.  Pricing traces
    #: against the full-disk geometry compresses placement-induced seek
    #: differences between systems, exactly as on the paper's testbed.
    DISK_SPAN_FACTOR = 20

    def disk_model(self, seed: int = 0) -> DiskModel:
        """A fresh calibrated disk model matching this volume's geometry."""
        return DiskModel.ultra_ata_100(
            block_size=self.spec.block_size,
            total_blocks=self.spec.total_blocks * self.DISK_SPAN_FACTOR,
            seed=seed,
        )


def build_store(name: str, spec: WorkloadSpec, seed: int = 0) -> SystemSetup:
    """Instantiate one Table 4 system on a fresh sparse volume."""
    inner = SparseDevice(spec.block_size, spec.total_blocks, fill_seed=seed)
    device = TraceRecordingDevice(inner)
    rng = random.Random(seed)
    # Keep the inode table proportionate to the workload, as a tuned 2003
    # server would, rather than the 1-per-8-blocks desktop heuristic.
    inode_count = max(128, spec.n_files * 2)
    if name == "CleanDisk":
        store: FileStore = clean_disk(device, inode_count=inode_count)
    elif name == "FragDisk":
        store = frag_disk(device, inode_count=inode_count, rng=rng)
    elif name == "StegCover":
        store = StegCoverStore(
            device,
            # Covers sized to the largest data file (§5.2) plus the 8-byte
            # length framing this implementation stores inside the XOR.
            cover_size=spec.file_size_max + 64,
            n_covers=RECOMMENDED_COVERS,
            rng=rng,
        )
    elif name == "StegRand":
        store = StegRandStore(
            device,
            replication=RECOMMENDED_REPLICATION,
            rng=rng,
            tag_mode="crc",
            strict=False,  # §5.3 measures access times beyond the safe load
        )
    elif name == "StegFS":
        params = StegFSParams(
            # Dummy sizes scale with the volume like everything else.
            dummy_avg_size=max(4096, int((1 << 20) * spec.volume_bytes / (1 << 30))),
        )
        store = StegFSStore(
            device, params=params, inode_count=inode_count, rng=rng
        )
    else:
        raise ValueError(f"unknown system {name!r}; expected one of {ALL_SYSTEMS}")
    return SystemSetup(name=name, store=store, device=device, spec=spec)


def collect_traces(setup: SystemSetup, jobs: list[FileJob]) -> SystemSetup:
    """Run the workload for real, recording write then read traces.

    A first untraced pass registers every file (create/keying/slot
    assignment), matching the paper's measurement of steady-state file
    *access* times rather than one-off creation bookkeeping; the traced
    passes then capture a full content write and a full read per file.
    """
    for job in jobs:
        setup.store.store(job.file_id, b"")
    for job in jobs:
        with setup.device.recording(f"w:{job.file_id}"):
            setup.store.store(job.file_id, job.payload())
        setup.write_traces.append(
            (job.file_id, setup.device.trace(f"w:{job.file_id}").ops)
        )
    for job in jobs:
        with setup.device.recording(f"r:{job.file_id}"):
            setup.store.fetch(job.file_id)
        setup.read_traces.append(
            (job.file_id, setup.device.trace(f"r:{job.file_id}").ops)
        )
    return setup


def prepared_system(name: str, spec: WorkloadSpec, seed: int = 0) -> SystemSetup:
    """Build + populate + trace one system (convenience)."""
    return collect_traces(build_store(name, spec, seed=seed), generate_jobs(spec))


def format_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Monospace table matching the paper's rows/series layout."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def write_result(experiment: str, text: str) -> str:
    """Persist one experiment's rendered table; returns the path.

    Only the two entry points that run at the default scale on purpose call
    this (``python -m repro.bench`` and the claim files under
    ``benchmarks/``, both from the repo root); ``render`` never does, so
    miniature runs inside the unit suite leave the work tree alone.
    """
    directory = os.path.join("benchmarks", "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{_RESULT_FILES[experiment]}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path
