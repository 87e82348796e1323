"""Workload generation (Table 3) and trace replay."""

from repro.workload.generator import FileJob, WorkloadSpec, generate_jobs
from repro.workload.runner import (
    FileAccessResult,
    RunResult,
    replay_interleaved,
    replay_serial,
)

__all__ = [
    "FileAccessResult",
    "FileJob",
    "RunResult",
    "WorkloadSpec",
    "generate_jobs",
    "replay_interleaved",
    "replay_serial",
]
