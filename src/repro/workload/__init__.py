"""Workload generation (Table 3), trace replay, and live client driving."""

from repro.workload.generator import FileJob, WorkloadSpec, generate_jobs
from repro.workload.live import (
    ClientResult,
    LiveRunResult,
    OpMix,
    populate_hidden_files,
    run_live_clients,
    run_remote_clients,
)
from repro.workload.metrics import Summary, space_utilization, summarize
from repro.workload.runner import (
    FileAccessResult,
    RunResult,
    replay_interleaved,
    replay_serial,
)

__all__ = [
    "ClientResult",
    "FileAccessResult",
    "FileJob",
    "LiveRunResult",
    "OpMix",
    "RunResult",
    "Summary",
    "WorkloadSpec",
    "generate_jobs",
    "populate_hidden_files",
    "replay_interleaved",
    "replay_serial",
    "run_live_clients",
    "run_remote_clients",
    "space_utilization",
    "summarize",
]
