"""Self-check of the benchmark against its contract, at smoke size.

    python3 benchmarks/stegbench/check.py

* every workload of ``BENCHMARK.json`` is a workload here, with the same
  reason, and the other way round;
* a ``--seconds 1`` run of every workload, in both trace modes, verifies every
  byte (``failed == 0``, exit code 0) and prints exactly the names and units
  ``BENCHMARK.json`` declares (``run.py`` refuses to print anything else);
* no end-to-end metric is 0;
* two runs with one seed give *identical* count metrics on ``hidden_small``
  and ``extent_wire`` (one client, fixed op count: device traffic, flushes
  and modelled disk time are functions of the inputs only).

Not collected by pytest on purpose: it spawns the benchmark ten times (about
three minutes), and tier-1 must not wait for, or flake on, a benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
COUNT_METRICS = ("read_amp", "write_amp", "space_amp", "flushes_per_write", "disk_ms_per_op")
EXACT_WORKLOADS = ("hidden_small", "extent_wire")


def run(workload: str, trace: int, seed: int = 2003) -> dict:
    """One smoke-sized run; returns its result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload}: verification failed: {result['failed']} of {result['attempted']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {name: w.why for name, w in WORKLOADS.items()}:
        raise SystemExit("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in declared:
        first = run(workload, 0)
        for name, metric in first["metrics"].items():
            if not metric["value"] > 0:
                raise SystemExit(f"{workload}: end-to-end metric {name} is {metric['value']}")
        run(workload, 1)
        if workload in EXACT_WORKLOADS:
            again = run(workload, 0)
            for name in COUNT_METRICS:
                a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
                if a != b:
                    raise SystemExit(f"{workload}: {name} did not repeat: {a!r} != {b!r}")
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
