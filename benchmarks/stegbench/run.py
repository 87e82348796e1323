"""stegbench: one closed-loop, count-anchored benchmark for the whole stack.

    python3 benchmarks/stegbench/run.py --workload hidden_small --seed 2003 \
        --seconds 14 --trace 0

builds the system under test from source (``src/`` of the checkout this file
lives in), drives one workload, verifies every byte it timed, and prints as
the last line of standard output one JSON object::

    {"correct": true, "attempted": 1961, "failed": 0,
     "metrics": {"disk_ms_per_op": {"value": 140.2, "unit": "ms"}, ...}}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (counts, raw timings, benchmark-owned spans, kernel probes).  The
names and units printed must be those ``BENCHMARK.json`` declares, in both
directions, or the run fails.  See README.md here for the protocol.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def undeclared(metrics: dict, trace: int) -> str:
    """How the names and units of ``metrics`` differ from BENCHMARK.json's."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want == have:
        return ""
    return (
        f"not printed {sorted(set(want) - set(have))}; "
        f"not declared {sorted(set(have) - set(want))}; "
        f"unit differs {sorted(n for n in set(want) & set(have) if want[n] != have[n])}"
    )


def main(argv: list[str] | None = None) -> int:
    """Run one workload once; exit code 0 only if every check passed."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument(
        "--seconds", type=float, default=14.0,
        help="length of the timed window on an ordinary stretch of this sandbox; sets its op count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"stegbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"stegbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    system, setup_s, kernel_s = harness.measure_setup(workload, args.seed, 1 if args.trace else 3)
    try:
        rng = random.Random(args.seed * 7919 + 1)
        harness.run_window(workload, system, rng, args.seconds / 10, slices=1)  # warm-up
        if args.trace:
            import layers

            metrics, attempted, failed = layers.traced_run(workload, system, rng, args)
            metrics["bench.kernel_ms"] = (kernel_s * 1000, "ms")
        else:
            window = harness.run_window(workload, system, rng, args.seconds)
            metrics = harness.end_to_end(workload, system, window, setup_s)
            attempted, failed = window.attempted, window.failed
        checks, missed, flagged = harness.verify_failures(workload, system)
        attempted += checks
        failed += missed
    finally:
        system.close()
    if workload.durability_check:
        checks, lost = harness.durability_failures(workload, args.seed)
        attempted += checks
        failed += lost
    if args.trace:
        metrics["analysis.flagged_block_frac"] = (flagged, "1")
        metrics["bench.fail_frac"] = (failed / attempted, "1")
    else:
        # fail_frac as a number that is never 0, which a bound needs.
        metrics["verified_frac"] = ((attempted - failed) / attempted, "1")
    if mismatch := undeclared(metrics, args.trace):
        print(f"stegbench: metrics differ from BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
