"""CLI for the experiment drivers: ``python -m repro.bench <experiment>``."""

from __future__ import annotations

import sys

from repro.bench import ablation, fig6, fig7, fig8, fig9, space, tables
from repro.bench.common import write_result

_EXPERIMENTS = {
    "tables": tables.render_all,
    "fig6": lambda: fig6.render(fig6.run()),
    "fig7": lambda: fig7.render(fig7.run()),
    "fig8": lambda: fig8.render(fig8.run()),
    "fig9": lambda: fig9.render(fig9.run()),
    "space": lambda: space.render(space.run()),
    "ablation": lambda: ablation.render(ablation.run()),
}


def main(argv: list[str]) -> int:
    """Entry point; returns a process exit code."""
    targets = argv or ["all"]
    if targets == ["all"]:
        targets = list(_EXPERIMENTS)
    unknown = [t for t in targets if t not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: all, {', '.join(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for target in targets:
        text = _EXPERIMENTS[target]()
        write_result(target, text)
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
