"""Figure 6 — StegRand effective space utilisation vs replication factor.

Regenerates the full grid and asserts the paper's qualitative findings:

1. utilisation peaks in the replication window around 8–16;
2. beyond the window, replication overhead lowers utilisation;
3. smaller block sizes produce lower utilisation;
4. at 1 KB blocks the best utilisation is in the mid-single-digit percents
   ("only 5% space utilization … before data corruption sets in").
"""

from __future__ import annotations

from repro.bench import fig6
from repro.bench.common import write_result


def test_fig6_grid():
    result = fig6.run(trials=3)
    text = fig6.render(result)
    write_result("fig6", text)
    print("\n" + text)

    for block_kb in (0.5, 1, 2):
        peak_r, peak_util = result.peak(block_kb)
        series = result.utilization[block_kb]
        # (1) + (2): interior peak in the 4..32 window, with both r=1 and
        # r=64 strictly below it.
        assert 4 <= peak_r <= 32, (block_kb, peak_r)
        assert series[0] < peak_util
        assert series[-1] < peak_util

    # (3): averaged over the replication sweep, tiny blocks do worse than
    # large blocks.
    small = sum(result.utilization[0.5]) / len(result.utilization[0.5])
    large = sum(result.utilization[64]) / len(result.utilization[64])
    assert small < large

    # (4): the 1 KB safe capacity is single-digit percent — an order of
    # magnitude below any practical file system.
    _, best_1kb = result.peak(1)
    assert 0.01 <= best_1kb <= 0.15
