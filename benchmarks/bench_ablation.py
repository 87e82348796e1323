"""Ablations over the §3.1 design choices + the deniability experiment.

Not a paper figure: these sweeps quantify what each mechanism (abandoned
blocks, dummies, pools, IDA dispersal) costs and buys; the four sweeps are
listed in the docstring of :mod:`repro.bench.ablation`.
"""

from __future__ import annotations

import pytest

from repro.bench import ablation
from repro.bench.common import write_result


@pytest.fixture(scope="module")
def result():
    return ablation.run()


def test_ablation_runs_and_renders(result):
    text = ablation.render(result)
    write_result("ablation", text)
    print("\n" + text)


def test_abandoned_blocks_reduce_attacker_precision(result):
    precisions = [float(row[2]) for row in result.abandoned_rows]
    # More abandoned cover → strictly harder census attack.
    assert precisions[-1] < precisions[0]
    # With no decoys at all, the census attack is near-perfect.
    assert precisions[0] > 0.5


def test_dummies_pollute_snapshot_attack(result):
    decoy_fractions = [float(row[3]) for row in result.dummy_rows]
    assert decoy_fractions[-1] > decoy_fractions[0]


def test_pool_overhead_scales_with_rho_max(result):
    pool_blocks = [int(row[2]) for row in result.pool_rows]
    assert pool_blocks == sorted(pool_blocks)
    fractions = [float(row[3]) for row in result.pool_rows]
    assert fractions[-1] > fractions[0]


def test_ida_storage_factor_is_n_over_m(result):
    for row in result.ida_rows:
        m, n = (int(x) for x in row[0].split("-of-"))
        factor = float(row[1].rstrip("x"))
        assert factor == pytest.approx(n / m, rel=0.05)
        assert row[3] == "yes"
