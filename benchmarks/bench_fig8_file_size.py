"""Figure 8 — normalized access time (sec/KB) vs file size.

Asserts the §5.3 claim the figure exists for: "the relative trade-offs
between the various schemes are independent of the file size" — per-KB
curves are roughly flat and the system ordering is stable across sizes.
"""

from __future__ import annotations

import pytest

from repro.bench import fig8
from repro.bench.common import write_result


@pytest.fixture(scope="module")
def result():
    return fig8.run()


def test_fig8_runs_and_renders(result):
    text = fig8.render(result)
    write_result("fig8", text)
    print("\n" + text)


@pytest.mark.parametrize("op", ["read", "write"])
def test_ordering_is_independent_of_file_size(result, op):
    table = result.read_s_per_kb if op == "read" else result.write_s_per_kb
    orderings = set()
    for i in range(len(result.sizes_kb)):
        ranked = tuple(sorted(table, key=lambda name: table[name][i]))
        orderings.add(ranked)
        # StegCover is the most expensive per KB at every size.
        assert ranked[-1] == "StegCover"
    assert len(orderings) <= 2  # ordering essentially stable across sizes


@pytest.mark.parametrize("op", ["read", "write"])
def test_normalized_curves_are_roughly_flat(result, op):
    """sec/KB varies far less than file size does (10×)."""
    table = result.read_s_per_kb if op == "read" else result.write_s_per_kb
    for name, series in table.items():
        spread = max(series) / min(series)
        assert spread < 4.0, (name, series)


def test_stegrand_write_penalty_holds_at_every_size(result):
    for i in range(len(result.sizes_kb)):
        assert (
            result.write_s_per_kb["StegRand"][i]
            > 2.0 * result.write_s_per_kb["StegFS"][i]
        )
