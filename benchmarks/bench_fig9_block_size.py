"""Figure 9 — serial (single-user) access time vs block size.

Asserts the §5.4 claims: CleanDisk best (contiguous + read-ahead), FragDisk
pays per-fragment seeks, StegFS pays per-block seeks but still beats the
other steganographic schemes; the penalty shrinks as blocks grow.
"""

from __future__ import annotations

import pytest

from repro.bench import fig9
from repro.bench.common import write_result


@pytest.fixture(scope="module")
def result():
    return fig9.run()


def test_fig9_runs_and_renders(result):
    text = fig9.render(result)
    write_result("fig9", text)
    print("\n" + text)


@pytest.mark.parametrize("op", ["read", "write"])
def test_serial_ordering(result, op):
    """CleanDisk < FragDisk < StegFS < StegCover at every block size.

    The FragDisk < StegFS link is §5.4's seek-per-fragment versus
    seek-per-block argument: with its directory and inode in core, as any
    kernel holds them, FragDisk positions once per 8-block fragment, StegFS
    once per sealed block (one more than the file's native blocks, since a
    sealed block also carries its nonce).  With n blocks per file that is
    ceil(n/8) against n + 1: strict at every point, down to the one block per
    file of the 64 KB end of the default 1/16 scale.
    """
    table = result.read_s if op == "read" else result.write_s
    for i in range(len(result.block_sizes_kb)):
        assert table["CleanDisk"][i] < table["FragDisk"][i]
        assert table["FragDisk"][i] < table["StegFS"][i]
        assert table["StegFS"][i] < table["StegCover"][i]


def test_stegfs_penalty_is_noticeable_serially(result):
    """§5.4: 'the penalty that StegFS incurs … is noticeable when the load
    is so light that file I/Os are not interleaved.'"""
    i = result.block_sizes_kb.index(1)
    assert result.read_s["StegFS"][i] > 3.0 * result.read_s["CleanDisk"][i]


def test_access_time_falls_with_block_size(result):
    for table in (result.read_s, result.write_s):
        for name, series in table.items():
            assert series[0] > series[-1], name
            # Strictly decreasing modulo small noise at the tail.
            assert all(a >= b * 0.9 for a, b in zip(series, series[1:])), name


def test_gaps_compress_at_large_blocks(result):
    """Seek amortisation: the StegFS penalty, in seconds, shrinks with block size.

    The penalty is the difference, as the module docstring words it, not the
    ratio: StegFS pays a seek per block and CleanDisk one per file, both pay
    the same transfer, so with n blocks per file the ratio stays near the
    price of a seek over the price of a sequential block (about 5 here, at
    every block size) while the difference falls with n.
    """
    first = result.block_sizes_kb.index(0.5)
    last = result.block_sizes_kb.index(64)
    penalty_small = result.read_s["StegFS"][first] - result.read_s["CleanDisk"][first]
    penalty_large = result.read_s["StegFS"][last] - result.read_s["CleanDisk"][last]
    assert 0 < penalty_large < 0.1 * penalty_small


def test_stegrand_read_close_to_stegfs(result):
    """Both pay a seek per block, down to the one-block-per-file end."""
    for i, block_kb in enumerate(result.block_sizes_kb):
        ratio = result.read_s["StegRand"][i] / result.read_s["StegFS"][i]
        assert 0.8 <= ratio <= 1.6, (block_kb, ratio)
