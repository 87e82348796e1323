"""Figure 7 — access time vs concurrent users, all five systems.

Asserts the §5.3 claims:

* StegCover is far worse than everything else (multi-cover I/O blow-up);
* StegRand reads are worse than StegFS (replica hunting) and its writes
  are several times worse (all replicas written);
* CleanDisk and FragDisk beat StegFS under light load but converge —
  reads match from 16 users, writes from 8.
"""

from __future__ import annotations

import pytest

from repro.bench import fig7
from repro.bench.common import write_result


@pytest.fixture(scope="module")
def result():
    return fig7.run()


def test_fig7_runs_and_renders(result):
    text = fig7.render(result)
    write_result("fig7", text)
    print("\n" + text)


class TestReadClaims:
    def test_stegcover_is_worst_everywhere(self, result):
        """"Its read and write access times are very much worse than the
        rest."  Strictly worst at every point; the multi-cover blow-up is
        ≥2× from 2 users on (at 1 user the drive's read-ahead segments
        absorb some of the 8 interleaved sequential cover streams)."""
        for i, users in enumerate(result.users):
            others = max(
                result.read_s[name][i]
                for name in ("CleanDisk", "FragDisk", "StegRand", "StegFS")
            )
            factor = 2.0 if users >= 2 else 1.2
            assert result.read_s["StegCover"][i] > factor * others

    def test_stegrand_reads_above_stegfs(self, result):
        for i in range(len(result.users)):
            assert result.read_s["StegRand"][i] > result.read_s["StegFS"][i]

    def test_native_wins_under_light_load(self, result):
        i1 = result.users.index(1)
        assert result.read_s["CleanDisk"][i1] < result.read_s["StegFS"][i1] / 2

    def test_convergence_from_16_users(self, result):
        """'StegFS matches both CleanDisk and FragDisk from 16 concurrent
        users onwards for read operations.'"""
        for users in (16, 32):
            i = result.users.index(users)
            for native in ("CleanDisk", "FragDisk"):
                ratio = result.read_s["StegFS"][i] / result.read_s[native][i]
                assert ratio < 1.6, (users, native, ratio)

    def test_not_converged_at_8_users(self, result):
        i = result.users.index(8)
        assert result.read_s["StegFS"][i] > 2.0 * result.read_s["CleanDisk"][i]


class TestWriteClaims:
    def test_stegcover_is_worst_everywhere(self, result):
        for i in range(len(result.users)):
            others = max(
                result.write_s[name][i]
                for name in ("CleanDisk", "FragDisk", "StegRand", "StegFS")
            )
            assert result.write_s["StegCover"][i] > 2.0 * others

    def test_stegrand_writes_much_worse_than_stegfs(self, result):
        """All replicas must be updated: ≈ replication-factor blow-up."""
        for i in range(len(result.users)):
            ratio = result.write_s["StegRand"][i] / result.write_s["StegFS"][i]
            assert ratio > 2.5, (result.users[i], ratio)

    def test_convergence_from_8_users(self, result):
        """'…and from just 8 users for write operations.'"""
        for users in (8, 16, 32):
            i = result.users.index(users)
            for native in ("CleanDisk", "FragDisk"):
                ratio = result.write_s["StegFS"][i] / result.write_s[native][i]
                assert ratio < 1.6, (users, native, ratio)

    def test_not_converged_at_4_users(self, result):
        i = result.users.index(4)
        assert result.write_s["StegFS"][i] > 2.0 * result.write_s["CleanDisk"][i]


def test_access_times_grow_with_user_count(result):
    for table in (result.read_s, result.write_s):
        for series in table.values():
            assert all(a < b for a, b in zip(series, series[1:]))
