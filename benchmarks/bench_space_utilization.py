"""§5.2 — effective space utilisation of the steganographic schemes.

Asserts the section's three headline numbers: StegFS > 80 %, StegCover
≈ 75 %, StegRand single-digit, and the "at least 10 times more
space-efficient than StegRand" claim.
"""

from __future__ import annotations

import pytest

from repro.bench import space
from repro.bench.common import write_result


@pytest.fixture(scope="module")
def result():
    return space.run()


def test_space_runs_and_renders(result):
    text = space.render(result)
    write_result("space", text)
    print("\n" + text)


def test_stegfs_utilization_above_75_percent(result):
    """Paper: 'StegFS is able to consistently achieve more than 80% space
    utilization' (allowing a small margin for the scaled volume, whose
    metadata is proportionally larger)."""
    assert result.stegfs > 0.75


def test_stegcover_utilization_near_75_percent(result):
    assert 0.60 <= result.stegcover <= 0.85


def test_stegrand_utilization_single_digit(result):
    assert result.stegrand < 0.12


def test_stegfs_at_least_10x_stegrand(result):
    assert result.stegfs_vs_stegrand >= 10.0


def test_ordering(result):
    assert result.stegfs > result.stegcover > result.stegrand
