"""Tables 1–4: regenerate the paper's configuration tables and pin them."""

from __future__ import annotations

import pytest

from repro.bench import tables
from repro.bench.common import write_result
from repro.core.params import StegFSParams
from repro.storage.disk_model import DiskParameters
from repro.workload.generator import KB, MB, WorkloadSpec


def test_table1_parameters():
    text = tables.table1()
    print("\n" + text)
    params = StegFSParams.paper_defaults()
    assert params.abandoned_fraction == pytest.approx(0.01)
    assert (params.pool_min, params.pool_max) == (0, 10)
    assert params.dummy_count == 10
    assert params.dummy_avg_size == 1 * MB


def test_table2_disk_model():
    text = tables.table2()
    print("\n" + text)
    disk = DiskParameters()
    # Calibration anchor (§5.1): ~2 s of I/O for a 2 MB file at 1 KB blocks
    # on the native path ⇒ ~1 ms per sequential 1 KB block.
    per_block_ms = disk.overhead_ms + disk.transfer_ms(1 * KB)
    assert 0.5 <= per_block_ms <= 2.5
    # Convergence calibration: writes saturate before reads (8 vs 16 users).
    assert disk.write_segments < disk.read_segments <= 16


def test_table3_workload():
    text = tables.table3()
    print("\n" + text)
    spec = WorkloadSpec.paper_defaults()
    assert spec.block_size == 1 * KB
    assert spec.volume_bytes == 1024 * MB
    assert spec.n_files == 100
    assert (spec.file_size_min, spec.file_size_max) == (1 * MB + 1, 2 * MB)


def test_table4_systems():
    text = tables.table4()
    print("\n" + text)
    for name in ("StegFS", "StegCover", "StegRand", "CleanDisk", "FragDisk"):
        assert name in text


def test_render_all_persists():
    """The claim run, not ``render_all``, is what writes the committed table."""
    text = tables.render_all()
    with open(write_result("tables", text), encoding="utf-8") as handle:
        assert handle.read() == text
