"""Validation of the experiment drivers themselves.

Two kinds of checks: (1) the Figure 6 capacity *simulation* agrees with the
real StegRandStore's loss behaviour at small scale, and (2) each driver
runs end-to-end on a miniature configuration and produces sane, well-formed
series (so `pytest tests/` exercises the bench code paths without the full
experiment cost).
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.stegrand import StegRandStore
from repro.bench import ablation, fig6, fig7, fig8, fig9, space, tables
from repro.bench.fig6 import simulate_capacity
from repro.storage.block_device import RamDevice
from repro.workload.generator import WorkloadSpec


class TestFig6SimulationValidation:
    """The numpy-free capacity sim must match the real store's physics."""

    def _real_store_capacity(self, total_blocks: int, file_blocks: int,
                             replication: int, seed: int) -> float:
        """Load the real store until is_intact first fails."""
        device = RamDevice(block_size=64, total_blocks=total_blocks)
        store = StegRandStore(device, replication=replication,
                              rng=random.Random(seed), tag_mode="crc")
        payload_bytes = file_blocks * store.payload_per_block - 16
        loaded = 0
        names: list[str] = []
        for index in range(10_000):
            name = f"f{index}"
            store.store(name, b"\xab" * payload_bytes)
            names.append(name)
            if not all(store.is_intact(n) for n in names):
                break
            loaded += 1
        return loaded * file_blocks / total_blocks

    @pytest.mark.parametrize("replication", [2, 4])
    def test_simulation_matches_real_store(self, replication):
        total_blocks, file_blocks, trials = 512, 8, 15
        real = [
            self._real_store_capacity(total_blocks, file_blocks, replication, seed)
            for seed in range(trials)
        ]
        sim = [
            simulate_capacity(
                total_blocks, file_blocks, file_blocks, replication,
                random.Random(1000 + seed),
            )
            for seed in range(trials)
        ]
        real_mean = sum(real) / len(real)
        sim_mean = sum(sim) / len(sim)
        # Same stopping process, independent randomness: means agree well
        # inside the sampling noise at 15 trials (observed ratio ~1.0-1.1).
        assert sim_mean == pytest.approx(real_mean, rel=0.35, abs=0.02)

    def test_simulation_is_deterministic(self):
        a = simulate_capacity(1024, 4, 8, 4, random.Random(1))
        b = simulate_capacity(1024, 4, 8, 4, random.Random(1))
        assert a == b

    def test_simulation_validates_arguments(self):
        with pytest.raises(ValueError):
            simulate_capacity(0, 1, 1, 1, random.Random(0))
        with pytest.raises(ValueError):
            simulate_capacity(10, 0, 1, 1, random.Random(0))
        with pytest.raises(ValueError):
            simulate_capacity(10, 1, 1, 0, random.Random(0))

    def test_replication_one_dies_at_first_collision(self):
        """With r=1 the first address collision is fatal → tiny utilisation."""
        util = simulate_capacity(4096, 16, 16, 1, random.Random(3))
        assert util < 0.1


class TestMiniatureDrivers:
    """Every driver runs on a toy configuration inside the unit suite."""

    def test_fig7_miniature(self):
        spec = WorkloadSpec(
            block_size=512,
            file_size_min=4096,
            file_size_max=8192,
            volume_bytes=2 * 1024 * 1024,
            n_files=6,
            seed=1,
        )
        result = fig7.run(spec=spec, users=(1, 4), systems=("CleanDisk", "StegFS"))
        assert set(result.read_s) == {"CleanDisk", "StegFS"}
        for series in (*result.read_s.values(), *result.write_s.values()):
            assert len(series) == 2
            assert all(value > 0 for value in series)
            assert series[0] < series[1]  # more users, longer access times
        text = fig7.render(result)
        assert "Figure 7(a)" in text and "Figure 7(b)" in text

    def test_fig6_miniature(self):
        result = fig6.run(replications=(1, 4), block_sizes_kb=(1.0,), trials=1)
        assert len(result.utilization[1.0]) == 2
        assert fig6.render(result).startswith("Figure 6")

    def test_space_and_tables_render(self):
        text = tables.render_all()
        for token in ("Table 1", "Table 2", "Table 3", "Table 4", "rho_max"):
            assert token in text

    def test_ablation_ida_rows(self):
        rows = ablation.sweep_ida(seed=1)
        assert all(row[3] == "yes" for row in rows)

    def test_space_result_ratio_property(self):
        result = space.SpaceResult(stegfs=0.8, stegcover=0.7, stegrand=0.05, scale=1.0)
        assert result.stegfs_vs_stegrand == pytest.approx(16.0)
        degenerate = space.SpaceResult(stegfs=0.8, stegcover=0.7, stegrand=0.0, scale=1.0)
        assert degenerate.stegfs_vs_stegrand == float("inf")


def test_render_is_pure(tmp_path, monkeypatch):
    """Running and rendering writes nothing: only ``python -m repro.bench``
    and the claim files under ``benchmarks/`` persist tables, so this suite
    cannot overwrite the committed ones with miniatures."""
    monkeypatch.chdir(tmp_path)
    series = {"StegFS": [1.0]}
    texts = [
        fig6.render(fig6.run(replications=(1, 4), block_sizes_kb=(1.0,), trials=1)),
        fig7.render(fig7.Fig7Result(users=(1,), scale=1.0, read_s=series, write_s=series)),
        fig8.render(
            fig8.Fig8Result(
                sizes_kb=(200,), users=8, scale=1.0, read_s_per_kb=series, write_s_per_kb=series
            )
        ),
        fig9.render(
            fig9.Fig9Result(block_sizes_kb=(1.0,), scale=1.0, read_s=series, write_s=series)
        ),
        space.render(space.SpaceResult(stegfs=0.8, stegcover=0.7, stegrand=0.05, scale=1.0)),
        ablation.render(ablation.AblationResult(ida_rows=ablation.sweep_ida(seed=1))),
        tables.render_all(),
    ]
    assert all(texts)
    assert list(tmp_path.iterdir()) == []
