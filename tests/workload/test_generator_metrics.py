"""Workload spec and job generation."""

from __future__ import annotations

import pytest

from repro.workload.generator import KB, MB, WorkloadSpec, generate_jobs


class TestWorkloadSpec:
    def test_paper_defaults_match_table3(self):
        spec = WorkloadSpec.paper_defaults()
        assert spec.block_size == 1 * KB
        assert spec.file_size_max == 2 * MB
        assert spec.file_size_min == 1 * MB + 1
        assert spec.volume_bytes == 1024 * MB
        assert spec.n_files == 100
        assert spec.total_blocks == 1024 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(block_size=0)
        with pytest.raises(ValueError):
            WorkloadSpec(file_size_min=10, file_size_max=5)
        with pytest.raises(ValueError):
            WorkloadSpec(n_files=0)

    def test_scaling_preserves_ratios(self):
        spec = WorkloadSpec.paper_defaults()
        scaled = spec.scaled(1 / 16)
        assert scaled.block_size == spec.block_size
        ratio = spec.volume_bytes / spec.file_size_max
        scaled_ratio = scaled.volume_bytes / scaled.file_size_max
        assert scaled_ratio == pytest.approx(ratio, rel=0.01)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec().scaled(0)


class TestGenerateJobs:
    def test_count_and_size_range(self):
        spec = WorkloadSpec(n_files=50, file_size_min=100, file_size_max=200,
                            volume_bytes=1 * MB, block_size=256)
        jobs = generate_jobs(spec)
        assert len(jobs) == 50
        assert all(100 <= j.size <= 200 for j in jobs)
        assert len({j.file_id for j in jobs}) == 50

    def test_deterministic(self):
        spec = WorkloadSpec(n_files=10, seed=7)
        a = generate_jobs(spec)
        b = generate_jobs(spec)
        assert [(j.file_id, j.size) for j in a] == [(j.file_id, j.size) for j in b]

    def test_payload_matches_size_and_is_stable(self):
        spec = WorkloadSpec(n_files=3, file_size_min=50, file_size_max=80,
                            volume_bytes=1 * MB)
        job = generate_jobs(spec)[0]
        payload = job.payload()
        assert len(payload) == job.size
        assert payload == job.payload()

    def test_seed_changes_population(self):
        sizes = lambda seed: [j.size for j in generate_jobs(WorkloadSpec(n_files=20, seed=seed))]
        assert sizes(1) != sizes(2)
