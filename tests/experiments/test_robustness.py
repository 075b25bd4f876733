"""Tests for the seed-robustness experiment."""

from dataclasses import replace

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.experiments import robustness
from repro.experiments.robustness import RobustnessResult, SpeedupSpread
from repro.experiments.sweep import SCALES
from repro.workloads.suites import get_workload
from tests.oracle import serial_compare, serial_context_grid

#: a scale small enough for the interpreted oracle to replay every seed
TINY = dict(limit=1000, subset=True)


class TestSpeedupSpread:
    def test_statistics(self):
        spread = SpeedupSpread([1.0, 2.0, 3.0])
        assert spread.mean == pytest.approx(2.0)
        assert spread.spread == pytest.approx(2.0)
        assert spread.stdev == pytest.approx(1.0)
        assert spread.cv == pytest.approx(0.5)

    def test_single_sample(self):
        spread = SpeedupSpread([1.5])
        assert spread.stdev == 0.0
        assert spread.cv == 0.0


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return robustness.run(workloads=("array",), seeds=(7, 11))

    def test_both_axes_covered(self, result):
        assert set(result.workload_seed_spread) == {"array"}
        assert set(result.prefetcher_seed_spread) == {"array"}

    def test_sample_counts(self, result):
        assert len(result.workload_seed_spread["array"].samples) == 2
        assert len(result.prefetcher_seed_spread["array"].samples) == 2

    def test_speedups_positive(self, result):
        assert all(s > 0 for s in result.workload_seed_spread["array"].samples)

    def test_different_workload_seeds_give_different_traces(self, result):
        # not identical samples (heap shuffling differs per seed)
        samples = result.workload_seed_spread["array"].samples
        # array is deterministic in layout, so allow equality here; the
        # meaningful check is that the run completed per-seed
        assert len(samples) == 2

    def test_exploration_noise_is_small(self, result):
        # ε-greedy randomness should perturb, not dominate, the result
        assert result.prefetcher_seed_spread["array"].cv < 0.25

    def test_render(self, result):
        text = robustness.render(result)
        assert "Seed robustness" in text
        assert "workload-seed" in text and "prefetcher-seed" in text


class TestAgainstOracle:
    def test_both_seed_axes_equal_a_direct_simulator_loop(self, monkeypatch):
        monkeypatch.setitem(SCALES, "tiny", TINY)
        workloads, seeds = ("list",), (7, 11)
        result = robustness.run("tiny", workloads, seeds)

        limit = TINY["limit"]

        def workload_seed_speedup(name, seed):
            program = get_workload(name).build()
            program.seed = seed
            runs = serial_compare([program], ("none", "context"), limit=limit)
            return runs.get(name, "context").speedup_over(runs.get(name, "none"))

        baselines = serial_compare(workloads, ("none",), limit=limit)
        per_seed = serial_context_grid(
            workloads,
            [replace(ContextPrefetcherConfig(), seed=seed) for seed in seeds],
            limit=limit,
        )
        expected = RobustnessResult(
            workload_seed_spread={
                name: SpeedupSpread(
                    [workload_seed_speedup(name, seed) for seed in seeds]
                )
                for name in workloads
            },
            prefetcher_seed_spread={
                name: SpeedupSpread(
                    [
                        by_wl[name].speedup_over(baselines.get(name, "none"))
                        for by_wl in per_seed
                    ]
                )
                for name in workloads
            },
        )
        assert result == expected
        assert robustness.render(result) == robustness.render(expected)
