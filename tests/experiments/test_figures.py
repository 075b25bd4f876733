"""Structure tests for the experiment modules (tiny scales).

These verify the harness wiring — data shapes, filters, renders — without
asserting the paper's comparative results (the benchmarks do that at a
meaningful scale).
"""

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.experiments import (
    ablations,
    fig01_semantic_locality as fig01,
    fig05_reward as fig05,
    fig08_hit_depth_cdf as fig08,
    fig09_accuracy as fig09,
    fig10_l1_mpki as fig10,
    fig11_l2_mpki as fig11,
    fig12_speedup as fig12,
    fig13_storage_sweep as fig13,
    fig14_layout_agnostic as fig14,
    tables,
)
from repro.experiments.sweep import SCALES, sweep_workloads
from repro.memory.stats import ACCESS_CLASS_ORDER
from repro.sim.runner import compare
from repro.workloads.suites import get_workload
from tests.oracle import serial_compare, serial_context_grid


@pytest.fixture(scope="module")
def tiny_sweep():
    """A 3-workload × 3-prefetcher sweep shared by the figure tests."""
    workloads = [get_workload(name) for name in ("list", "array", "lbm")]
    return compare(workloads, prefetchers=("none", "sms", "context"), limit=4000)


class TestSweepHelpers:
    def test_scales_known(self):
        with pytest.raises(KeyError):
            sweep_workloads("gigantic")

    def test_small_scale_subset(self):
        names = [w.name for w in sweep_workloads("small")]
        assert "list" in names and "lbm" in names

    def test_full_scale_covers_registry(self):
        assert len(sweep_workloads("full")) >= 30


class TestFig01:
    def test_series_aligned(self):
        result = fig01.run(num_elements=40)
        assert len(result.physical_series) == len(result.logical_series)
        assert result.num_elements == 40

    def test_logical_linearity(self):
        result = fig01.run(num_elements=40)
        assert result.logical_step_unit_fraction > 0.95

    def test_render_contains_metrics(self):
        text = fig01.render(fig01.run(num_elements=40))
        assert "Figure 1" in text and "physical span" in text


class TestFig05:
    def test_curve_covers_depths(self):
        result = fig05.run(max_depth=60)
        assert [d for d, _ in result.curve] == list(range(61))

    def test_render(self):
        assert "Figure 5" in fig05.render(fig05.run())


class TestFig08:
    def test_cdf_per_workload(self):
        result = fig08.run(workloads=("list",))
        assert set(result.cdfs) == {"list"}
        assert result.window == (18, 50)

    def test_render(self):
        text = fig08.render(fig08.run(workloads=("list",)))
        assert "Figure 8" in text and "list" in text


class TestFig09:
    def test_breakdown_structure(self, tiny_sweep):
        result = fig09.run(comparison=tiny_sweep)
        assert set(result.breakdown) == {"list", "array", "lbm"}
        classes = result.breakdown["list"]["context"]
        assert set(classes) == set(ACCESS_CLASS_ORDER)

    def test_useful_fraction_bounds(self, tiny_sweep):
        result = fig09.run(comparison=tiny_sweep)
        for wl in result.breakdown:
            for pf in result.breakdown[wl]:
                assert 0.0 <= result.useful_fraction(wl, pf) <= 1.0

    def test_render(self, tiny_sweep):
        assert "Figure 9" in fig09.render(fig09.run(comparison=tiny_sweep))


class TestFig10And11:
    def test_threshold_filter(self, tiny_sweep):
        result = fig10.run(comparison=tiny_sweep)
        assert all(row["none"] > 5.0 for row in result.table.values())

    def test_average_covers_all_workloads(self, tiny_sweep):
        result = fig10.run(comparison=tiny_sweep)
        assert set(result.average) == {"none", "sms", "context"}

    def test_fig11_ratios_positive(self, tiny_sweep):
        result = fig11.run(comparison=tiny_sweep)
        assert result.ratio_vs_none > 0
        assert result.ratio_vs_sms > 0

    def test_average_is_correctly_rounded(self):
        class TenWorkloads:
            """Ten workloads whose L1 MPKI is 0.1 under every prefetcher."""

            def mpki(self, level):
                return {f"wl{i}": {"none": 0.1} for i in range(10)}

            def prefetchers(self):
                return ["none"]

        # ten 0.1s sum to 0.9999999999999999 left to right (Python 3.11)
        result = fig10.run(comparison=TenWorkloads())
        assert result.average == {"none": 0.1}

    def test_renders(self, tiny_sweep):
        assert "Figure 10" in fig10.render(fig10.run(comparison=tiny_sweep))
        assert "Figure 11" in fig11.render(fig11.run(comparison=tiny_sweep))


class TestFig12:
    def test_speedup_table_structure(self, tiny_sweep):
        result = fig12.run(comparison=tiny_sweep)
        assert set(result.speedups) == {"list", "array", "lbm"}
        assert "none" not in result.mean_all
        assert result.context_peak >= max(
            row["context"] for row in result.speedups.values()
        ) - 1e-9

    def test_spec_geomean_uses_spec_subset(self, tiny_sweep):
        result = fig12.run(comparison=tiny_sweep)
        # only lbm is a SPEC workload in the tiny sweep
        assert result.mean_spec["context"] == pytest.approx(
            result.speedups["lbm"]["context"]
        )

    def test_render(self, tiny_sweep):
        assert "GEOMEAN" in fig12.render(fig12.run(comparison=tiny_sweep))


class TestFig13:
    def test_grid_structure(self):
        result = fig13.run(scale="small", sizes=(256, 1024), workloads=("list",))
        assert set(result.mean_all) == {256, 1024}
        assert result.storage_kib[1024] > result.storage_kib[256]
        assert result.best_size_all() in (256, 1024)

    def test_render(self):
        result = fig13.run(scale="small", sizes=(256,), workloads=("list",))
        assert "Figure 13" in fig13.render(result)


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14.run(scale="small", prefetchers=("none", "context"))

    def test_structure(self, result):
        assert set(result.cpi) == {"ssca2", "graph500"}
        assert set(result.cpi["ssca2"]) == {"linked", "array"}
        gap = result.layout_gap("ssca2", "none")
        assert gap > 0

    def test_render(self, result):
        assert "Figure 14" in fig14.render(result)


class TestTables:
    def test_table1_lists_all_attributes(self):
        text = tables.table1()
        for name in ("IP", "TYPE_ID", "ADDR_HISTORY"):
            assert name in text

    def test_table2_reports_storage(self):
        text = tables.table2()
        assert "KiB" in text and "MSHRs" in text

    def test_table3_matches_registry(self):
        text = tables.table3()
        assert "spec2006" in text and "listsort" in text


class TestAblations:
    def test_variant_grid(self):
        configs = ablations.variant_configs()
        assert "full" in configs and "no-reducer" in configs
        assert not configs["no-reducer"].adaptive_reduction
        assert configs["flat-reward"].reward_shape == "flat"

    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(workloads=("array",))

    def test_run_structure(self, result):
        expected = set(ablations.variant_configs()) | set(
            ablations.hierarchy_variants()
        )
        assert set(result.means) == expected
        assert all(m > 0 for m in result.means.values())

    def test_render(self, result):
        assert "Ablations" in ablations.render(result)

    def test_speedups_equal_a_direct_simulator_loop(self, monkeypatch):
        limit = 1000
        monkeypatch.setitem(SCALES, "tiny", dict(limit=limit, subset=True))
        result = ablations.run("tiny", workloads=("list",))

        baseline = serial_compare(["list"], ("none",), limit=limit).get("list", "none")
        configs = ablations.variant_configs()
        grid = serial_context_grid(["list"], configs.values(), limit=limit)
        runs = dict(zip(configs, grid))
        for label, hierarchy in ablations.hierarchy_variants().items():
            (runs[label],) = serial_context_grid(
                ["list"], [ContextPrefetcherConfig()], limit=limit,
                hierarchy_config=hierarchy,
            )
        assert result.speedups == {
            label: {"list": by_wl["list"].speedup_over(baseline)}
            for label, by_wl in runs.items()
        }
