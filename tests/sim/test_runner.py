"""Tests for the sweep runner."""

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.sim.config import PREFETCHER_FACTORIES, make_prefetcher
from repro.sim.parallel import run_grid
from repro.sim.runner import compare, run_workload
from repro.workloads.arrays import ArrayTraversalProgram
from repro.workloads.linked_list import ListTraversalProgram


SMALL_LIST = lambda: ListTraversalProgram(num_nodes=128, iterations=4)
SMALL_ARRAY = lambda: ArrayTraversalProgram(num_elements=512, iterations=3)


class TestFactories:
    def test_all_prefetchers_registered(self):
        assert set(PREFETCHER_FACTORIES) == {
            "none",
            "stride",
            "ghb-gdc",
            "ghb-pcdc",
            "sms",
            "markov",
            "context",
        }

    def test_make_prefetcher(self):
        assert make_prefetcher("sms").name == "sms"

    def test_unknown_prefetcher(self):
        with pytest.raises(KeyError):
            make_prefetcher("oracle")


class TestRunWorkload:
    def test_accepts_program_instance(self):
        result = run_workload(SMALL_LIST(), "none")
        assert result.workload == "list"
        assert result.prefetcher == "none"

    def test_accepts_registry_name(self):
        result = run_workload("random", "none", limit=500)
        assert result.workload == "random"

    def test_accepts_prefetcher_instance(self):
        pf = make_prefetcher("stride")
        result = run_workload(SMALL_ARRAY(), pf)
        assert result.prefetcher == "stride"


class TestCompare:
    def test_grid_complete(self):
        comp = compare([SMALL_LIST(), SMALL_ARRAY()], prefetchers=("none", "context"))
        assert comp.workloads() == ["list", "array"]
        assert comp.prefetchers() == ["none", "context"]

    def test_speedups_relative_to_baseline(self):
        comp = compare([SMALL_LIST()], prefetchers=("none", "context"))
        speedups = comp.speedups()
        assert "none" not in speedups["list"]
        assert speedups["list"]["context"] > 0

    def test_mean_speedups_geomean(self):
        comp = compare(
            [SMALL_LIST(), SMALL_ARRAY()], prefetchers=("none", "context")
        )
        mean = comp.mean_speedups()["context"]
        per_wl = comp.speedups()
        lo = min(per_wl[w]["context"] for w in per_wl)
        hi = max(per_wl[w]["context"] for w in per_wl)
        assert lo <= mean <= hi

    def test_mpki_table(self):
        comp = compare([SMALL_LIST()], prefetchers=("none",))
        table = comp.mpki("l1")
        assert table["list"]["none"] >= 0

    def test_progress_callback(self):
        lines = []
        compare([SMALL_ARRAY()], prefetchers=("none",), progress=lines.append)
        assert len(lines) == 2
        assert "array/none" in lines[0]
        assert "1 cells, 1 executed, 0 resumed" in lines[1]

    def test_same_trace_replayed_per_prefetcher(self):
        comp = compare([SMALL_LIST()], prefetchers=("none", "stride"))
        a = comp.get("list", "none")
        b = comp.get("list", "stride")
        assert a.instructions == b.instructions


def cst_sweep(workloads, cst_sizes, limit=None):
    """Figure 13's grid: one context-config slot per CST size."""
    configs = [ContextPrefetcherConfig().scaled(size) for size in cst_sizes]
    slices = run_grid(workloads, ("context",), context_configs=configs, limit=limit)
    return dict(zip(cst_sizes, slices))


class TestStorageSweep:
    def test_figure13_grid(self):
        results = cst_sweep([SMALL_LIST()], cst_sizes=[256, 1024], limit=800)
        assert set(results) == {256, 1024}
        assert results[256].workloads() == ["list"]

    def test_larger_cst_not_worse_on_small_workload(self):
        results = cst_sweep([SMALL_LIST()], cst_sizes=[64, 2048])
        # with a tiny CST the working set cannot be covered
        small = results[64].get("list", "context").ipc
        large = results[2048].get("list", "context").ipc
        assert large >= small * 0.9


class TestCompareCacheKeyword:
    """``compare(cache=...)`` is inert; only the benchmark passes it."""

    def test_false_and_none_are_accepted(self):
        for cache in (None, False):
            result = compare([SMALL_ARRAY()], ("none",), limit=200, cache=cache)
            assert result.workloads() == ["array"]

    @pytest.mark.parametrize("cache", [True, "results/.cache"])
    def test_any_other_value_raises(self, cache):
        with pytest.raises(TypeError, match="result DB"):
            compare([SMALL_ARRAY()], ("none",), limit=200, cache=cache)
