"""Tests for result containers and derived metrics."""

import math

import pytest

from repro.memory.stats import AccessClass, AccessClassifier, CacheStats
from repro.sim.metrics import HitDepthCDF, SimulationResult, geomean


class TestGeomean:
    def test_single_value(self):
        assert geomean([2.0]) == pytest.approx(2.0)

    def test_classic_pair(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_log_sum_is_correctly_rounded(self):
        # the small middle log is lost when added to the large one left
        # to right (Python 3.11's float sum()); 3.12's sum() and fsum
        # keep it, so the report does not depend on the interpreter
        values = [2.0**1000, math.exp(1e-13), 2.0**-1000]
        logs = [math.log(v) for v in values]
        assert geomean(values) == math.exp(math.fsum(logs) / len(logs))


class TestHitDepthCDF:
    def test_cdf_monotone_and_terminal(self):
        cdf = HitDepthCDF()
        for depth in (10, 20, 20, 30):
            cdf.add(depth)
        series = cdf.cdf(max_depth=40)
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_cdf_step_positions(self):
        cdf = HitDepthCDF()
        cdf.add(5, count=3)
        cdf.add(10, count=1)
        series = dict(cdf.cdf(max_depth=12))
        assert series[4] == 0.0
        assert series[5] == pytest.approx(0.75)
        assert series[10] == pytest.approx(1.0)

    def test_window_fractions_partition(self):
        cdf = HitDepthCDF()
        for depth in (5, 20, 30, 60):
            cdf.add(depth)
        late = cdf.fraction_late(18)
        inside = cdf.fraction_in_window(18, 50)
        early = cdf.fraction_early(50)
        assert late + inside + early == pytest.approx(1.0)
        assert inside == pytest.approx(0.5)

    def test_empty_cdf(self):
        cdf = HitDepthCDF()
        assert cdf.total == 0
        assert cdf.fraction_in_window(18, 50) == 0.0
        assert all(v == 0.0 for _, v in cdf.cdf(10))

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            HitDepthCDF().add(-1)


def result(ipc_cycles, instructions=1000, **kwargs) -> SimulationResult:
    defaults = dict(
        workload="w",
        prefetcher="p",
        instructions=instructions,
        cycles=ipc_cycles,
        l1=CacheStats(name="L1D"),
        l2=CacheStats(name="L2"),
        classifier=AccessClassifier(),
        hit_depths=HitDepthCDF(),
    )
    defaults.update(kwargs)
    return SimulationResult(**defaults)


class TestSimulationResult:
    def test_ipc_cpi(self):
        r = result(ipc_cycles=500)
        assert r.ipc == pytest.approx(2.0)
        assert r.cpi == pytest.approx(0.5)

    def test_speedup_over(self):
        fast, slow = result(500), result(1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_mpki_delegates_to_stats(self):
        r = result(500)
        for _ in range(10):
            r.l1.record(hit=False)
        assert r.l1_mpki == pytest.approx(10.0)

    def test_class_fraction(self):
        r = result(500)
        r.classifier.record_demand(AccessClass.HIT_PREFETCHED)
        assert r.class_fraction(AccessClass.HIT_PREFETCHED) == 1.0

    def test_summary_mentions_names(self):
        text = result(500).summary()
        assert "w/p" in text and "IPC" in text
