"""Tests for the trace-driven simulator."""

import pytest

from repro.memory.hierarchy import HierarchyConfig
from repro.memory.stats import ACCESS_CLASS_ORDER, AccessClass
from repro.prefetchers.base import Prefetcher, PrefetchRequest
from repro.prefetchers.nopf import NoPrefetcher
from repro.sim.codec import encode_text
from repro.sim.config import PREFETCHER_FACTORIES
from repro.sim.simulator import Simulator
from repro.workloads.suites import get_workload
from repro.workloads.trace import TraceBuilder


def sequential_trace(n=200, start=0x10000, step=64):
    tb = TraceBuilder()
    for i in range(n):
        tb.load(start + i * step, "seq", gap=2)
    return tb.accesses


class NextLinePrefetcher(Prefetcher):
    """Deterministic test prefetcher: fetch a few lines ahead.

    The lookahead must out-run the DRAM latency for prefetches to turn
    into full hits rather than in-flight merges.
    """

    name = "nextline"
    lookahead = 6

    def on_access(self, access):
        return [PrefetchRequest(addr=access.addr + self.lookahead * 64)]


class ShadowOnlyPrefetcher(Prefetcher):
    name = "shadowonly"

    def on_access(self, access):
        return [PrefetchRequest(addr=access.addr + 64, shadow=True)]


class TestBasicRun:
    def test_counts_and_cycles_positive(self):
        sim = Simulator(NoPrefetcher())
        result = sim.run(sequential_trace(), workload_name="seq")
        assert result.workload == "seq"
        assert result.instructions > 0
        assert result.cycles > 0
        assert result.l1.accesses == 200

    def test_limit_truncates(self):
        sim = Simulator(NoPrefetcher())
        result = sim.run(sequential_trace(200), limit=50)
        assert result.l1.accesses == 50

    def test_classification_covers_every_demand(self):
        sim = Simulator(NoPrefetcher())
        result = sim.run(sequential_trace())
        demand_classes = [c for c in ACCESS_CLASS_ORDER if c != AccessClass.PREFETCH_NEVER_HIT]
        assert sum(result.classifier.counts[c] for c in demand_classes) == 200

    def test_deterministic(self):
        a = Simulator(NoPrefetcher()).run(sequential_trace())
        b = Simulator(NoPrefetcher()).run(sequential_trace())
        assert a.cycles == b.cycles
        assert a.l1.misses == b.l1.misses


class TestPrefetchPlumbing:
    def test_next_line_prefetcher_converts_misses(self):
        base = Simulator(NoPrefetcher()).run(sequential_trace(400))
        pf = Simulator(NextLinePrefetcher()).run(sequential_trace(400))
        assert pf.l1.misses < base.l1.misses
        useful = (
            pf.classifier.counts[AccessClass.HIT_PREFETCHED]
            + pf.classifier.counts[AccessClass.SHORTER_WAIT]
        )
        assert useful > 100
        assert pf.ipc > base.ipc

    def test_shadow_requests_never_touch_memory(self):
        result = Simulator(ShadowOnlyPrefetcher()).run(sequential_trace(300))
        assert result.prefetches_issued == 0
        assert result.prefetches_shadow == 300
        # but they are tracked for hit depth and NON_TIMELY classification
        assert result.classifier.counts[AccessClass.NON_TIMELY] > 0

    def test_hit_depths_recorded(self):
        result = Simulator(NextLinePrefetcher()).run(sequential_trace(300))
        assert result.hit_depths.total > 0
        # predictions hit `lookahead` accesses later
        assert result.hit_depths.histogram[NextLinePrefetcher.lookahead] > 100

    def test_storage_reported(self):
        result = Simulator(NoPrefetcher()).run(sequential_trace(10))
        assert result.storage_bits == 0


class TestTimingSanity:
    def test_dependent_chain_slower_than_independent(self):
        tb_dep = TraceBuilder()
        tb_ind = TraceBuilder()
        for i in range(200):
            addr = 0x10000 + i * 4096  # distinct lines, L1-missing
            tb_dep.load(addr, "d", depends=True, gap=2)
            tb_ind.load(addr, "i", gap=2)
        dep = Simulator(NoPrefetcher()).run(tb_dep.accesses)
        ind = Simulator(NoPrefetcher()).run(tb_ind.accesses)
        assert dep.cycles > 1.5 * ind.cycles

    def test_cache_resident_trace_runs_near_width(self):
        tb = TraceBuilder()
        for _ in range(800):  # long enough to amortise the 8 cold misses
            for i in range(8):
                tb.load(0x10000 + i * 64, "hot", gap=3)
        result = Simulator(NoPrefetcher()).run(tb.accesses)
        assert result.ipc > 2.0

    def test_custom_hierarchy_config(self):
        config = HierarchyConfig(dram_latency=1000)
        slow = Simulator(NoPrefetcher(), hierarchy_config=config).run(
            sequential_trace(100, step=4096)
        )
        fast = Simulator(NoPrefetcher()).run(sequential_trace(100, step=4096))
        assert slow.cycles > fast.cycles

    def test_branches_count_as_instructions(self):
        tb = TraceBuilder()
        tb.branch(True)
        tb.load(0x1000, "x", gap=0)
        result = Simulator(NoPrefetcher()).run(tb.accesses)
        assert result.instructions == 2


class TestConsecutiveRuns:
    @pytest.fixture(scope="class")
    def mcf(self):
        return get_workload("mcf").build().trace()[:6000]

    @pytest.mark.parametrize("name", sorted(PREFETCHER_FACTORIES))
    def test_a_result_is_unchanged_by_later_runs(self, name, mcf):
        """Each run's result keeps its own counts when the simulator runs
        again (the oracle's hierarchy keeps counting into its own cache
        stats), and the oracle and the kernel agree run by run."""
        sims = [
            Simulator(PREFETCHER_FACTORIES[name](), native=native)
            for native in (False, True)
        ]
        results = {sim: [] for sim in sims}
        texts = {sim: [] for sim in sims}
        for part in (mcf[:3000], mcf[3000:]):
            for sim in sims:
                result = sim.run(part, workload_name="mcf")
                results[sim].append(result)
                texts[sim].append(encode_text(result))
        oracle, native = sims
        assert results[oracle][0].l1.accesses == 3000
        for sim in sims:
            assert [encode_text(r) for r in results[sim]] == texts[sim]
        assert texts[native] == texts[oracle]
