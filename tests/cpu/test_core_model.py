"""Tests for the interval OoO timing model."""

import pytest

from repro.cpu.core_model import CoreConfig, CoreModel


def run_accesses(model: CoreModel, accesses):
    """Drive (inst_gap, latency, depends) triples through the model."""
    for gap, latency, depends in accesses:
        issue = model.issue_time(gap, depends_on_prev=depends)
        model.complete(issue, latency, gap)
    return model.finalize()


class TestFrontendBandwidth:
    def test_all_hits_run_at_issue_width(self):
        model = CoreModel(CoreConfig(issue_width=4))
        stats = run_accesses(model, [(3, 2, False)] * 100)
        # 400 instructions at 4-wide ≈ 100 cycles (+ the final hit latency)
        assert stats.instructions == 400
        assert stats.cycles == pytest.approx(100, abs=5)

    def test_ipc_capped_by_width(self):
        model = CoreModel(CoreConfig(issue_width=4))
        stats = run_accesses(model, [(7, 2, False)] * 50)
        assert stats.ipc <= 4.0


class TestDependenceSerialisation:
    def test_dependent_chain_serialises_on_latency(self):
        model = CoreModel(CoreConfig())
        stats = run_accesses(model, [(1, 300, True)] * 10)
        # each access waits for the previous completion: ≥ 9 * 300
        assert stats.cycles >= 9 * 300

    def test_independent_misses_overlap(self):
        dep = CoreModel(CoreConfig())
        dep_stats = run_accesses(dep, [(1, 300, True)] * 10)
        indep = CoreModel(CoreConfig())
        indep_stats = run_accesses(indep, [(1, 300, False)] * 10)
        # MLP: independent misses take a fraction of the serial time
        assert indep_stats.cycles < dep_stats.cycles / 3


class TestWindowLimits:
    def test_load_queue_bounds_outstanding(self):
        model = CoreModel(CoreConfig(lq_size=2, rob_size=10_000))
        stats = run_accesses(model, [(0, 100, False)] * 10)
        # only 2 outstanding: every pair of accesses costs ~100 cycles
        assert stats.cycles >= 4 * 100

    def test_rob_blocks_distant_issue(self):
        # one long miss followed by many short ops: the ROB fills and
        # stalls the frontend until the miss returns
        model = CoreModel(CoreConfig(issue_width=4, rob_size=64, lq_size=32))
        accesses = [(0, 1000, False)] + [(3, 2, False)] * 100
        stats = run_accesses(model, accesses)
        assert stats.cycles >= 1000

    def test_large_rob_hides_short_latency(self):
        model = CoreModel(CoreConfig(issue_width=4, rob_size=192, lq_size=32))
        # L2-hit latencies (22 cycles) should be fully hidden
        stats = run_accesses(model, [(7, 22, False)] * 100)
        assert stats.ipc > 3.0


class TestAccounting:
    def test_instruction_count_includes_gaps_and_access(self):
        model = CoreModel()
        stats = run_accesses(model, [(5, 2, False)] * 10)
        assert stats.instructions == 60
        assert stats.memory_accesses == 10

    def test_monotonic_issue_times(self):
        model = CoreModel()
        last = -1
        for gap, lat, dep in [(1, 300, False), (1, 2, False), (1, 300, True)] * 20:
            issue = model.issue_time(gap, depends_on_prev=dep)
            assert issue >= last
            last = issue
            model.complete(issue, lat, gap)

    def test_zero_accesses_finalize(self):
        model = CoreModel()
        stats = model.finalize()
        assert stats.cycles == 0
        assert stats.ipc == 0.0


class TestConfigValidation:
    """A zero-sized core is refused at construction, on every path: the
    compiled kernel reads the load-queue ring and divides by the issue
    width without checking either."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"issue_width": 0}, "issue_width"),
            ({"issue_width": -4}, "issue_width"),
            ({"lq_size": 0}, "lq_size"),
            ({"lq_size": -1}, "lq_size"),
        ],
    )
    def test_rejects_sizes_below_one(self, fields, message):
        with pytest.raises(ValueError, match=message):
            CoreConfig(**fields)

    def test_smallest_valid_core_runs(self):
        model = CoreModel(CoreConfig(issue_width=1, rob_size=1, lq_size=1))
        stats = run_accesses(model, [(0, 5, False)] * 10)
        assert stats.instructions == 10

    @pytest.mark.parametrize("fields", [{"issue_width": 0}, {"lq_size": 0}])
    def test_native_simulator_refuses_before_running(self, fields):
        # at the parent, lq_size=0 killed the process (SIGFPE in the
        # kernel's load-queue ring) and issue_width=0 returned a result
        # where the interpreted oracle raises ZeroDivisionError
        from repro.prefetchers.nopf import NoPrefetcher
        from repro.sim.simulator import Simulator

        with pytest.raises(ValueError):
            Simulator(NoPrefetcher(), core_config=CoreConfig(**fields), native=True)

