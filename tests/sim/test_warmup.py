"""Tests for the simulator's warm-up mode."""

import pytest

from repro.prefetchers.nopf import NoPrefetcher
from repro.sim.config import make_prefetcher
from repro.sim.simulator import Simulator
from repro.workloads.linked_list import ListTraversalProgram
from repro.workloads.trace import TraceBuilder


def hot_loop_trace(iterations=40, lines=8):
    tb = TraceBuilder()
    for _ in range(iterations):
        for i in range(lines):
            tb.load(0x10000 + i * 64, "hot", gap=3)
    return tb.accesses


class TestWarmup:
    def test_warmup_removes_cold_misses(self):
        trace = hot_loop_trace()
        cold = Simulator(NoPrefetcher()).run(trace)
        warm = Simulator(NoPrefetcher()).run(trace, warmup=16)
        # compulsory misses (plus merges with their in-flight fills)
        assert cold.l1.misses >= 8
        assert warm.l1.misses == 0  # absorbed by the warm-up window

    def test_warmup_shrinks_counted_accesses(self):
        trace = hot_loop_trace(iterations=10, lines=8)
        warm = Simulator(NoPrefetcher()).run(trace, warmup=24)
        assert warm.l1.accesses == 80 - 24

    def test_warm_ipc_at_least_cold(self):
        trace = hot_loop_trace()
        cold = Simulator(NoPrefetcher()).run(trace)
        warm = Simulator(NoPrefetcher()).run(trace, warmup=16)
        assert warm.ipc >= cold.ipc

    def test_cycles_exclude_warmup_period(self):
        trace = hot_loop_trace(iterations=20)
        full = Simulator(NoPrefetcher()).run(trace)
        warm = Simulator(NoPrefetcher()).run(trace, warmup=80)
        assert warm.cycles < full.cycles

    def test_warmup_preserves_prefetcher_learning(self):
        program = ListTraversalProgram(num_nodes=300, iterations=8)
        trace = program.trace()
        half = len(trace) // 2
        warm = Simulator(make_prefetcher("context")).run(trace, warmup=half)
        cold = Simulator(make_prefetcher("context")).run(trace[half:])
        # a trained prefetcher measured over the second half beats one
        # that starts cold there
        assert warm.ipc > cold.ipc

    def test_warmup_must_leave_accesses(self):
        trace = hot_loop_trace(iterations=1)
        with pytest.raises(ValueError, match="whole trace"):
            Simulator(NoPrefetcher()).run(trace, warmup=len(trace))

    def test_zero_warmup_is_identity(self):
        trace = hot_loop_trace(iterations=5)
        a = Simulator(NoPrefetcher()).run(trace)
        b = Simulator(NoPrefetcher()).run(trace, warmup=0)
        assert a.cycles == b.cycles
        assert a.l1.misses == b.l1.misses


class TestNegativeCounts:
    """A negative ``limit`` or ``warmup`` means nothing: both paths refuse
    it before running, with the same error (the kernel once ran all but
    |limit| accesses of a list, and counted every access for a negative
    warmup, where the oracle raised or counted |warmup| accesses)."""

    @pytest.mark.parametrize("native", [False, True])
    @pytest.mark.parametrize(
        "count, value", [("limit", -100), ("limit", -1), ("warmup", -100)]
    )
    def test_both_paths_raise_the_same_error(self, native, count, value):
        trace = hot_loop_trace(iterations=60)
        sim = Simulator(make_prefetcher("stride"), native=native)
        with pytest.raises(ValueError) as raised:
            sim.run(trace, **{count: value})
        assert str(raised.value) == f"{count} must be non-negative, not {value}"

    def test_zero_limit_still_runs_nothing(self):
        trace = hot_loop_trace(iterations=5)
        for native in (False, True):
            result = Simulator(NoPrefetcher(), native=native).run(trace, limit=0)
            assert result.instructions == 0
