"""End-to-end tests for the context-based prefetcher."""

import dataclasses

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.core.prefetch_queue import QueueEntry
from repro.hints import RefForm, SemanticHints
from repro.prefetchers.base import AccessInfo


def ring_trace(num_nodes=40, period_bytes=256, base=0x100000):
    """Addresses of a repeating pointer ring (delta-representable)."""
    return [base + i * period_bytes for i in range(num_nodes)]


def drive_ring(pf, addrs, iterations, pc=0x400008):
    """Replay a pointer-chase ring; returns total requests produced."""
    hints = SemanticHints(type_id=1, link_offset=16, ref_form=RefForm.ARROW)
    total = []
    index = 0
    for _ in range(iterations):
        for i, addr in enumerate(addrs):
            info = AccessInfo(
                index=index,
                cycle=0,
                addr=addr,
                pc=pc,
                last_value=addrs[(i - 1) % len(addrs)],
                hints=hints,
            )
            total.extend(pf.on_access(info))
            index += 1
    return total


class TestLearning:
    def test_converges_on_recurring_traversal(self):
        pf = ContextPrefetcher()
        drive_ring(pf, ring_trace(), iterations=100)
        assert pf.accuracy() > 0.5
        assert pf.queue.hits > 500

    def test_hit_depths_cluster_in_reward_window(self):
        pf = ContextPrefetcher()
        drive_ring(pf, ring_trace(), iterations=100)
        cfg = pf.config
        total = sum(pf.hit_depth_histogram.values())
        inside = sum(
            c
            for d, c in pf.hit_depth_histogram.items()
            if cfg.window_lo <= d <= cfg.window_hi
        )
        assert inside / total > 0.5

    def test_no_learning_on_random_stream(self):
        import random

        rng = random.Random(3)
        pf = ContextPrefetcher()
        for i in range(4000):
            info = AccessInfo(
                index=i, cycle=0, addr=rng.randrange(1, 1 << 30) * 64, pc=0x400000
            )
            pf.on_access(info)
        assert pf.accuracy() < 0.2

    def test_learns_strides_too(self):
        # Section 7.1: "the context-based prefetcher correctly identifies
        # strict regular patterns"
        pf = ContextPrefetcher()
        index = 0
        for it in range(60):
            for i in range(64):
                info = AccessInfo(
                    index=index, cycle=0, addr=0x100000 + i * 64, pc=0x400000
                )
                pf.on_access(info)
                index += 1
        assert pf.accuracy() > 0.3


class TestPredictionMechanics:
    def test_requests_are_line_aligned(self):
        pf = ContextPrefetcher()
        reqs = drive_ring(pf, ring_trace(), iterations=30)
        assert reqs
        assert all(r.addr % pf.config.delta_granularity == 0 for r in reqs)

    def test_duplicate_target_becomes_shadow(self):
        pf = ContextPrefetcher()
        drive_ring(pf, ring_trace(), iterations=100)
        assert pf.predictions_shadow > 0

    def test_requests_carry_queue_entry_meta(self):
        pf = ContextPrefetcher()
        reqs = drive_ring(pf, ring_trace(), iterations=30)
        assert all(isinstance(r.meta, QueueEntry) for r in reqs)

    def test_mshr_rejection_converts_to_shadow(self):
        pf = ContextPrefetcher()
        reqs = drive_ring(pf, ring_trace(), iterations=30)
        real = [r for r in reqs if not r.shadow]
        assert real
        before = pf.predictions_shadow
        pf.on_prefetch_issue(real[0], issued=False, reason="mshr-pressure")
        assert real[0].meta.shadow
        assert pf.predictions_shadow == before + 1

    def test_issue_success_keeps_real(self):
        pf = ContextPrefetcher()
        reqs = drive_ring(pf, ring_trace(), iterations=30)
        real = [r for r in reqs if not r.shadow][0]
        pf.on_prefetch_issue(real, issued=True, reason="issued")
        assert not real.meta.shadow


class TestConfiguration:
    def test_storage_near_table2_budget(self):
        # Table 2 reports ~31kB (CST 18kB + reducer 12kB + queues).  Our
        # honest accounting of the same geometry lands at ~39kB because an
        # 8-attribute bitmap plus tag costs 10 bits per reducer entry where
        # the paper's 12kB implies ~6.  Assert the same order of magnitude.
        pf = ContextPrefetcher()
        assert 28 <= pf.storage_kib() <= 42
        # and the CST alone matches the paper's 18kB exactly
        cst_bits = pf.config.cst_entries * (
            pf.config.cst_tag_bits + pf.config.cst_links * (pf.config.delta_bits + 8)
        )
        assert cst_bits / 8 / 1024 == 18.0

    def test_figure13_scaling(self):
        config = ContextPrefetcherConfig().scaled(8192)
        assert config.cst_entries == 8192
        assert config.reducer_entries == 8192 * 8

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ContextPrefetcherConfig(window_lo=50, window_hi=18)

    def test_queue_must_outspan_window(self):
        with pytest.raises(ValueError):
            ContextPrefetcherConfig(prefetch_queue_entries=40, window_hi=50)

    def test_sample_depths_must_fit_history(self):
        with pytest.raises(ValueError):
            ContextPrefetcherConfig(history_entries=10, sample_depths=(5, 20))

    @pytest.mark.parametrize(
        "field",
        ["cst_entries", "reducer_entries", "cst_links", "block_bytes",
         "delta_granularity"],
    )
    def test_zero_sized_tables_and_granules_rejected(self, field):
        # a zero table size passes the power-of-two test and hangs the
        # kernel; a zero granule divides by zero on the first access
        with pytest.raises(ValueError, match=field):
            ContextPrefetcherConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field, value",
        [("cst_entries", 16), ("reward_peak", 2), ("shadow_probability", 0.9)],
    )
    def test_a_config_is_a_value(self, field, value):
        # the components copy their knobs when built, while a kernel row
        # is read off the config: a field set afterwards would reach one
        # path and not the other, so no field can be set at all
        cfg = ContextPrefetcherConfig()
        ContextPrefetcher(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == ContextPrefetcherConfig()
        assert hash(cfg) == hash(ContextPrefetcherConfig())


class TestDeterminismAndReset:
    def test_deterministic_across_instances(self):
        a, b = ContextPrefetcher(), ContextPrefetcher()
        ra = drive_ring(a, ring_trace(), iterations=40)
        rb = drive_ring(b, ring_trace(), iterations=40)
        assert [(r.addr, r.shadow) for r in ra] == [(r.addr, r.shadow) for r in rb]

    def test_reset_restores_cold_state(self):
        pf = ContextPrefetcher()
        ra = drive_ring(pf, ring_trace(), iterations=40)
        pf.reset()
        assert pf.accuracy() == 0.0
        assert pf.cst.occupancy() == 0
        rb = drive_ring(pf, ring_trace(), iterations=40)
        assert [(r.addr, r.shadow) for r in ra] == [(r.addr, r.shadow) for r in rb]

    def test_name(self):
        assert ContextPrefetcher().name == "context"
