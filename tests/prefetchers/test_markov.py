"""Tests for the Markov prefetcher (Joseph & Grunwald)."""

import pytest

from repro.prefetchers.base import AccessInfo
from repro.prefetchers.markov import MarkovConfig, MarkovPrefetcher


def miss(index, addr, pc=0x400000):
    return AccessInfo(index=index, cycle=0, addr=addr, pc=pc, primary_miss=True)


def feed(pf, addrs):
    reqs = []
    for i, addr in enumerate(addrs):
        reqs = pf.on_access(miss(i, addr))
    return reqs


class TestConfig:
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_a_line_size_below_one(self, value):
        # the oracle divides by it; the kernel died of SIGFPE on a zero
        with pytest.raises(ValueError, match="line_bytes"):
            MarkovConfig(line_bytes=value)


class TestTransitionLearning:
    def test_learns_recurring_chain(self):
        pf = MarkovPrefetcher()
        chain = [0x1000, 0x5000, 0x9000, 0x3000]
        feed(pf, chain * 3)
        reqs = pf.on_access(miss(100, 0x1000))
        assert 0x5000 in [r.addr for r in reqs]

    def test_no_prediction_for_unseen_state(self):
        pf = MarkovPrefetcher()
        feed(pf, [0x1000, 0x5000])
        assert pf.on_access(miss(10, 0xBEEF00)) == []

    def test_most_frequent_successor_ranked_first(self):
        pf = MarkovPrefetcher(MarkovConfig(degree=1))
        # A -> B twice, A -> C once
        feed(pf, [0x1000, 0x2000, 0x1000, 0x3000, 0x1000, 0x2000])
        reqs = pf.on_access(miss(50, 0x1000))
        assert [r.addr for r in reqs] == [0x2000]

    def test_degree_limits_predictions(self):
        pf = MarkovPrefetcher(MarkovConfig(degree=2, successors_per_entry=4))
        stream = []
        for successor in (0x2000, 0x3000, 0x4000):
            stream += [0x1000, successor]
        feed(pf, stream)
        reqs = pf.on_access(miss(50, 0x1000))
        assert len(reqs) == 2

    def test_diverging_paths_not_disambiguated(self):
        # the paper's critique: address-only state cannot separate two
        # traversals passing through the same node
        pf = MarkovPrefetcher(MarkovConfig(degree=1))
        feed(pf, [0x1000, 0x2000] * 3 + [0x1000, 0x3000] * 3)
        reqs = pf.on_access(miss(50, 0x1000))
        # it predicts one successor for both paths, whichever is counted
        # higher, rather than the path-dependent correct one
        assert len(reqs) == 1


class TestBounds:
    def test_successor_list_bounded(self):
        pf = MarkovPrefetcher(MarkovConfig(successors_per_entry=2))
        stream = []
        for successor in range(8):
            stream += [0x1000, 0x100000 + successor * 64]
        feed(pf, stream)
        state = pf._table[0x1000 // 64]
        assert len(state.successors) <= 2

    def test_table_bounded_with_lru(self):
        pf = MarkovPrefetcher(MarkovConfig(table_entries=4))
        feed(pf, [0x1000 + i * 4096 for i in range(50)])
        assert len(pf._table) <= 4

    def test_same_line_repeats_not_recorded(self):
        pf = MarkovPrefetcher()
        feed(pf, [0x1000, 0x1008, 0x1010])  # same cache line
        assert len(pf._table) == 0

    def test_miss_only_filter(self):
        pf = MarkovPrefetcher()
        for i in range(6):
            info = AccessInfo(
                index=i, cycle=0, addr=0x1000 + (i % 2) * 4096, pc=0, l1_hit=True
            )
            assert pf.on_access(info) == []

    def test_reset(self):
        pf = MarkovPrefetcher()
        feed(pf, [0x1000, 0x2000] * 3)
        pf.reset()
        assert pf.on_access(miss(50, 0x1000)) == []

    def test_storage_positive(self):
        assert MarkovPrefetcher().storage_bits() > 0
