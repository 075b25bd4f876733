"""Tests for the GHB delta-correlation prefetcher."""

import pytest

from repro.prefetchers.base import AccessInfo
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher


def miss(index, addr, pc=0x400000):
    return AccessInfo(index=index, cycle=0, addr=addr, pc=pc, primary_miss=True)


def feed(pf, addrs, pc=0x400000):
    reqs = []
    for i, addr in enumerate(addrs):
        reqs = pf.on_access(miss(i, addr, pc=pc))
    return reqs


class TestConfig:
    def test_rejects_unknown_localization(self):
        with pytest.raises(ValueError):
            GHBConfig(localization="banana")

    def test_rejects_zero_match_length(self):
        with pytest.raises(ValueError):
            GHBConfig(match_length=0)

    def test_rejects_an_empty_buffer(self):
        # an empty buffer has no slot to write: the oracle would divide by
        # zero, and the kernel's wrapping write slot run off its end
        with pytest.raises(ValueError, match="ghb_entries"):
            GHBConfig(ghb_entries=0)

    def test_flavour_names(self):
        assert GHBPrefetcher(GHBConfig(localization="global")).name == "ghb-gdc"
        assert GHBPrefetcher(GHBConfig(localization="pc")).name == "ghb-pcdc"


class TestDeltaCorrelation:
    def test_unit_line_stride_replays(self):
        pf = GHBPrefetcher(GHBConfig(match_length=2, degree=3))
        # line stride of 64: deltas (64, 64) recur
        reqs = feed(pf, [0x1000 + i * 64 for i in range(8)])
        assert [r.addr for r in reqs] == [0x1000 + 8 * 64, 0x1000 + 9 * 64, 0x1000 + 10 * 64]

    def test_alternating_delta_pattern(self):
        pf = GHBPrefetcher(GHBConfig(match_length=2, degree=2))
        # pattern +64, +192 repeating: addresses 0, 64, 256, 320, 512, ...
        addrs = [0x10000]
        for i in range(9):
            addrs.append(addrs[-1] + (64 if i % 2 == 0 else 192))
        reqs = feed(pf, addrs)
        expected_next = addrs[-1] + (64 if len(addrs) % 2 == 1 else 192)
        assert reqs and reqs[0].addr == expected_next

    def test_no_match_no_prefetch(self):
        pf = GHBPrefetcher(GHBConfig(match_length=3))
        reqs = feed(pf, [0x1000, 0x5000, 0x2000, 0x9000, 0x3000])
        assert reqs == []

    def test_needs_enough_history(self):
        pf = GHBPrefetcher(GHBConfig(match_length=3))
        assert feed(pf, [0x1000 + i * 64 for i in range(3)]) == []


class TestLocalization:
    def test_pc_localization_separates_streams(self):
        pf = GHBPrefetcher(GHBConfig(localization="pc", match_length=2))
        # interleave two streams at different PCs; each is clean per-PC
        reqs_a = reqs_b = []
        for i in range(8):
            reqs_a = pf.on_access(miss(2 * i, 0x1000 + i * 64, pc=0x100))
            reqs_b = pf.on_access(miss(2 * i + 1, 0x90000 + i * 128, pc=0x200))
        assert reqs_a and reqs_a[0].addr == 0x1000 + 8 * 64
        assert reqs_b and reqs_b[0].addr == 0x90000 + 8 * 128

    def test_global_localization_sees_interleaved_mess(self):
        pf = GHBPrefetcher(GHBConfig(localization="global", match_length=2))
        reqs_last = []
        for i in range(8):
            pf.on_access(miss(2 * i, 0x1000 + i * 64, pc=0x100))
            reqs_last = pf.on_access(miss(2 * i + 1, 0x90000 + i * 128, pc=0x200))
        # the interleaved global deltas still form a repeating pattern, so
        # G/DC may fire -- but targets interleave both streams
        if reqs_last:
            assert reqs_last[0].addr != 0x1000 + 8 * 64 or len(reqs_last) > 0


class TestBufferManagement:
    def test_wraparound_discards_stale_links(self):
        pf = GHBPrefetcher(GHBConfig(ghb_entries=8, match_length=2))
        # push far more than capacity; must not crash or loop
        feed(pf, [0x1000 + i * 64 for i in range(100)])

    def test_miss_only_filter(self):
        pf = GHBPrefetcher()
        for i in range(10):
            assert (
                pf.on_access(
                    AccessInfo(index=i, cycle=0, addr=0x1000 + i * 64, pc=0, l1_hit=True)
                )
                == []
            )

    def test_reset(self):
        pf = GHBPrefetcher(GHBConfig(match_length=2))
        feed(pf, [0x1000 + i * 64 for i in range(8)])
        pf.reset()
        assert feed(pf, [0x2000, 0x2040]) == []

    def test_storage_bits_positive(self):
        assert GHBPrefetcher().storage_bits() > 0


class TestLineGranularity:
    def test_sub_line_offsets_are_canonicalised(self):
        pf = GHBPrefetcher(GHBConfig(match_length=2))
        # same line stream with ragged byte offsets
        reqs = feed(pf, [0x1000 + i * 64 + (i % 2) * 8 for i in range(8)])
        assert reqs and reqs[0].addr % 64 == 0
