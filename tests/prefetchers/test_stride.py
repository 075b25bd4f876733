"""Tests for the PC-indexed stride prefetcher."""

import pytest

from repro.prefetchers.base import AccessInfo
from repro.prefetchers.stride import StrideConfig, StridePrefetcher


def miss(index, addr, pc=0x400000):
    return AccessInfo(index=index, cycle=0, addr=addr, pc=pc, primary_miss=True)


def hit(index, addr, pc=0x400000):
    return AccessInfo(index=index, cycle=0, addr=addr, pc=pc, l1_hit=True)


class TestConfig:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["table_entries", "line_bytes"])
    def test_rejects_a_divisor_below_one(self, field, value):
        # the oracle divides by each; the kernel died of SIGFPE on a zero
        with pytest.raises(ValueError, match=field):
            StrideConfig(**{field: value})


class TestSteadyStateDetection:
    def test_first_two_accesses_never_prefetch(self):
        pf = StridePrefetcher()
        assert pf.on_access(miss(0, 0x1000)) == []
        assert pf.on_access(miss(1, 0x1200)) == []

    def test_third_consistent_stride_prefetches(self):
        pf = StridePrefetcher()
        pf.on_access(miss(0, 0x1000))
        pf.on_access(miss(1, 0x1200))
        reqs = pf.on_access(miss(2, 0x1400))
        assert [r.addr for r in reqs] == [0x1600, 0x1800, 0x1A00]

    def test_degree_configurable(self):
        pf = StridePrefetcher(StrideConfig(degree=1))
        for i in range(3):
            reqs = pf.on_access(miss(i, 0x1000 + i * 0x200))
        assert len(reqs) == 1

    def test_zero_stride_never_prefetches(self):
        pf = StridePrefetcher()
        for i in range(5):
            reqs = pf.on_access(miss(i, 0x1000))
        assert reqs == []

    def test_sub_line_strides_collapse_to_lines(self):
        # misses within one line are rounded to the same line address,
        # so a "stride" of 8 bytes cannot poison the detector
        pf = StridePrefetcher()
        for i in range(6):
            reqs = pf.on_access(miss(i, 0x1000 + i * 8))
        assert reqs == []


class TestHysteresis:
    def test_changed_stride_degrades_then_recovers(self):
        pf = StridePrefetcher()
        pf.on_access(miss(0, 0x1000))
        pf.on_access(miss(1, 0x1200))
        pf.on_access(miss(2, 0x1400))  # steady
        assert pf.on_access(miss(3, 0x5000)) == []  # break: transient
        pf.on_access(miss(4, 0x5200))
        pf.on_access(miss(5, 0x5400))
        assert pf.on_access(miss(6, 0x5600)) != []

    def test_negative_stride_supported(self):
        pf = StridePrefetcher()
        for i in range(3):
            reqs = pf.on_access(miss(i, 0x10000 - i * 0x200))
        assert reqs[0].addr == 0x10000 - 3 * 0x200


class TestFiltering:
    def test_hits_ignored_when_miss_only(self):
        pf = StridePrefetcher()
        for i in range(10):
            assert pf.on_access(hit(i, 0x1000 + i * 0x200)) == []

    def test_trains_on_hits_when_configured(self):
        pf = StridePrefetcher(StrideConfig(train_on_miss_only=False))
        for i in range(3):
            reqs = pf.on_access(hit(i, 0x1000 + i * 0x200))
        assert reqs != []

    def test_distinct_pcs_tracked_separately(self):
        pf = StridePrefetcher()
        for i in range(3):
            pf.on_access(miss(2 * i, 0x1000 + i * 0x200, pc=0x400000))
            reqs_b = pf.on_access(miss(2 * i + 1, 0x9000 + i * 0x400, pc=0x400008))
        assert [r.addr for r in reqs_b][0] == 0x9000 + 3 * 0x400

    def test_tag_conflict_resets_entry(self):
        cfg = StrideConfig(table_entries=16)
        pf = StridePrefetcher(cfg)
        pf.on_access(miss(0, 0x1000, pc=0))
        pf.on_access(miss(1, 0x1200, pc=0))
        # pc=16 maps to the same index with a different tag
        assert pf.on_access(miss(2, 0x1400, pc=16)) == []


class TestHousekeeping:
    def test_storage_scales_with_entries(self):
        small = StridePrefetcher(StrideConfig(table_entries=64))
        large = StridePrefetcher(StrideConfig(table_entries=512))
        assert large.storage_bits() == 8 * small.storage_bits()

    def test_reset_clears_state(self):
        pf = StridePrefetcher()
        for i in range(3):
            pf.on_access(miss(i, 0x1000 + i * 0x200))
        pf.reset()
        assert pf.on_access(miss(10, 0x1600)) == []

    def test_name(self):
        assert StridePrefetcher().name == "stride"
