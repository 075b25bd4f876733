"""Tests for the spatial memory streaming prefetcher."""

import pytest

from repro.prefetchers.base import AccessInfo
from repro.prefetchers.sms import SMSConfig, SMSPrefetcher


def access(index, addr, pc=0x400000):
    return AccessInfo(index=index, cycle=0, addr=addr, pc=pc)


def touch_region(pf, base, offsets, start_index=0, pc=0x400000):
    reqs = []
    for i, off in enumerate(offsets):
        reqs = pf.on_access(access(start_index + i, base + off, pc=pc))
    return start_index + len(offsets), reqs


class TestConfig:
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["region_bytes", "line_bytes", "pht_entries"])
    def test_rejects_a_divisor_below_one(self, field, value):
        # the oracle divides by each; the kernel died of SIGFPE on a zero
        with pytest.raises(ValueError, match=field):
            SMSConfig(**{field: value})


class TestGenerationLifecycle:
    def test_single_touch_stays_in_filter(self):
        pf = SMSPrefetcher()
        pf.on_access(access(0, 0x10000))
        assert len(pf._filter) == 1
        assert len(pf._agt) == 0

    def test_second_line_promotes_to_agt(self):
        pf = SMSPrefetcher()
        pf.on_access(access(0, 0x10000))
        pf.on_access(access(1, 0x10000 + 64))
        assert len(pf._agt) == 1
        assert len(pf._filter) == 0

    def test_same_line_retouch_does_not_promote(self):
        pf = SMSPrefetcher()
        pf.on_access(access(0, 0x10000))
        pf.on_access(access(1, 0x10008))  # same line
        assert len(pf._agt) == 0

    def test_generation_commits_on_timeout(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        idx, _ = touch_region(pf, 0x10000, [0, 64, 128])
        # touch an unrelated region far in the future to trigger expiry
        pf.on_access(access(idx + 100, 0x90000))
        assert pf.generations_trained == 1

    def test_generation_commits_on_agt_eviction(self):
        pf = SMSPrefetcher(SMSConfig(agt_entries=1, generation_timeout=10**9))
        idx, _ = touch_region(pf, 0x10000, [0, 64])
        touch_region(pf, 0x20000, [0, 64], start_index=idx)
        assert pf.generations_trained == 1

    def test_single_line_generation_not_committed(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        pf.on_access(access(0, 0x10000))
        pf.on_access(access(100, 0x90000))
        assert pf.generations_trained == 0


class TestPatternReplay:
    def test_learned_footprint_replayed_on_new_region(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        # learn: trigger at offset 0, then touch lines 1, 2, 5
        idx, _ = touch_region(pf, 0x10000, [0, 64, 128, 320])
        pf.on_access(access(idx + 100, 0x70000))  # expire the generation
        # trigger a fresh region with the same PC and offset
        _, reqs = touch_region(pf, 0x40000, [0], start_index=idx + 200)
        targets = sorted(r.addr for r in reqs)
        assert targets == [0x40000 + 64, 0x40000 + 128, 0x40000 + 320]

    def test_trigger_offset_is_part_of_index(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        idx, _ = touch_region(pf, 0x10000, [0, 64, 128])
        pf.on_access(access(idx + 100, 0x70000))
        # same PC but trigger at a different offset: no pattern learned
        _, reqs = touch_region(pf, 0x40000, [192], start_index=idx + 200)
        assert reqs == []

    def test_trigger_line_itself_not_prefetched(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        idx, _ = touch_region(pf, 0x10000, [0, 64])
        pf.on_access(access(idx + 100, 0x70000))
        _, reqs = touch_region(pf, 0x40000, [0], start_index=idx + 200)
        assert 0x40000 not in [r.addr for r in reqs]

    def test_different_pc_learns_separate_patterns(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        idx, _ = touch_region(pf, 0x10000, [0, 64], pc=0x100)
        pf.on_access(access(idx + 100, 0x70000, pc=0x999))
        _, reqs = touch_region(pf, 0x40000, [0], start_index=idx + 200, pc=0x200)
        assert reqs == []


class TestHousekeeping:
    def test_region_geometry(self):
        cfg = SMSConfig(region_bytes=2048, line_bytes=64)
        assert cfg.lines_per_region == 32

    def test_storage_bits_positive(self):
        assert SMSPrefetcher().storage_bits() > 0

    def test_reset(self):
        pf = SMSPrefetcher(SMSConfig(generation_timeout=10))
        idx, _ = touch_region(pf, 0x10000, [0, 64])
        pf.on_access(access(idx + 100, 0x70000))
        pf.reset()
        assert pf.generations_trained == 0
        _, reqs = touch_region(pf, 0x40000, [0], start_index=500)
        assert reqs == []

    def test_filter_capacity_bounded(self):
        pf = SMSPrefetcher(SMSConfig(filter_entries=4, generation_timeout=10**9))
        for i in range(20):
            pf.on_access(access(i, 0x10000 + i * 4096))
        assert len(pf._filter) <= 4
