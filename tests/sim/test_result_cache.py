"""Cache-key suite: hits, misses, and graceful degradation.

The cache key must change whenever any input that could alter simulated
behaviour changes — trace, prefetcher, config field, limit, simulator
code version — and must NOT change otherwise, so re-running a figure
after an unrelated edit stays a cache hit.  Corrupt or missing cache
state must degrade to a cold start, never to an error or a wrong
result.
"""

import dataclasses
import json

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.cache import (
    CellKeyer,
    SweepCache,
    cell_key,
    code_fingerprint,
    resolve_cache,
    trace_fingerprint,
)
from repro.sim.codec import CODEC_VERSION, encode_result
from repro.sim.runner import compare, run_workload
from repro.workloads.trace import MemoryAccess

TRACE = [MemoryAccess(addr=0x1000 + 64 * i, pc=0x400000 + i % 3) for i in range(32)]


def key(**overrides) -> str:
    base = dict(
        workload="wl",
        trace_fp=trace_fingerprint(TRACE),
        prefetcher="context",
        limit=1000,
        code_version="v0",
    )
    base.update(overrides)
    return cell_key(**base)


class TestCellKey:
    def test_identical_inputs_hit(self):
        assert key() == key()

    def test_default_configs_key_like_explicit_defaults(self):
        assert key() == key(
            hierarchy_config=HierarchyConfig(),
            core_config=CoreConfig(),
            context_config=ContextPrefetcherConfig(),
        )

    def test_limit_changes_key(self):
        assert key() != key(limit=2000)
        assert key() != key(limit=None)

    def test_trace_fingerprint_changes_key(self):
        other = [*TRACE, MemoryAccess(addr=0x9000, pc=0x400009)]
        assert key() != key(trace_fp=trace_fingerprint(other))

    def test_workload_and_prefetcher_change_key(self):
        assert key() != key(workload="other")
        assert key() != key(prefetcher="stride")

    def test_hierarchy_field_changes_key(self):
        assert key() != key(hierarchy_config=HierarchyConfig(l1_size=32 * 1024))

    def test_core_field_changes_key(self):
        assert key() != key(core_config=CoreConfig(rob_size=256))

    def test_context_field_changes_key_for_context_cells(self):
        assert key() != key(context_config=ContextPrefetcherConfig(cst_entries=4096))

    def test_context_config_ignored_for_other_prefetchers(self):
        # stride cells don't consult the context config; varying it must
        # not evict their cached results
        scaled = ContextPrefetcherConfig(cst_entries=4096)
        assert key(prefetcher="stride") == key(
            prefetcher="stride", context_config=scaled
        )

    def test_code_version_changes_key(self):
        assert key() != key(code_version="v1")

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64  # sha256 hex


class TestCellKeyer:
    """The batched builder must equal cell_key byte-for-byte everywhere."""

    def assert_matches(self, **overrides):
        base = dict(
            workload="wl",
            trace_fp=trace_fingerprint(TRACE),
            prefetcher="context",
            limit=1000,
            hierarchy_config=None,
            core_config=None,
            context_config=None,
            code_version="v0",
        )
        base.update(overrides)
        keyer = CellKeyer(
            limit=base["limit"],
            hierarchy_config=base["hierarchy_config"],
            core_config=base["core_config"],
            code_version=base["code_version"],
        )
        built = keyer.key(
            workload=base["workload"],
            trace_fp=base["trace_fp"],
            prefetcher=base["prefetcher"],
            context_fragment=keyer.context_fragments([base["context_config"]])[0],
        )
        assert built == cell_key(**base)

    def test_defaults(self):
        self.assert_matches()

    def test_every_varying_axis(self):
        self.assert_matches(workload="other", prefetcher="stride")
        self.assert_matches(prefetcher="none")
        self.assert_matches(limit=None)
        self.assert_matches(
            context_config=ContextPrefetcherConfig(cst_entries=4096)
        )
        self.assert_matches(
            hierarchy_config=HierarchyConfig(l1_size=32 * 1024),
            core_config=CoreConfig(rob_size=256),
        )

    def test_live_code_fingerprint(self):
        self.assert_matches(code_version=None)

    def test_shared_keyer_keeps_signed_zeros_apart(self):
        # 0.0 == -0.0 and both hash alike, but they render differently
        configs = [
            ContextPrefetcherConfig(adaptive_epsilon=False, fixed_epsilon=epsilon)
            for epsilon in (0.0, -0.0)
        ]
        shared = CellKeyer(limit=1000, code_version="v0")
        common = dict(workload="wl", trace_fp="fp", prefetcher="context")
        for cfg, fragment in zip(configs, shared.context_fragments(configs)):
            assert shared.key(**common, context_fragment=fragment) == cell_key(
                **common, limit=1000, context_config=cfg, code_version="v0"
            )

    def test_shared_keyer_survives_dropped_tuples(self):
        # each config's degree_thresholds is a fresh tuple that dies with
        # its config, so a later one may be allocated at the same address
        def configs():
            for i in range(64):
                yield ContextPrefetcherConfig(
                    degree_thresholds=(i / 64, 0.5 + i / 128, 0.9)
                )

        fresh = [
            CellKeyer(limit=10, code_version="v0").context_fragments([cfg])[0]
            for cfg in configs()
        ]
        shared = CellKeyer(limit=10, code_version="v0")
        assert shared.context_fragments(configs()) == fresh

    def test_non_context_cells_ignore_fragment(self):
        keyer = CellKeyer(limit=10, code_version="v0")
        (scaled,) = keyer.context_fragments(
            [ContextPrefetcherConfig(cst_entries=4096)]
        )
        common = dict(workload="wl", trace_fp="fp", prefetcher="stride")
        assert keyer.key(**common, context_fragment=scaled) == keyer.key(**common)


class TestTraceFingerprint:
    def test_stable(self):
        assert trace_fingerprint(TRACE) == trace_fingerprint(list(TRACE))

    def test_order_sensitive(self):
        assert trace_fingerprint(TRACE) != trace_fingerprint(TRACE[::-1])

    def test_field_sensitive(self):
        changed = [dataclasses.replace(TRACE[0], is_load=False), *TRACE[1:]]
        assert trace_fingerprint(TRACE) != trace_fingerprint(changed)


class TestSweepCache:
    def _result(self):
        return run_workload("array", "context", limit=400)

    def test_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        result = self._result()
        cache.store(key(), result)
        assert cache.load(key()) == result
        assert cache.counters.hits == 1 and cache.counters.stores == 1

    def test_record_is_canonical_json(self, tmp_path):
        # the payload text is spliced into the record: the file must be
        # the canonical JSON of the whole record, byte for byte
        cache = SweepCache(tmp_path)
        result = self._result()
        cache.store(key(), result)
        record = {"codec": CODEC_VERSION, "key": key(), "result": encode_result(result)}
        assert (tmp_path / f"{key()}.json").read_text(encoding="utf-8") == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )

    def test_missing_key_is_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.load(key()) is None
        assert cache.counters.misses == 1

    def test_corrupt_file_is_miss_not_error(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store(key(), self._result())
        (tmp_path / f"{key()}.json").write_text("{ not json", encoding="utf-8")
        assert cache.load(key()) is None
        assert cache.counters.errors == 1
        # valid JSON whose result is not an object
        record = {"codec": CODEC_VERSION, "key": key(), "result": []}
        (tmp_path / f"{key()}.json").write_text(json.dumps(record), encoding="utf-8")
        assert cache.load(key()) is None
        assert cache.counters.errors == 2

    def test_codec_version_skew_is_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store(key(), self._result())
        path = tmp_path / f"{key()}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["result"]["codec"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(key()) is None

    def test_directory_deleted_mid_run(self, tmp_path):
        import shutil

        root = tmp_path / "cache"
        cache = SweepCache(root)
        cache.store(key(), self._result())
        shutil.rmtree(root)
        assert cache.load(key()) is None  # cold again, no crash
        cache.store(key(), self._result())  # directory recreated
        assert cache.load(key()) == self._result()


class TestEndToEndDegradation:
    def test_corrupt_cache_rerun_matches_clean(self, tmp_path):
        cache_dir = tmp_path / "cache"
        clean = compare(["array"], ("none", "context"), limit=800, cache=False)
        compare(["array"], ("none", "context"), limit=800, cache=cache_dir)
        for path in sorted(cache_dir.glob("*.json")):
            path.write_text("garbage", encoding="utf-8")
        rerun = compare(["array"], ("none", "context"), limit=800, cache=cache_dir)
        for wl in clean.workloads():
            for pf in clean.prefetchers():
                assert clean.get(wl, pf) == rerun.get(wl, pf)


class TestResolveCache:
    def test_none_uses_default(self, tmp_path):
        fallback = SweepCache(tmp_path)
        assert resolve_cache(None, default=fallback) is fallback
        assert resolve_cache(None, default=None) is None

    def test_false_forces_off(self, tmp_path):
        assert resolve_cache(False, default=SweepCache(tmp_path)) is None

    def test_path_and_instance(self, tmp_path):
        cache = resolve_cache(tmp_path / "c")
        assert isinstance(cache, SweepCache)
        assert cache.root == tmp_path / "c"
        assert resolve_cache(cache) is cache

    def test_true_uses_default_location(self):
        cache = resolve_cache(True)
        assert isinstance(cache, SweepCache)
