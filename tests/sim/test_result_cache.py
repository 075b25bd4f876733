"""Cell-key suite: what re-keys a stored result, and graceful degradation.

The cell key must change whenever any input that could alter simulated
behaviour changes — trace, prefetcher, config field, limit, simulator
code version — and must NOT change otherwise, so re-running a figure
after an unrelated edit resumes its cells from the result DB.  Corrupt
rows in that DB must degrade to a recompute, never to an error or a
wrong result.
"""

import dataclasses
import sqlite3

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.cache import CellKeyer, cell_key, code_fingerprint, trace_fingerprint
from repro.sim.parallel import set_default_execution
from repro.sim.runner import compare
from repro.sim.sched.db import ResultDB
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


class TestEndToEndDegradation:
    def test_corrupt_cache_rerun_matches_clean(self, tmp_path):
        clean = compare(["array"], ("none", "context"), limit=800)
        path = tmp_path / "sweep.db"
        set_default_execution(db=ResultDB(path))
        compare(["array"], ("none", "context"), limit=800)
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE cells SET payload = 'garbage'")
        conn.close()
        rerun = compare(["array"], ("none", "context"), limit=800)
        for wl in clean.workloads():
            for pf in clean.prefetchers():
                assert clean.get(wl, pf) == rerun.get(wl, pf)
