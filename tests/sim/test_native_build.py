"""Artifact naming and the unit-timing build of the native kernel.

An artifact's name must change whenever anything that shapes its bytes
changes — the C source, the cdef, or a compile flag — or a stale cached
extension would load in its place.  The three variants of one source
share one name prefix, so cache GC keeps them together.  The unit-timing
variant must compute exactly what the default build computes; the
default builds must report no unit times at all.
"""

from __future__ import annotations

import pytest

from repro.sim import native as native_pkg
from repro.sim.native import build
from repro.sim.native._csrc import UNIT_NAMES, UNIT_SLOTS


class TestArtifactNames:
    def test_flag_sets_give_distinct_module_names(self, monkeypatch):
        before = build.module_name()
        monkeypatch.setattr(build, "BASE_COMPILE_ARGS", ("-O3",))
        assert build.module_name() != before
        o3 = build.module_name()
        omp = (("-fopenmp", "-g"), ("-fopenmp",))
        monkeypatch.setattr(build, "VARIANTS", {**build.VARIANTS, "_omp": omp})
        assert build.module_name() not in (before, o3)

    def test_variants_share_the_prefix(self):
        prefix = build.artifact_prefix()
        names = {build.module_name(v) for v in build.VARIANTS}
        assert len(names) == 3
        assert all(name.startswith(prefix) for name in names)

    def test_gc_keeps_every_variant_of_the_current_source(self, tmp_path):
        keep = [
            f"{build.module_name(v)}.cpython-311-x86_64-linux-gnu.so"
            for v in build.VARIANTS
        ]
        stale = "_repro_native_0000000000000000_timing.cpython-311-x86_64-linux-gnu.so"
        for name in (*keep, stale):
            (tmp_path / name).write_bytes(b"")
        kept, removed = build.gc_build_cache(tmp_path)
        assert kept == 3
        assert [p.name for p in removed] == [stale]


@pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (numpy/cffi/toolchain)",
)
class TestUnitTimingBuild:
    def _run(self, workload="array", limit=3000):
        from repro.sim.config import PREFETCHER_FACTORIES
        from repro.sim.simulator import Simulator
        from repro.workloads.suites import get_workload

        trace = get_workload(workload).build().trace()[:limit]
        sim = Simulator(PREFETCHER_FACTORIES["context"](), native=True)
        return sim, sim.run(trace, workload_name=workload)

    def test_default_build_reports_no_unit_times(self):
        from repro.sim.native.adapter import _SIM_STATES, unit_times

        sim, _ = self._run(limit=500)
        assert sim.last_run_native
        assert unit_times(sim) is None
        kernel = build.kernel_or_none()
        buf = kernel.ffi.new("int64_t[]", [-1] * UNIT_SLOTS)
        kernel.lib.rp_sim_unit_times(_SIM_STATES[sim], buf)
        assert list(buf) == [0] * UNIT_SLOTS

    def test_timed_run_equals_default_run(self):
        from repro.sim.native.adapter import unit_times

        _, want = self._run()
        with build.unit_timing() as timing:
            assert timing is not None and timing is not build._kernel
            assert build.kernel_or_none() is timing
            sim, got = self._run()
            times = unit_times(sim)
        assert build.kernel_or_none() is not timing
        assert sim.last_run_native
        assert got == want
        assert times is not None
        assert times["accesses"] == 3000
        assert 0 < times["timed"] < times["accesses"]
        assert times["kernel_ns_per_access"] > 0
        # a context run times every context unit, the hierarchy and the
        # core, and never the table-family unit
        assert set(times["units"]) == set(UNIT_NAMES) - {"table"}
        assert all(ns >= 0 for ns in times["units"].values())
