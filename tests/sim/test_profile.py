"""The profiling harness, in both kernel modes.

The deterministic layer (per-unit event counters and the result) must be
identical between the interpreted and native runs — the harness reads
native counters from the result block rather than the untouched Python
components, and any divergence would mean the two kernels disagree.  The
timing layer differs by construction: the native report attributes time
to the decode/kernel/finalize phases.
"""

from __future__ import annotations

import pytest

from repro.sim import native as native_pkg
from repro.sim.profile import ProfileReport, profile_run, render


def _require_native() -> None:
    if not native_pkg.is_available():
        pytest.skip("compiled kernel unavailable (cffi/toolchain)")


class TestInterpretedMode:
    def test_report_structure(self):
        report = profile_run("mcf", "stride", limit=800, top=5)
        assert isinstance(report, ProfileReport)
        assert not report.native and not report.native_phases
        assert "memory" in report.units and "prediction" in report.units
        # interpreted reports include the MSHR counters
        assert "mshr_merges" in report.units["memory"]
        text = render(report)
        assert "interpreted" in text
        assert "cProfile" in text

    def test_no_cprofile_skips_timing(self):
        report = profile_run("mcf", "stride", limit=500, with_cprofile=False)
        assert report.timing_table == ""
        assert "cProfile" not in render(report)
        assert not report.kernel_units
        assert "kernel unit timings" not in render(report)


class TestNativeMode:
    def test_native_counters_match_interpreted(self):
        _require_native()
        base = profile_run("mcf", "stride", limit=800, with_cprofile=False)
        nat = profile_run(
            "mcf", "stride", limit=800, with_cprofile=False, native=True
        )
        assert nat.native and not base.native
        assert nat.result == base.result
        # the shared counters agree; only the interpreted-side extras
        # (MSHR merge counts, not exported by the kernel) may differ
        for unit, counters in nat.units.items():
            for name, value in counters.items():
                assert base.units[unit][name] == value, f"{unit}/{name}"

    def test_native_phase_timings_reported(self):
        _require_native()
        report = profile_run("mcf", "stride", limit=800, top=5, native=True)
        assert report.native
        assert set(report.native_phases) == {
            "phase_decode", "phase_kernel", "phase_finalize"
        }
        assert all(t >= 0.0 for t in report.native_phases.values())
        text = render(report)
        assert "native kernel" in text
        assert "native phase timings" in text
        assert "phase_kernel" in text

    def test_native_context_reports_rl_counter_block(self):
        _require_native()
        # the RL context prefetcher runs natively; the report must carry
        # the kernel-side bandit/CST/reward counters and they must equal
        # the interpreted components counter-for-counter
        base = profile_run("mcf", "context", limit=500, with_cprofile=False)
        nat = profile_run(
            "mcf", "context", limit=500, with_cprofile=False, native=True
        )
        assert nat.native and not base.native
        assert nat.result == base.result
        for unit in ("feedback", "collection", "reduction"):
            assert nat.units[unit] == base.units[unit], unit
        for name in ("explorations", "exploitations", "prefetches_issued"):
            assert (
                nat.units["prediction"][name] == base.units["prediction"][name]
            ), name
        # native-only extras read off the kernel handle
        assert "predictions_real" in nat.units["prediction"]
        assert "window_updates" in nat.units["prediction"]

    def test_native_context_phase_timings(self):
        _require_native()
        report = profile_run("mcf", "context", limit=500, top=5, native=True)
        assert report.native
        assert set(report.native_phases) == {
            "phase_decode", "phase_kernel", "phase_finalize"
        }
        text = render(report)
        assert "native kernel" in text

    def test_native_unit_table_from_the_timing_build(self):
        # the native profile runs the unit-timing build; its result must
        # equal the default kernel's, and its table covers the units a
        # run reaches (the table-family unit only on table families)
        _require_native()
        from repro.sim.config import PREFETCHER_FACTORIES
        from repro.sim.native._csrc import UNIT_NAMES
        from repro.sim.simulator import Simulator
        from repro.workloads.suites import get_workload

        trace = get_workload("array").build().trace()[:2000]
        # a table family builds no trace program and runs no context unit
        stride_absent = {*UNIT_NAMES[:6], "program"}
        for name, absent in (("context", {"table"}), ("stride", stride_absent)):
            report = profile_run(
                "array", name, limit=2000, with_cprofile=False, native=True
            )
            sim = Simulator(PREFETCHER_FACTORIES[name](), native=True)
            assert report.result == sim.run(trace, workload_name="array")
            assert set(report.kernel_units) == set(UNIT_NAMES) - absent, name
            assert report.kernel_ns_per_access > 0
            text = render(report)
            assert "kernel unit timings" in text
            assert "units, summed" in text

    def test_native_unit_table_summarises_repeated_runs(self):
        # one run times about one access in 32, too few to resolve a
        # small step: the table is the median of repeated timed runs on
        # fresh simulators, with its quartiles, while the counters and
        # the cProfile table stay the first run's
        _require_native()
        from repro.sim import profile as profile_mod

        report = profile_run("array", "context", limit=1000, top=5, native=True)
        assert profile_mod._TIMED_RUNS <= report.timed_runs
        assert report.timed_runs <= profile_mod._MAX_TIMED_RUNS
        assert report.timed_accesses >= report.timed_runs
        assert set(report.kernel_unit_quartiles) == set(report.kernel_units)
        for name, median in report.kernel_units.items():
            q1, q3 = report.kernel_unit_quartiles[name]
            assert q1 <= median <= q3, name
        first = profile_run("array", "context", limit=1000, with_cprofile=False)
        assert report.result == first.result
        assert report.units["collection"] == first.units["collection"]
        assert report.timing_table and "phase_kernel" in report.native_phases
        text = render(report)
        assert f"of {report.timed_runs} runs" in text
        assert f"{report.timed_accesses} timed accesses" in text

