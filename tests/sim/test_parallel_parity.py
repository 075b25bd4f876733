"""Determinism-parity suite for the parallel sweep engine.

PR 1 made bit-reproducibility a machine-enforced invariant; this suite
extends it across process boundaries: fanning the sweep grid out over
worker processes, or reading cells back from a result DB an earlier run
filled, must change nothing but wall-clock time.  Every comparison here
is field-for-field over the full :class:`SimulationResult` — counters,
classifier breakdown, hit-depth histogram, accuracy EMA — not just
headline IPC.
"""

import dataclasses

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.sim.metrics import SimulationResult
from repro.sim.parallel import run_grid
from repro.sim.runner import compare
from repro.sim.sched.db import ResultDB
from repro.workloads.linked_list import ListTraversalProgram
from repro.workloads.store import TraceStore
from tests.oracle import serial_compare, serial_storage_sweep

#: a representative subset: regular (array), pointer-chasing (list),
#: and the RL context prefetcher whose ε-greedy loop is the hardest
#: determinism test — kept small enough for CI
WORKLOADS = ("list", "array")
PREFETCHERS = ("none", "ghb-pcdc", "context")
LIMIT = 2500


@pytest.fixture(scope="module")
def serial_sweep():
    return serial_compare(WORKLOADS, PREFETCHERS, limit=LIMIT)


def assert_identical(a: SimulationResult, b: SimulationResult, where: str) -> None:
    """Field-for-field equality with a per-field failure message."""
    for field in dataclasses.fields(SimulationResult):
        assert getattr(a, field.name) == getattr(b, field.name), (
            f"{where}: field {field.name!r} differs"
        )
    assert a == b, where  # belt and braces: dataclass equality too


def assert_sweeps_identical(a, b) -> None:
    assert a.workloads() == b.workloads()
    assert a.prefetchers() == b.prefetchers()
    for wl in a.workloads():
        for pf in a.prefetchers():
            assert_identical(a.get(wl, pf), b.get(wl, pf), f"{wl}/{pf}")


def cold_then_warm(db_path, **kwargs):
    """The grid twice against one DB file: the warm run executes no cell.

    ``kwargs`` go to :func:`run_grid`; returns both runs' slices.
    """
    db = ResultDB(db_path)
    cold = run_grid(WORKLOADS, PREFETCHERS, limit=LIMIT, db=db, **kwargs)
    lines = []
    warm = run_grid(
        WORKLOADS, PREFETCHERS, limit=LIMIT, db=db, progress=lines.append, **kwargs
    )
    cells = [line for line in lines if line.startswith("[")]
    assert len(cells) == len(WORKLOADS) * len(PREFETCHERS)
    assert all(line.endswith(" [resumed]") for line in cells), cells
    return cold[0], warm[0]


def cst_configs(sizes):
    return [ContextPrefetcherConfig().scaled(size) for size in sizes]


class TestParallelParity:
    def test_jobs4_identical_to_serial(self, serial_sweep):
        parallel = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4)
        assert_sweeps_identical(serial_sweep, parallel)

    def test_grid_order_preserved(self, serial_sweep):
        parallel = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4)
        # dict insertion order is the figures' plotting order; the merge
        # must restore grid order no matter which worker finished first
        assert list(parallel.results) == list(serial_sweep.results)
        for wl in parallel.workloads():
            assert list(parallel.results[wl]) == list(serial_sweep.results[wl])

    def test_adhoc_trace_program(self):
        # ad-hoc programs have no store file; their traces ship by
        # value and must produce the same results
        make = lambda: ListTraversalProgram(num_nodes=256, iterations=4)
        serial = serial_compare([make()], ("none", "context"))
        parallel = compare([make()], ("none", "context"), jobs=3)
        assert_sweeps_identical(serial, parallel)

    def test_progress_reports_every_cell(self, serial_sweep):
        lines = []
        compare(
            WORKLOADS,
            PREFETCHERS,
            limit=LIMIT,
            jobs=2,
            progress=lines.append,
        )
        # one line per cell, then the sweep's summary line
        assert len(lines) == len(WORKLOADS) * len(PREFETCHERS) + 1
        assert lines[0].startswith("[1/6] ")
        assert lines[-2].startswith("[6/6] ")
        assert "6 cells, 6 executed, 0 resumed" in lines[-1]


class TestCacheParity:
    """The result DB as the cross-run memo: a rerun against the same DB
    file reads every cell back, and what it reads equals the oracle."""

    def test_warm_run_identical_to_cold(self, serial_sweep, tmp_path):
        cold, warm = cold_then_warm(tmp_path / "sweep.db", jobs=1)
        assert_sweeps_identical(cold, warm)
        assert_sweeps_identical(serial_sweep, cold)

    def test_parallel_with_cache_matches_serial(self, serial_sweep, tmp_path):
        cold, warm = cold_then_warm(tmp_path / "sweep.db", jobs=4)
        assert_sweeps_identical(serial_sweep, cold)
        assert_sweeps_identical(serial_sweep, warm)

    def test_storage_sweep_parity(self, tmp_path):
        sizes = (512, 1024)
        serial = serial_storage_sweep(["list"], sizes, limit=1500)
        db = ResultDB(tmp_path / "sweep.db")
        grid = dict(context_configs=cst_configs(sizes), limit=1500, db=db)
        parallel = run_grid(["list"], ("context",), jobs=2, **grid)
        lines = []
        warm = run_grid(["list"], ("context",), jobs=1, progress=lines.append, **grid)
        cells = [line for line in lines if line.startswith("[")]
        assert len(cells) == len(sizes)
        assert all(line.endswith(" [resumed]") for line in cells), cells
        for size, cold_part, warm_part in zip(sizes, parallel, warm):
            want = serial[size]["list"]
            assert_identical(want, cold_part.get("list", "context"), f"cst={size}")
            assert_identical(want, warm_part.get("list", "context"), f"cst={size}")


class TestTraceStoreParity:
    """The mmap trace store must change wall-clock time, nothing else.

    Cells fed from store files — compiled cold this run, or mapped warm
    from a previous one — must be bit-identical to cells fed from
    freshly built traces, inline and across worker processes.
    """

    def test_store_cold_then_warm_identical_to_serial(
        self, serial_sweep, tmp_path
    ):
        store = TraceStore(tmp_path / "traces")
        cold = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, store=store
        )
        warm = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, store=store
        )
        assert_sweeps_identical(serial_sweep, cold)
        assert_sweeps_identical(serial_sweep, warm)

    def test_jobs4_store_identical_to_serial(self, serial_sweep, tmp_path):
        store = TraceStore(tmp_path / "traces")
        dispatched = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, store=store
        )
        assert_sweeps_identical(serial_sweep, dispatched)
        # and again with every trace served from the warm store files
        warm = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=4, store=store
        )
        assert_sweeps_identical(serial_sweep, warm)

    def test_corrupt_store_degrades_to_rebuild(self, serial_sweep, tmp_path):
        store = TraceStore(tmp_path / "traces")
        clean = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, store=store
        )
        assert clean.stats.store_degrades == 0
        assert "store degrade" not in clean.stats.summary()
        for path in store.root.glob("*.rpt"):
            path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        lines = []
        healed = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=2, store=store,
            progress=lines.append,
        )
        assert_sweeps_identical(serial_sweep, healed)
        # the recoveries surface in the sweep's record and its summary
        # line, not only the log
        degrades = healed.stats.store_degrades
        assert degrades > 0
        assert lines[-1] == healed.stats.summary()
        assert lines[-1].endswith(f", {degrades} store degrades")

    def test_unwritable_store_ships_records_by_value(
        self, serial_sweep, tmp_path
    ):
        # a regular file where the store directory should be: every
        # workload counts one degrade, nothing heals, and the records
        # ship by value to the same results
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        store = TraceStore(blocker)
        got = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, store=store)
        assert got.stats.store_degrades == len(WORKLOADS)
        assert store.heals == 0
        assert_sweeps_identical(serial_sweep, got)

    def test_unwritable_store_builds_and_hashes_each_trace_once(
        self, tmp_path, monkeypatch
    ):
        # the store fails on its directory before hashing, and the trace
        # its compile built is the one that ships by value: one build and
        # one fingerprint per workload
        from repro.sim.sched import supply
        from repro.workloads import store as store_module
        from repro.workloads.suites import WorkloadSpec

        serial = serial_compare(WORKLOADS, ("none", "stride"), limit=LIMIT)
        builds: list[str] = []
        hashes: list[int] = []
        build = WorkloadSpec.build
        fingerprint = store_module.trace_fingerprint

        def counted_build(spec, *args, **kwargs):
            builds.append(spec.name)
            return build(spec, *args, **kwargs)

        def counted_fingerprint(trace):
            hashes.append(len(trace))
            return fingerprint(trace)

        monkeypatch.setattr(WorkloadSpec, "build", counted_build)
        for module in (store_module, supply):
            monkeypatch.setattr(module, "trace_fingerprint", counted_fingerprint)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        got = compare(
            WORKLOADS, ("none", "stride"), limit=LIMIT, jobs=1,
            store=TraceStore(blocker),
        )
        assert sorted(builds) == sorted(WORKLOADS)
        assert len(hashes) == len(WORKLOADS)
        assert_sweeps_identical(serial, got)

    def test_adhoc_programs_bypass_the_store(self, tmp_path):
        # ad-hoc programs aren't registry-addressable; with a store set
        # they still ship by value and stay bit-identical
        store = TraceStore(tmp_path / "traces")
        make = lambda: ListTraversalProgram(num_nodes=256, iterations=4)
        serial = serial_compare([make()], ("none", "context"))
        stored = compare(
            [make()], ("none", "context"), jobs=3, store=store
        )
        assert_sweeps_identical(serial, stored)

    def test_store_with_cache_matches_serial(self, serial_sweep, tmp_path):
        store = TraceStore(tmp_path / "traces")
        cold, warm = cold_then_warm(tmp_path / "sweep.db", jobs=2, store=store)
        assert_sweeps_identical(serial_sweep, cold)
        assert_sweeps_identical(serial_sweep, warm)

    def test_storage_sweep_store_parity(self, tmp_path):
        sizes = (512, 1024)
        store = TraceStore(tmp_path / "traces")
        serial = serial_storage_sweep(["list"], sizes, limit=1500)
        stored = run_grid(
            ["list"],
            ("context",),
            context_configs=cst_configs(sizes),
            limit=1500,
            jobs=2,
            store=store,
        )
        for size, part in zip(sizes, stored):
            assert_identical(
                serial[size]["list"], part.get("list", "context"), f"cst={size}"
            )
