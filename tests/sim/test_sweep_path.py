"""The one sweep path: every grid is a GridPlan run by the scheduler.

``compare``, ``run_grid`` and the figure sweeps all build a plan,
run it through ``SweepScheduler.run_plan`` and read the cells back from
the run's result DB.  These tests pin the properties that used to
differ between the dispatch paths: a configured DB records every
executed cell at any ``jobs``, ``jobs=1`` spawns nothing and builds
each trace once, a cell's key names its trace's content whatever the
DB, and the process-wide execution defaults never leak from one test
into the next.
"""

import dataclasses
import sqlite3

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.experiments import fig14_layout_agnostic as fig14
from repro.experiments.sweep import SCALES
from repro.sim import native as native_pkg
from repro.sim.config import PREFETCHER_FACTORIES, PREFETCHER_ORDER
from repro.sim.native import adapter
from repro.sim.parallel import (
    ExecutionDefaults,
    default_execution,
    run_grid,
    set_default_execution,
)
from repro.sim.runner import compare
from repro.sim.sched import pool, supply
from repro.sim.sched.db import IN_MEMORY, ResultDB
from repro.workloads.linked_list import ListTraversalProgram
from repro.workloads.store import DEFAULT_TRACE_DIR, TraceStore
from repro.workloads.suites import WorkloadSpec
from tests.oracle import serial_compare, serial_context_grid

WORKLOADS = ("list", "array")
PREFETCHERS = ("none", "context")
LIMIT = 800
CELLS = len(WORKLOADS) * len(PREFETCHERS)


def _no_execution(*_args, **_kwargs):
    raise AssertionError("a fully resumed sweep executed a batch")


class TestResultDBRecordsEveryRun:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_db_commits_executed_cells_and_rerun_executes_none(
        self, tmp_path, monkeypatch, jobs
    ):
        db = ResultDB(tmp_path / "sweep.db")
        set_default_execution(db=db)
        first = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=jobs)
        assert len(db.query()) == CELLS

        monkeypatch.setattr(pool, "run_batch", _no_execution)
        lines = []
        again = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=jobs, progress=lines.append
        )
        *cells, summary = lines
        assert len(cells) == CELLS
        assert all(line.endswith(" [resumed]") for line in cells)
        # nothing executed, so the summary has no coverage clause
        assert summary.endswith(f"{CELLS} cells, 0 executed, {CELLS} resumed")
        for wl in WORKLOADS:
            for pf in PREFETCHERS:
                assert again.get(wl, pf) == first.get(wl, pf)

    def test_storage_sweep_is_one_plan(self, tmp_path):
        db = ResultDB(tmp_path / "sweep.db")
        set_default_execution(db=db)
        sizes = (256, 512, 1024)
        configs = [ContextPrefetcherConfig().scaled(size) for size in sizes]
        out = run_grid(
            ["list"], ("context",), context_configs=configs, limit=LIMIT, jobs=1
        )
        assert len(out) == len(sizes)
        # one sweep registered, covering every size of the config axis
        assert [(done, total) for _id, done, total in db.sweeps()] == [
            (len(sizes), len(sizes))
        ]


class TestUnreadableRows:
    def test_junk_row_is_recomputed(self, tmp_path):
        path = tmp_path / "sweep.db"
        set_default_execution(db=ResultDB(path))
        compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE cells SET payload = 'junk' "
                "WHERE workload = 'list' AND prefetcher = 'context'"
            )
        conn.close()

        lines = []
        again = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, progress=lines.append
        )
        oracle = serial_compare(WORKLOADS, PREFETCHERS, limit=LIMIT)
        for wl in WORKLOADS:
            for pf in PREFETCHERS:
                assert again.get(wl, pf) == oracle.get(wl, pf), f"{wl}/{pf}"
        cells = [line for line in lines if line.startswith("[")]
        executed = [line for line in cells if not line.endswith(" [resumed]")]
        assert len(cells) == CELLS
        assert len(executed) == 1
        assert len(default_execution().db.query()) == CELLS
        # the rerun that executed it is part of the run's one record
        stats = again.stats
        assert (stats.executed, stats.resumed) == (1, CELLS - 1)
        assert stats.kernel_cells + sum(stats.fallbacks.values()) == 1
        assert lines[-1] == stats.summary()


class TestOneJobRunsInProcess:
    def test_jobs1_spawns_no_worker(self, monkeypatch):
        def no_pool(_jobs):
            raise AssertionError("jobs=1 asked for a worker pool")

        monkeypatch.setattr(pool, "shared_pool", no_pool)
        monkeypatch.setattr(
            "repro.sim.sched.scheduler.shared_pool", no_pool
        )
        result = compare(["array"], ("none",), limit=LIMIT, jobs=1)
        assert result.get("array", "none").workload == "array"

    @pytest.mark.parametrize("warm", [False, True])
    def test_jobs1_builds_each_trace_once(self, tmp_path, monkeypatch, warm):
        # a cold store compiles the trace once, in the parent, and the
        # batch maps the file; a warm store builds nothing at all
        store = TraceStore(tmp_path / "traces")
        if warm:
            store.ensure("array")
        builds = []
        original = WorkloadSpec.build

        def counting_build(self):
            builds.append(self.name)
            return original(self)

        monkeypatch.setattr(WorkloadSpec, "build", counting_build)
        monkeypatch.setattr(supply, "_WORKER_TRACE_MEMO", {})
        compare(["array"], PREFETCHERS, limit=LIMIT, jobs=1, store=store)
        assert builds == ([] if warm else ["array"])

    def test_two_workloads_under_one_name_are_refused(self):
        make = lambda nodes: ListTraversalProgram(num_nodes=nodes, iterations=2)
        with pytest.raises(ValueError, match="'list'"):
            compare([make(64), make(128)], ("none",), jobs=1)


class TestEqualConfigsShareOneSlot:
    def test_a_repeated_config_runs_once_and_shares_its_slice(
        self, monkeypatch
    ):
        executed = []
        original = pool.run_batch

        def counting_run_batch(shared, cells):
            executed.extend(cells)
            return original(shared, cells)

        monkeypatch.setattr(pool, "run_batch", counting_run_batch)
        base = ContextPrefetcherConfig()
        small = base.scaled(256)
        slices = run_grid(
            ["list"],
            ("context",),
            context_configs=(base, small, ContextPrefetcherConfig()),
            limit=LIMIT,
            jobs=1,
        )
        assert len(executed) == 2
        assert slices[2] is slices[0]
        oracle = serial_context_grid(["list"], (base, small), limit=LIMIT)
        for part, expected in zip(slices, oracle):
            assert part.get("list", "context") == expected["list"]

    def test_a_key_shared_across_configs_runs_once(self, monkeypatch):
        # a `none` cell's key ignores the context config: two seeds give
        # two context keys but one `none` key, so three cells run
        executed = []
        original = pool.run_batch

        def counting_run_batch(shared, cells):
            executed.extend(cells)
            return original(shared, cells)

        monkeypatch.setattr(pool, "run_batch", counting_run_batch)
        base = ContextPrefetcherConfig()
        seeded = dataclasses.replace(base, seed=1)
        slices = run_grid(
            ["list"],
            ("none", "context"),
            context_configs=(base, seeded),
            limit=LIMIT,
            jobs=1,
        )
        assert len(executed) == 3
        none = serial_compare(["list"], ("none",), limit=LIMIT).get("list", "none")
        oracle = serial_context_grid(["list"], (base, seeded), limit=LIMIT)
        for part, expected in zip(slices, oracle):
            assert part.get("list", "none") == none
            assert part.get("list", "context") == expected["list"]


    def test_finding_equal_configs_compares_no_pair(self, monkeypatch):
        # equal configs are found by a dict keyed on what `==` compares,
        # not by comparing every config with every slot before it
        calls = []
        original = ContextPrefetcherConfig.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(ContextPrefetcherConfig, "__eq__", counting_eq)
        base = ContextPrefetcherConfig()
        configs = [dataclasses.replace(base, seed=seed) for seed in range(300)]
        slices = run_grid(
            ["list"], ("none",), context_configs=configs, limit=50, jobs=1
        )
        assert len({id(part) for part in slices}) == len(configs)
        assert len(calls) < len(configs)


class TestOneWayIntoTheKernel:
    """Every native cell enters the kernel as a row its sweep's parent
    built; the worker builds no prefetcher for a cell the kernel runs."""

    pytestmark = pytest.mark.skipif(
        not native_pkg.is_available(), reason="compiled kernel unavailable"
    )

    def test_compare_runs_every_cell_in_the_batch_kernel(self, monkeypatch):
        inside = []
        built = []
        original = pool.run_batch

        def watched_run_batch(shared, cells):
            inside.append(True)
            try:
                return original(shared, cells)
            finally:
                inside.pop()

        def counting(name, factory):
            def build(*args, **kwargs):
                if inside:
                    built.append(name)
                return factory(*args, **kwargs)

            return build

        for name, factory in list(PREFETCHER_FACTORIES.items()):
            monkeypatch.setitem(PREFETCHER_FACTORIES, name, counting(name, factory))
        monkeypatch.setattr(
            pool, "ContextPrefetcher", counting("context", ContextPrefetcher)
        )
        monkeypatch.setattr(pool, "run_batch", watched_run_batch)
        before = adapter.batch_counters()
        result = compare(WORKLOADS, PREFETCHER_ORDER, limit=LIMIT, jobs=1, native=True)
        after = adapter.batch_counters()
        assert built == []
        cells = len(WORKLOADS) * len(PREFETCHER_ORDER)
        assert after["cells"] - before["cells"] == cells
        assert after["native_cells"] - before["native_cells"] == cells
        oracle = serial_compare(WORKLOADS, PREFETCHER_ORDER, limit=LIMIT)
        for wl in WORKLOADS:
            for pf in PREFETCHER_ORDER:
                assert result.get(wl, pf) == oracle.get(wl, pf), f"{wl}/{pf}"

    @pytest.mark.parametrize("odd", [1.5, "abc"])
    def test_a_seed_that_is_not_an_int_plans_and_runs_on_the_oracle(self, odd):
        # a seed variant reuses its neighbour's row, but not its seed key
        base = ContextPrefetcherConfig()
        configs = tuple(dataclasses.replace(base, seed=seed) for seed in (1, odd, 2))
        slices = run_grid(
            ["list"],
            ("context",),
            context_configs=configs,
            limit=LIMIT,
            jobs=1,
            native=True,
        )
        oracle = serial_context_grid(["list"], configs, limit=LIMIT)
        for part, expected in zip(slices, oracle):
            assert part.get("list", "context") == expected["list"]


class TestTheSweepRecord:
    """Each sweep counts its executed cells once, as they commit: in the
    kernel, or on the oracle under the reason they left it."""

    pytestmark = pytest.mark.skipif(
        not native_pkg.is_available(), reason="compiled kernel unavailable"
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kernel_and_oracle_cells_are_counted_once(self, jobs):
        base = ContextPrefetcherConfig()
        configs = tuple(
            dataclasses.replace(base, seed=seed) for seed in (1, 2, "abc", 3)
        )
        lines = []
        slices = run_grid(
            WORKLOADS,
            PREFETCHERS,
            context_configs=configs,
            limit=LIMIT,
            jobs=jobs,
            native=True,
            progress=lines.append,
        )
        stats = slices[0].stats
        assert all(part.stats is stats for part in slices)
        # a `none` cell's key ignores the config: one per workload runs,
        # beside every context cell; only the "abc" slot's leave the kernel
        assert (stats.total, stats.executed, stats.kernel_cells) == (16, 10, 8)
        assert stats.fallbacks == {"the bandit seed is not an int": 2}
        assert stats.kernel_cells + sum(stats.fallbacks.values()) == stats.executed
        assert lines[-1] == stats.summary()
        assert lines[-1].endswith(
            "; kernel 8/10, oracle 2 (the bandit seed is not an int ×2)"
        )
        none = serial_compare(WORKLOADS, ("none",), limit=LIMIT)
        oracle = serial_context_grid(WORKLOADS, configs, limit=LIMIT)
        for part, expected in zip(slices, oracle):
            for wl in WORKLOADS:
                assert part.get(wl, "none") == none.get(wl, "none")
                assert part.get(wl, "context") == expected[wl]


class TestNegativeLimit:
    def test_run_grid_refuses_it_and_commits_nothing(self, tmp_path):
        db = ResultDB(tmp_path / "sweep.db")
        with pytest.raises(ValueError, match="limit must be non-negative"):
            run_grid(["array"], ("stride",), limit=-1, jobs=1, db=db)
        assert db.query() == []
        assert db.sweeps() == []


class TestKeysNameContent:
    def test_in_memory_and_file_dbs_hold_the_same_keys(
        self, tmp_path, monkeypatch
    ):
        # no store configured: the default one under the working
        # directory supplies the trace, and each key names its content
        # whether the DB outlives the process or not
        monkeypatch.chdir(tmp_path)
        set_default_execution(store=None)
        memory = ResultDB(IN_MEMORY)
        on_disk = ResultDB(tmp_path / "sweep.db")
        for db in (memory, on_disk):
            run_grid(["array"], PREFETCHERS, limit=LIMIT, jobs=1, db=db)
        keys = [sorted(row.key for row in db.query()) for db in (memory, on_disk)]
        assert len(keys[0]) == len(PREFETCHERS)
        assert keys[0] == keys[1]
        assert list((tmp_path / DEFAULT_TRACE_DIR).glob("array-*.rpt"))


class TestReportsShareOneDB:
    def test_fig14_executes_no_cell_after_a_compare_of_its_workloads(
        self, monkeypatch
    ):
        monkeypatch.setitem(SCALES, "tiny", dict(limit=LIMIT, subset=True))
        set_default_execution(db=ResultDB(IN_MEMORY))
        compare(
            ("ssca2-list", "ssca2-csr", "graph500-list", "graph500-csr"),
            PREFETCHERS,
            limit=LIMIT,
        )

        monkeypatch.setattr(pool, "run_batch", _no_execution)
        result = fig14.run("tiny", prefetchers=PREFETCHERS)
        assert result.layout_gap("graph500", "context") > 0


class TestExecutionDefaultsIsolation:
    """The autouse fixture restores every execution default.

    The two tests run in file order: the first changes the defaults a
    serve/figure-grid run sets, the second must see them back.
    """

    def test_1_set_db_and_kernel_threads(self, tmp_path):
        set_default_execution(
            db=ResultDB(tmp_path / "leak.db"), kernel_threads=3
        )
        assert default_execution().kernel_threads == 3

    def test_2_defaults_are_restored(self, session_store):
        assert default_execution().db is None
        assert default_execution().kernel_threads == 0
        assert default_execution() == ExecutionDefaults(store=session_store)
