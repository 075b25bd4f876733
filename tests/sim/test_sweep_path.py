"""The one sweep path: every grid is a GridPlan run by the scheduler.

``compare``, ``storage_sweep`` and the figure sweeps all build a plan,
run it through ``SweepScheduler.run_plan`` and read the cells back from
the run's result DB.  These tests pin the properties that used to
differ between the dispatch paths: a configured DB records every
executed cell at any ``jobs``, ``jobs=1`` spawns nothing and builds
each trace once, and the process-wide execution defaults never leak
from one test into the next.
"""

import sqlite3

import pytest

from repro.sim.cache import SweepCache
from repro.sim.parallel import (
    ExecutionDefaults,
    default_execution,
    set_default_execution,
)
from repro.sim.runner import compare, storage_sweep
from repro.sim.sched import pool, supply
from repro.sim.sched.db import ResultDB
from repro.workloads.linked_list import ListTraversalProgram
from repro.workloads.suites import WorkloadSpec
from tests.oracle import serial_compare

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
        first = compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=jobs, cache=False)
        assert len(db.query()) == CELLS

        monkeypatch.setattr(pool, "run_batch", _no_execution)
        lines = []
        again = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=jobs, cache=False,
            progress=lines.append,
        )
        assert len(lines) == CELLS
        assert all(line.endswith(" [resumed]") for line in lines)
        for wl in WORKLOADS:
            for pf in PREFETCHERS:
                assert again.get(wl, pf) == first.get(wl, pf)

    def test_storage_sweep_is_one_plan(self, tmp_path):
        db = ResultDB(tmp_path / "sweep.db")
        set_default_execution(db=db)
        sizes = (256, 512, 1024)
        out = storage_sweep(["list"], sizes, limit=LIMIT, jobs=1, cache=False)
        assert sorted(out) == sorted(sizes)
        # one sweep registered, covering every size of the config axis
        assert [(done, total) for _id, done, total in db.sweeps()] == [
            (len(sizes), len(sizes))
        ]


class TestUnreadableRows:
    @pytest.mark.parametrize("cached", [False, True])
    def test_junk_row_is_recomputed(self, tmp_path, monkeypatch, cached):
        path = tmp_path / "sweep.db"
        set_default_execution(db=ResultDB(path))
        cache = SweepCache(tmp_path / "cache") if cached else False
        compare(WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=cache)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE cells SET payload = 'junk' "
                "WHERE workload = 'list' AND prefetcher = 'context'"
            )
        conn.close()
        if cached:
            # the cache holds a good copy: the row heals without a run
            monkeypatch.setattr(pool, "run_batch", _no_execution)

        lines = []
        again = compare(
            WORKLOADS, PREFETCHERS, limit=LIMIT, jobs=1, cache=cache,
            progress=lines.append,
        )
        oracle = serial_compare(WORKLOADS, PREFETCHERS, limit=LIMIT)
        for wl in WORKLOADS:
            for pf in PREFETCHERS:
                assert again.get(wl, pf) == oracle.get(wl, pf), f"{wl}/{pf}"
        cells = [line for line in lines if line.startswith("[")]
        executed = [line for line in cells if not line.endswith(" [resumed]")]
        assert len(cells) == CELLS
        assert len(executed) == (0 if cached else 1)
        assert len(default_execution().db.query()) == CELLS


class TestOneJobRunsInProcess:
    def test_jobs1_spawns_no_worker(self, monkeypatch):
        def no_pool(_jobs):
            raise AssertionError("jobs=1 asked for a worker pool")

        monkeypatch.setattr(pool, "shared_pool", no_pool)
        monkeypatch.setattr(
            "repro.sim.sched.scheduler.shared_pool", no_pool
        )
        result = compare(["array"], ("none",), limit=LIMIT, jobs=1, cache=False)
        assert result.get("array", "none").workload == "array"

    @pytest.mark.parametrize("keyed", [True, False])
    def test_jobs1_builds_each_trace_once(self, tmp_path, monkeypatch, keyed):
        builds = []
        original = WorkloadSpec.build

        def counting_build(self):
            builds.append(self.name)
            return original(self)

        monkeypatch.setattr(WorkloadSpec, "build", counting_build)
        monkeypatch.setattr(supply, "_REGISTRY_FP_MEMO", {})
        monkeypatch.setattr(supply, "_WORKER_TRACE_MEMO", {})
        if keyed:
            # a persistent DB needs content keys: the parent builds the
            # trace to fingerprint it, and the batch runs that trace
            set_default_execution(db=ResultDB(tmp_path / "sweep.db"))
        compare(["array"], PREFETCHERS, limit=LIMIT, jobs=1, cache=False,
                store=False)
        assert builds == ["array"]

    def test_two_workloads_under_one_name_are_refused(self):
        make = lambda nodes: ListTraversalProgram(num_nodes=nodes, iterations=2)
        with pytest.raises(ValueError, match="'list'"):
            compare([make(64), make(128)], ("none",), jobs=1, cache=False)


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

    def test_2_defaults_are_restored(self):
        assert default_execution().db is None
        assert default_execution().kernel_threads == 0
        assert default_execution() == ExecutionDefaults()
