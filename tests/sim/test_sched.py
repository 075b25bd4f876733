"""Scheduler-stack suite: plan, result DB, warm pool, resume.

Two invariants carry the whole subsystem:

* **Determinism** — a grid dispatched through the persistent warm
  worker pool at any ``jobs`` level is field-for-field identical to the
  serial loop, and the result DB it fills is canonically identical run
  to run.
* **Resume** — a sweep interrupted mid-grid re-executes *only* the
  missing cells, and the resumed DB's canonical dump is bit-identical
  to an uninterrupted run's.  ``max_cells`` is the deterministic
  stand-in for a mid-sweep kill: every executed cell commits with its
  batch, so stopping after N cells leaves the DB exactly as a real
  interruption would.
"""

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.codec import encode_result
from repro.sim.sched.db import ResultDB, ResultDBError
from repro.sim.sched.plan import GridPlan, PlanCell, shard_by_workload
from repro.sim.sched.pool import CELL_FIELDS, shared_pool
from repro.sim.sched.scheduler import SweepScheduler
from repro.workloads.store import TraceStore
from tests.oracle import serial_compare

WORKLOADS = ("list", "array")
PREFETCHERS = ("none", "context")
LIMIT = 1200


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    for name in WORKLOADS:
        store.compile(name)
    return store


@pytest.fixture(scope="module")
def plan():
    return GridPlan(workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=LIMIT)


@pytest.fixture(scope="module")
def serial(plan):
    return serial_compare(plan.workloads, plan.prefetchers, limit=plan.limit)


def run_plan(plan, db, store, jobs, **kwargs):
    scheduler = SweepScheduler(db=db, store=store, jobs=jobs)
    return scheduler.run_plan_sync(plan, **kwargs)


class TestGridPlan:
    def test_enumeration_order(self, plan):
        cells = list(plan.cells())
        assert [c.index for c in cells] == list(range(plan.n_cells))
        # workload-outer, prefetcher-inner: the serial loop's order
        assert [(c.workload, c.prefetcher) for c in cells] == [
            (wl, pf) for wl in WORKLOADS for pf in PREFETCHERS
        ]

    def test_sweep_id_tracks_cell_keys(self, plan):
        fps = {"list": "aa", "array": "bb"}
        keys = plan.cell_keys(fps)
        assert len(keys) == plan.n_cells
        assert plan.sweep_id(keys) == plan.sweep_id(keys)
        other = plan.cell_keys({"list": "aa", "array": "cc"})
        assert plan.sweep_id(keys) != plan.sweep_id(other)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridPlan(workloads=(), prefetchers=PREFETCHERS)


class TestShardByWorkload:
    def test_batches_are_workload_pure(self):
        cells = [
            PlanCell(i, wl, "none", 0)
            for i, wl in enumerate(["a"] * 7 + ["b"] * 5 + ["c"] * 1)
        ]
        batches = shard_by_workload(cells, lambda c: c.workload, jobs=4)
        for batch in batches:
            assert len({c.workload for c in batch}) == 1
        flat = [c for batch in batches for c in batch]
        assert flat == cells  # order preserved across the shard

    def test_max_batch_bounds_chunks(self):
        cells = [PlanCell(i, "a", "none", 0) for i in range(2000)]
        batches = shard_by_workload(
            cells, lambda c: c.workload, jobs=1, max_batch=512
        )
        assert all(len(b) <= 512 for b in batches)
        assert sum(len(b) for b in batches) == 2000


class TestResultDB:
    def test_round_trip_and_ignore_duplicates(self, tmp_path, serial):
        db = ResultDB(tmp_path / "db.sqlite")
        result = serial.get("list", "none")
        payload = encode_result(result)
        row = ("k1", 0, "list", "none", payload)
        assert db.store_cells("s1", [row]) == 1
        assert db.store_cells("s1", [row]) == 0  # content-addressed
        assert encode_result(db.load("k1")) == payload
        assert db.load("missing") is None
        assert db.completed_keys(["k1", "k2"]) == {"k1"}

    def test_corrupt_payload_degrades_to_miss(self, tmp_path, serial, caplog):
        db = ResultDB(tmp_path / "db.sqlite")
        payload = encode_result(serial.get("list", "none"))
        db.store_cells("s1", [("k1", 0, "list", "none", payload)])
        with sqlite3.connect(db.path) as conn:
            conn.execute("UPDATE cells SET payload = ?", (b"\x00garbage",))
        with caplog.at_level("WARNING"):
            assert db.load("k1") is None
        assert any("k1" in r.message for r in caplog.records)

    def test_canonical_dump_is_key_ordered(self, tmp_path, serial):
        payload = encode_result(serial.get("list", "none"))
        a = ResultDB(tmp_path / "a.sqlite")
        b = ResultDB(tmp_path / "b.sqlite")
        rows = [
            ("k2", 1, "list", "context", payload),
            ("k1", 0, "list", "none", payload),
        ]
        a.store_cells("s1", rows)
        b.store_cells("s1", list(reversed(rows)))  # insertion order differs
        assert a.canonical_dump() == b.canonical_dump()

    def test_schema_version_skew_raises(self, tmp_path):
        path = tmp_path / "db.sqlite"
        ResultDB(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema'")
        with pytest.raises(ResultDBError):
            ResultDB(path)

    def test_busy_commit_is_retried(self, tmp_path, monkeypatch):
        db = ResultDB(tmp_path / "db.sqlite")
        sleeps = []
        monkeypatch.setattr("repro.sim.sched.db.time.sleep", sleeps.append)
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert db._write(attempt) == "ok"
        assert calls["n"] == 3
        assert sleeps == sorted(sleeps) and len(sleeps) == 2  # backoff grows

    def test_non_busy_error_is_not_retried(self, tmp_path, monkeypatch):
        db = ResultDB(tmp_path / "db.sqlite")
        monkeypatch.setattr(
            "repro.sim.sched.db.time.sleep",
            lambda s: pytest.fail("non-busy errors must not back off"),
        )
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            raise sqlite3.OperationalError("no such table: nope")

        with pytest.raises(sqlite3.OperationalError):
            db._write(attempt)
        assert calls["n"] == 1


class TestConcurrentWriters:
    def test_two_submitters_disjoint_shards(self, tmp_path, store):
        """Two processes filling one WAL DB match the serial dump."""
        script = Path(__file__).with_name("_concurrent_writer.py")
        shared = tmp_path / "shared.sqlite"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(shared),
                 str(store.root), wl, str(LIMIT)],
                env=env,
            )
            for wl in WORKLOADS
        ]
        assert [p.wait(timeout=600) for p in procs] == [0, 0]

        serial_db = ResultDB(tmp_path / "serial.sqlite")
        for wl in WORKLOADS:
            shard = GridPlan(
                workloads=(wl,), prefetchers=PREFETCHERS, limit=LIMIT
            )
            run_plan(shard, serial_db, store, jobs=1)
        with ResultDB(shared) as concurrent:
            assert concurrent.canonical_dump() == serial_db.canonical_dump()


class TestWarmPool:
    def test_cell_fields_pin(self):
        # PERF004 pins this layout; the constant is the wire contract
        assert CELL_FIELDS == ("index", "prefetcher", "context_id")

    def test_workers_persist_across_dispatches(self, tmp_path, store, plan):
        pool = shared_pool(2)
        assert shared_pool(2) is pool
        pids = pool.worker_pids()
        assert len(pids) == 2
        run_plan(plan, ResultDB(tmp_path / "a.sqlite"), store, jobs=2)
        run_plan(plan, ResultDB(tmp_path / "b.sqlite"), store, jobs=2)
        # both sweeps ran on the same resident workers: no respawn
        assert pool.worker_pids() == pids
        assert pool.alive()


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_bit_identical_to_serial(self, tmp_path, store, plan, serial, jobs):
        db = ResultDB(tmp_path / "db.sqlite")
        stats = run_plan(plan, db, store, jobs=jobs)
        assert (stats.executed, stats.resumed) == (plan.n_cells, 0)
        fps = {wl: store.ensure(wl)[0].fingerprint for wl in plan.workloads}
        keys = plan.cell_keys(fps)
        for cell in plan.cells():
            got = db.load(keys[cell.index])
            want = serial.get(cell.workload, cell.prefetcher)
            assert encode_result(got) == encode_result(want), (
                f"{cell.workload}/{cell.prefetcher} diverged at jobs={jobs}"
            )

    def test_config_axis_jobs_invariant(self, tmp_path, store):
        from repro.serve.service import plan_from_axes

        plan = plan_from_axes(
            workloads=["list"],
            prefetchers=["context"],
            cst_sizes=[128, 256],
            limit=LIMIT,
        )
        dumps = []
        for jobs in (1, 2):
            db = ResultDB(tmp_path / f"db{jobs}.sqlite")
            run_plan(plan, db, store, jobs=jobs)
            dumps.append(db.canonical_dump())
        assert dumps[0] == dumps[1]


class TestResume:
    def test_second_run_recomputes_nothing(self, tmp_path, store, plan):
        db = ResultDB(tmp_path / "db.sqlite")
        first = run_plan(plan, db, store, jobs=2)
        again = run_plan(plan, db, store, jobs=2)
        assert (first.executed, first.resumed) == (plan.n_cells, 0)
        assert (again.executed, again.resumed) == (0, plan.n_cells)

    def test_kill_mid_sweep_resume(self, tmp_path, store, plan):
        # uninterrupted reference
        full_db = ResultDB(tmp_path / "full.sqlite")
        run_plan(plan, full_db, store, jobs=2)

        # interrupted run: stop after 3 of 4 cells, then resume
        db = ResultDB(tmp_path / "resumed.sqlite")
        partial = run_plan(plan, db, store, jobs=2, max_cells=3)
        assert (partial.executed, partial.resumed) == (3, 0)
        resumed = run_plan(plan, db, store, jobs=2)
        # zero recompute: only the one missing cell executed
        assert (resumed.executed, resumed.resumed) == (1, 3)
        assert db.canonical_dump() == full_db.canonical_dump()

    def test_progress_reports_resume(self, tmp_path, store, plan):
        db = ResultDB(tmp_path / "db.sqlite")
        run_plan(plan, db, store, jobs=1, max_cells=2)
        lines = []
        run_plan(plan, db, store, jobs=1, progress=lines.append)
        assert any("resume: 2/4" in line for line in lines)
