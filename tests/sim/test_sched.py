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

import dataclasses
import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim import native as native_pkg
from repro.sim.cache import cell_key
from repro.sim.codec import encode_result, encode_text
from repro.sim.sched import pool
from repro.sim.sched.db import ResultDB, ResultDBError
from repro.sim.sched.plan import GridPlan, PlanCell, shard_by_workload
from repro.sim.sched.pool import CELL_FIELDS, shared_pool
from repro.sim.sched.scheduler import SweepScheduler
from repro.workloads.store import TraceStore
from repro.workloads.suites import get_workload
from tests.oracle import serial_compare, serial_storage_sweep

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


def run_plan(plan, db, store, jobs, native=False, **kwargs):
    scheduler = SweepScheduler(db=db, store=store, jobs=jobs, native=native)
    return scheduler.run_plan(plan, **kwargs)


def stored_text(db, key):
    """The payload column of one row, exactly as the DB holds it."""
    with sqlite3.connect(db.path) as conn:
        (payload,) = conn.execute(
            "SELECT payload FROM cells WHERE key = ?", (key,)
        ).fetchone()
    return payload


needs_kernel = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (cffi/toolchain)",
)


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

    def test_keys_and_spec_match_reference_constructions(self):
        configs = (
            None,
            ContextPrefetcherConfig().scaled(1024),
            ContextPrefetcherConfig(policy="softmax", softmax_temperature=2.5),
            ContextPrefetcherConfig(reward_shape="flat"),
            ContextPrefetcherConfig(degree_thresholds=(1, 2, 3)),
            ContextPrefetcherConfig(degree_thresholds=(1.0, 2.0, 3.0)),
            ContextPrefetcherConfig(adaptive_epsilon=False, fixed_epsilon=0.0),
            ContextPrefetcherConfig(adaptive_epsilon=False, fixed_epsilon=-0.0),
            *(
                ContextPrefetcherConfig(
                    seed=i,
                    sample_depths=tuple(range(18, 19 + i % 33)),
                    degree_thresholds=(i / 200, 0.5, 0.9),
                )
                for i in range(200)
            ),
        )
        mixed = GridPlan(
            workloads=WORKLOADS,
            prefetchers=("none", "context", "stride"),
            context_configs=configs,
            limit=LIMIT,
            hierarchy_config=HierarchyConfig(l1_size=32 * 1024),
            core_config=CoreConfig(rob_size=256),
        )
        fps = {"list": "aa", "array": "bb"}
        for plan in (
            mixed,
            dataclasses.replace(mixed, hierarchy_config=None, core_config=None),
        ):
            keys = [
                cell_key(
                    workload=cell.workload,
                    trace_fp=fps[cell.workload],
                    prefetcher=cell.prefetcher,
                    limit=plan.limit,
                    hierarchy_config=plan.hierarchy_config,
                    core_config=plan.core_config,
                    context_config=plan.context_configs[cell.context_id],
                )
                for cell in plan.cells()
            ]
            spec = json.dumps(
                {
                    "workloads": list(plan.workloads),
                    "prefetchers": list(plan.prefetchers),
                    "context_configs": [
                        None if cfg is None else dataclasses.asdict(cfg)
                        for cfg in plan.context_configs
                    ],
                    "limit": plan.limit,
                    "hierarchy": (
                        None
                        if plan.hierarchy_config is None
                        else dataclasses.asdict(plan.hierarchy_config)
                    ),
                    "core": (
                        None
                        if plan.core_config is None
                        else dataclasses.asdict(plan.core_config)
                    ),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            # with no fragments, and with the one rendering run_plan shares
            for fragments in (None, plan.context_fragments()):
                assert plan.cell_keys(fps, fragments) == keys
                assert plan.spec(fragments) == spec


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
        payload = encode_text(result)
        row = ("k1", 0, "list", "none", payload)
        assert db.store_cells("s1", [row]) == 1
        assert db.store_cells("s1", [row]) == 0  # content-addressed
        assert encode_text(db.load("k1")) == payload
        assert stored_text(db, "k1") == payload  # stored as given
        assert db.load("missing") is None
        assert db.completed_keys(["k1", "k2"]) == {"k1"}

    def test_corrupt_payload_degrades_to_miss(self, tmp_path, serial, caplog):
        db = ResultDB(tmp_path / "db.sqlite")
        payload = encode_text(serial.get("list", "none"))
        db.store_cells("s1", [("k1", 0, "list", "none", payload)])
        # junk, and valid JSON that is not an object
        for junk in (b"\x00garbage", "[]", "1", '"x"', "null"):
            with sqlite3.connect(db.path) as conn:
                conn.execute("UPDATE cells SET payload = ?", (junk,))
            caplog.clear()
            with caplog.at_level("WARNING"):
                assert db.load("k1") is None, junk
                assert db.query(sweep="s1") == [], junk
            assert any("k1" in r.message for r in caplog.records), junk

    def test_canonical_dump_is_key_ordered(self, tmp_path, serial):
        payload = encode_text(serial.get("list", "none"))
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


def _open_fresh_dbs(root: str, count: int, barrier) -> None:
    """One of two processes opening the same ``count`` fresh result DBs,
    each at the same instant as the other; exits 1 if any open failed."""
    failed = 0
    for i in range(count):
        barrier.wait(timeout=60)
        try:
            ResultDB(Path(root) / f"{i}.sqlite").close()
        except ResultDBError:
            failed += 1
    raise SystemExit(1 if failed else 0)


class TestConcurrentWriters:
    def test_two_processes_open_one_fresh_db_at_once(self, tmp_path):
        # switching a fresh file to WAL from two processes at once can
        # deadlock, which SQLite answers with BUSY without waiting
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_open_fresh_dbs, args=(str(tmp_path), 40, barrier))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=300)
        assert [proc.exitcode for proc in procs] == [0, 0]

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

    def test_a_failed_dispatch_leaves_nothing_for_the_next(
        self, tmp_path, store, monkeypatch
    ):
        # one cell per batch, so batches are still in flight when the
        # first commit raises; their results must not answer the next
        # sweep's batches of the same ids
        monkeypatch.setattr(
            "repro.sim.sched.scheduler.DEFAULT_BATCH_CELLS", 1
        )
        base = ContextPrefetcherConfig()

        def seeds(first):
            return GridPlan(
                workloads=WORKLOADS,
                prefetchers=("context",),
                context_configs=tuple(
                    dataclasses.replace(base, seed=first + i) for i in range(4)
                ),
                limit=300,
            )

        def boom(_results):
            raise RuntimeError("commit failed")

        pool = shared_pool(2)
        with pytest.raises(RuntimeError, match="commit failed"):
            run_plan(
                seeds(0), ResultDB(tmp_path / "a.db"), store, jobs=2,
                on_batch=boom,
            )
        assert not pool.alive()
        got = ResultDB(tmp_path / "b.db")
        run_plan(seeds(100), got, store, jobs=2)
        want = ResultDB(tmp_path / "c.db")
        run_plan(seeds(100), want, store, jobs=1)
        assert got.canonical_dump() == want.canonical_dump()

    def test_closing_a_busy_pool_does_not_wait_out_its_batches(self):
        # two interpreted batches of several seconds each, one per
        # worker: close() must not queue its sentinels behind them
        trace = tuple(get_workload("list").build().trace()[:20000])
        shared = pool.BatchShared(
            workload="list", limit=None, native=False, trace=trace
        )
        cells = tuple((i, "context", 0) for i in range(12))
        workers = pool.WorkerPool(2)
        try:
            workers.submit(0, shared, cells)
            workers.submit(1, shared, cells)
            time.sleep(1.0)  # both workers are inside their batch
            start = time.monotonic()
            workers.close()
            elapsed = time.monotonic() - start
        finally:
            workers.close()
        assert elapsed < 1.5, f"close() took {elapsed:.1f} s"
        assert not any(proc.is_alive() for proc in workers._procs)

    def test_an_idle_pool_stops_through_the_sentinel(self):
        shared = pool.BatchShared(
            workload="list", limit=20, native=False,
            trace=tuple(get_workload("list").build().trace()[:20]),
        )
        workers = pool.WorkerPool(2)
        workers.submit(0, shared, ((0, "none", 0),))
        assert workers.drain_one()[0] == 0
        workers.close()
        # a worker that took the sentinel returns: exit code 0, not the
        # negative signal number of a terminated one
        assert [proc.exitcode for proc in workers._procs] == [0, 0]


#: subprocess body: a ``jobs=1`` native sweep over every family, then the
#: numpy modules the process loaded (argv[1] is a fresh store directory)
_NUMPY_FREE_SWEEP = """
import sys
from repro.sim.config import PREFETCHER_ORDER
from repro.sim.runner import compare
from repro.workloads.store import TraceStore

result = compare(
    ["list", "array"], PREFETCHER_ORDER, limit=800, jobs=1, native=True,
    store=TraceStore(sys.argv[1]),
)
assert result.stats.kernel_cells == result.stats.executed > 0, result.stats.summary()
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


@needs_kernel
class TestNumpyFree:
    """The kernel reads the trace store's records in place: neither a
    worker nor a one-job sweep loads numpy."""

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc")
    def test_a_native_worker_maps_no_numpy(self, store):
        ref, _built = store.ensure("list")
        shared = pool.BatchShared(
            workload="list",
            limit=LIMIT,
            native=True,
            context_table=pool.ContextTable.with_rows((None,), PREFETCHERS),
            store_path=str(ref.path),
            store_fingerprint=ref.fingerprint,
        )
        workers = pool.WorkerPool(1)
        try:
            workers.submit(0, shared, ((0, "none", 0), (1, "context", 0)))
            _batch, results, _degrades = workers.drain_one()
            maps = Path(f"/proc/{workers.worker_pids()[0]}/maps").read_text()
        finally:
            workers.close()
        assert [info for _i, _p, info in results] == [(True, None)] * 2
        assert "numpy" not in maps

    def test_a_one_job_native_sweep_imports_no_numpy(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[2] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_FREE_SWEEP, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "[]"


class TestSchedulerDeterminism:
    """Interpreted and kernel sweeps, in process and through spawned
    workers, against the serial oracle.  On the kernel side every cell
    must run in the batch kernel, and the payload text a worker rendered
    is what the DB holds: ``encode_text`` of the oracle's result."""

    @pytest.mark.parametrize(
        "jobs, native",
        [
            pytest.param(1, False, id="1"),
            pytest.param(2, False, id="2"),
            pytest.param(4, False, id="4"),
            pytest.param(1, True, id="native-1", marks=needs_kernel),
            pytest.param(2, True, id="native-2", marks=needs_kernel),
        ],
    )
    def test_bit_identical_to_serial(
        self, tmp_path, store, plan, serial, jobs, native
    ):
        db = ResultDB(tmp_path / "db.sqlite")
        infos = []
        stats = run_plan(
            plan,
            db,
            store,
            jobs=jobs,
            native=native,
            on_batch=lambda batch: infos.extend(info for _i, _p, info in batch),
        )
        assert (stats.executed, stats.resumed) == (plan.n_cells, 0)
        if native:
            assert infos == [(True, None)] * plan.n_cells
        fps = {wl: store.ensure(wl)[0].fingerprint for wl in plan.workloads}
        keys = plan.cell_keys(fps)
        for cell in plan.cells():
            got = db.load(keys[cell.index])
            want = serial.get(cell.workload, cell.prefetcher)
            assert encode_result(got) == encode_result(want), (
                f"{cell.workload}/{cell.prefetcher} diverged at jobs={jobs}"
            )
            if native:
                assert stored_text(db, keys[cell.index]) == encode_text(want)

    def test_config_axis_jobs_invariant(self, tmp_path, store):
        self._config_axis(tmp_path, store, native=False)

    @needs_kernel
    def test_config_axis_jobs_invariant_native(self, tmp_path, store):
        self._config_axis(tmp_path, store, native=True)

    @staticmethod
    def _config_axis(tmp_path, store, *, native):
        from repro.serve.service import plan_from_axes

        sizes = [128, 256]
        plan = plan_from_axes(
            workloads=["list"],
            prefetchers=["context"],
            cst_sizes=sizes,
            limit=LIMIT,
        )
        oracle = serial_storage_sweep(["list"], sizes, limit=LIMIT) if native else {}
        dumps = []
        for jobs in (1, 2):
            db = ResultDB(tmp_path / f"db{jobs}.sqlite")
            stats = run_plan(plan, db, store, jobs=jobs, native=native)
            dumps.append(db.canonical_dump())
            if native:
                for cell in plan.cells():
                    want = oracle[sizes[cell.context_id]][cell.workload]
                    got = stored_text(db, stats.keys[cell.index])
                    assert got == encode_text(want), (cell, jobs)
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


class TestSharedKeys:
    """Cells that share a key share one result, so each key runs once.

    A non-``context`` cell's key ignores the context config, so on a
    config axis every ``none`` and ``stride`` cell repeats once per
    config slot.
    """

    def test_each_distinct_key_runs_once(self, tmp_path, store, monkeypatch):
        from repro.serve.service import SweepService, plan_from_axes

        executed = []
        original = pool.run_batch

        def counting_run_batch(shared, cells):
            executed.extend(cells)
            return original(shared, cells)

        monkeypatch.setattr(pool, "run_batch", counting_run_batch)
        plan = plan_from_axes(
            workloads=list(WORKLOADS),
            prefetchers=["none", "stride", "context"],
            cst_sizes=[256, 2048],
            limit=LIMIT,
        )
        db = ResultDB(tmp_path / "db.sqlite")
        stats = run_plan(plan, db, store, jobs=1)
        # per workload: none, stride and one context cell per CST size
        distinct = 2 * 4
        assert len(set(stats.keys)) == distinct
        assert len(executed) == distinct
        assert (stats.total, stats.executed, stats.resumed) == (12, 8, 4)
        # the registered total counts results, so the sweep reads done
        assert [(s.done, s.total) for s in SweepService(db=db).status()] == [
            (distinct, distinct)
        ]

    def test_max_cells_counts_only_covered_cells_as_resumed(
        self, tmp_path, store
    ):
        from repro.serve.service import plan_from_axes

        plan = plan_from_axes(
            workloads=["list"],
            prefetchers=["none", "context"],
            cst_sizes=[256, 2048],
            limit=LIMIT,
        )
        db = ResultDB(tmp_path / "db.sqlite")
        # cells: none, context@256, none (shares the first key), context@2048
        partial = run_plan(plan, db, store, jobs=1, max_cells=1)
        assert (partial.executed, partial.resumed) == (1, 1)
        rest = run_plan(plan, db, store, jobs=1)
        assert (rest.executed, rest.resumed) == (2, 2)
