"""Sweep-service suite: the client API and the ``repro serve`` CLI.

The service is a thin composition layer, so the tests exercise the
seams: a submit→status→query round-trip through :class:`SweepService`,
the same round-trip through the CLI (the smoke job in CI runs this
path for real), and the axis-expansion helper the CLI builds plans
with.
"""

import json

import pytest

from repro.cli import main
from repro.serve.service import SweepService, plan_from_axes
from repro.sim import native
from repro.sim.codec import encode_result
from repro.workloads.store import TraceStore
from tests.oracle import serial_compare

WORKLOADS = ["list", "array"]
PREFETCHERS = ["none", "context"]
LIMIT = 1200


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    for name in WORKLOADS:
        store.compile(name)
    return store


class TestPlanFromAxes:
    def test_default_single_config_slice(self):
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=7
        )
        assert plan.context_configs == (None,)
        assert plan.n_cells == 4
        assert plan.limit == 7

    def test_cst_axis_scales_reducer(self):
        plan = plan_from_axes(
            workloads=["list"], prefetchers=["context"], cst_sizes=[128, 512]
        )
        assert [c.cst_entries for c in plan.context_configs] == [128, 512]
        assert [c.reducer_entries for c in plan.context_configs] == [
            1024, 4096,
        ]
        assert plan.n_cells == 2


class TestSweepService:
    def test_submit_status_query_round_trip(self, tmp_path, store):
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=LIMIT
        )
        with SweepService(
            db=tmp_path / "sweep.db", store=store, jobs=2
        ) as service:
            stats = service.submit(plan)
            assert (stats.executed, stats.resumed) == (4, 0)

            status = service.status()
            assert [(s.sweep, s.done, s.total) for s in status] == [
                (stats.sweep, 4, 4)
            ]

            cells = service.query(workload="list")
            assert [(c.workload, c.prefetcher) for c in cells] == [
                ("list", "none"), ("list", "context"),
            ]
            serial = serial_compare(WORKLOADS, PREFETCHERS, limit=LIMIT)
            for cell in service.query():
                want = serial.get(cell.workload, cell.prefetcher)
                assert encode_result(cell.result) == encode_result(want)

            # resubmitting is a no-op on the grid
            assert service.submit(plan).executed == 0

    def test_submit_counts_where_each_executed_cell_ran(self, tmp_path, store):
        # spawned workers run the cells; the counts ride back with the
        # results, so the parent's record holds them at any jobs
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=LIMIT
        )
        with SweepService(
            db=tmp_path / "sweep.db", store=store, jobs=2, native=True
        ) as service:
            first = service.submit(plan, max_cells=3)
            rest = service.submit(plan)
            last = service.submit(plan)
        for stats, executed in ((first, 3), (rest, 1)):
            assert stats.executed == executed
            if native.is_available():
                assert (stats.kernel_cells, stats.fallbacks) == (executed, {})
                clause = f"; kernel {executed}/{executed}"
            else:
                reason = "compiled kernel unavailable"
                assert stats.kernel_cells == 0
                assert stats.fallbacks == {reason: executed}
                clause = f"; kernel 0/{executed}, oracle {executed} ({reason} ×{executed})"
            assert stats.summary().endswith(clause)
        assert (rest.resumed, last.executed, last.resumed) == (3, 0, 4)
        assert (last.kernel_cells, last.fallbacks) == (0, {})
        # nothing executed: no coverage clause
        assert last.summary().endswith("4 cells, 0 executed, 4 resumed")

    def test_a_negative_cap_registers_and_runs_nothing(self, tmp_path, store):
        plan = plan_from_axes(
            workloads=WORKLOADS, prefetchers=PREFETCHERS, limit=LIMIT
        )
        with SweepService(db=tmp_path / "sweep.db", store=store) as service:
            with pytest.raises(ValueError, match="max_cells"):
                service.submit(plan, max_cells=-1)
            assert service.db.sweeps() == []
            assert service.query() == []
            # a cap of zero registers the sweep and executes nothing
            stats = service.submit(plan, max_cells=0)
            assert (stats.executed, stats.resumed) == (0, 0)
            assert service.db.sweeps() == [(stats.sweep, 0, 4)]
            assert service.query() == []


class TestServeCLI:
    def test_submit_status_query(self, tmp_path, store, capsys):
        db = str(tmp_path / "sweep.db")
        base = [
            "serve", "submit",
            "--workloads", ",".join(WORKLOADS),
            "--prefetchers", ",".join(PREFETCHERS),
            "--limit", str(LIMIT),
            "--jobs", "2",
            "--db", db,
            "--store-dir", str(store.root),
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        # the CLI runs natively by default: every cell, across two
        # workers, in the kernel when it is built
        if native.is_available():
            coverage = "kernel 4/4"
        else:
            coverage = "kernel 0/4, oracle 4 (compiled kernel unavailable ×4)"
        assert f"4 cells, 4 executed, 0 resumed; {coverage}\n" in out

        # a second submit resumes everything, and ran no cell anywhere
        assert main(base) == 0
        assert capsys.readouterr().out.endswith("0 executed, 4 resumed\n")

        assert main(["serve", "status", "--db", db]) == 0
        assert "4     4" in capsys.readouterr().out

        assert main(
            ["serve", "query", "--db", db, "--workload", "array"]
        ) == 0
        out = capsys.readouterr().out
        assert "array/none" in out and "2 cell(s)" in out

        assert main(
            [
                "serve", "query", "--db", db,
                "--prefetcher", "context", "--format", "json",
            ]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["workload"] for r in rows] == WORKLOADS
        assert all(r["result"]["prefetcher"] == "context" for r in rows)

    def test_the_printed_sweep_id_finds_its_cells(self, tmp_path, store, capsys):
        db = str(tmp_path / "sweep.db")
        assert main(
            [
                "serve", "submit",
                "--workloads", ",".join(WORKLOADS),
                "--prefetchers", ",".join(PREFETCHERS),
                "--limit", str(LIMIT),
                "--jobs", "1",
                "--db", db,
                "--store-dir", str(store.root),
            ]
        ) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        printed = summary.split()[1].rstrip(":")
        assert summary.startswith(f"sweep {printed}: 4 cells")
        assert main(["serve", "query", "--db", db, "--sweep", printed]) == 0
        assert "4 cell(s)" in capsys.readouterr().out
        # an id that prefixes no registered sweep is an error
        assert main(["serve", "query", "--db", db, "--sweep", "not-a-sweep"]) == 1
        assert "no sweep" in capsys.readouterr().err

    def test_in_memory_db_leaves_no_file(self, tmp_path, store, monkeypatch, capsys):
        # an in-memory DB has no file for a progress sidecar to sit next
        # to; a submit must leave the working directory as it found it
        native.is_available()  # any kernel build lands before the chdir
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "serve", "submit",
                "--workloads", "list",
                "--prefetchers", ",".join(PREFETCHERS),
                "--limit", str(LIMIT),
                "--jobs", "1",
                "--db", ":memory:",
                "--store-dir", str(store.root),
            ]
        ) == 0
        assert "2 cells, 2 executed, 0 resumed" in capsys.readouterr().out
        assert sorted(tmp_path.iterdir()) == []


class TestInMemoryProgress:
    def test_status_reads_samples_kept_in_memory(self, store):
        plan = plan_from_axes(workloads=["list"], prefetchers=PREFETCHERS, limit=LIMIT)
        with SweepService(db=":memory:", store=store) as service:
            assert service.tracker.path is None
            ticks = iter(range(100))
            service.tracker._clock = lambda: float(next(ticks))
            stats = service.submit(plan)
            [status] = service.status()
        assert (status.sweep, status.done, status.total) == (stats.sweep, 2, 2)
        # the resume diff and the one batch: 2 cells over one tick
        assert status.cells_per_sec == 2.0
