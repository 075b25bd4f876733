"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.sim import native


class TestList:
    def test_lists_suites_and_prefetchers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "spec2006" in out
        assert "context" in out and "sms" in out


class TestRun:
    def test_run_prints_summary_and_classes(self, capsys):
        assert main(["run", "random", "none", "--limit", "500"]) == 0
        out = capsys.readouterr().out
        assert "random/none" in out
        assert "miss not prefetched" in out

    def test_run_with_context_prefetcher(self, capsys):
        assert main(["run", "array", "context", "--limit", "1000"]) == 0
        out = capsys.readouterr().out
        assert "array/context" in out

    def test_unknown_workload_exits_nonzero(self, capsys):
        # failed subcommands must report an error and return a nonzero
        # exit code so make/CI can gate on python -m repro
        assert main(["run", "not-a-workload", "none"]) == 1
        err = capsys.readouterr().err
        assert "error: run:" in err and "not-a-workload" in err

    def test_unknown_prefetcher_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "array", "oracle"])


@pytest.fixture
def in_tmp_dir(tmp_path, monkeypatch):
    """Run from an empty directory: the default result DB and trace
    store are created under the working directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSweep:
    def test_explicit_workloads_and_prefetchers(self, in_tmp_dir, capsys):
        code = main(
            [
                "sweep",
                "--workloads",
                "array,random",
                "--prefetchers",
                "none,context",
                "--limit",
                "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GEOMEAN" in out
        assert "array" in out and "random" in out
        # the sweep's record: a fresh DB executes all four cells, and
        # the coverage clause says where they ran
        if native.is_available():
            coverage = "kernel 4/4"
        else:
            coverage = "kernel 0/4, oracle 4 (compiled kernel unavailable ×4)"
        assert f"4 cells, 4 executed, 0 resumed; {coverage}" in out


class TestFigure:
    def test_figure_1(self, in_tmp_dir, capsys):
        assert main(["figure", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_figure_5(self, in_tmp_dir, capsys):
        assert main(["figure", "5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_tables(self, in_tmp_dir, capsys):
        assert main(["figure", "tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestExitCodes:
    def test_replay_missing_trace_exits_nonzero(self, capsys):
        assert main(["replay", "/no/such/trace.jsonl", "none"]) == 1
        assert "error: replay:" in capsys.readouterr().err


class TestLint:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "analysis: clean" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "BUD" in out and "EXP" in out

    def test_lint_select_subset(self, capsys):
        assert main(["lint", "--select", "DET"]) == 0
        assert "analysis: clean" in capsys.readouterr().out


class TestTraceAndReplay:
    def test_trace_export_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "random.jsonl")
        assert main(["trace", "export", "random", path, "--limit", "400"]) == 0
        out = capsys.readouterr().out
        assert "wrote 400 accesses" in out

        assert main(["replay", path, "none"]) == 0
        out = capsys.readouterr().out
        assert "/none" in out and "IPC" in out

    def test_replay_with_stats_dump(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        main(["trace", "export", "array", path, "--limit", "300"])
        capsys.readouterr()
        assert main(["replay", path, "context", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Begin Simulation Statistics" in out
        assert "pf.issued" in out


class TestTraceStoreCommands:
    def test_compile_info_ls_gc_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        assert main(["trace", "compile", "random", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "compiled random:" in out and "store:" in out

        # recompiling without --force is a no-op on a current file
        assert main(["trace", "compile", "random", "--store-dir", store]) == 0
        assert "current  random:" in capsys.readouterr().out

        assert main(["trace", "info", "random", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "workload:    random" in out and "fingerprint:" in out

        assert main(["trace", "ls", "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "random" in out and "ok" in out

        assert main(["trace", "gc", "--store-dir", store]) == 0
        assert "kept 1" in capsys.readouterr().out

    def test_info_missing_workload_exits_nonzero(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        assert main(["trace", "info", "random", "--store-dir", store]) == 1
        assert "error: trace:" in capsys.readouterr().err

    def test_corrupt_store_file_fails_ls_and_info(self, tmp_path, capsys):
        from pathlib import Path

        store = str(tmp_path / "traces")
        assert main(["trace", "compile", "random", "--store-dir", store]) == 0
        capsys.readouterr()
        rpt = next(Path(store).glob("*.rpt"))
        rpt.write_bytes(rpt.read_bytes()[:-40])  # truncate mid-record

        assert main(["trace", "ls", "--store-dir", store]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out

        assert main(["trace", "info", str(rpt), "--store-dir", store]) == 1
        assert "error: trace:" in capsys.readouterr().err

        # gc clears the corruption, after which ls is clean again
        assert main(["trace", "gc", "--store-dir", store]) == 0
        capsys.readouterr()
        assert main(["trace", "ls", "--store-dir", store]) == 0

    def test_version_mismatch_exits_nonzero(self, tmp_path, capsys):
        import struct

        from repro.workloads.store import MAGIC

        store = tmp_path / "traces"
        store.mkdir()
        bogus = store / "bogus-0000000000000000.rpt"
        bogus.write_bytes(struct.pack("<8sIIQ", MAGIC, 999, 2, 0) + b"{}")
        assert main(["trace", "info", str(bogus)]) == 1
        err = capsys.readouterr().err
        assert "version 999" in err

    def test_sweep_prints_store_and_db_paths(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--workloads",
                "random",
                "--prefetchers",
                "none,stride",
                "--limit",
                "600",
                "--db",
                str(tmp_path / "sweep.db"),
                "--store-dir",
                str(tmp_path / "traces"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "execution: jobs=1" in captured.err
        assert f"result DB {tmp_path / 'sweep.db'}" in captured.err
        assert str(tmp_path / "traces") in captured.err
        assert "GEOMEAN" in captured.out

    def test_in_memory_db_and_default_store_are_reported(
        self, in_tmp_dir, capsys
    ):
        sweep = [
            "sweep",
            "--workloads",
            "random",
            "--prefetchers",
            "none",
            "--limit",
            "400",
            "--db",
            ":memory:",
        ]
        assert main(sweep) == 0
        err = capsys.readouterr().err
        assert "result DB :memory:" in err
        assert "trace store results/.cache/traces" in err
        assert list((in_tmp_dir / "results/.cache/traces").glob("random-*.rpt"))
        # the store is the only trace supply: there is no flag to skip it
        with pytest.raises(SystemExit):
            main([*sweep, "--no-store"])


class TestDefaultResultDB:
    """With no ``--db``, runs share ``results/sweep.db`` in the working
    directory: a rerun executes nothing, and ``serve`` reads the cells."""

    def test_rerun_resumes_and_serve_query_lists_the_cells(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sim.sched import pool

        monkeypatch.chdir(tmp_path)
        sweep = [
            "sweep",
            "--workloads",
            "random",
            "--prefetchers",
            "none,stride",
            "--limit",
            "400",
            "--no-native",
        ]
        assert main(sweep) == 0
        assert "result DB results/sweep.db" in capsys.readouterr().err
        assert (tmp_path / "results" / "sweep.db").is_file()

        def no_execution(*_args):
            raise AssertionError("the rerun executed a batch")

        monkeypatch.setattr(pool, "run_batch", no_execution)
        assert main(sweep) == 0
        assert "GEOMEAN" in capsys.readouterr().out

        assert main(["serve", "query"]) == 0
        out = capsys.readouterr().out
        assert "random/none" in out and "random/stride" in out
        assert "2 cell(s)" in out

        assert main(["serve", "status"]) == 0
        assert "2     2" in capsys.readouterr().out
