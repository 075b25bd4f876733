"""Unit tests for the project-wide semantic model (import/call graph)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import load_project


def build_model(root: Path, files: dict[str, str]):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return load_project(root).semantic()


PKG = {
    "util.py": """
    def helper(x):
        return x + 1

    class Engine:
        def __init__(self, n):
            self.n = n

        def run(self):
            return self.step() + helper(self.n)

        def step(self):
            return 2
    """,
    "app.py": """
    from util import Engine, helper

    def main():
        eng = Engine(3)
        return eng.run() + helper(1)
    """,
    "pkg/__init__.py": "",
    "pkg/deep.py": """
    from ..util import helper

    def wrapped(x):
        return helper(x)
    """,
}


class TestSymbolTables:
    def test_modules_and_functions_indexed(self, tmp_path):
        model = build_model(tmp_path, PKG)
        pkg = tmp_path.name
        assert f"{pkg}.util" in model.modules
        assert f"{pkg}.util.Engine.run" in model.functions
        assert f"{pkg}.util.helper" in model.functions

    def test_import_resolution_including_relative(self, tmp_path):
        model = build_model(tmp_path, PKG)
        pkg = tmp_path.name
        app = model.modules[f"{pkg}.app"]
        kind, qual, _ = model.resolve(app, "Engine")
        assert (kind, qual) == ("class", f"{pkg}.util.Engine")
        deep = model.modules[f"{pkg}.pkg.deep"]
        # relative import: ``from ..util import helper`` resolves within
        # the package
        assert deep.imports["helper"] == f"{pkg}.util.helper"
        kind, qual, _ = model.resolve(deep, "helper")
        assert (kind, qual) == ("function", f"{pkg}.util.helper")

    def test_import_graph_edges(self, tmp_path):
        model = build_model(tmp_path, PKG)
        pkg = tmp_path.name
        assert f"{pkg}.util" in model.imports_of(f"{pkg}.app")
        assert f"{pkg}.app" in model.importers_of(f"{pkg}.util")

    def test_mutable_globals_and_enums(self, tmp_path):
        model = build_model(
            tmp_path,
            {
                "state.py": """
                import enum
                from collections import deque

                REGISTRY = {}
                ITEMS = [1, 2]
                RING = deque(maxlen=4)
                LIMIT = 7
                NAME = "x"

                class Kind(enum.Enum):
                    A = 1
                """,
            },
        )
        info = model.modules[f"{tmp_path.name}.state"]
        assert set(info.mutable_globals) == {"REGISTRY", "ITEMS", "RING"}
        assert info.enums == {"Kind"}


class TestCallGraph:
    def test_direct_self_and_inferred_method_calls(self, tmp_path):
        model = build_model(tmp_path, PKG)
        pkg = tmp_path.name
        main_callees = model.callees(f"{pkg}.app.main")
        # constructor, inferred method call through the local, direct call
        assert f"{pkg}.util.Engine.__init__" in main_callees
        assert f"{pkg}.util.Engine.run" in main_callees
        assert f"{pkg}.util.helper" in main_callees
        run_callees = model.callees(f"{pkg}.util.Engine.run")
        assert f"{pkg}.util.Engine.step" in run_callees
        assert f"{pkg}.util.helper" in run_callees

    def test_reachability_closure(self, tmp_path):
        model = build_model(tmp_path, PKG)
        pkg = tmp_path.name
        reach = model.reachable([f"{pkg}.app.main"])
        assert f"{pkg}.util.Engine.step" in reach  # two hops away
        assert f"{pkg}.pkg.deep.wrapped" not in reach


class TestWorkerEntries:
    def test_submit_first_arg_resolved(self, tmp_path):
        model = build_model(
            tmp_path,
            {
                "par.py": """
                from concurrent.futures import ProcessPoolExecutor

                def job(x):
                    return x * 2

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(job, x).result() for x in items]
                """,
            },
        )
        pkg = tmp_path.name
        entries = model.worker_entries()
        assert [e.target for e in entries] == [f"{pkg}.par.job"]
        assert entries[0].submitter == f"{pkg}.par.run"

    def test_process_target_resolved(self, tmp_path):
        model = build_model(
            tmp_path,
            {
                "pool.py": """
                from multiprocessing import get_context

                def worker_main(task_q, result_q):
                    result_q.put(task_q.get())

                def start(task_q, result_q):
                    ctx = get_context("spawn")
                    proc = ctx.Process(target=worker_main, args=(task_q, result_q))
                    proc.start()
                    return proc
                """,
            },
        )
        pkg = tmp_path.name
        entries = model.worker_entries()
        assert [e.target for e in entries] == [f"{pkg}.pool.worker_main"]
        assert entries[0].submitter == f"{pkg}.pool.start"
        assert [a.id for a in entries[0].payload] == ["task_q", "result_q"]

    def test_live_tree_worker_entries(self):
        from repro.analysis.runner import DEFAULT_ROOT

        model = load_project(DEFAULT_ROOT).semantic()
        targets = {e.target for e in model.worker_entries()}
        assert targets == {"repro.sim.sched.pool._worker_main"}
        # the worker closure must reach the batch body, the trace
        # resolver and the simulator core
        reach = model.reachable(targets)
        assert "repro.sim.sched.pool.run_batch" in reach
        assert "repro.sim.sched.supply.resolve_worker_trace" in reach
        assert "repro.sim.simulator.Simulator.run" in reach
