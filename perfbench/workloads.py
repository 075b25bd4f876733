"""The benchmark's three workloads, each driven through a public entry point.

A workload builds one grid from the run's seed, then runs *passes*: one
call of its entry point over the whole grid into a fresh result DB.
Every pass runs the same grid, so passes of one run must commit the
same bytes.  Pool size and kernel team size are fixed here and passed
explicitly; nothing is taken from the library's defaults.
"""

from __future__ import annotations

import dataclasses
import random
import time
from pathlib import Path
from typing import Any, NamedTuple

#: worker processes: one per core of the 2-core machine the bounds were
#: measured on
JOBS = 2
#: OpenMP team size inside each worker's batch call: one kernel thread
#: per worker, so two workers never oversubscribe two cores
KERNEL_THREADS = 1

#: the seed the correctness pins were recorded at
DEFAULT_SEED = 0


class Cell(NamedTuple):
    """One grid position, in the entry point's own grid order."""

    index: int
    workload: str
    prefetcher: str
    context_config: Any


class PassResult(NamedTuple):
    seconds: float
    #: what :meth:`Workload.query` needs (service or DB handle, sweep id)
    handle: Any


class Workload:
    """A grid plus the entry point that runs it."""

    name: str
    #: trace truncation (``None`` = full traces)
    limit: int | None
    #: interpreted-oracle budget per run, in simulated accesses
    oracle_accesses: int
    #: the workload filter of each timed query, taken in turn
    query_parts: tuple[str | None, ...] = (None,)

    def __init__(self, store: Any, seed: int):
        self.store = store
        self.seed = seed

    @property
    def trace_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def cells(self) -> list[Cell]:
        raise NotImplementedError

    def run(self, db_path: Path) -> PassResult:
        raise NotImplementedError

    def query(self, handle: Any, workload: str | None = None) -> list:
        raise NotImplementedError

    def close(self, handle: Any) -> None:
        raise NotImplementedError


class SeedSweep(Workload):
    """``SweepService.submit`` over four workloads × a bandit-seed axis."""

    workloads = ("mcf", "graph500-csr", "list", "array")

    def __init__(self, store: Any, seed: int, *, name: str, limit: int,
                 seeds: int, oracle_accesses: int):
        super().__init__(store, seed)
        from repro.core.config import ContextPrefetcherConfig
        from repro.sim.sched.plan import GridPlan

        self.name = name
        # one workload's rows per timed query: 2,500 rows at most, so a
        # run takes many short samples
        self.query_parts = self.workloads
        self.limit = limit
        self.oracle_accesses = oracle_accesses
        rng = random.Random(seed)
        base = ContextPrefetcherConfig()
        self.configs = tuple(
            dataclasses.replace(base, seed=rng.getrandbits(32)) for _ in range(seeds)
        )
        self.plan = GridPlan(
            workloads=self.workloads,
            prefetchers=("context",),
            context_configs=self.configs,
            limit=limit,
        )

    @property
    def trace_names(self) -> tuple[str, ...]:
        return self.workloads

    def cells(self) -> list[Cell]:
        return [
            Cell(c.index, c.workload, c.prefetcher, self.configs[c.context_id])
            for c in self.plan.cells()
        ]

    def run(self, db_path: Path) -> PassResult:
        from repro.serve.service import SweepService

        service = SweepService(
            db=db_path,
            store=self.store,
            jobs=JOBS,
            native=True,
            kernel_batch=True,
            kernel_threads=KERNEL_THREADS,
        )
        t0 = time.perf_counter()
        stats = service.submit(self.plan)
        seconds = time.perf_counter() - t0
        if stats.executed != self.plan.n_cells or stats.resumed:
            raise RuntimeError(
                f"{self.name}: executed {stats.executed} and resumed "
                f"{stats.resumed} of {self.plan.n_cells} cells on a fresh DB"
            )
        return PassResult(seconds, (service, stats.sweep))

    def query(self, handle: Any, workload: str | None = None) -> list:
        service, sweep = handle
        return service.query(sweep=sweep, workload=workload)

    def close(self, handle: Any) -> None:
        handle[0].close()


class FigureGrid(Workload):
    """``repro.sim.runner.compare``: every registry workload × every family."""

    name = "figure-grid"
    limit = None
    oracle_accesses = 80_000

    def __init__(self, store: Any, seed: int):
        super().__init__(store, seed)
        from repro.sim.config import PREFETCHER_ORDER
        from repro.workloads.suites import all_workloads

        self.names = tuple(spec.name for spec in all_workloads())
        self.prefetchers = tuple(PREFETCHER_ORDER)

    @property
    def trace_names(self) -> tuple[str, ...]:
        return self.names

    def cells(self) -> list[Cell]:
        return [
            Cell(i * len(self.prefetchers) + j, workload, prefetcher, None)
            for i, workload in enumerate(self.names)
            for j, prefetcher in enumerate(self.prefetchers)
        ]

    def run(self, db_path: Path) -> PassResult:
        from repro.sim import runner
        from repro.sim.parallel import set_default_execution
        from repro.sim.sched.db import ResultDB

        db = ResultDB(db_path)
        previous = set_default_execution(db=db, kernel_threads=KERNEL_THREADS)
        try:
            t0 = time.perf_counter()
            runner.compare(
                self.names,
                self.prefetchers,
                jobs=JOBS,
                cache=False,
                store=self.store,
                native=True,
            )
            seconds = time.perf_counter() - t0
        finally:
            set_default_execution(db=previous.db, kernel_threads=previous.kernel_threads)
        return PassResult(seconds, db)

    def query(self, handle: Any, workload: str | None = None) -> list:
        return handle.query(workload=workload)

    def close(self, handle: Any) -> None:
        handle.close()


def make_workload(name: str, store: Any, seed: int) -> Workload:
    if name == "seed-sweep-short":
        return SeedSweep(
            store, seed, name=name, limit=200, seeds=2500, oracle_accesses=10_000
        )
    if name == "seed-sweep-long":
        return SeedSweep(
            store, seed, name=name, limit=20_000, seeds=64, oracle_accesses=60_000
        )
    if name == "figure-grid":
        return FigureGrid(store, seed)
    raise KeyError(name)


WORKLOAD_NAMES = ("seed-sweep-short", "seed-sweep-long", "figure-grid")
