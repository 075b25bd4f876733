"""The sweep service: scheduler + result DB behind one client object.

This is deliberately a thin composition layer — policy (enumeration,
sharding, resume, ordering) lives in :mod:`repro.sim.sched`, and the
service only wires a DB handle, a trace store and a pool size together
so callers (the ``repro serve`` CLI, scripts, tests) do not repeat the
plumbing.  Everything here is synchronous: ``submit`` returns when the
plan has run, and ``status``/``query`` from other processes read what
it has committed so far.  ``store=None`` takes the configured default
trace store (:func:`repro.sim.parallel.default_store`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

from repro.core.config import ContextPrefetcherConfig
from repro.serve.progress import ProgressTracker
from repro.sim.sched.db import DEFAULT_DB_PATH, CellRow, ResultDB
from repro.sim.sched.plan import GridPlan
from repro.sim.sched.scheduler import SweepScheduler, SweepStats
from repro.workloads.store import TraceStore

__all__ = ["SweepService", "SweepStatus", "plan_from_axes"]

ProgressFn = Callable[[str], None]


def plan_from_axes(
    *,
    workloads: list[str],
    prefetchers: list[str],
    cst_sizes: list[int] | None = None,
    limit: int | None = None,
    base_config: ContextPrefetcherConfig | None = None,
) -> GridPlan:
    """Build a :class:`GridPlan` from CLI-style axis lists.

    ``cst_sizes`` expands to one context-config variant per size (CST
    rescaled, reducer at 8× — the Figure 13 convention); empty means a
    single default-config slice.
    """
    base = base_config or ContextPrefetcherConfig()
    configs: tuple[ContextPrefetcherConfig | None, ...]
    if cst_sizes:
        configs = tuple(base.scaled(size) for size in cst_sizes)
    else:
        configs = (None,)
    return GridPlan(
        workloads=tuple(workloads),
        prefetchers=tuple(prefetchers),
        context_configs=configs,
        limit=limit,
    )


class SweepStatus(NamedTuple):
    """One ``status()`` row: counts plus live-throughput telemetry.

    ``cells_per_sec``/``eta_seconds`` come from the progress sidecar
    (see :mod:`repro.serve.progress`) and are ``None`` for sweeps with
    no recent submitter — the counts themselves are always live.
    """

    sweep: str
    done: int
    total: int
    cells_per_sec: float | None
    eta_seconds: float | None


class SweepService:
    """Submit/status/query over one result DB and the shared pool."""

    def __init__(
        self,
        *,
        db: ResultDB | str | Path = DEFAULT_DB_PATH,
        store: TraceStore | None = None,
        jobs: int = 1,
        native: bool = False,
        kernel_batch: bool = True,
        kernel_threads: int = 0,
    ):
        self.db = db if isinstance(db, ResultDB) else ResultDB(db)
        self.store = store
        self.jobs = max(1, jobs)
        self.native = native
        self.kernel_batch = kernel_batch
        self.kernel_threads = kernel_threads
        self.tracker = ProgressTracker(self.db.path)

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def submit(
        self,
        plan: GridPlan,
        *,
        progress: ProgressFn | None = None,
        max_cells: int | None = None,
    ) -> SweepStats:
        """Run ``plan`` to completion (resuming from the DB); stats back.

        Safe to call repeatedly with the same plan: completed cells are
        never recomputed.  ``max_cells`` bounds how many pending cells
        this call executes (deterministic partial run — the testing and
        checkpointing knob).
        """
        scheduler = SweepScheduler(
            db=self.db,
            store=self.store,
            jobs=self.jobs,
            native=self.native,
            kernel_batch=self.kernel_batch,
            kernel_threads=self.kernel_threads,
        )
        return scheduler.run_plan(
            plan,
            progress=progress,
            max_cells=max_cells,
            on_cells=self.tracker.on_cells,
        )

    def status(self) -> list[SweepStatus]:
        """Per-sweep counts plus live cells/s and remaining-cells ETA."""
        rates = self.tracker.rates()
        return [
            SweepStatus(sweep, done, total, *rates.get(sweep, (None, None)))
            for sweep, done, total in self.db.sweeps()
        ]

    def query(
        self,
        *,
        sweep: str | None = None,
        workload: str | None = None,
        prefetcher: str | None = None,
    ) -> list[CellRow]:
        """Decoded result rows matching the filters, (sweep, idx) order."""
        return self.db.query(sweep=sweep, workload=workload, prefetcher=prefetcher)
