"""Sweep entry points and the process-wide execution defaults.

Every sweep — ``compare``, every experiment of the paper's evaluation
except the convergence trajectory, and :func:`parallel_compare` — runs
through :func:`run_grid`, which

1. builds one :class:`~repro.sim.sched.plan.GridPlan` (workloads outer,
   context configs middle, prefetchers inner — the figures' order);
2. runs it with :meth:`SweepScheduler.run_plan
   <repro.sim.sched.scheduler.SweepScheduler.run_plan>`, the one
   dispatch path: persistent warm workers at ``jobs > 1``, the same
   batch protocol in this process at ``jobs == 1``;
3. reads every cell back by key into :class:`ComparisonResult` objects.

The result DB is every run's completion record and its one result
store: the configured one (``--db``, ``results/sweep.db`` for the CLI),
or a private in-memory store when none is.  Cells the DB already holds
are resumed, never re-simulated, and executed cells commit once per
batch.  Registry traces come from the compiled trace store
(:func:`default_store`).  Every path is field-for-field identical to a
one-job run (``tests/sim/test_parallel_parity.py``).

Observability: ``progress`` receives one line per cell
(``[done/total] workload/prefetcher: …``) — executed cells as their
batch commits, then resumed ones, flagged ``[resumed]`` — and then the
run's :meth:`SweepStats.summary
<repro.sim.sched.scheduler.SweepStats.summary>` line.  Wall-clock
timing is deliberately absent here — the simulator package is
wall-clock-free by lint rule DET003 — so callers that want per-cell
timing inject a clock via ``progress`` closures (see
``scripts/run_full_experiments.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.core.config import ContextPrefetcherConfig

if TYPE_CHECKING:  # runner imports this module lazily; avoid the cycle
    from repro.cpu.core_model import CoreConfig
    from repro.memory.hierarchy import HierarchyConfig
    from repro.sim.metrics import SimulationResult
    from repro.sim.runner import ComparisonResult
    from repro.sim.sched.db import ResultDB
    from repro.workloads.store import TraceStore
    from repro.workloads.suites import WorkloadSpec
    from repro.workloads.trace import TraceProgram

ProgressFn = Callable[[str], None]


@dataclass
class ExecutionDefaults:
    """Process-wide defaults the CLI/scripts set once per invocation."""

    jobs: int = 1
    #: the trace store registry traces come from; unset, a store at
    #: ``results/.cache/traces`` (see :func:`default_store`)
    store: "TraceStore | None" = None
    native: bool = False
    #: the result DB sweeps commit into and resume from; unset, every
    #: sweep gets a private in-memory DB
    db: "ResultDB | None" = None
    #: OpenMP team size for the kernel's in-shard batch driver
    #: (0 = the OpenMP default; serial builds ignore it, bit-identically)
    kernel_threads: int = 0


_DEFAULTS = ExecutionDefaults()


def default_execution() -> ExecutionDefaults:
    """The currently configured process-wide execution defaults."""
    return _DEFAULTS


def default_store() -> "TraceStore":
    """The configured trace store, or one at ``DEFAULT_TRACE_DIR`` when
    none is configured."""
    from repro.workloads.store import DEFAULT_TRACE_DIR, TraceStore

    store = _DEFAULTS.store
    return store if store is not None else TraceStore(DEFAULT_TRACE_DIR)


def set_default_execution(
    *,
    jobs: int | None = None,
    store: "TraceStore | None | bool" = False,
    native: bool | None = None,
    db: "ResultDB | None | bool" = False,
    kernel_threads: int | None = None,
) -> ExecutionDefaults:
    """Set process-wide defaults; returns the previous values.

    ``store=False`` / ``db=False`` (the sentinels) leave that default
    untouched; pass an explicit instance or ``None`` to change it.
    ``native=None`` / ``kernel_threads=None`` similarly leave the kernel
    selections untouched.
    """
    global _DEFAULTS
    previous = _DEFAULTS
    _DEFAULTS = ExecutionDefaults(
        jobs=previous.jobs if jobs is None else max(1, jobs),
        store=previous.store if store is False else store,
        native=previous.native if native is None else bool(native),
        db=previous.db if db is False else db,
        kernel_threads=(
            previous.kernel_threads
            if kernel_threads is None
            else max(0, kernel_threads)
        ),
    )
    return previous


def _by_name(
    workloads: Iterable["WorkloadSpec | TraceProgram | str"],
) -> dict[str, "WorkloadSpec | TraceProgram"]:
    """Name -> workload object, in input order.

    Registry names resolve to their registry entry, so repeating one is
    harmless; two *different* workloads under one name would make the
    grid ambiguous and are refused.
    """
    from repro.workloads.suites import get_workload

    out: dict[str, WorkloadSpec | TraceProgram] = {}
    for workload in workloads:
        if isinstance(workload, str):
            workload = get_workload(workload)
        if out.setdefault(workload.name, workload) is not workload:
            raise ValueError(
                f"two different workloads are named {workload.name!r}"
            )
    return out


def run_grid(
    workloads: Iterable["WorkloadSpec | TraceProgram | str"],
    prefetchers: Iterable[str],
    *,
    context_configs: Sequence[ContextPrefetcherConfig | None] = (None,),
    hierarchy_config: "HierarchyConfig | None" = None,
    core_config: "CoreConfig | None" = None,
    limit: int | None = None,
    jobs: int | None = None,
    store: "TraceStore | None" = None,
    native: bool | None = None,
    db: "ResultDB | None" = None,
    progress: ProgressFn | None = None,
) -> list["ComparisonResult"]:
    """Run workloads × ``context_configs`` × prefetchers as one plan.

    Returns one :class:`~repro.sim.runner.ComparisonResult` per entry of
    ``context_configs``, in order, each holding that slice's
    workload × prefetcher cells.  Equal configs share one plan slot, so
    they run once and their entries are the same object.  ``db`` is
    where cells resume from and commit to; without one, the run uses a
    private in-memory DB.  ``store`` is the compiled trace store every
    registry trace comes from; neither changes a result.  Execution
    arguments left at ``None`` take the process-wide defaults (for
    ``store``, :func:`default_store`).  Every slice carries the whole
    run's :class:`~repro.sim.sched.scheduler.SweepStats` as ``stats``.
    """
    from repro.sim.codec import decode_result
    from repro.sim.runner import ComparisonResult
    from repro.sim.sched.db import IN_MEMORY, ResultDB, ResultDBError
    from repro.sim.sched.plan import GridPlan
    from repro.sim.sched.scheduler import SweepScheduler

    defaults = default_execution()
    jobs = defaults.jobs if jobs is None else max(1, jobs)
    native = defaults.native if native is None else native
    sources = _by_name(workloads)
    prefetcher_names = tuple(prefetchers)
    distinct: list[ContextPrefetcherConfig | None] = []
    slot_of: dict[ContextPrefetcherConfig | None, int] = {}
    slots = []
    for config in context_configs:
        try:
            slot = slot_of.setdefault(config, len(distinct))
        except TypeError:  # an unhashable field value: compare one by one
            slot = next(
                (i for i, seen in enumerate(distinct) if seen == config),
                len(distinct),
            )
        if slot == len(distinct):
            distinct.append(config)
        slots.append(slot)
    parts = [ComparisonResult() for _ in distinct]
    slices = [parts[slot] for slot in slots]
    if not sources or not prefetcher_names:
        return slices
    plan = GridPlan(
        workloads=tuple(sources),
        prefetchers=prefetcher_names,
        context_configs=tuple(distinct),
        limit=limit,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
    )
    run_db = db if db is not None else defaults.db
    private = run_db is None
    if run_db is None:
        run_db = ResultDB(IN_MEMORY)
    scheduler = SweepScheduler(
        db=run_db,
        store=store,
        jobs=jobs,
        native=native,
        kernel_threads=defaults.kernel_threads,
    )
    results: dict[int, SimulationResult] = {}

    def report(result: SimulationResult, suffix: str = "") -> None:
        if progress is not None:
            progress(f"[{len(results)}/{plan.n_cells}] {result.summary()}{suffix}")

    def on_batch(batch: list) -> None:
        for index, payload, _info in batch:
            results[index] = decode_result(json.loads(payload))
            report(results[index])

    def read_resumed(keys: list[str]) -> list[str]:
        """Load the cells this run did not execute from the DB: rows of
        earlier runs, or the row of a cell sharing their key.  Returns
        the keys of rows that no longer decode."""
        unreadable = []
        for cell in plan.cells():
            if cell.index not in results:
                result = run_db.load(keys[cell.index])
                if result is None:
                    unreadable.append(keys[cell.index])
                else:
                    results[cell.index] = result
                    report(result, " [resumed]")
        return unreadable

    try:
        stats = scheduler.run_plan(plan, on_batch=on_batch, sources=sources)
        unreadable = read_resumed(stats.keys)
        if unreadable:
            # rows that exist but will not decode (junk, codec skew) are
            # misses: drop them and run those cells again
            run_db.discard(unreadable)
            stats.add_rerun(
                scheduler.run_plan(plan, on_batch=on_batch, sources=sources)
            )
            unreadable = read_resumed(stats.keys)
        if unreadable:
            raise ResultDBError(
                f"result DB {run_db.path}: {len(unreadable)} cell row(s) "
                f"still unreadable after a rerun (first: {unreadable[0][:12]})"
            )
    finally:
        if private:
            run_db.close()

    for cell in plan.cells():
        part = parts[cell.context_id]
        result = results[cell.index]
        part.results.setdefault(cell.workload, {})[cell.prefetcher] = result
    for part in parts:
        part.stats = stats
    if progress is not None:
        progress(stats.summary())
    return slices


def parallel_compare(
    workloads: Iterable["WorkloadSpec | TraceProgram | str"],
    prefetchers: Iterable[str],
    *,
    hierarchy_config: "HierarchyConfig | None" = None,
    core_config: "CoreConfig | None" = None,
    context_config: ContextPrefetcherConfig | None = None,
    limit: int | None = None,
    jobs: int | None = None,
    store: "TraceStore | None" = None,
    native: bool | None = None,
    db: "ResultDB | None" = None,
    progress: ProgressFn | None = None,
) -> "ComparisonResult":
    """The workloads × prefetchers grid under one context config.

    :func:`run_grid` with a single context-config slice; ``compare``
    calls it with its execution arguments as given.
    """
    (comparison,) = run_grid(
        workloads,
        prefetchers,
        context_configs=(context_config,),
        hierarchy_config=hierarchy_config,
        core_config=core_config,
        limit=limit,
        jobs=jobs,
        store=store,
        native=native,
        db=db,
        progress=progress,
    )
    return comparison


__all__ = [
    "ExecutionDefaults",
    "default_execution",
    "default_store",
    "parallel_compare",
    "run_grid",
    "set_default_execution",
]
