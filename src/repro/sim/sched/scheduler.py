"""The submit/drain scheduler: the one sweep dispatch path.

Every sweep runs through :meth:`SweepScheduler.run_plan`: ``repro serve
submit`` hands it a :class:`~repro.sim.sched.plan.GridPlan` directly,
and ``run_grid`` in ``sim/parallel.py`` — behind ``compare`` and the
figure sweeps — builds one and does the same.
``jobs > 1`` dispatches to the process-wide persistent worker pool;
``jobs == 1`` runs the very same batch messages in this process through
:class:`~repro.sim.sched.pool.InlineWorker`, spawning nothing.

Ordering contract: batches are processed **in submission order**, never
completion order.  Out-of-order results are buffered until their turn,
so progress lines and DB commits are deterministic for a given grid
regardless of worker scheduling — which is what lets the parity suites
compare a batched run against a one-job run line for line.  In-flight
batches are capped, so a million-cell grid streams through bounded
queues instead of materialising everywhere at once.  Dispatch is plain
blocking code: the caller's thread waits on the result queue, and
``repro serve status``/``query`` read the DB from their own processes.

Resume: before dispatching, :meth:`run_plan` diffs the plan's
content-addressed cell keys against the result DB and enqueues only the
first cell of each key the DB lacks.  The DB diff is therefore the one
"skip this cell" test: completed cells are never re-simulated, and
cells that share a key run once — the kill-and-resume suite proves a
resumed sweep's DB is canonically identical to an uninterrupted one.

Payloads stay text end to end: a worker returns each cell's canonical
codec text, and the commit hands it to the DB as is, so the parent
neither decodes nor re-serializes what it stores.

Wall-clock time is deliberately absent (lint rule DET003 covers this
package): throughput is measured by the sweep benchmark,
``perfbench/run.py`` (cells/s end to end, and a layer-traced replay).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.sim.parallel import default_store
from repro.sim.sched.db import ResultDB
from repro.sim.sched.plan import (
    DEFAULT_BATCH_CELLS,
    KERNEL_BATCH_CELLS,
    GridPlan,
    PlanCell,
    shard_by_workload,
)
from repro.sim.sched.pool import (
    BatchShared,
    ContextTable,
    InlineWorker,
    WorkerPool,
    shared_pool,
)
from repro.sim.sched.supply import (
    TraceSupply,
    drain_store_degrades,
    resolve_supply,
)
from repro.workloads.store import TraceStore
from repro.workloads.suites import WorkloadSpec
from repro.workloads.trace import TraceProgram

__all__ = [
    "SchedulerError",
    "SweepScheduler",
    "SweepStats",
    "dispatch",
]

ProgressFn = Callable[[str], None]

#: a worker's ordered ``(index, payload text, native_info)`` results
BatchResults = list[tuple[int, str, tuple[bool, str | None]]]

#: batches in flight per worker: 2 keeps every worker busy the moment it
#: finishes (the next batch is already queued) without ballooning queues
_INFLIGHT_PER_WORKER = 2


class SchedulerError(Exception):
    """The sweep cannot proceed (worker failure, unresolvable plan)."""


@dataclass
class SweepStats:
    """What one ``run_plan`` call did (no wall-clock; see bench).

    Each executed cell is counted once, from the ``(handled, reason)``
    its batch returned, so ``kernel_cells + sum(fallbacks.values()) ==
    executed`` at any ``jobs``.
    """

    sweep: str
    total: int
    executed: int
    #: cells read back by key instead of run: held by the DB already,
    #: or sharing their key with a cell this call executed
    resumed: int
    #: executed cells the compiled kernel ran
    kernel_cells: int = 0
    #: fallback reason -> executed cells that ran on the oracle for it
    fallbacks: Counter[str] = field(default_factory=Counter)
    store_degrades: int = 0
    #: content-addressed key per plan cell, in enumeration order
    keys: list[str] = field(default_factory=list, repr=False)

    def add_rerun(self, rerun: SweepStats) -> None:
        """Fold in ``rerun``: the same plan run again to execute cells
        this call read back but could not decode."""
        self.executed += rerun.executed
        self.resumed -= rerun.executed
        self.kernel_cells += rerun.kernel_cells
        self.fallbacks.update(rerun.fallbacks)
        self.store_degrades += rerun.store_degrades

    def summary(self) -> str:
        line = (
            f"sweep {self.sweep[:12]}: {self.total} cells, "
            f"{self.executed} executed, {self.resumed} resumed"
        )
        if self.executed:
            line += f"; kernel {self.kernel_cells}/{self.executed}"
        if self.fallbacks:
            reasons = ", ".join(f"{r} ×{n}" for r, n in self.fallbacks.most_common())
            line += f", oracle {self.fallbacks.total()} ({reasons})"
        if self.store_degrades:
            line += f", {self.store_degrades} store degrades"
        return line


def dispatch(
    pool: WorkerPool | InlineWorker,
    batches: Sequence[tuple[BatchShared, tuple[tuple[int, str, int], ...]]],
    on_batch: Callable[[int, list, int], None],
) -> None:
    """Chunked submit/drain of ``batches`` over ``pool``.

    ``on_batch(batch_pos, results, store_degrades)`` fires once per
    batch **in submission order**; ``results`` is the worker's ordered
    ``(index, payload, native_info)`` list.  At most
    ``_INFLIGHT_PER_WORKER × pool.jobs`` batches are in flight.

    A failure with batches still in flight (a worker error, a commit
    that raises, Ctrl-C) closes ``pool``: their results would otherwise
    answer the next sweep's batches of the same ids.  ``shared_pool``
    replaces a closed pool with a fresh one.
    """
    inflight_cap = max(2, _INFLIGHT_PER_WORKER * pool.jobs)
    buffered: dict[int, tuple[list, int]] = {}
    next_submit = 0
    next_finish = 0
    try:
        while next_finish < len(batches):
            while next_submit < len(batches) and (
                next_submit - next_finish
            ) < inflight_cap:
                shared, cells = batches[next_submit]
                pool.submit(next_submit, shared, cells)
                next_submit += 1
            if next_finish in buffered:
                results, degrades = buffered.pop(next_finish)
            else:
                batch_id, results, degrades = pool.drain_one()
                if batch_id != next_finish:
                    buffered[batch_id] = (results, degrades)
                    continue
            on_batch(next_finish, results, degrades)
            next_finish += 1
    except BaseException:
        if next_submit > next_finish:
            pool.close()
        raise


class SweepScheduler:
    """Runs grid plans into the result DB: over the shared worker pool,
    or in this process when ``jobs == 1``.

    ``store`` supplies every registry trace; ``None`` takes the
    configured default (:func:`~repro.sim.parallel.default_store`).
    """

    def __init__(
        self,
        *,
        db: ResultDB,
        store: TraceStore | None = None,
        jobs: int = 1,
        native: bool = False,
        kernel_batch: bool = True,
        kernel_threads: int = 0,
    ):
        self.db = db
        self.store = store if store is not None else default_store()
        self.jobs = max(1, jobs)
        self.native = native
        #: hand whole shards to the kernel's batch driver (native only);
        #: False pins the PR 9 per-cell dispatch (benchmarks, bisection)
        self.kernel_batch = kernel_batch
        #: OpenMP team size inside each worker's batch call (0 = default)
        self.kernel_threads = kernel_threads

    # ------------------------------------------------------------------

    def _resolve(
        self,
        plan: GridPlan,
        sources: Mapping[str, str | WorkloadSpec | TraceProgram] | None,
    ) -> dict[str, TraceSupply]:
        """One :class:`TraceSupply` per plan workload (see ``supply``)."""
        supplies: dict[str, TraceSupply] = {}
        for workload in plan.workloads:
            if workload not in supplies:
                source = sources.get(workload, workload) if sources else workload
                supplies[workload] = resolve_supply(source, self.store)
        return supplies

    @staticmethod
    def _trace_header(
        supply: TraceSupply, limit: int | None
    ) -> tuple[str | None, str, Sequence | None]:
        """``(store path, store fingerprint, trace by value)`` for the
        batches of one workload."""
        if supply.store_path is not None:
            return supply.store_path, supply.fingerprint, None
        # no store file to map: the records ship by value
        assert supply.trace is not None
        return None, "", tuple(supply.trace[:limit])

    def _batch_message(
        self,
        plan: GridPlan,
        header: tuple[str | None, str, Sequence | None],
        batch: tuple[PlanCell, ...],
        tables: dict[tuple[int, int], ContextTable],
    ) -> tuple[BatchShared, tuple[tuple[int, str, int], ...]]:
        store_path, store_fingerprint, trace = header
        # ship only the context-table slice this shard references (shards
        # are contiguous in grid order, so the referenced ids form a tight
        # range); cell tuples are rebased onto the slice.  On a config
        # sweep the full table is the bulk of every batch message, and
        # each shard touches ~1/jobs of it.  Shards of every workload
        # that cover one slice share its table: its kernel rows (the
        # slots', and one per table family of the plan) are built, and
        # its configs pickled, once
        lo = min(cell.context_id for cell in batch)
        hi = max(cell.context_id for cell in batch)
        table = tables.get((lo, hi))
        if table is None:
            configs = plan.context_configs[lo : hi + 1]
            if self.native and self.kernel_batch:
                table = ContextTable.with_rows(configs, plan.prefetchers)
            else:
                table = ContextTable(configs)
            tables[(lo, hi)] = table
        shared = BatchShared(
            workload=batch[0].workload,
            limit=plan.limit,
            native=self.native,
            hierarchy_config=plan.hierarchy_config,
            core_config=plan.core_config,
            context_table=table,
            store_path=store_path,
            store_fingerprint=store_fingerprint,
            trace=trace,
            kernel_batch=self.kernel_batch,
            kernel_threads=self.kernel_threads,
        )
        return shared, tuple(
            (cell.index, cell.prefetcher, cell.context_id - lo) for cell in batch
        )

    # ------------------------------------------------------------------

    def run_plan(
        self,
        plan: GridPlan,
        *,
        progress: ProgressFn | None = None,
        max_cells: int | None = None,
        on_cells: Callable[[str, int, int], None] | None = None,
        on_batch: Callable[[BatchResults], None] | None = None,
        sources: Mapping[str, str | WorkloadSpec | TraceProgram] | None = None,
    ) -> SweepStats:
        """Execute ``plan``, resuming any cells the DB already holds.

        ``max_cells`` caps how many *pending* cells this call executes
        (the deterministic stand-in for a mid-sweep kill: the DB is left
        exactly as a real interruption after that many cells would); a
        negative cap raises :class:`ValueError` before anything runs or
        registers.
        Every executed cell commits with its batch, so interrupting the
        loop anywhere loses at most the in-flight batches.

        ``on_cells(sweep, done, total)`` fires once after the resume
        diff and again after every committed batch — a deterministic
        cell-count stream (this package stays clock-free; see DET003).
        ``repro serve`` timestamps it *outside* the scheduler to derive
        live throughput and ETA.  ``on_batch(results)`` receives each
        committed batch's ordered ``(index, payload, native_info)``
        results, for callers that want the executed cells themselves.

        ``sources`` maps plan workload names to the workload objects
        they stand for — ad-hoc programs and custom specs, whose traces
        ship by value; a name it does not map is a registry workload.
        """
        if max_cells is not None and max_cells < 0:
            raise ValueError(f"max_cells must be non-negative, not {max_cells}")
        drain_store_degrades()  # events before this run are not its own
        heals_before = self.store.heals
        supplies = self._resolve(plan, sources)
        # one canonical rendering per context slot feeds both the keys
        # and the spec; it is dropped once the sweep is registered
        fragments = plan.context_fragments()
        keys = plan.cell_keys(
            {workload: supply.fingerprint for workload, supply in supplies.items()},
            fragments,
        )
        sweep = plan.sweep_id(keys)
        cells = list(plan.cells())
        # cells that share a key share one result (a non-``context``
        # cell's key ignores the context config): the first of each key,
        # in plan order, is the one that runs, and the sweep's total is
        # its number of distinct results
        first: dict[str, PlanCell] = {}
        for cell in cells:
            first.setdefault(keys[cell.index], cell)
        self.db.ensure_sweep(sweep, plan.spec(fragments), len(first))
        del fragments

        done_keys = self.db.completed_keys(first)
        pending = [cell for key, cell in first.items() if key not in done_keys]
        # every other cell is read back by key: from an earlier run, or
        # from the cell of its key that this run executes
        resumed = len(cells) - len(pending)
        if max_cells is not None:
            cut = {keys[cell.index] for cell in pending[max_cells:]}
            pending = pending[:max_cells]
            # a key cut off here is neither run nor resumed, in any cell
            resumed = sum(key not in cut for key in keys) - len(pending)

        stats = SweepStats(
            sweep=sweep,
            total=len(cells),
            executed=len(pending),
            resumed=resumed,
            store_degrades=drain_store_degrades(),
            keys=keys,
        )
        if progress is not None and resumed:
            progress(f"resume: {resumed}/{len(cells)} cells need no run")
        if on_cells is not None:
            on_cells(sweep, resumed, len(cells))
        if not pending:
            self._finish(stats, heals_before, progress)
            return stats

        # in-kernel batching amortises the C-call boundary across the
        # whole shard, so bigger shards help; cap them lower on the
        # per-cell path, where a shard is also the commit granule
        max_batch = (
            KERNEL_BATCH_CELLS
            if self.native and self.kernel_batch
            else DEFAULT_BATCH_CELLS
        )
        headers: dict[str, tuple[str | None, str, Sequence | None]] = {}
        tables: dict[tuple[int, int], ContextTable] = {}
        batches = []
        for batch in shard_by_workload(
            pending, lambda cell: cell.workload, self.jobs, max_batch=max_batch
        ):
            workload = batch[0].workload
            if workload not in headers:
                headers[workload] = self._trace_header(
                    supplies[workload], plan.limit
                )
            batches.append(
                self._batch_message(plan, headers[workload], batch, tables)
            )
        by_index = {cell.index: cell for cell in pending}
        finished = 0

        def commit(batch_pos: int, results: BatchResults, degrades: int) -> None:
            nonlocal finished
            stats.store_degrades += degrades
            rows = []
            for index, payload, (handled, reason) in results:
                cell = by_index[index]
                rows.append(
                    (keys[index], index, cell.workload, cell.prefetcher, payload)
                )
                if handled:
                    stats.kernel_cells += 1
                else:
                    stats.fallbacks[reason or "unknown"] += 1
            self.db.store_cells(sweep, rows)
            finished += len(results)
            if on_batch is not None:
                on_batch(results)
            if on_cells is not None:
                on_cells(sweep, finished + resumed, len(cells))
            if progress is not None:
                workload = by_index[results[0][0]].workload if results else "?"
                progress(
                    f"[{finished + resumed}/{len(cells)}] "
                    f"batch {batch_pos + 1}/{len(batches)} ({workload}) committed"
                )

        pool = InlineWorker() if self.jobs == 1 else shared_pool(self.jobs)
        dispatch(pool, batches, commit)
        self._finish(stats, heals_before, progress)
        return stats

    def _finish(
        self, stats: SweepStats, heals_before: int, progress: ProgressFn | None
    ) -> None:
        # store files healed by recompiling are degrades of this run too
        stats.store_degrades += self.store.heals - heals_before
        if progress is not None:
            progress(stats.summary())
