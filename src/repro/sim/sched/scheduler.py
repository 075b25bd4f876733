"""The asyncio submit/drain scheduler: the one sweep dispatch path.

Every sweep runs through :meth:`SweepScheduler.run_plan`: ``repro serve
submit`` hands it a :class:`~repro.sim.sched.plan.GridPlan` directly,
and ``run_grid`` in ``sim/parallel.py`` — behind ``compare``,
``storage_sweep`` and the figure sweeps — builds one and does the same.
``jobs > 1`` dispatches to the process-wide persistent worker pool;
``jobs == 1`` runs the very same batch messages in this process through
:class:`~repro.sim.sched.pool.InlineWorker`, spawning nothing.

Ordering contract: batches are processed **in submission order**, never
completion order.  Out-of-order results are buffered until their turn,
so progress lines, cache stores and DB commits are deterministic for a
given grid regardless of worker scheduling — which is what lets the
parity suites compare a batched run against a one-job run line for
line.  In-flight batches are capped, so a million-cell grid streams
through bounded queues instead of materialising everywhere at once.

Resume: before dispatching, :meth:`run_plan` diffs the plan's
content-addressed cell keys against the result DB, then looks the
remainder up in the JSON result cache when one is configured (a hit is
committed to the DB and counted as resumed), and enqueues only what is
left.  The DB diff is therefore the one "skip this cell" test, and
completed cells are never re-simulated — the kill-and-resume suite
proves a resumed sweep's DB is canonically identical to an
uninterrupted one.

Wall-clock time is deliberately absent (lint rule DET003 covers this
package): throughput measurement lives in ``scripts/bench_report.py``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.sim.cache import SweepCache
from repro.sim.codec import encode_result
from repro.sim.sched.db import IN_MEMORY, ResultDB
from repro.sim.sched.plan import (
    DEFAULT_BATCH_CELLS,
    KERNEL_BATCH_CELLS,
    GridPlan,
    PlanCell,
    shard_by_workload,
)
from repro.sim.sched.pool import BatchShared, InlineWorker, WorkerPool, shared_pool
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

#: a worker's ordered ``(index, encoded payload, native_info)`` results
BatchResults = list[tuple[int, dict[str, Any], tuple[bool, str | None]]]

#: batches in flight per worker: 2 keeps every worker busy the moment it
#: finishes (the next batch is already queued) without ballooning queues
_INFLIGHT_PER_WORKER = 2


class SchedulerError(Exception):
    """The sweep cannot proceed (worker failure, unresolvable plan)."""


@dataclass
class SweepStats:
    """What one ``run_plan`` call did (no wall-clock; see bench)."""

    sweep: str
    total: int
    executed: int
    resumed: int
    store_degrades: int = 0
    #: content-addressed key per plan cell, in enumeration order
    keys: list[str] = field(default_factory=list, repr=False)

    def summary(self) -> str:
        line = (
            f"sweep {self.sweep[:12]}: {self.total} cells, "
            f"{self.executed} executed, {self.resumed} resumed"
        )
        if self.store_degrades:
            line += f", {self.store_degrades} store degrades"
        return line


async def dispatch(
    pool: WorkerPool | InlineWorker,
    batches: Sequence[tuple[BatchShared, tuple[tuple[int, str, int], ...]]],
    on_batch: Callable[[int, list, int], None],
) -> None:
    """Chunked submit/drain of ``batches`` over ``pool``.

    ``on_batch(batch_pos, results, store_degrades)`` fires once per
    batch **in submission order**; ``results`` is the worker's ordered
    ``(index, payload, native_info)`` list.  At most
    ``_INFLIGHT_PER_WORKER × pool.jobs`` batches are in flight.
    """
    inflight_cap = max(2, _INFLIGHT_PER_WORKER * pool.jobs)
    buffered: dict[int, tuple[list, int]] = {}
    next_submit = 0
    next_finish = 0
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
            # queue reads block; keep the event loop responsive so
            # concurrent serve callers (status/query) stay serviceable
            batch_id, results, degrades = await asyncio.to_thread(pool.drain_one)
            if batch_id != next_finish:
                buffered[batch_id] = (results, degrades)
                continue
        on_batch(next_finish, results, degrades)
        next_finish += 1


class SweepScheduler:
    """Runs grid plans into the result DB: over the shared worker pool,
    or in this process when ``jobs == 1``."""

    def __init__(
        self,
        *,
        db: ResultDB,
        store: TraceStore | None = None,
        cache: SweepCache | None = None,
        jobs: int = 1,
        native: bool = False,
        kernel_batch: bool = True,
        kernel_threads: int = 0,
    ):
        self.db = db
        self.store = store
        self.cache = cache
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
        # a key in a DB file or the JSON cache outlives this process, so
        # it must name its trace's content.  An in-memory DB dies with
        # the process, and within a process a registry name stands for
        # one stream: those keys skip hashing traces no store holds
        content_keys = self.cache is not None or str(self.db.path) != IN_MEMORY
        supplies: dict[str, TraceSupply] = {}
        for workload in plan.workloads:
            if workload not in supplies:
                source = sources.get(workload, workload) if sources else workload
                supply = resolve_supply(source, self.store)
                supplies[workload] = supply.hashed() if content_keys else supply
        return supplies

    def _resume_from_cache(
        self, sweep: str, keys: list[str], pending: list[PlanCell]
    ) -> list[PlanCell]:
        """Commit the JSON cache's hits to the DB; the cells left to run."""
        assert self.cache is not None
        rows, rest = [], []
        for cell in pending:
            result = self.cache.load(keys[cell.index])
            if result is None:
                rest.append(cell)
            else:
                rows.append(
                    (
                        keys[cell.index],
                        cell.index,
                        cell.workload,
                        cell.prefetcher,
                        encode_result(result),
                    )
                )
        self.db.store_cells(sweep, rows)
        return rest

    @staticmethod
    def _trace_header(
        supply: TraceSupply, limit: int | None, inline: bool
    ) -> tuple[str | None, str, Sequence | None]:
        """``(store path, store fingerprint, trace by value)`` for the
        batches of one workload."""
        if supply.store_path is not None:
            return supply.store_path, supply.fingerprint or "", None
        if supply.trace is None or (
            supply.by_name and limit is None and not inline
        ):
            # rebuilt by name where the batch runs: a whole registry trace
            # costs as much to pickle as to rebuild
            return None, "", None
        if inline:
            # this process holds the records already: run them as they are
            return None, "", supply.trace
        # ad hoc (no worker can rebuild it), or a truncated registry
        # trace the parent already built: ship the records by value
        return None, "", tuple(supply.trace[:limit])

    def _batch_message(
        self,
        plan: GridPlan,
        header: tuple[str | None, str, Sequence | None],
        batch: tuple[PlanCell, ...],
    ) -> tuple[BatchShared, tuple[tuple[int, str, int], ...]]:
        store_path, store_fingerprint, trace = header
        # ship only the context-table slice this shard references (shards
        # are contiguous in grid order, so the referenced ids form a tight
        # range); cell tuples are rebased onto the slice.  On a config
        # sweep the full table is the bulk of every batch message, and
        # each shard touches ~1/jobs of it.
        lo = min(cell.context_id for cell in batch)
        hi = max(cell.context_id for cell in batch)
        shared = BatchShared(
            workload=batch[0].workload,
            limit=plan.limit,
            native=self.native,
            hierarchy_config=plan.hierarchy_config,
            core_config=plan.core_config,
            context_table=plan.context_configs[lo : hi + 1],
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

    async def run_plan(
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
        exactly as a real interruption after that many cells would).
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
        drain_store_degrades()  # events before this run are not its own
        heals_before = self.store.heals if self.store is not None else 0
        supplies = self._resolve(plan, sources)
        keys = plan.cell_keys(
            {
                workload: supply.fingerprint or ""
                for workload, supply in supplies.items()
            }
        )
        sweep = plan.sweep_id(keys)
        self.db.ensure_sweep(sweep, plan.spec(), plan.n_cells)

        done_keys = self.db.completed_keys(keys)
        cells = list(plan.cells())
        pending = [cell for cell in cells if keys[cell.index] not in done_keys]
        if self.cache is not None and pending:
            pending = self._resume_from_cache(sweep, keys, pending)
        resumed = len(cells) - len(pending)
        if max_cells is not None:
            pending = pending[:max_cells]

        stats = SweepStats(
            sweep=sweep,
            total=len(cells),
            executed=len(pending),
            resumed=resumed,
            store_degrades=drain_store_degrades(),
            keys=keys,
        )
        if progress is not None and resumed:
            progress(f"resume: {resumed}/{len(cells)} cells already in the DB")
        if on_cells is not None:
            on_cells(sweep, resumed, len(cells))
        if not pending:
            self._finish(stats, heals_before, progress)
            return stats

        inline = self.jobs == 1
        # in-kernel batching amortises the C-call boundary across the
        # whole shard, so bigger shards help; cap them lower on the
        # per-cell path, where a shard is also the commit granule
        max_batch = (
            KERNEL_BATCH_CELLS
            if self.native and self.kernel_batch
            else DEFAULT_BATCH_CELLS
        )
        headers: dict[str, tuple[str | None, str, Sequence | None]] = {}
        batches = []
        for batch in shard_by_workload(
            pending, lambda cell: cell.workload, self.jobs, max_batch=max_batch
        ):
            workload = batch[0].workload
            if workload not in headers:
                headers[workload] = self._trace_header(
                    supplies[workload], plan.limit, inline
                )
            batches.append(self._batch_message(plan, headers[workload], batch))
        by_index = {cell.index: cell for cell in pending}
        finished = 0

        def commit(batch_pos: int, results: BatchResults, degrades: int) -> None:
            nonlocal finished
            stats.store_degrades += degrades
            rows = []
            for index, payload, _native_info in results:
                cell = by_index[index]
                rows.append(
                    (keys[index], index, cell.workload, cell.prefetcher, payload)
                )
                if self.cache is not None:
                    self.cache.store_payload(keys[index], payload)
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

        pool = InlineWorker() if inline else shared_pool(self.jobs)
        await dispatch(pool, batches, commit)
        self._finish(stats, heals_before, progress)
        return stats

    def _finish(
        self, stats: SweepStats, heals_before: int, progress: ProgressFn | None
    ) -> None:
        # store files healed by recompiling are degrades of this run too
        if self.store is not None:
            stats.store_degrades += self.store.heals - heals_before
        if progress is not None:
            progress(stats.summary())

    def run_plan_sync(
        self,
        plan: GridPlan,
        *,
        progress: ProgressFn | None = None,
        max_cells: int | None = None,
        on_cells: Callable[[str, int, int], None] | None = None,
        on_batch: Callable[[BatchResults], None] | None = None,
        sources: Mapping[str, str | WorkloadSpec | TraceProgram] | None = None,
    ) -> SweepStats:
        """:meth:`run_plan` for synchronous callers (CLI, scripts)."""
        return asyncio.run(
            self.run_plan(
                plan,
                progress=progress,
                max_cells=max_cells,
                on_cells=on_cells,
                on_batch=on_batch,
                sources=sources,
            )
        )
