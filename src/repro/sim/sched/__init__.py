"""Sweep scheduler: the one dispatch path, over a queryable result DB.

The package splits the sweep path into five small layers, each
testable on its own:

* :mod:`repro.sim.sched.plan` — a declarative :class:`GridPlan`
  (workload × context-config × prefetcher axes) enumerated in
  deterministic grid order, content-addressed per cell with
  :func:`~repro.sim.cache.cell_key`, and sharded into
  workload-affinity batches;
* :mod:`repro.sim.sched.supply` — how each workload's trace reaches a
  batch (a compiled store file, or the records by value) and the
  per-process trace memo that materialises it;
* :mod:`repro.sim.sched.pool` — the batch executors: the persistent
  spawn-based worker pool, whose workers keep mmap'd trace readers
  and the compiled native kernel handle resident across batches and
  sweeps, and the in-process executor ``jobs=1`` uses;
* :mod:`repro.sim.sched.db` — the SQLite result store under
  ``results/`` (or in memory): one row per content-addressed cell over
  the versioned codec, committed per batch, with a canonical logical
  dump so two DBs can be compared bit-for-bit regardless of page
  layout;
* :mod:`repro.sim.sched.scheduler` — the blocking submit/drain loop
  that ties them together and implements resume: a restarted sweep
  diffs its plan's keys against the DB and enqueues only the remainder,
  each distinct key once.

``repro serve`` (:mod:`repro.serve`) submits plans directly, and
``run_grid`` in ``sim/parallel.py`` builds one for every
``compare`` and figure sweep, so all of them share the warm workers
and the resume logic.
"""

from repro.sim.sched.db import DEFAULT_DB_PATH, ResultDB, ResultDBError
from repro.sim.sched.plan import GridPlan, PlanCell, shard_by_workload
from repro.sim.sched.pool import (
    BatchShared,
    InlineWorker,
    WorkerPool,
    shared_pool,
    shutdown_pools,
)
from repro.sim.sched.scheduler import SchedulerError, SweepScheduler, SweepStats

__all__ = [
    "BatchShared",
    "DEFAULT_DB_PATH",
    "GridPlan",
    "InlineWorker",
    "PlanCell",
    "ResultDB",
    "ResultDBError",
    "SchedulerError",
    "SweepScheduler",
    "SweepStats",
    "WorkerPool",
    "shard_by_workload",
    "shared_pool",
    "shutdown_pools",
]
