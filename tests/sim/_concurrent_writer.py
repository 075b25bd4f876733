"""Subprocess body for the concurrent-writers result-DB test.

Must be a real script file: the warm pool spawns workers with the
``spawn`` start method, which re-imports ``__main__`` by path and
therefore breaks for stdin/``-c`` programs.  Each invocation submits
one single-workload plan into a shared result DB; the test runs two at
once over disjoint shards of the grid and asserts the canonical dump
matches a serial run.
"""

import sys

from repro.sim.sched.db import ResultDB
from repro.sim.sched.plan import GridPlan
from repro.sim.sched.scheduler import SweepScheduler
from repro.workloads.store import TraceStore


def main(argv: list[str]) -> int:
    db_path, store_root, workload, limit = argv
    plan = GridPlan(
        workloads=(workload,),
        prefetchers=("none", "context"),
        limit=int(limit),
    )
    scheduler = SweepScheduler(
        db=ResultDB(db_path), store=TraceStore(store_root), jobs=1
    )
    stats = scheduler.run_plan(plan)
    return 0 if stats.executed + stats.resumed == plan.n_cells else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
