"""Shared fixtures for the figure-regeneration benchmarks.

The sweep behind Figures 9–12 is expensive, so it runs once per session
(``bench_sweep``); the per-figure benchmarks then measure regenerating
each figure from it.  The sweep itself is benchmarked separately in
``test_bench_sweep.py``.

Every sweep here commits into a private in-memory result DB (no
``--db`` default applies outside the CLI), so benchmarks measure
simulation, not reads of earlier runs.  Set ``REPRO_BENCH_JOBS=N`` to run the
benchmark sweeps through the parallel engine (the parity suite
guarantees the numbers themselves cannot change, only wall-clock time).
"""

import os

import pytest

from repro.workloads.suites import get_workload

#: the workload subset used by benchmark sweeps: one representative per
#: behaviour class, small enough for a minutes-scale benchmark session
BENCH_WORKLOADS = ("lbm", "mcf", "array", "list", "graph500-list", "graph500-csr")
BENCH_LIMIT = 20000


def bench_jobs() -> int:
    """Worker-process count for benchmark sweeps (default: serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))
    except ValueError:
        return 1


def bench_sweep_impl(jobs: int | None = None):
    workloads = [get_workload(name) for name in BENCH_WORKLOADS]
    from repro.sim.runner import compare

    return compare(
        workloads,
        limit=BENCH_LIMIT,
        jobs=bench_jobs() if jobs is None else jobs,
    )


@pytest.fixture(scope="session")
def bench_sweep():
    return bench_sweep_impl()


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
