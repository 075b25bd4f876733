"""Measured performance trajectory: write/verify ``BENCH_<pr>.json``.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [--quick] [--out FILE]
    PYTHONPATH=src python scripts/bench_report.py --quick --check BENCH_4.json

Every perf PR commits a ``BENCH_<pr>.json`` produced by this script, so
the repo carries a measured trajectory instead of asserted speedups:

* **kernel** — accesses/sec of the bare per-access simulation loop
  (``Simulator.run`` over prebuilt traces; trace construction excluded),
  per prefetcher family, best-of-``repeats``.  The context prefetcher is
  the headline number: it exercises every unit of the paper's Algorithm 1
  on every access.
* **figures** — wall time of representative figure regenerations (the
  same work the ``benchmarks/`` suite measures under pytest-benchmark,
  condensed so CI can afford it).
* **calibration** — iterations/sec of a fixed pure-Python loop that does
  not touch repo code.  ``--check`` normalises the committed kernel
  number by the calibration ratio before comparing, so a slower CI
  machine does not read as a regression.
* **trace_pipeline** (schema 2; schema 8 drops the store-off ``legacy``
  leg) — the compiled trace store.  Per workload: build (TraceBuilder)
  vs encode (``write_trace``) vs decode (``read_trace``) vs warm
  ``ensure`` time.  Per sweep: wall time of the same multi-cell grid
  dispatched with ``jobs=2`` on a cold store (compiling every file)
  and on the warm one (mapping them), with the two results asserted
  field-for-field identical before any number is written.  The store
  is the only trace supply, so there is no store-off leg to time; the
  ``legacy`` numbers stay in BENCH_5–10.json as history.
* **native_vs_reference** (PR 7, schema 3; schema 4 from PR 8) — the
  compiled batch kernel (``repro.sim.native``) against the interpreted
  reference loop, per prefetcher family, over mmap-backed ``.rpt``
  readers (the deployment path: decode inside the timed run).  Every
  cell's ``SimulationResult`` is asserted field-for-field identical to
  the interpreted run before any number is written.  Since PR 8 the RL
  ``context`` family is a measured native row like the rest — its
  CST/bandit/reward loop (and a bit-exact CPython MT19937) runs in C —
  so ``native_handled`` is true across the board.

* **batch_kernel** (PR 10, schema 6) — the in-kernel batch driver
  (one GIL-released C call per workload-pure shard, cells fanned over
  an OpenMP team) against the PR 9 per-cell warm path, on the same
  reference grid ``sweep_throughput`` uses.  A serial inline oracle,
  then three scheduler legs — the warm scheduler with the batch driver
  off, and the batch driver at 1 and at 4 OpenMP threads — measured
  interleaved, best-of-``reps``, so this container's load-dependent
  throttling cannot systematically penalise later legs.  Every
  scheduler DB (all legs, all reps) must be canonically identical and
  the batch cells must equal the serial oracle field for field before
  any number is written — thread count may only change wall time,
  never a result.

* **sweep_throughput** (PR 9, schema 5; schema 7 drops the legacy
  leg) — cells/s of the warm-worker scheduler (``repro.sim.sched``) on
  a seed-axis grid: ``workloads × context-seed variants``, ≥10,000
  cells in the full report, the whole grid through one
  :class:`SweepScheduler` over the persistent pool.  Every cell is
  asserted field-for-field identical to a serial inline run before any
  number is written.  (Schemas 5–6 also timed the PR 5 pool-per-call
  dispatch; that path no longer exists, and its numbers stay in
  BENCH_9/BENCH_10.json as history.)

``--check FILE`` re-measures the context kernel and fails (exit 1) if it
regresses more than ``--tolerance`` (default 30%) against the committed,
calibration-normalised value.  When the committed report carries a
``native_vs_reference`` section, the check also re-measures the native
kernel (parity-gated) and fails if any native family's speedup —
``context`` included — falls below
``max(5x, committed * (1 - 2*tolerance))``: doubled because the quick
grid's smaller limit systematically understates the ratio, floored at
the 5x the ISSUE 8 acceptance criterion claims for the context family.
A committed ``batch_kernel`` section is gated the same way: the
committed full-grid ratios must meet the PR 10 acceptance floors
(≥5× at 4 threads, ≥1.5× at 1 thread vs the per-cell warm path), the
quick grid must keep the batch driver ≥1.3× per-cell here and now,
and the committed cells/s rates for both throughput sections
(``sweep_throughput`` and ``batch_kernel``) must clear a conservative
calibration-normalised sanity floor (so a wrong-by-an-order-of-magnitude
committed rate fails even on a machine of a different speed).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.sim.config import PREFETCHER_FACTORIES, PREFETCHER_ORDER  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.workloads.suites import get_workload  # noqa: E402

#: schema 2 adds the ``trace_pipeline`` section (PR 5); schema 3 adds
#: ``native_vs_reference`` (PR 7); schema 4 (PR 8) makes ``context`` a
#: measured native family inside it (``native_handled`` true everywhere);
#: schema 5 (PR 9) adds ``sweep_throughput`` (warm-worker scheduler vs
#: the PR 5 store-fed dispatch); schema 6 (PR 10) adds ``batch_kernel``
#: (the in-kernel multi-cell batch driver vs the per-cell warm path);
#: schema 7 drops ``sweep_throughput``'s legacy-dispatch leg and fields
#: (the pool-per-call path it timed is gone); schema 8 drops
#: ``trace_pipeline``'s store-off ``legacy`` leg (the store is the only
#: trace supply)
SCHEMA = 8

#: the kernel measurement grid: one streaming, one pointer-chasing and
#: one graph workload, truncated so a full report stays minutes-scale
KERNEL_WORKLOADS = ("mcf", "list", "graph500-csr")
KERNEL_LIMIT = 20000
KERNEL_LIMIT_QUICK = 8000
KERNEL_REPEATS = 3
KERNEL_REPEATS_QUICK = 2

#: context-prefetcher kernel accesses/sec measured by THIS script at the
#: pre-PR-4 tree (commit f6604e0, same container class CI uses), before
#: the hot-path rewrite.  BENCH_4.json's ``speedup_vs_baseline`` is
#: computed against these numbers; they are the PR's "before" column.
PRE_PR4_BASELINE = {
    "limit": KERNEL_LIMIT,
    "accesses_per_sec": {
        "none": 76731.3,
        "stride": 79266.7,
        "ghb-gdc": 44590.4,
        "ghb-pcdc": 42959.8,
        "sms": 52016.8,
        "context": 18404.6,
    },
    "calibration_score": 10530946.1,
}


def calibration_score() -> float:
    """Iterations/sec of a fixed arithmetic loop (machine-speed probe)."""
    n = 200_000
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return n / best


def _build_traces(limit: int):
    traces = {}
    for name in KERNEL_WORKLOADS:
        traces[name] = get_workload(name).build().trace()[:limit]
    return traces


def measure_kernel(
    prefetchers=PREFETCHER_ORDER,
    *,
    limit: int = KERNEL_LIMIT,
    repeats: int = KERNEL_REPEATS,
) -> dict:
    """Best-of-``repeats`` accesses/sec per prefetcher over the grid."""
    traces = _build_traces(limit)
    total_accesses = sum(len(t) for t in traces.values())
    rates: dict[str, float] = {}
    for pf_name in prefetchers:
        best = float("inf")
        for _ in range(repeats):
            elapsed = 0.0
            for wl_name, trace in traces.items():
                sim = Simulator(PREFETCHER_FACTORIES[pf_name]())
                t0 = time.perf_counter()
                sim.run(trace, workload_name=wl_name)
                elapsed += time.perf_counter() - t0
            best = min(best, elapsed)
        rates[pf_name] = round(total_accesses / best, 1)
    return {
        "workloads": list(KERNEL_WORKLOADS),
        "limit": limit,
        "repeats": repeats,
        "accesses_per_sec": rates,
    }


def measure_figures(quick: bool) -> dict:
    """Wall time of representative figure regenerations (in-memory DB)."""
    from repro.experiments import fig01_semantic_locality, fig05_reward
    from repro.experiments import fig12_speedup
    from repro.sim.runner import compare

    timings: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return out

    timed("fig01_semantic_locality", fig01_semantic_locality.run)
    timed("fig05_reward", fig05_reward.run)
    if not quick:
        workloads = [get_workload(n) for n in KERNEL_WORKLOADS]
        comparison = timed(
            "sweep_compact",
            lambda: compare(workloads, limit=KERNEL_LIMIT, jobs=1),
        )
        timed(
            "fig12_speedup_view",
            lambda: fig12_speedup.run(comparison=comparison),
        )
    return timings


#: the trace-pipeline sweep: enough workloads that trace supply (not the
#: worker pool) dominates the dispatch-path difference, cheap prefetchers
#: so simulation time doesn't drown it
TRACE_PIPELINE_WORKLOADS = (
    "mcf", "lbm", "h264ref", "graph500-csr", "suffixarray", "list",
)
TRACE_PIPELINE_WORKLOADS_QUICK = ("mcf", "graph500-csr", "list")
TRACE_PIPELINE_PREFETCHERS = ("none", "stride", "ghb-pcdc")
TRACE_PIPELINE_LIMIT = 2500
TRACE_PIPELINE_JOBS = 2
TRACE_PIPELINE_REPEATS = 2


def _assert_sweeps_identical(a, b, context: str) -> None:
    """Field-for-field parity gate: no number is reported for a dispatch
    path whose results drift from the baseline path by even one field."""
    assert list(a.results) == list(b.results), context
    for wl in a.workloads():
        assert list(a.results[wl]) == list(b.results[wl]), context
        for pf in a.prefetchers():
            if a.get(wl, pf) != b.get(wl, pf):
                raise SystemExit(
                    f"PARITY FAILURE ({context}): {wl}/{pf} differs between "
                    "dispatch paths; refusing to write a benchmark report"
                )


def measure_trace_pipeline(quick: bool) -> dict:
    """Build/encode/decode/ensure per workload + dispatch-path wall times."""
    import shutil
    import tempfile

    from repro.sim.runner import compare
    from repro.workloads.store import TraceStore, read_trace, write_trace

    workloads = (
        TRACE_PIPELINE_WORKLOADS_QUICK if quick else TRACE_PIPELINE_WORKLOADS
    )
    prefetchers = TRACE_PIPELINE_PREFETCHERS
    limit = TRACE_PIPELINE_LIMIT
    jobs = TRACE_PIPELINE_JOBS
    repeats = 1 if quick else TRACE_PIPELINE_REPEATS

    tmp = Path(tempfile.mkdtemp(prefix="bench-trace-store-"))
    try:
        codec_store = TraceStore(tmp / "codec")
        per_workload: dict[str, dict] = {}
        for name in workloads:
            t0 = time.perf_counter()
            trace = get_workload(name).build().trace()
            build_s = time.perf_counter() - t0

            path = codec_store.path_for(name)
            t0 = time.perf_counter()
            write_trace(path, trace, workload=name)
            encode_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            decoded = read_trace(path)
            decode_s = time.perf_counter() - t0
            assert len(decoded) == len(trace)

            t0 = time.perf_counter()
            codec_store.ensure(name)  # warm: header validation only
            ensure_s = time.perf_counter() - t0

            per_workload[name] = {
                "records": len(trace),
                "build_seconds": round(build_s, 4),
                "encode_seconds": round(encode_s, 4),
                "decode_seconds": round(decode_s, 4),
                "warm_ensure_seconds": round(ensure_s, 4),
            }

        def timed_compare(store):
            t0 = time.perf_counter()
            result = compare(
                workloads,
                prefetchers,
                limit=limit,
                jobs=jobs,
                store=store,
            )
            return time.perf_counter() - t0, result

        # the cold run compiles the files, warm runs map them
        sweep_store = TraceStore(tmp / "sweep")
        store_cold_s, cold_result = timed_compare(sweep_store)
        store_warm_s = float("inf")
        for _ in range(repeats):
            elapsed, warm_result = timed_compare(sweep_store)
            store_warm_s = min(store_warm_s, elapsed)

        _assert_sweeps_identical(cold_result, warm_result, "cold vs warm")

        cells = len(workloads) * len(prefetchers)
        return {
            "workloads": list(workloads),
            "prefetchers": list(prefetchers),
            "limit": limit,
            "jobs": jobs,
            "repeats": repeats,
            "cells": cells,
            "per_workload": per_workload,
            "dispatch": {
                "store_cold_seconds": round(store_cold_s, 3),
                "store_warm_seconds": round(store_warm_s, 3),
                "store_warm_per_cell_seconds": round(store_warm_s / cells, 4),
                "speedup_warm_vs_cold": round(store_cold_s / store_warm_s, 3),
                "parity": "bit-identical",
            },
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure_native_vs_reference(quick: bool) -> dict:
    """Native vs interpreted accesses/sec per family, parity-gated.

    The native side times the real deployment path — a fresh mmap-backed
    :class:`TraceReader` handed to ``Simulator.run``, so the zero-copy
    decode phase is inside the measurement — while the interpreted side
    runs over the same records as a prebuilt list (its own deployment
    shape).  No number is written for a cell whose native result differs
    from the interpreted one by even one field.
    """
    import shutil
    import tempfile

    from repro.sim import native as native_pkg
    from repro.workloads.store import TraceReader, TraceStore, read_trace

    # is_available() also builds (or loads the cached) kernel, so the
    # compile cost never lands inside a timed run below
    if not native_pkg.is_available():
        return {"available": False}

    limit = KERNEL_LIMIT_QUICK if quick else KERNEL_LIMIT
    repeats = KERNEL_REPEATS_QUICK if quick else KERNEL_REPEATS

    tmp = Path(tempfile.mkdtemp(prefix="bench-native-"))
    try:
        store = TraceStore(tmp)
        paths: dict[str, Path] = {}
        traces: dict[str, list] = {}
        for name in KERNEL_WORKLOADS:
            stored, _ = store.ensure(name)
            paths[name] = stored.path
            traces[name] = read_trace(
                stored.path, limit=limit, expect_fingerprint=stored.fingerprint
            )
        total_accesses = sum(len(t) for t in traces.values())

        families: dict[str, dict] = {}
        for pf_name in PREFETCHER_ORDER:
            interp_best = float("inf")
            native_best = float("inf")
            native_handled = True
            for _ in range(repeats):
                interp_elapsed = 0.0
                native_elapsed = 0.0
                for wl_name in KERNEL_WORKLOADS:
                    sim = Simulator(PREFETCHER_FACTORIES[pf_name]())
                    t0 = time.perf_counter()
                    reference = sim.run(traces[wl_name], workload_name=wl_name)
                    interp_elapsed += time.perf_counter() - t0

                    nsim = Simulator(
                        PREFETCHER_FACTORIES[pf_name](), native=True
                    )
                    reader = TraceReader(paths[wl_name])
                    t0 = time.perf_counter()
                    got = nsim.run(
                        reader, workload_name=wl_name, limit=limit
                    )
                    native_elapsed += time.perf_counter() - t0
                    native_handled = native_handled and nsim.last_run_native
                    if got != reference:
                        raise SystemExit(
                            "PARITY FAILURE (native vs reference): "
                            f"{wl_name}/{pf_name} diverged; refusing to "
                            "write a benchmark report"
                        )
                interp_best = min(interp_best, interp_elapsed)
                native_best = min(native_best, native_elapsed)
            families[pf_name] = {
                "interpreted_accesses_per_sec": round(
                    total_accesses / interp_best, 1
                ),
                "native_accesses_per_sec": round(
                    total_accesses / native_best, 1
                ),
                "speedup": round(interp_best / native_best, 3),
                "native_handled": native_handled,
                "parity": "bit-identical",
            }
        return {
            "available": True,
            "workloads": list(KERNEL_WORKLOADS),
            "limit": limit,
            "repeats": repeats,
            "families": families,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: the sweep-throughput grid: workloads × context-seed variants (the
#: bandit seed is a config field, so every seed is a distinct
#: content-addressed cell — a seed-robustness sweep at survey scale).
#: 4 workloads × 2500 seeds = 10,000 cells in the full report.
SWEEP_THROUGHPUT_WORKLOADS = ("mcf", "graph500-csr", "list", "array")
SWEEP_THROUGHPUT_WORKLOADS_QUICK = ("mcf", "list")
SWEEP_THROUGHPUT_SEEDS = 2500
SWEEP_THROUGHPUT_SEEDS_QUICK = 50
SWEEP_THROUGHPUT_LIMIT = 200
SWEEP_THROUGHPUT_JOBS = 2


def measure_sweep_throughput(quick: bool) -> dict:
    """Warm-worker scheduler cells/s over the seed grid, parity-gated.

    Two runs over one grid: a serial inline loop (the parity oracle) and
    the full grid through :class:`SweepScheduler` on the persistent
    pool.  No number is written unless every warm cell equals its serial
    twin field for field.
    """
    import dataclasses
    import shutil
    import tempfile

    from repro.core.config import ContextPrefetcherConfig
    from repro.core.prefetcher import ContextPrefetcher
    from repro.sim.codec import encode_result
    from repro.sim.sched.db import ResultDB
    from repro.sim.sched.plan import GridPlan
    from repro.sim.sched.scheduler import SweepScheduler
    from repro.workloads.store import TraceStore, read_trace

    workloads = (
        SWEEP_THROUGHPUT_WORKLOADS_QUICK if quick else SWEEP_THROUGHPUT_WORKLOADS
    )
    n_seeds = SWEEP_THROUGHPUT_SEEDS_QUICK if quick else SWEEP_THROUGHPUT_SEEDS
    limit = SWEEP_THROUGHPUT_LIMIT
    jobs = SWEEP_THROUGHPUT_JOBS

    base = ContextPrefetcherConfig()
    configs = tuple(dataclasses.replace(base, seed=s) for s in range(n_seeds))
    plan = GridPlan(
        workloads=workloads,
        prefetchers=("context",),
        context_configs=configs,
        limit=limit,
    )

    tmp = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        store = TraceStore(tmp / "traces")
        fingerprints: dict[str, str] = {}
        traces: dict[str, list] = {}
        for name in workloads:  # compile outside every timed region
            stored, _ = store.ensure(name)
            fingerprints[name] = stored.fingerprint
            traces[name] = read_trace(
                stored.path, limit=limit, expect_fingerprint=stored.fingerprint
            )

        # serial inline reference: one process, one cell at a time
        serial: dict[tuple[str, int], object] = {}
        t0 = time.perf_counter()
        for wl_name in workloads:
            for context_id, config in enumerate(configs):
                sim = Simulator(ContextPrefetcher(config), native=True)
                serial[(wl_name, context_id)] = sim.run(
                    traces[wl_name], workload_name=wl_name
                )
        serial_s = time.perf_counter() - t0

        # the whole grid through the warm-worker scheduler
        db = ResultDB(tmp / "sweep.db")
        scheduler = SweepScheduler(db=db, store=store, jobs=jobs, native=True)
        t0 = time.perf_counter()
        stats = scheduler.run_plan(plan)
        warm_s = time.perf_counter() - t0
        assert stats.executed == plan.n_cells

        keys = plan.cell_keys(fingerprints)
        for cell in plan.cells():
            got = db.load(keys[cell.index])
            want = serial[(cell.workload, cell.context_id)]
            if got is None or encode_result(got) != encode_result(want):
                raise SystemExit(
                    "PARITY FAILURE (warm scheduler vs serial): "
                    f"{cell.workload}/seed={cell.context_id} diverged; "
                    "refusing to write a benchmark report"
                )

        return {
            "workloads": list(workloads),
            "seeds": n_seeds,
            "limit": limit,
            "jobs": jobs,
            "grid_cells": plan.n_cells,
            "serial_seconds": round(serial_s, 3),
            "warm_seconds": round(warm_s, 3),
            "warm_cells_per_sec": round(plan.n_cells / warm_s, 1),
            "parity": "bit-identical",
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: the in-kernel batch grid: the same reference grid sweep_throughput
#: uses (workloads × context-seed variants, limit 200), re-dispatched
#: through the per-cell and in-kernel batch paths.  The quick grid
#: stays in the hundreds of cells — on a ~100-cell grid the one-off
#: pool spawn dominates and the ratio reads as noise.
BATCH_KERNEL_SEEDS = SWEEP_THROUGHPUT_SEEDS
BATCH_KERNEL_SEEDS_QUICK = 400
BATCH_KERNEL_WORKLOADS_QUICK = ("mcf", "list")
BATCH_KERNEL_THREADS = 4

#: scheduler legs are measured best-of-N with the legs *interleaved*
#: (percell, batch1, batch4, percell, ...) rather than one-shot in
#: sequence: under sustained load this container throttles, so a
#: sequential measurement systematically penalises whichever leg runs
#: later.  Interleaving spreads the drift across legs and best-of-N
#: keeps the least-throttled sample of each, the same defence the
#: kernel section's best-of-R timing uses.
BATCH_KERNEL_REPS = 2


def measure_batch_kernel(quick: bool) -> dict:
    """In-kernel batch driver vs the per-cell warm path, parity-gated.

    One serial inline oracle over a context-seed grid, then three
    scheduler legs — the warm scheduler with the batch driver off (the
    PR 9 per-cell path), and the batch driver at 1 and at
    :data:`BATCH_KERNEL_THREADS` OpenMP threads — each run
    :data:`BATCH_KERNEL_REPS` times, interleaved, best time kept.
    Every scheduler DB (all legs, all reps) must be canonically
    identical and the batch cells must equal the serial oracle field
    for field before any number is written — thread count may only
    change wall time, never a result.
    """
    import dataclasses
    import shutil
    import tempfile

    from repro.core.config import ContextPrefetcherConfig
    from repro.core.prefetcher import ContextPrefetcher
    from repro.sim import native as native_pkg
    from repro.sim.codec import encode_result
    from repro.sim.native.build import kernel_openmp
    from repro.sim.sched.db import ResultDB
    from repro.sim.sched.plan import GridPlan
    from repro.sim.sched.scheduler import SweepScheduler
    from repro.workloads.store import TraceStore, read_trace

    if not native_pkg.is_available():
        return {"available": False}

    workloads = (
        BATCH_KERNEL_WORKLOADS_QUICK if quick else SWEEP_THROUGHPUT_WORKLOADS
    )
    n_seeds = BATCH_KERNEL_SEEDS_QUICK if quick else BATCH_KERNEL_SEEDS
    limit = SWEEP_THROUGHPUT_LIMIT
    jobs = SWEEP_THROUGHPUT_JOBS

    base = ContextPrefetcherConfig()
    configs = tuple(dataclasses.replace(base, seed=s) for s in range(n_seeds))
    plan = GridPlan(
        workloads=workloads,
        prefetchers=("context",),
        context_configs=configs,
        limit=limit,
    )

    tmp = Path(tempfile.mkdtemp(prefix="bench-batch-"))
    try:
        store = TraceStore(tmp / "traces")
        fingerprints: dict[str, str] = {}
        traces: dict[str, list] = {}
        for name in workloads:  # compile outside every timed region
            stored, _ = store.ensure(name)
            fingerprints[name] = stored.fingerprint
            traces[name] = read_trace(
                stored.path, limit=limit, expect_fingerprint=stored.fingerprint
            )

        # serial inline oracle: one process, one cell at a time
        serial: dict[tuple[str, int], object] = {}
        t0 = time.perf_counter()
        for wl_name in workloads:
            for context_id, config in enumerate(configs):
                sim = Simulator(ContextPrefetcher(config), native=True)
                serial[(wl_name, context_id)] = sim.run(
                    traces[wl_name], workload_name=wl_name
                )
        serial_s = time.perf_counter() - t0

        def run_grid(tag: str, *, kernel_batch: bool, threads: int = 0):
            db = ResultDB(tmp / f"{tag}.db")
            scheduler = SweepScheduler(
                db=db,
                store=store,
                jobs=jobs,
                native=True,
                kernel_batch=kernel_batch,
                kernel_threads=threads,
            )
            t0 = time.perf_counter()
            stats = scheduler.run_plan(plan)
            elapsed = time.perf_counter() - t0
            assert stats.executed == plan.n_cells
            return db, elapsed

        legs = {
            "percell": {"kernel_batch": False},
            "batch1": {"kernel_batch": True, "threads": 1},
            "batchn": {
                "kernel_batch": True,
                "threads": BATCH_KERNEL_THREADS,
            },
        }
        times: dict[str, list[float]] = {name: [] for name in legs}
        dbs: dict[tuple[str, int], ResultDB] = {}
        for rep in range(BATCH_KERNEL_REPS):
            for name, kwargs in legs.items():
                db, elapsed = run_grid(f"{name}-r{rep}", **kwargs)
                times[name].append(elapsed)
                dbs[(name, rep)] = db

        keys = plan.cell_keys(fingerprints)
        for cell in plan.cells():
            got = dbs[("batch1", 0)].load(keys[cell.index])
            want = serial[(cell.workload, cell.context_id)]
            if got is None or encode_result(got) != encode_result(want):
                raise SystemExit(
                    "PARITY FAILURE (batch kernel vs serial): "
                    f"{cell.workload}/seed={cell.context_id} diverged; "
                    "refusing to write a benchmark report"
                )
        dumps = {tag: db.canonical_dump() for tag, db in dbs.items()}
        if len(set(dumps.values())) != 1:
            raise SystemExit(
                "PARITY FAILURE (batch kernel): canonical DB dumps differ "
                f"across {sorted(dumps)}; refusing to write a benchmark "
                "report"
            )

        percell_s = min(times["percell"])
        batch1_s = min(times["batch1"])
        batchn_s = min(times["batchn"])
        percell_rate = plan.n_cells / percell_s
        batch1_rate = plan.n_cells / batch1_s
        batchn_rate = plan.n_cells / batchn_s
        return {
            "available": True,
            "openmp": kernel_openmp(),
            "workloads": list(workloads),
            "seeds": n_seeds,
            "limit": limit,
            "jobs": jobs,
            "kernel_threads": BATCH_KERNEL_THREADS,
            "reps": BATCH_KERNEL_REPS,
            "grid_cells": plan.n_cells,
            "serial_seconds": round(serial_s, 3),
            "percell_seconds": round(percell_s, 3),
            "batch1_seconds": round(batch1_s, 3),
            "batch4_seconds": round(batchn_s, 3),
            "percell_cells_per_sec": round(percell_rate, 1),
            "batch1_cells_per_sec": round(batch1_rate, 1),
            "batch4_cells_per_sec": round(batchn_rate, 1),
            "speedup_batch1_vs_percell": round(batch1_rate / percell_rate, 2),
            "speedup_batch4_vs_percell": round(batchn_rate / percell_rate, 2),
            "parity": "bit-identical",
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def build_report(quick: bool) -> dict:
    limit = KERNEL_LIMIT_QUICK if quick else KERNEL_LIMIT
    repeats = KERNEL_REPEATS_QUICK if quick else KERNEL_REPEATS
    calibration = calibration_score()
    kernel = measure_kernel(limit=limit, repeats=repeats)
    baseline = PRE_PR4_BASELINE["accesses_per_sec"]
    speedups = {
        pf: round(kernel["accesses_per_sec"][pf] / baseline[pf], 3)
        for pf in kernel["accesses_per_sec"]
        if baseline.get(pf)
    }
    return {
        "schema": SCHEMA,
        "pr": 10,
        "quick": quick,
        "python": platform.python_version(),
        "calibration_score": round(calibration, 1),
        "kernel": {
            **kernel,
            "baseline_accesses_per_sec": dict(baseline),
            "baseline_limit": PRE_PR4_BASELINE["limit"],
            "baseline_calibration_score": PRE_PR4_BASELINE["calibration_score"],
            "speedup_vs_baseline": speedups,
        },
        "figures_seconds": measure_figures(quick),
        "trace_pipeline": measure_trace_pipeline(quick),
        "native_vs_reference": measure_native_vs_reference(quick),
        "sweep_throughput": measure_sweep_throughput(quick),
        "batch_kernel": measure_batch_kernel(quick),
    }


def check_report(path: Path, tolerance: float) -> int:
    """Re-measure the context kernel; fail on a >tolerance regression."""
    committed = json.loads(path.read_text(encoding="utf-8"))
    pinned = committed["kernel"]["accesses_per_sec"]["context"]
    pinned_cal = committed.get("calibration_score") or 0.0

    calibration = calibration_score()
    kernel = measure_kernel(
        prefetchers=("context",),
        limit=KERNEL_LIMIT_QUICK,
        repeats=KERNEL_REPEATS_QUICK,
    )
    measured = kernel["accesses_per_sec"]["context"]

    # Normalise the committed value to this machine's speed so a slower
    # CI runner is not misread as a kernel regression.
    expected = pinned
    if pinned_cal > 0:
        expected = pinned * (calibration / pinned_cal)
    floor = expected * (1.0 - tolerance)
    status = "ok" if measured >= floor else "REGRESSION"
    print(
        f"kernel check [{status}]: measured {measured:,.0f} acc/s vs "
        f"committed {pinned:,.0f} (machine-normalised floor "
        f"{floor:,.0f}, tolerance {tolerance:.0%})"
    )
    exit_code = 0 if measured >= floor else 1

    # native-vs-reference gate: speedups are same-machine ratios, so
    # they compare across machines without calibration normalisation
    section = committed.get("native_vs_reference")
    if section and section.get("available"):
        from repro.sim import native as native_pkg

        if not native_pkg.is_available():
            print(
                "native check [FAIL]: committed report pins a "
                "native_vs_reference section but the compiled kernel is "
                "unavailable here (cffi/toolchain missing)"
            )
            return 1
        remeasured = measure_native_vs_reference(quick=True)
        for pf, row in section["families"].items():
            if not row.get("native_handled"):
                continue  # a pinned fallback row carries no speedup claim
            got = remeasured["families"][pf]["speedup"]
            # the quick grid amortises fixed per-run overhead over fewer
            # accesses, so its ratio reads systematically below the
            # committed full-grid number; double the tolerance to absorb
            # that bias, and never let the floor drop below the 5x the
            # acceptance criterion claims
            native_floor = max(5.0, row["speedup"] * (1.0 - 2.0 * tolerance))
            ok = got >= native_floor
            print(
                f"native check [{'ok' if ok else 'REGRESSION'}]: {pf} "
                f"{got:.2f}x vs committed {row['speedup']:.2f}x "
                f"(floor {native_floor:.2f}x)"
            )
            if not ok:
                exit_code = 1

    def rate_sane(section: str, committed_rate: float, measured_rate: float) -> bool:
        """Calibration-normalised sanity floor for a committed cells/s.

        Quick grids have a different shape than the committed full
        grid, so the floor is deliberately loose (15% of the
        machine-normalised committed rate): it catches a committed
        number that is wrong by an order of magnitude, not a few
        percent of drift.
        """
        if pinned_cal <= 0:
            return True
        expected_rate = committed_rate * (calibration / pinned_cal)
        rate_floor = 0.15 * expected_rate
        ok = measured_rate >= rate_floor
        print(
            f"{section} rate [{'ok' if ok else 'REGRESSION'}]: quick grid "
            f"{measured_rate:,.1f} cells/s vs committed "
            f"{committed_rate:,.1f} (machine-normalised "
            f"{expected_rate:,.1f}, sanity floor {rate_floor:,.1f})"
        )
        return ok

    # sweep-throughput gate: the warm scheduler's quick-grid rate must
    # clear the calibration-normalised sanity floor of the committed one
    sweep = committed.get("sweep_throughput")
    if sweep:
        remeasured = measure_sweep_throughput(quick=True)
        if not rate_sane(
            "sweep check",
            sweep["warm_cells_per_sec"],
            remeasured["warm_cells_per_sec"],
        ):
            exit_code = 1

    # batch-kernel gate: the committed full-grid ratios must meet the
    # PR 10 acceptance floors, and a quick grid must show the batch
    # driver beating the per-cell path here and now (loose 1.3x floor —
    # the smaller grid amortises the pool spawn over far fewer cells)
    batch = committed.get("batch_kernel")
    if batch and batch.get("available"):
        from repro.sim import native as native_pkg

        if not native_pkg.is_available():
            print(
                "batch check [FAIL]: committed report pins a batch_kernel "
                "section but the compiled kernel is unavailable here"
            )
            return 1
        if not batch.get("openmp"):
            print(
                "batch check [FAIL]: committed batch_kernel section was "
                "measured without the OpenMP build — its thread-scaling "
                "numbers are not the ones this section exists to pin"
            )
            return 1
        remeasured = measure_batch_kernel(quick=True)
        got_ratio = remeasured["speedup_batch4_vs_percell"]
        quick_ok = got_ratio >= 1.3
        full1_ok = batch["speedup_batch1_vs_percell"] >= 1.5
        full4_ok = batch["speedup_batch4_vs_percell"] >= 5.0
        print(
            f"batch check [{'ok' if quick_ok else 'REGRESSION'}]: in-kernel "
            f"batch {got_ratio:.2f}x vs per-cell on the quick grid "
            f"({remeasured['grid_cells']} cells, floor 1.30x)"
        )
        print(
            f"batch check [{'ok' if full1_ok else 'FAIL'}]: committed "
            f"1-thread full-grid ratio "
            f"{batch['speedup_batch1_vs_percell']:.2f}x "
            "(acceptance floor 1.50x)"
        )
        print(
            f"batch check [{'ok' if full4_ok else 'FAIL'}]: committed "
            f"{batch['kernel_threads']}-thread full-grid ratio "
            f"{batch['speedup_batch4_vs_percell']:.2f}x "
            "(acceptance floor 5.00x)"
        )
        rate_ok = rate_sane(
            "batch check",
            batch["batch4_cells_per_sec"],
            remeasured["batch4_cells_per_sec"],
        )
        if not (quick_ok and full1_ok and full4_ok and rate_ok):
            exit_code = 1
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out", type=Path, default=REPO / "BENCH_10.json", help="output path"
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="FILE",
        help="verify the kernel against a committed BENCH_*.json instead",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression for --check (default 0.30)",
    )
    parser.add_argument(
        "--capture-baseline",
        action="store_true",
        help="print kernel numbers formatted for PRE_PR4_BASELINE",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        return check_report(args.check, args.tolerance)

    if args.capture_baseline:
        kernel = measure_kernel()
        print(json.dumps(kernel["accesses_per_sec"], indent=2))
        print(f"calibration_score: {calibration_score():.1f}")
        return 0

    report = build_report(args.quick)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    context = report["kernel"]["accesses_per_sec"].get("context")
    speedup = report["kernel"]["speedup_vs_baseline"].get("context")
    if context is not None:
        line = f"context kernel: {context:,.0f} accesses/sec"
        if speedup is not None:
            line += f" ({speedup:.2f}x vs pre-PR-4 baseline)"
        print(line)
    dispatch = report["trace_pipeline"]["dispatch"]
    print(
        f"trace pipeline: warm-store dispatch "
        f"{dispatch['store_warm_seconds']}s vs cold "
        f"{dispatch['store_cold_seconds']}s "
        f"({dispatch['speedup_warm_vs_cold']:.2f}x, parity "
        f"{dispatch['parity']})"
    )
    native = report["native_vs_reference"]
    if native.get("available"):
        handled = {
            pf: row["speedup"]
            for pf, row in native["families"].items()
            if row["native_handled"]
        }
        if handled:
            print(
                "native kernel: "
                f"{min(handled.values()):.1f}x-{max(handled.values()):.1f}x "
                f"vs interpreted across {len(handled)} native families "
                "(parity bit-identical)"
            )
        ctx_row = native["families"].get("context")
        if ctx_row is not None and ctx_row["native_handled"]:
            print(
                f"context native: {ctx_row['speedup']:.1f}x vs the "
                "interpreted RL loop (parity bit-identical)"
            )
    else:
        print("native kernel: unavailable (cffi/toolchain)")
    sweep = report["sweep_throughput"]
    print(
        f"sweep throughput: warm scheduler {sweep['warm_cells_per_sec']:.0f} "
        f"cells/s over {sweep['grid_cells']} cells (parity {sweep['parity']})"
    )
    batch = report["batch_kernel"]
    if batch.get("available"):
        print(
            f"batch kernel: {batch['batch4_cells_per_sec']:.0f} cells/s at "
            f"{batch['kernel_threads']} threads / "
            f"{batch['batch1_cells_per_sec']:.0f} at 1 vs per-cell "
            f"{batch['percell_cells_per_sec']:.0f} "
            f"({batch['speedup_batch4_vs_percell']:.2f}x / "
            f"{batch['speedup_batch1_vs_percell']:.2f}x, "
            f"openmp={'on' if batch['openmp'] else 'off'}, "
            f"parity {batch['parity']})"
        )
    else:
        print("batch kernel: unavailable (cffi/toolchain)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
