#!/usr/bin/env python3
"""Sweep benchmark: end-to-end throughput, or a layer-traced replay.

    python3 perfbench/run.py --workload seed-sweep-short --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics through the real worker
pool; ``--trace 1`` replays one pass in this process with spans around
every layer and reports per-layer metrics.  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (cells) and ``metrics`` (``{name: {value, unit}}``).  The
line before it is the run record.  See README.md in this directory.

Run it from a checkout of the repository: it imports ``repro`` from
``src/`` and keeps its state (trace store, per-pass DBs, trace exports)
under ``.perfbench/`` at the checkout root.

The benchmark itself runs in a child process; this process only waits
for it and then for every process it left behind (see :func:`supervise`).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import DEFAULT_SEED, JOBS, KERNEL_THREADS, WORKLOAD_NAMES, FigureGrid, make_workload

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

#: fresh-pool starts per run; setup_s is their median
SETUP_STARTS = 7
#: fresh-pool starts per traced run; pool.spawn_s is their median
SPAWN_STARTS = 3
#: timed passes per run, at least, whatever --seconds says
MIN_PASSES = 3
#: seconds of repeated queries per run, spread over its passes
QUERY_SECONDS = 3.0
#: seconds of one query sample: the same query repeated; one query on
#: seed-sweep-long takes milliseconds, too short to time on its own
QUERY_SAMPLE_S = 0.1
#: what :func:`core_speed`'s loop takes on a core at the reference speed
#: (on a 2-core VM it took 7 to 12 ms, depending on the host's load)
CAL_REF_S = 0.010

#: set in the benchmark child's environment by :func:`supervise`
CHILD_ENV = "PERFBENCH_CHILD"
#: prctl option: orphaned descendants are reparented to this process
PR_SET_CHILD_SUBREAPER = 36
#: seconds orphans get to exit on their own before they are killed
ORPHAN_GRACE_S = 10.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-pins",
        action="store_true",
        help="record this run's statistics digest as the workload's pin",
    )
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Verdict:
    """Cells attempted and failed across every pass of one run."""

    def __init__(self, n_cells: int):
        self.n_cells = n_cells
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None

    def fail(self, cells: int, why: str) -> None:
        self.failed += cells
        print(f"check failed ({cells} cells): {why}", file=sys.stderr)

    def committed(self, db_path: Path) -> int:
        """Check one pass's DB against the first pass; rows back."""
        rows, digest = checks.payload_digest(db_path)
        self.attempted += self.n_cells
        if rows != self.n_cells:
            self.fail(self.n_cells - rows, f"{db_path.name}: {rows}/{self.n_cells} cells committed")
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.fail(rows, f"{db_path.name}: payloads differ from the first pass")
        return rows

    def results(self, workload, rows: list, update_pins: bool) -> None:
        """Pin and oracle checks over the decoded rows of one pass."""
        from repro.core.prefetcher import ContextPrefetcher
        from repro.sim.config import PREFETCHER_FACTORIES
        from repro.sim.simulator import Simulator
        from repro.workloads.store import read_trace

        by_index = {row.index: row.result for row in rows}
        cells = workload.cells()
        missing = [cell for cell in cells if cell.index not in by_index]
        if missing:
            self.fail(len(missing), f"{len(missing)} cells missing from the query")
            return
        digest = checks.stats_digest([by_index[cell.index] for cell in cells])
        pin_seed = None if isinstance(workload, FigureGrid) else DEFAULT_SEED
        if update_pins and pin_seed in (None, workload.seed):
            checks.write_pin(workload.name, pin_seed, len(cells), digest)
        pin = checks.load_pin(workload.name, workload.seed)
        if pin is not None and (pin["digest"], pin["cells"]) != (digest, len(cells)):
            self.fail(len(cells), f"statistics digest {digest[:16]} != pin {pin['digest'][:16]}")

        refs = {name: workload.store.ensure(name)[0] for name in workload.trace_names}

        def accesses(cell) -> int:
            n = refs[cell.workload].records
            return n if workload.limit is None else min(n, workload.limit)

        traces: dict[str, list] = {}
        for cell in checks.oracle_sample(cells, accesses, workload.seed, workload.oracle_accesses):
            ref = refs[cell.workload]
            if cell.workload not in traces:
                traces[cell.workload] = read_trace(
                    ref.path, limit=workload.limit, expect_fingerprint=ref.fingerprint
                )
            if cell.context_config is not None:
                prefetcher = ContextPrefetcher(cell.context_config)
            else:
                prefetcher = PREFETCHER_FACTORIES[cell.prefetcher]()
            want = Simulator(prefetcher, native=False).run(
                traces[cell.workload], workload_name=cell.workload, limit=workload.limit
            )
            fields = checks.diff_fields(by_index[cell.index], want)
            if fields:
                self.fail(1, f"cell {cell.index} ({cell.workload}/{cell.prefetcher}) "
                          f"differs from the oracle in {', '.join(fields[:8])}")


def prepare(store_root: str, names: tuple[str, ...]) -> None:
    """Build the kernel and compile the traces, in a child process so
    the build's memory never counts toward this process's peak RSS."""
    from repro.sim.native.build import kernel_or_none
    from repro.workloads.store import TraceStore

    if kernel_or_none() is None:
        raise RuntimeError("the compiled kernel is unavailable")
    store = TraceStore(store_root)
    for name in names:
        store.ensure(name)


def round_trip(pool, workload, ref) -> None:
    """One one-cell batch per worker, submitted together, all drained."""
    from repro.sim.sched.pool import BatchShared

    shared = BatchShared(
        workload=workload.trace_names[0],
        limit=workload.limit,
        native=True,
        store_path=ref.path,
        store_fingerprint=ref.fingerprint,
        kernel_threads=KERNEL_THREADS,
    )
    for batch_id in range(pool.jobs):
        pool.submit(batch_id, shared, ((0, "none", 0),))
    for _ in range(pool.jobs):
        pool.drain_one()


def start_pool(workload, *, ensure: bool = True) -> float:
    """Seconds from no pool to a warm one: spawn, worker imports, trace
    store ``ensure`` (unless told not to), kernel load and a round trip.
    The pool is a private one, closed again untimed."""
    from repro.sim.sched.pool import WorkerPool

    t0 = time.perf_counter()
    names = workload.trace_names if ensure else workload.trace_names[:1]
    refs = [workload.store.ensure(name)[0] for name in names]
    pool = WorkerPool(JOBS)
    try:
        round_trip(pool, workload, refs[0])
        return time.perf_counter() - t0
    finally:
        pool.close()


def worker_peak_rss_mb(pids: list[int]) -> float:
    peak_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
    return peak_kb / 1024


def remove_db(db_path: Path) -> None:
    for suffix in ("", "-wal", "-shm", ".progress.json"):
        Path(f"{db_path}{suffix}").unlink(missing_ok=True)


def core_speed() -> float:
    """This core's speed just now, relative to the reference: a fixed
    pure-Python loop's reference time over its measured time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return CAL_REF_S / (time.perf_counter() - t0)


def machine_speed() -> float:
    """Mean :func:`core_speed` over the CPUs this process may use, each
    measured twice pinned to it."""
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds += (core_speed(), core_speed())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(speeds)


def timed_setup(workload) -> tuple[float, float]:
    """One fresh-pool start: ``(seconds, machine speed around it)``."""
    before = machine_speed()
    seconds = start_pool(workload)
    return seconds, (before + machine_speed()) / 2


def measure(workload, args, work: Path, record: dict) -> tuple[Verdict, dict]:
    """The end-to-end run over the real worker pool.

    Passes, fresh-pool starts and queries are interleaved, each kept in
    step with the share of ``--seconds`` the passes have used, so every
    metric samples the whole run rather than one stretch of it: the
    machine's speed drifts by tens of percent over seconds.

    That drift also moves whole runs minutes apart, so each timed
    sample is scaled to the reference speed by a speed measured next to
    it (:func:`machine_speed` around work that uses every core,
    :func:`core_speed` after a query, which runs on the parent's core).
    The raw samples and their speeds go into the run record.
    """
    from repro.sim.sched.pool import shared_pool

    verdict = Verdict(len(workload.cells()))
    # (seconds, machine speed around it) per fresh-pool start
    setup: list[tuple[float, float]] = []
    # (rows/s, speed of the parent's core right after) per query
    queries: list[tuple[float, float]] = []
    query_spent = 0.0
    # (cells/s, machine speed around it) per pass
    passes: list[tuple[float, float]] = []
    timed = 0.0

    # warm-up pass: starts the shared pool and fills its workers' trace
    # memos and decoded columns; checked, not timed
    warm = workload.run(work / "warmup.db")
    verdict.committed(work / "warmup.db")
    workload.close(warm.handle)
    remove_db(work / "warmup.db")

    last = None
    while timed < args.seconds or len(passes) < MIN_PASSES:
        share = min(1.0, timed / args.seconds)
        while len(setup) < 1 + share * (SETUP_STARTS - 1):
            setup.append(timed_setup(workload))
        if last is not None:
            workload.close(last[1])
            remove_db(last[0])
        db_path = work / f"pass-{len(passes)}.db"
        before = machine_speed()
        result = workload.run(db_path)
        speed = (before + machine_speed()) / 2
        last = (db_path, result.handle)
        timed += result.seconds
        passes.append((verdict.committed(db_path) / result.seconds, speed))
        share = min(1.0, timed / args.seconds)
        while not queries or query_spent < share * QUERY_SECONDS:
            part = workload.query_parts[len(queries) % len(workload.query_parts)]
            rows = 0
            t0 = time.perf_counter()
            while (elapsed := time.perf_counter() - t0) < QUERY_SAMPLE_S:
                rows += len(workload.query(result.handle, part))
            query_spent += elapsed
            queries.append((rows / elapsed, core_speed()))
    while len(setup) < SETUP_STARTS:
        setup.append(timed_setup(workload))

    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_rss = worker_peak_rss_mb(shared_pool(JOBS).worker_pids())
    rows = workload.query(last[1])
    workload.close(last[1])
    verdict.results(workload, rows, args.update_pins)
    record.update(
        passes=len(passes),
        pass_cells_per_s=[rate for rate, _speed in passes],
        pass_machine_speed=[speed for _rate, speed in passes],
        setup_samples_s=[seconds for seconds, _speed in setup],
        setup_machine_speed=[speed for _seconds, speed in setup],
        query_rows_per_s=[rate for rate, _speed in queries],
        query_core_speed=[speed for _rate, speed in queries],
        timed_s=timed,
    )
    return verdict, {
        "cells_per_s": metric(
            statistics.median(rate / speed for rate, speed in passes), "cells/s"
        ),
        "setup_s": metric(statistics.median(t * speed for t, speed in setup), "s"),
        "query_rows_per_s": metric(
            statistics.median(rate / speed for rate, speed in queries), "rows/s"
        ),
        "parent_peak_rss_mb": metric(parent_rss, "MB"),
        "worker_peak_rss_mb": metric(worker_rss, "MB"),
    }


def replay(workload, db_path: Path, tracer: tracing.Tracer | None = None):
    """One pass plus one full query, all in this process.

    Returns ``(wall seconds, rows, pool stand-in)``.
    """
    pool = tracing.InlinePool(JOBS, tracer)
    with tracing.inline_pool(pool):
        if tracer is None:
            t0 = time.perf_counter()
            result = workload.run(db_path)
            rows = workload.query(result.handle)
            wall = time.perf_counter() - t0
        else:
            with tracing.layer_spans(tracer):
                root = tracer.open("replay")
                result = workload.run(db_path)
                rows = workload.query(result.handle)
                tracer.close(root)
            wall = (root[2] - root[1]) / 1e9
    workload.close(result.handle)
    return wall, rows, pool


def measure_traced(workload, args, work: Path, record: dict) -> tuple[Verdict, dict]:
    """The per-layer run: a replay with spans, beside one without."""
    from repro.sim.native.adapter import batch_counters

    spawn = [start_pool(workload, ensure=False) for _ in range(SPAWN_STARTS)]

    verdict = Verdict(len(workload.cells()))
    # a discarded warm-up replay, then the untraced one
    for tag in ("warmup", "plain"):
        plain_wall, _rows, _pool = replay(workload, work / f"{tag}.db")
        verdict.committed(work / f"{tag}.db")
        remove_db(work / f"{tag}.db")

    tracer = tracing.Tracer()
    before = batch_counters()
    traced_wall, rows, pool = replay(workload, work / "traced.db", tracer)
    after = batch_counters()
    verdict.committed(work / "traced.db")
    payload_bytes = checks.mean_payload_bytes(work / "traced.db")
    verdict.results(workload, rows, args.update_pins)

    selfs = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts

    def self_s(*names: str) -> float:
        return sum(selfs.get(name, 0.0) for name in names)

    cells = counts["pool.cells"]
    kernel_s = self_s("adapter.kernel")
    accesses = counts["adapter.sim_accesses"]
    batch_cells = after["cells"] - before["cells"]
    native_cells = after["native_cells"] - before["native_cells"]
    metrics = {
        "plan.keys_s": metric(self_s("plan.cell_keys", "plan.cell_key"), "s"),
        "db.diff_s": metric(self_s("db.diff"), "s"),
        "db.commit_s": metric(self_s("db.commit"), "s"),
        "db.commits": metric(calls["db.commit"], "count"),
        "db.query_s": metric(self_s("db.query"), "s"),
        "store.ensure_s": metric(self_s("store.ensure"), "s"),
        "store.ensure_calls": metric(calls["store.ensure"], "count"),
        "pool.spawn_s": metric(statistics.median(spawn), "s"),
        "pool.batches": metric(counts["pool.batches"], "count"),
        "pool.cells_per_batch": metric(cells / max(1, counts["pool.batches"]), "cells"),
        "pool.run_batch_s": metric(self_s("pool.run_batch"), "s"),
        "pool.ipc_s": metric(self_s("pool.ipc"), "s"),
        "pool.ipc_bytes": metric(pool.ipc_bytes / max(1, cells), "bytes"),
        "adapter.decode_s": metric(self_s("adapter.decode"), "s"),
        "adapter.marshal_s": metric(self_s("adapter.run_native_batch"), "s"),
        "adapter.kernel_s": metric(kernel_s, "s"),
        "adapter.finalize_s": metric(self_s("adapter.finalize"), "s"),
        "adapter.kernel_ns_per_access": metric(kernel_s * 1e9 / max(1, accesses), "ns"),
        "adapter.kernel_cell_share": metric(native_cells / max(1, batch_cells), "ratio"),
        "codec.encode_s": metric(self_s("codec.encode"), "s"),
        "codec.decode_s": metric(self_s("codec.decode"), "s"),
        "codec.payload_bytes": metric(payload_bytes, "bytes"),
        "simulator.oracle_cells": metric(counts["simulator.oracle_cells"], "count"),
        "scheduler.dispatch_s": metric(self_s("scheduler.dispatch"), "s"),
        "entry.self_s": metric(
            self_s("service.submit", "scheduler.run_plan", "runner.compare", "parallel.compare"),
            "s",
        ),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.unattributed_share": metric(selfs["replay"] / traced_wall, "ratio"),
        "trace.overhead_share": metric((traced_wall - plain_wall) / plain_wall, "ratio"),
    }
    export = STATE / "traces" / f"{workload.name}-seed{workload.seed}.json"
    record.update(
        untraced_wall_s=plain_wall,
        shards=counts["plan.shards"],
        sim_accesses=accesses,
        spans=tracer.table(),
        chrome_trace=str(export.relative_to(ROOT)),
    )
    tracer.write_chrome_trace(export, {"run_record": record})
    return verdict, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))

    from repro.sim.native.build import kernel_openmp
    from repro.sim.sched.pool import shutdown_pools
    from repro.workloads.store import TraceStore

    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        store = TraceStore(STATE / "store")
        workload = make_workload(args.workload, store, args.seed)
        # warm the kernel build and the trace store before any timing
        child = multiprocessing.get_context("spawn").Process(
            target=prepare, args=(str(store.root), workload.trace_names)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"preparing the kernel and traces failed ({child.exitcode})")

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "openmp": kernel_openmp(),
            "jobs": JOBS,
            "kernel_threads": KERNEL_THREADS,
            "grid_cells": len(workload.cells()),
        }
        run = measure_traced if args.trace else measure
        verdict, metrics = run(workload, args, work, record)
        record.update(cells_attempted=verdict.attempted, cells_failed=verdict.failed)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutdown_pools()
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


def child_pids() -> list[int]:
    """PIDs whose parent is this process."""
    me = os.getpid()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        # the field after "pid (comm) state" is the parent's pid
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_orphans() -> None:
    """Wait for every remaining child; kill those still alive after
    :data:`ORPHAN_GRACE_S`."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in child_pids():
                try:
                    os.kill(orphan, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child; return once it and all it started
    have ended.

    Spawn-started pools launch ``multiprocessing``'s resource tracker,
    which is deliberately left to outlive its parent and exits only
    after noticing that parent is gone.  As the child's subreaper this
    process inherits such orphans and waits for each one.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    # a terminated launcher still kills the child and reaps what is left
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env={**os.environ, CHILD_ENV: "1"},
    )
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reap_orphans()


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise(sys.argv[1:]))
