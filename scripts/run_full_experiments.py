"""Run every paper figure at a chosen scale and dump rendered reports.

Usage:  python scripts/run_full_experiments.py [small|medium|full] [outdir]
            [--jobs N] [--no-cache] [--cache-dir DIR]
            [--no-store] [--store-dir DIR] [--db PATH]

This is the script behind EXPERIMENTS.md: it executes the shared sweep
once, regenerates every figure from it, and writes the rendered text
reports (plus a machine-readable summary JSON) into the output directory.

``--jobs N`` fans the sweep grid over N worker processes; sweep cells
are memoized under ``results/.cache/`` unless ``--no-cache`` is given,
and workload traces are compiled once into binary store files under
``results/.cache/traces/`` unless ``--no-store`` is given.  All three
are bit-neutral (see docs/parallel_runner.md and docs/trace_store.md) —
only wall-clock time changes, which this script reports per job.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import repro.experiments as ex
from repro.sim.cache import DEFAULT_CACHE_DIR, SweepCache
from repro.sim.parallel import set_default_execution
from repro.sim.sched.db import ResultDB
from repro.workloads.store import DEFAULT_TRACE_DIR, TraceStore


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", nargs="?", default="medium",
                        choices=("small", "medium", "full"))
    parser.add_argument("outdir", nargs="?", default=None)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep grids (default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every sweep cell (skip results/.cache)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-cache directory (default: results/.cache)")
    parser.add_argument("--no-store", action="store_true",
                        help="rebuild traces in-process (skip the trace store)")
    parser.add_argument("--store-dir", default=None, metavar="DIR",
                        help="trace-store directory "
                             "(default: results/.cache/traces)")
    parser.add_argument("--native", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="run eligible cells through the compiled batch "
                             "kernel (bit-exact; --no-native forces the "
                             "interpreted reference loop)")
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="also commit sweep cells into this resumable "
                             "SQLite result store (see docs/sweep_service.md)")
    parser.add_argument("--kernel-threads", type=int, default=0, metavar="T",
                        help="OpenMP threads per worker for the kernel's "
                             "in-shard batch driver (0 = runtime default; "
                             "bit-identical at any thread count)")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    scale = args.scale
    outdir = Path(args.outdir or f"results/{scale}")
    outdir.mkdir(parents=True, exist_ok=True)

    cache = None if args.no_cache else SweepCache(args.cache_dir or DEFAULT_CACHE_DIR)
    store = None if args.no_store else TraceStore(args.store_dir or DEFAULT_TRACE_DIR)
    db = None if args.db is None else ResultDB(args.db)
    set_default_execution(jobs=args.jobs, cache=cache, store=store,
                          native=args.native, db=db,
                          kernel_threads=args.kernel_threads)
    print(f"result cache: {'off' if cache is None else cache.root}")
    print(f"trace store:  {'off' if store is None else store.root}")
    print(f"result db:    {'off' if db is None else db.path}")
    print(f"kernel:       {'native' if args.native else 'interpreted'}")

    t0 = time.time()
    # the engine itself is wall-clock-free (lint rule DET003); per-job
    # timing is injected here, from outside the simulator package
    print(
        f"[{time.time()-t0:7.1f}s] running standard sweep at scale={scale} "
        f"(jobs={args.jobs}, cache={'off' if cache is None else 'on'}, "
        f"store={'off' if store is None else 'on'}) ..."
    )
    sweep = ex.standard_sweep(
        scale, progress=lambda s: print(f"    [{time.time()-t0:7.1f}s] {s}")
    )

    reports: dict[str, str] = {}
    summary: dict[str, object] = {"scale": scale}

    print(f"[{time.time()-t0:7.1f}s] figure 1 ...")
    r1 = ex.fig01_semantic_locality.run()
    reports["fig01"] = ex.fig01_semantic_locality.render(r1)
    summary["fig01"] = {
        "logical_unit_fraction": r1.logical_step_unit_fraction,
        "physical_adjacent_fraction": r1.physical_step_adjacent_fraction,
    }

    reports["fig05"] = ex.fig05_reward.render(ex.fig05_reward.run())

    print(f"[{time.time()-t0:7.1f}s] figure 8 ...")
    r8 = ex.fig08_hit_depth_cdf.run(scale)
    reports["fig08"] = ex.fig08_hit_depth_cdf.render(r8)
    lo, hi = r8.window
    summary["fig08"] = {
        name: cdf.fraction_in_window(lo, hi) for name, cdf in r8.cdfs.items()
    }

    print(f"[{time.time()-t0:7.1f}s] figures 9-12 from the sweep ...")
    r9 = ex.fig09_accuracy.run(comparison=sweep)
    reports["fig09"] = ex.fig09_accuracy.render(r9)
    summary["fig09_useful_context"] = {
        wl: r9.useful_fraction(wl, "context") for wl in r9.breakdown
    }

    r10 = ex.fig10_l1_mpki.run(comparison=sweep)
    reports["fig10"] = ex.fig10_l1_mpki.render(r10)
    summary["fig10_average"] = r10.average

    r11 = ex.fig11_l2_mpki.run(comparison=sweep)
    reports["fig11"] = ex.fig11_l2_mpki.render(r11)
    summary["fig11"] = {
        "ratio_vs_none": r11.ratio_vs_none,
        "ratio_vs_sms": r11.ratio_vs_sms,
        "average": r11.mpki.average,
    }

    r12 = ex.fig12_speedup.run(comparison=sweep)
    reports["fig12"] = ex.fig12_speedup.render(r12)
    reports["suites"] = ex.suite_summary.render(
        ex.suite_summary.run(comparison=sweep)
    )
    summary["fig12"] = {
        "mean_all": r12.mean_all,
        "mean_spec": r12.mean_spec,
        "context_peak": r12.context_peak,
        "gain_vs_best_competitor": r12.gain_vs_best_competitor,
        "best_competitor": r12.best_competitor,
    }

    print(f"[{time.time()-t0:7.1f}s] figure 13 ...")
    r13 = ex.fig13_storage_sweep.run(scale)
    reports["fig13"] = ex.fig13_storage_sweep.render(r13)
    summary["fig13"] = {
        "mean_all": {str(k): v for k, v in r13.mean_all.items()},
        "mean_top10": {str(k): v for k, v in r13.mean_top10.items()},
    }

    print(f"[{time.time()-t0:7.1f}s] figure 14 ...")
    r14 = ex.fig14_layout_agnostic.run(scale)
    reports["fig14"] = ex.fig14_layout_agnostic.render(r14)
    summary["fig14_gaps"] = {
        study: {
            pf: r14.layout_gap(study, pf) for pf in next(iter(r14.cpi.values()))["linked"]
        }
        for study in r14.cpi
    }

    print(f"[{time.time()-t0:7.1f}s] tables & ablations ...")
    reports["tables"] = "\n\n".join(
        (ex.tables.table1(), ex.tables.table2(), ex.tables.table3())
    )
    rab = ex.ablations.run(scale)
    reports["ablations"] = ex.ablations.render(rab)
    summary["ablations"] = rab.means

    for name, text in reports.items():
        (outdir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, default=str), encoding="utf-8"
    )
    print(f"[{time.time()-t0:7.1f}s] done -> {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
