"""Run every paper figure at a chosen scale and dump rendered reports.

Usage:  python scripts/run_full_experiments.py [small|medium|full] [outdir]
            [--jobs N] [--store-dir DIR] [--db PATH]
            [--native/--no-native] [--kernel-threads T]

This is the script behind EXPERIMENTS.md: it runs every figure's cells
through one result DB, so a cell two reports share is simulated once,
and writes the rendered text reports (plus a machine-readable summary
JSON) into the output directory.  The execution flags are the CLI's
(``repro sweep``/``repro figure``): the DB is ``results/sweep.db``
unless ``--db`` names another, so a rerun resumes every cell and
``repro serve query`` reads the whole evaluation; ``--db :memory:``
recomputes everything.

``--jobs N`` fans the sweep grids over N worker processes, and workload
traces are compiled once into binary store files under
``results/.cache/traces/`` (``--store-dir`` names another directory;
a fresh one builds every trace from source).  All of these are
bit-neutral (see docs/parallel_runner.md and docs/trace_store.md) —
only wall-clock time changes, which this script reports per job.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import repro.experiments as ex
from repro.cli import _add_execution_flags, _configure_execution
from repro.sim.parallel import default_store


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scale", nargs="?", default="medium",
                        choices=("small", "medium", "full"))
    parser.add_argument("outdir", nargs="?", default=None)
    _add_execution_flags(parser)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    scale = args.scale
    outdir = Path(args.outdir or f"results/{scale}")
    outdir.mkdir(parents=True, exist_ok=True)
    db = _configure_execution(args)

    t0 = time.time()
    # the engine itself is wall-clock-free (lint rule DET003); per-job
    # timing is injected here, from outside the simulator package
    print(
        f"[{time.time()-t0:7.1f}s] running standard sweep at scale={scale} "
        f"(jobs={args.jobs}, result DB {db.path}, "
        f"trace store {default_store().root}) ..."
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
    db.close()
    print(f"[{time.time()-t0:7.1f}s] done -> {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
