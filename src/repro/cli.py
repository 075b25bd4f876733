"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``     — available workloads (by suite) and prefetchers
* ``run``      — simulate one (workload, prefetcher) pair
* ``sweep``    — workloads × prefetchers speedup table (Figure 12 view)
* ``figure``   — regenerate one paper figure or table set
* ``profile``  — per-unit kernel counters + cProfile for one run
  (see docs/performance.md)
* ``trace``    — the compiled trace store: ``compile``/``info``/``ls``/
  ``gc`` manage binary ``*.rpt`` files under ``results/.cache/traces/``,
  ``export`` writes a JSONL copy for ``replay`` (see docs/trace_store.md)
* ``serve``    — the sweep service: ``submit`` runs a parameter grid
  through the warm-worker scheduler into a queryable result DB with
  resume-after-crash, ``status``/``query`` read it back
  (see docs/sweep_service.md)
* ``lint``     — static-analysis pass (determinism, hardware budget,
  prefetcher contracts, experiment hygiene; see docs/static_analysis.md)

Every subcommand returns a nonzero exit code on failure so that
``make lint`` and CI can gate on it.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from repro.experiments import (
    ablations,
    characterization,
    convergence,
    fig01_semantic_locality,
    fig05_reward,
    fig08_hit_depth_cdf,
    fig09_accuracy,
    fig10_l1_mpki,
    fig11_l2_mpki,
    fig12_speedup,
    fig13_storage_sweep,
    fig14_layout_agnostic,
    robustness,
    sensitivity,
    suite_summary,
    tables,
)
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES, standard_sweep
from repro.memory.stats import ACCESS_CLASS_ORDER
from repro.sim.config import PREFETCHER_FACTORIES, PREFETCHER_ORDER
from repro.sim.runner import compare, run_workload
from repro.workloads.suites import SUITES, get_workload

if TYPE_CHECKING:  # the result DB loads only for the commands that run sweeps
    from repro.sim.sched.db import ResultDB

#: figure name -> (module with run()/render(), takes scale?)
_FIGURES = {
    "1": (fig01_semantic_locality, False),
    "5": (fig05_reward, False),
    "8": (fig08_hit_depth_cdf, True),
    "9": (fig09_accuracy, True),
    "10": (fig10_l1_mpki, True),
    "11": (fig11_l2_mpki, True),
    "12": (fig12_speedup, True),
    "13": (fig13_storage_sweep, True),
    "14": (fig14_layout_agnostic, True),
    "tables": (tables, False),
    "ablations": (ablations, True),
    "sensitivity": (sensitivity, True),
    "convergence": (convergence, False),
    "characterization": (characterization, False),
    "robustness": (robustness, True),
    "suites": (suite_summary, True),
}


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The execution surface shared by sweep-driven commands (and by
    ``scripts/run_full_experiments.py``)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep grid (default: 1, runs "
        "in this process)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="trace-store directory every registry trace is compiled "
        "into and mapped from (default: results/.cache/traces)",
    )
    parser.add_argument(
        "--native",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run eligible cells through the compiled batch kernel "
        "(bit-exact; --no-native forces the interpreted reference loop)",
    )
    parser.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help="result DB the run's cells resume from and commit to, "
        "queryable with `repro serve query` (default: results/sweep.db; "
        ":memory: recomputes every cell)",
    )
    parser.add_argument(
        "--kernel-threads",
        type=int,
        default=0,
        metavar="T",
        help="OpenMP threads per worker for the kernel's in-shard batch "
        "driver (default: 0, the OpenMP runtime default; results are "
        "bit-identical at any thread count)",
    )


def _configure_execution(args: argparse.Namespace) -> "ResultDB":
    """Install the execution flags process-wide; returns the result DB,
    which the caller closes when its sweeps are done.

    Figure modules call :func:`standard_sweep` themselves, so the flags
    are threaded through the execution defaults rather than every
    ``run()`` signature.  Every sweep of the invocation shares the one
    result DB, so a cell two of its sweeps name runs once, and a rerun
    resumes every cell an earlier one committed.  Results are
    bit-identical either way — the DB, the trace store and the worker
    pool only change wall-clock time.  The chosen paths go to stderr so
    scripts can see exactly which DB and store a run touched.
    """
    from repro.sim.parallel import set_default_execution
    from repro.sim.sched.db import DEFAULT_DB_PATH, ResultDB
    from repro.workloads.store import DEFAULT_TRACE_DIR, TraceStore

    store = TraceStore(args.store_dir or DEFAULT_TRACE_DIR)
    db = ResultDB(args.db or DEFAULT_DB_PATH)
    kernel_threads = max(0, args.kernel_threads)
    set_default_execution(
        jobs=args.jobs,
        store=store,
        native=args.native,
        db=db,
        kernel_threads=kernel_threads,
    )
    print(
        f"execution: jobs={args.jobs}, "
        f"result DB {db.path}, "
        f"trace store {store.root}, "
        f"kernel {'native' if args.native else 'interpreted'}"
        + (f", kernel threads {kernel_threads}" if kernel_threads else ""),
        file=sys.stderr,
    )
    return db


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Semantic locality and context-based prefetching (ISCA 2015) "
            "reproduction harness"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and prefetchers")

    run_p = sub.add_parser("run", help="simulate one workload under one prefetcher")
    run_p.add_argument("workload")
    run_p.add_argument("prefetcher", choices=sorted(PREFETCHER_FACTORIES))
    run_p.add_argument("--limit", type=int, default=None, help="truncate the trace")
    run_p.add_argument(
        "--native",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use the compiled batch kernel when the prefetcher supports it",
    )

    sweep_p = sub.add_parser("sweep", help="workloads x prefetchers speedup table")
    sweep_p.add_argument("--scale", choices=sorted(SCALES), default="small")
    sweep_p.add_argument(
        "--workloads", default=None, help="comma-separated workload names"
    )
    sweep_p.add_argument(
        "--prefetchers",
        default=",".join(PREFETCHER_ORDER),
        help="comma-separated prefetcher names",
    )
    sweep_p.add_argument("--limit", type=int, default=None)
    _add_execution_flags(sweep_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig_p.add_argument("which", choices=sorted(_FIGURES, key=str))
    fig_p.add_argument("--scale", choices=sorted(SCALES), default="small")
    _add_execution_flags(fig_p)

    profile_p = sub.add_parser(
        "profile", help="profile one run: per-unit counters + cProfile"
    )
    profile_p.add_argument("workload")
    profile_p.add_argument("prefetcher", choices=sorted(PREFETCHER_FACTORIES))
    profile_p.add_argument("--limit", type=int, default=None, help="truncate the trace")
    profile_p.add_argument(
        "--top", type=int, default=12, help="rows in the cProfile table"
    )
    profile_p.add_argument(
        "--no-cprofile",
        action="store_true",
        help="skip the timing table; emit only the deterministic counters",
    )
    profile_p.add_argument(
        "--native",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="profile the compiled batch kernel (reports per-phase "
        "timings) instead of the interpreted per-access loop",
    )

    trace_p = sub.add_parser(
        "trace",
        help="manage the compiled trace store (compile/info/ls/gc/export)",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    def _store_dir_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store-dir",
            default=None,
            metavar="DIR",
            help="trace-store directory (default: results/.cache/traces)",
        )

    compile_p = trace_sub.add_parser(
        "compile", help="compile registry workloads into store files"
    )
    compile_p.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="workload names (default: every registry workload)",
    )
    compile_p.add_argument(
        "--force", action="store_true", help="recompile even when current"
    )
    _store_dir_flag(compile_p)

    info_p = trace_sub.add_parser(
        "info", help="show one store file's header (workload name or path)"
    )
    info_p.add_argument("target", help="workload name or *.rpt path")
    _store_dir_flag(info_p)

    ls_p = trace_sub.add_parser(
        "ls", help="list store files; nonzero exit if any are corrupt"
    )
    _store_dir_flag(ls_p)

    gc_p = trace_sub.add_parser(
        "gc", help="drop stale, corrupt and temp store files"
    )
    gc_p.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    _store_dir_flag(gc_p)

    export_p = trace_sub.add_parser(
        "export", help="save a workload's access trace as JSONL (for replay)"
    )
    export_p.add_argument("workload")
    export_p.add_argument("output", help="destination .jsonl path")
    export_p.add_argument("--limit", type=int, default=None)

    serve_p = sub.add_parser(
        "serve",
        help="the sweep service: submit grids to warm workers, query "
        "the result DB (see docs/sweep_service.md)",
    )
    serve_sub = serve_p.add_subparsers(dest="serve_command", required=True)

    def _db_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--db",
            default=None,
            metavar="PATH",
            help="result database (default: results/sweep.db)",
        )

    submit_p = serve_sub.add_parser(
        "submit",
        help="run a workload x config x prefetcher grid, resuming any "
        "cells the DB already holds",
    )
    submit_p.add_argument(
        "--workloads",
        required=True,
        help="comma-separated workload names",
    )
    submit_p.add_argument(
        "--prefetchers",
        default="none,context",
        help="comma-separated prefetcher names (default: none,context)",
    )
    submit_p.add_argument(
        "--cst-sizes",
        default=None,
        metavar="N,N,...",
        help="context-config axis: one CST-size variant per entry "
        "(reducer at 8x, the Figure 13 convention)",
    )
    submit_p.add_argument("--limit", type=int, default=None)
    submit_p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N pending cells this call (checkpointed "
        "partial run; resubmit to continue)",
    )
    _add_execution_flags(submit_p)

    status_p = serve_sub.add_parser(
        "status", help="per-sweep completion counts from the result DB"
    )
    _db_flag(status_p)

    query_p = serve_sub.add_parser(
        "query", help="fetch decoded result cells from the result DB"
    )
    _db_flag(query_p)
    query_p.add_argument(
        "--sweep", default=None, help="sweep id, or a prefix of exactly one"
    )
    query_p.add_argument("--workload", default=None)
    query_p.add_argument("--prefetcher", default=None)
    query_p.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="table: one summary line per cell; json: full codec payloads",
    )

    replay_p = sub.add_parser(
        "replay", help="simulate a saved JSONL trace under a prefetcher"
    )
    replay_p.add_argument("tracefile")
    replay_p.add_argument("prefetcher", choices=sorted(PREFETCHER_FACTORIES))
    replay_p.add_argument("--stats", action="store_true", help="gem5-style dump")

    lint_p = sub.add_parser(
        "lint", help="run the static-analysis pass over the package"
    )
    lint_p.add_argument(
        "--rules",
        "--select",
        dest="rules",
        default=None,
        metavar="PREFIXES",
        help="comma-separated rule-id prefixes to run (e.g. DET,RACE)",
    )
    lint_p.add_argument(
        "--format",
        dest="format",
        choices=("text", "sarif", "github"),
        default="text",
        help="output format: human text, SARIF 2.1.0, or GitHub annotations",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue with per-code descriptions",
    )
    return parser


def _cmd_list() -> str:
    rows = [(suite, ", ".join(names)) for suite, names in SUITES.items()]
    workloads = render_table(("suite", "workloads"), rows, title="Workloads")
    prefetchers = ", ".join(sorted(PREFETCHER_FACTORIES))
    return f"{workloads}\n\nPrefetchers: {prefetchers}"


def _cmd_run(args: argparse.Namespace) -> str:
    result = run_workload(
        args.workload, args.prefetcher, limit=args.limit, native=args.native
    )
    lines = [
        result.summary(),
        f"cycles={result.cycles}  instructions={result.instructions}",
        f"prefetches: issued={result.prefetches_issued} "
        f"shadow={result.prefetches_shadow} "
        f"redundant={result.prefetches_redundant}",
    ]
    fractions = result.classifier.fractions()
    for cls in ACCESS_CLASS_ORDER:
        lines.append(f"  {cls.value:32s} {fractions[cls]:6.1%}")
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    prefetchers = tuple(p.strip() for p in args.prefetchers.split(",") if p.strip())
    with _configure_execution(args):
        if args.workloads:
            workloads = [
                get_workload(name.strip()) for name in args.workloads.split(",")
            ]
            comparison = compare(workloads, prefetchers, limit=args.limit)
        else:
            comparison = standard_sweep(args.scale, prefetchers=prefetchers)
    rendered = fig12_speedup.render(fig12_speedup.run(comparison=comparison))
    if comparison.stats is None:
        return rendered
    return f"{rendered}\n\n{comparison.stats.summary()}"


def _cmd_figure(args: argparse.Namespace) -> str:
    module, takes_scale = _FIGURES[args.which]
    with _configure_execution(args):
        if module is tables:
            return "\n\n".join((tables.table1(), tables.table2(), tables.table3()))
        result = module.run(args.scale) if takes_scale else module.run()
    return module.render(result)


def _cmd_profile(args: argparse.Namespace) -> str:
    from repro.sim.profile import profile_run, render

    report = profile_run(
        args.workload,
        args.prefetcher,
        limit=args.limit,
        with_cprofile=not args.no_cprofile,
        top=args.top,
        native=args.native,
    )
    return render(report)


def _cmd_trace(args: argparse.Namespace) -> str | tuple[str, int]:
    """The ``trace`` command group over the compiled trace store.

    Corrupt, truncated or version-skewed store files surface here as a
    nonzero exit (``info`` raises, ``ls`` reports and returns 1) — the
    sweep engine itself degrades to rebuilding instead; only the CLI
    makes corruption loud.
    """
    from pathlib import Path

    from repro.workloads.store import DEFAULT_TRACE_DIR, TraceStore, read_meta

    store = TraceStore(getattr(args, "store_dir", None) or DEFAULT_TRACE_DIR)

    if args.trace_command == "export":
        from repro.workloads.serialize import save_trace

        trace = get_workload(args.workload).build().trace()
        if args.limit is not None:
            trace = trace[: args.limit]
        count = save_trace(trace, args.output)
        return f"wrote {count} accesses to {args.output}"

    if args.trace_command == "compile":
        from repro.workloads.suites import all_workloads

        names = args.workloads or [spec.name for spec in all_workloads()]
        lines = []
        for name in names:
            meta, built = store.compile(name, force=args.force)
            verb = "compiled" if built else "current "
            lines.append(
                f"{verb} {name}: {meta.records} records, "
                f"{meta.size_bytes} bytes -> {meta.path}"
            )
        lines.append(f"store: {store.root}")
        return "\n".join(lines)

    if args.trace_command == "info":
        path = Path(args.target)
        if not (path.suffix == ".rpt" or path.exists()):
            path = store.path_for(args.target)
        meta = read_meta(path)  # corrupt/version-skew raises -> exit 1
        return "\n".join(
            [
                f"path:        {meta.path}",
                f"workload:    {meta.workload}",
                f"version:     {meta.version}",
                f"records:     {meta.records}",
                f"size:        {meta.size_bytes} bytes",
                f"fingerprint: {meta.fingerprint}",
                f"source:      {meta.source}",
            ]
        )

    if args.trace_command == "ls":
        entries = store.entries()
        if not entries:
            return f"store {store.root}: empty"
        lines = [f"store {store.root}:"]
        corrupt = 0
        for path, meta, status in entries:
            if meta is None:
                corrupt += 1
                lines.append(f"  CORRUPT {path.name}: {status}")
            else:
                lines.append(
                    f"  {status:7s} {path.name}: {meta.workload}, "
                    f"{meta.records} records, {meta.size_bytes} bytes"
                )
        if corrupt:
            lines.append(f"{corrupt} corrupt file(s); run `repro trace gc`")
        return "\n".join(lines), (1 if corrupt else 0)

    # gc — the trace store, then the native kernel build cache (stale
    # .so artifacts from superseded kernel sources and abandoned
    # build-* scratch directories)
    from repro.sim.native.build import DEFAULT_BUILD_DIR, gc_build_cache

    kept, removed = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    lines = [f"store {store.root}: kept {kept}, {verb} {len(removed)}"]
    lines += [f"  {path.name}" for path in removed]
    nkept, nremoved = gc_build_cache(dry_run=args.dry_run)
    lines.append(
        f"native cache {DEFAULT_BUILD_DIR}: kept {nkept}, "
        f"{verb} {len(nremoved)}"
    )
    lines += [f"  {path.name}" for path in nremoved]
    return "\n".join(lines)


def _cmd_serve(args: argparse.Namespace) -> str:
    """The ``serve`` command group: the sweep service over a result DB.

    ``submit`` executes a grid through the warm-worker scheduler,
    resuming any cells the DB already holds; ``status`` and ``query``
    read the DB without touching the simulation stack at all.
    """
    from repro.serve.service import SweepService, plan_from_axes
    from repro.sim.sched.db import DEFAULT_DB_PATH

    if args.serve_command == "submit":
        from repro.sim.parallel import default_execution

        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        prefetchers = [
            p.strip() for p in args.prefetchers.split(",") if p.strip()
        ]
        cst_sizes = None
        if args.cst_sizes:
            cst_sizes = [
                int(s.strip()) for s in args.cst_sizes.split(",") if s.strip()
            ]
        plan = plan_from_axes(
            workloads=workloads,
            prefetchers=prefetchers,
            cst_sizes=cst_sizes,
            limit=args.limit,
        )
        db = _configure_execution(args)
        defaults = default_execution()
        with SweepService(
            db=db,
            store=defaults.store,
            jobs=defaults.jobs,
            native=defaults.native,
            kernel_threads=defaults.kernel_threads,
        ) as service:
            stats = service.submit(
                plan,
                progress=lambda line: print(line, file=sys.stderr),
                max_cells=args.max_cells,
            )
        return stats.summary()

    service = SweepService(db=args.db or DEFAULT_DB_PATH)
    if args.serve_command == "status":
        rows = service.status()
        if not rows:
            return f"result DB {service.db.path}: empty"

        def _eta(seconds: float | None) -> str:
            if seconds is None:
                return "-"
            total = int(round(seconds))
            if total >= 3600:
                return f"{total // 3600}h{(total % 3600) // 60:02d}m"
            if total >= 60:
                return f"{total // 60}m{total % 60:02d}s"
            return f"{total}s"

        table = render_table(
            ("sweep", "done", "total", "cells/s", "eta"),
            [
                (
                    row.sweep,
                    str(row.done),
                    str(row.total),
                    "-" if row.cells_per_sec is None else f"{row.cells_per_sec:.1f}",
                    _eta(row.eta_seconds),
                )
                for row in rows
            ],
            title=f"Result DB {service.db.path}",
        )
        return table

    # query: a sweep id may be abbreviated, as ``submit`` prints it
    sweep = args.sweep
    if sweep is not None:
        registered = [row[0] for row in service.db.sweeps()]
        if sweep not in registered:
            matches = [full for full in registered if full.startswith(sweep)]
            where = service.db.path
            if not matches:
                raise ValueError(f"no sweep id in {where} starts with {sweep!r}")
            if len(matches) > 1:
                raise ValueError(
                    f"{len(matches)} sweep ids in {where} start with {sweep!r}"
                )
            sweep = matches[0]
    cells = service.query(
        sweep=sweep,
        workload=args.workload,
        prefetcher=args.prefetcher,
    )
    if args.format == "json":
        import json

        from repro.sim.codec import encode_result

        return json.dumps(
            [
                {
                    "key": cell.key,
                    "sweep": cell.sweep,
                    "index": cell.index,
                    "workload": cell.workload,
                    "prefetcher": cell.prefetcher,
                    "result": encode_result(cell.result),
                }
                for cell in cells
            ],
            indent=2,
            sort_keys=True,
        )
    if not cells:
        return "no matching cells"
    lines = [cell.result.summary() for cell in cells]
    lines.append(f"{len(cells)} cell(s)")
    return "\n".join(lines)


def _cmd_replay(args: argparse.Namespace) -> str:
    from repro.sim.export import stats_dump
    from repro.sim.simulator import Simulator
    from repro.workloads.serialize import load_trace

    trace = load_trace(args.tracefile)
    prefetcher = PREFETCHER_FACTORIES[args.prefetcher]()
    result = Simulator(prefetcher).run(trace, workload_name=args.tracefile)
    if args.stats:
        return stats_dump(result)
    return result.summary()


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import main as lint_main

    lint_argv: list[str] = []
    if args.rules:
        lint_argv += ["--rules", args.rules]
    if args.format != "text":
        lint_argv += ["--format", args.format]
    if args.list_rules:
        lint_argv.append("--list-rules")
    return lint_main(lint_argv)


_COMMANDS = {
    "list": lambda args: _cmd_list(),
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "replay": _cmd_replay,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        # lint prints its own report and owns the 0/1/2 exit contract
        return _cmd_lint(args)
    try:
        output = _COMMANDS[args.command](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        # CI and make gate on the exit code; a traceback would bury the
        # actionable message, so report the failure and exit nonzero
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    code = 0
    if isinstance(output, tuple):
        output, code = output
    try:
        print(output)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not a failure — but stop
        # the interpreter from tracebacking on the shutdown flush
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
