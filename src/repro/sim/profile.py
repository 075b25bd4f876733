"""Deterministic profiling harness for the per-access kernel.

``python -m repro profile <workload> <prefetcher>`` answers two
questions about one simulated run:

1. **Where does the work go, in events?**  The functional units of the
   context prefetcher (feedback, collection, reduction, prediction —
   Section 5 of the paper) are inlined into ``on_access`` on the hot
   path, so a function-level profiler cannot attribute time to them.
   Instead the harness reads each unit's *event counters* off the
   component state after the run.  These counts are bit-exact run to
   run — the deterministic layer of the report — and they are the
   numbers a hot-path rewrite must hold invariant.

2. **Where does the time go, in functions?**  An optional
   :mod:`cProfile` pass over the same run, reported via
   :mod:`pstats`.  Call counts in that table are deterministic;
   the timings are wall-clock and vary with the machine, which is why
   they live in a clearly separated section instead of the counters.

3. **Where does the time go inside the kernel?**  A native run goes
   through the unit-timing build of the kernel
   (:func:`repro.sim.native.build.unit_timing`), which times one access
   in 32 unit by unit; the report carries each unit's ns per access and
   its share, beside the kernel's own ns per access.  The timed build
   computes the same result as the default one.

The harness itself never reads the wall clock (rule ``DET003``):
cProfile's timer is internal to the optional profiling section, the unit
timers live in the C kernel, and no simulated behaviour depends on
either.
"""

from __future__ import annotations

import cProfile
import contextlib
import io
import pstats
from dataclasses import dataclass, field

from repro.sim.metrics import SimulationResult
from repro.sim.simulator import Simulator


@dataclass(slots=True)
class ProfileReport:
    """One profiled run: deterministic counters + optional timing table."""

    workload: str
    prefetcher: str
    accesses: int
    #: unit name -> {counter -> value}; insertion order is report order
    units: dict[str, dict[str, int]]
    result: SimulationResult
    #: pstats text (top functions by cumulative time), or "" when skipped
    timing_table: str = ""
    top: int = field(default=12)
    #: did the run go through the compiled kernel?
    native: bool = False
    #: native phase name -> cumulative seconds (from cProfile), only
    #: populated for native runs profiled with cProfile; call structure
    #: is deterministic, the timings are machine-dependent
    native_phases: dict[str, float] = field(default_factory=dict)
    #: in-kernel batch driver counters (batches dispatched, cells per
    #: path, thread setting) accumulated in this process — all zero for
    #: single-cell runs; see ``repro.sim.native.adapter.batch_counters``
    batch_counters: dict[str, int] = field(default_factory=dict)
    #: kernel unit -> ns per access, from the unit-timing build (native
    #: runs only; machine-dependent); see ``adapter.unit_times``
    kernel_units: dict[str, float] = field(default_factory=dict)
    #: ns per access inside the timed kernel call, all units included
    kernel_ns_per_access: float = 0.0


def _unit_counters(
    sim: Simulator, result: SimulationResult, *, native_ran: bool = False
) -> dict[str, dict[str, int]]:
    """Per-unit event counters, read off the components after a run.

    Units absent from a prefetcher (the baselines have no reducer or
    CST) are simply omitted, so the report works for every family.

    After a native run the Python-side components were never touched —
    their state lives in the compiled kernel — so the memory counters
    come from the result block instead (the parity suites prove the two
    sources identical); the MSHR merge counters are not exported by the
    kernel and are omitted from native reports.
    """
    pf = sim.prefetcher
    units: dict[str, dict[str, int]] = {}

    # after a native context run the RL state (CST, reducer, queue,
    # policy) lives in the compiled handle; read the same counters off
    # the kernel so the unit blocks match the interpreted report
    ctx_native: dict[str, int] | None = None
    if native_ran:
        from repro.sim.native.adapter import context_unit_counters

        ctx_native = context_unit_counters(pf)

    queue = getattr(pf, "queue", None)
    if ctx_native is not None:
        units["feedback"] = {
            "queue_hits": ctx_native["queue_hits"],
            "queue_expirations": ctx_native["queue_expirations"],
            "rewards_applied": ctx_native["rewards_applied"],
        }
    elif queue is not None:
        units["feedback"] = {
            "queue_hits": queue.hits,
            "queue_expirations": queue.expirations,
            "rewards_applied": getattr(pf, "rewards_applied", 0),
        }

    cst = getattr(pf, "cst", None)
    if ctx_native is not None:
        units["collection"] = {
            "associations_added": ctx_native["associations_added"],
            "associations_rejected_full": ctx_native["associations_rejected_full"],
            "associations_rejected_range": ctx_native["associations_rejected_range"],
            "cst_conflict_evictions": ctx_native["cst_conflicts"],
            "history_records": ctx_native["history_records"],
        }
    elif cst is not None:
        history = getattr(pf, "history", None)
        units["collection"] = {
            "associations_added": cst.associations_added,
            "associations_rejected_full": cst.associations_rejected_full,
            "associations_rejected_range": cst.associations_rejected_range,
            "cst_conflict_evictions": cst.conflict_evictions,
            "history_records": history._count if history is not None else 0,
        }

    reducer = getattr(pf, "reducer", None)
    if ctx_native is not None:
        units["reduction"] = {
            "allocations": ctx_native["reducer_allocations"],
            "conflict_evictions": ctx_native["reducer_conflicts"],
            "activations": ctx_native["reducer_activations"],
            "deactivations": ctx_native["reducer_deactivations"],
        }
    elif reducer is not None:
        units["reduction"] = {
            "allocations": reducer.allocations,
            "conflict_evictions": reducer.conflict_evictions,
            "activations": reducer.activations,
            "deactivations": reducer.deactivations,
        }

    policy = getattr(pf, "policy", None)
    prediction: dict[str, int] = {
        "prefetches_issued": result.prefetches_issued,
        "prefetches_shadow": result.prefetches_shadow,
        "prefetches_rejected_mshr": result.prefetches_rejected,
        "prefetches_redundant": result.prefetches_redundant,
    }
    if ctx_native is not None:
        prediction["explorations"] = ctx_native["explorations"]
        prediction["exploitations"] = ctx_native["exploitations"]
        prediction["predictions_real"] = ctx_native["predictions_real"]
        prediction["predictions_shadow"] = ctx_native["predictions_shadow"]
        prediction["window_updates"] = ctx_native["window_updates"]
    elif policy is not None:
        prediction["explorations"] = policy.explorations
        prediction["exploitations"] = policy.exploitations
    units["prediction"] = prediction

    if native_ran:
        units["memory"] = {
            "l1_hits": result.l1.hits,
            "l1_misses": result.l1.misses,
            "l2_hits": result.l2.hits,
            "l2_misses": result.l2.misses,
        }
    else:
        hier = sim.hierarchy
        units["memory"] = {
            "l1_hits": hier.l1_stats.hits,
            "l1_misses": hier.l1_stats.misses,
            "l2_hits": hier.l2_stats.hits,
            "l2_misses": hier.l2_stats.misses,
            "mshr_merges": hier.l2_mshrs.merges,
            "mshr_rejections": hier.l2_mshrs.rejections,
        }
    return units


#: the named native phases, in execution order; PERF003 pins each one to
#: a scalar-fallback counterpart in ``repro.sim.native.VECTOR_PHASES``
_NATIVE_PHASE_FUNCS = (
    "phase_decode",
    "phase_kernel",
    "phase_batch_kernel",
    "phase_finalize",
    "phase_render",
)


def _native_phase_times(profiler: cProfile.Profile) -> dict[str, float]:
    """Cumulative seconds per native phase, extracted from a cProfile run.

    The adapter routes every native run through named top-level phase
    functions precisely so a function-level profiler can attribute the
    batch work; this pulls those rows out of the stats table.
    """
    out: dict[str, float] = {}
    stats = pstats.Stats(profiler)
    for (filename, _line, funcname), row in stats.stats.items():  # type: ignore[attr-defined]
        if funcname in _NATIVE_PHASE_FUNCS and "adapter" in filename:
            out[funcname] = row[3]  # cumulative time
    return {name: out[name] for name in _NATIVE_PHASE_FUNCS if name in out}


def profile_run(
    workload_name: str,
    prefetcher_name: str,
    *,
    limit: int | None = None,
    with_cprofile: bool = True,
    top: int = 12,
    native: bool = False,
) -> ProfileReport:
    """Simulate one (workload, prefetcher) pair and profile the run.

    With ``native=True`` the run goes through the compiled batch kernel
    (falling back per the usual rules) and the report attributes time to
    the decode/kernel/finalize phases instead of per-access functions.
    """
    # imported here so ``repro.sim`` stays import-light for the workers
    from repro.sim.config import PREFETCHER_FACTORIES
    from repro.workloads.suites import get_workload

    trace = get_workload(workload_name).build().trace()
    if limit is not None:
        trace = trace[:limit]
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher_name](), native=native)

    timing_table = ""
    native_phases: dict[str, float] = {}
    timed = None
    # a native run uses the unit-timing build; its handles live and die
    # inside the block, with every read of them
    with _kernel_scope(native):
        if with_cprofile:
            profiler = cProfile.Profile()
            profiler.enable()
            result = sim.run(trace, workload_name=workload_name)
            profiler.disable()
            buf = io.StringIO()
            stats = pstats.Stats(profiler, stream=buf)
            stats.sort_stats("cumulative").print_stats(top)
            timing_table = buf.getvalue()
            if sim.last_run_native:
                native_phases = _native_phase_times(profiler)
        else:
            result = sim.run(trace, workload_name=workload_name)
        units = _unit_counters(sim, result, native_ran=sim.last_run_native)
        if sim.last_run_native:
            from repro.sim.native.adapter import unit_times

            timed = unit_times(sim)

    if native:
        from repro.sim.native.adapter import batch_counters

        batch = dict(batch_counters())
    else:
        batch = {}

    return ProfileReport(
        workload=workload_name,
        prefetcher=prefetcher_name,
        accesses=len(trace),
        units=units,
        result=result,
        timing_table=timing_table,
        top=top,
        native=sim.last_run_native,
        native_phases=native_phases,
        batch_counters=batch,
        kernel_units=timed["units"] if timed else {},
        kernel_ns_per_access=timed["kernel_ns_per_access"] if timed else 0.0,
    )


def _kernel_scope(native: bool):
    """The unit-timing kernel for a native profile, else nothing."""
    if not native:
        return contextlib.nullcontext()
    from repro.sim.native.build import unit_timing

    return unit_timing()


def render(report: ProfileReport) -> str:
    """Human-readable report; the counter section is bit-reproducible."""
    mode = "native kernel" if report.native else "interpreted"
    lines = [
        f"profile: {report.workload} / {report.prefetcher} "
        f"({report.accesses} accesses, {mode})",
        "",
        "per-unit event counters (deterministic):",
    ]
    for unit, counters in report.units.items():
        lines.append(f"  [{unit}]")
        for name, value in counters.items():
            per_access = value / report.accesses if report.accesses else 0.0
            lines.append(f"    {name:28s} {value:>10d}  ({per_access:.3f}/access)")
    result = report.result
    lines += [
        "",
        f"result: cycles={result.cycles}  ipc={result.ipc:.3f}  "
        f"accuracy={result.prefetcher_accuracy:.3f}",
    ]
    if report.native_phases:
        total = sum(report.native_phases.values())
        lines += ["", "native phase timings (machine-dependent):"]
        for name, seconds in report.native_phases.items():
            share = seconds / total if total else 0.0
            lines.append(f"    {name:28s} {seconds:>10.4f}s  ({share:5.1%})")
    if report.kernel_units:
        total = sum(report.kernel_units.values())
        kernel = report.kernel_ns_per_access
        lines += [
            "",
            "kernel unit timings (unit-timing build, 1 access in 32; "
            "machine-dependent):",
        ]
        for name, ns in report.kernel_units.items():
            share = ns / total if total else 0.0
            lines.append(f"    {name:28s} {ns:>10.1f} ns/access  ({share:5.1%})")
        covered = total / kernel if kernel else 0.0
        lines.append(
            f"    {'units, summed':28s} {total:>10.1f} ns/access  "
            f"({covered:5.1%} of the kernel's {kernel:.1f} ns/access)"
        )
    if any(report.batch_counters.values()):
        lines += ["", "batch kernel counters (this process, deterministic):"]
        for name, value in report.batch_counters.items():
            lines.append(f"    {name:28s} {value:>10d}")
    if report.timing_table:
        lines += [
            "",
            f"cProfile, top {report.top} by cumulative time "
            "(call counts deterministic; timings machine-dependent):",
            report.timing_table.rstrip(),
        ]
    return "\n".join(lines)
