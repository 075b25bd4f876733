"""Experiment runner: workload × prefetcher sweeps and derived figures.

The figures all reduce to the same sweep — run every workload under every
prefetcher and compare against the no-prefetch baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal

if TYPE_CHECKING:
    from repro.workloads.store import TraceStore

from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.prefetchers.base import Prefetcher
from repro.sim.config import PREFETCHER_FACTORIES, PREFETCHER_ORDER
from repro.sim.metrics import SimulationResult, geomean
from repro.sim.simulator import Simulator
from repro.workloads.suites import WorkloadSpec, get_workload
from repro.workloads.trace import MemoryAccess, TraceProgram


def _resolve_trace(
    workload: WorkloadSpec | TraceProgram | str,
) -> tuple[str, list[MemoryAccess]]:
    if isinstance(workload, str):
        workload = get_workload(workload)
    if isinstance(workload, WorkloadSpec):
        program = workload.build()
        return workload.name, program.trace()
    return workload.name, workload.trace()


def run_workload(
    workload: WorkloadSpec | TraceProgram | str,
    prefetcher: Prefetcher | str,
    *,
    hierarchy_config: HierarchyConfig | None = None,
    core_config: CoreConfig | None = None,
    limit: int | None = None,
    native: bool | None = None,
) -> SimulationResult:
    """Run one (workload, prefetcher) pair and return its result.

    ``native=None`` defers to the process-wide execution defaults; the
    kernel selection is bit-neutral either way.
    """
    from repro.sim.parallel import default_execution

    name, trace = _resolve_trace(workload)
    if isinstance(prefetcher, str):
        prefetcher = PREFETCHER_FACTORIES[prefetcher]()
    effective_native = default_execution().native if native is None else native
    sim = Simulator(
        prefetcher,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
        native=effective_native,
    )
    return sim.run(trace, workload_name=name, limit=limit)


@dataclass
class ComparisonResult:
    """Results of a workloads × prefetchers sweep."""

    #: workload name -> prefetcher name -> result
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)
    #: ``"workload/prefetcher" -> (kernel handled?, fallback reason)``,
    #: recorded only for cells a native-mode sweep actually executed —
    #: resumed cells (read back from the result DB) ran no kernel and
    #: are absent.  The values never affect the results (the kernel is
    #: bit-neutral); they exist so sweeps can report how much of the
    #: grid the compiled path took and why the rest fell back.
    native_cells: dict[str, tuple[bool, str | None]] = field(default_factory=dict)
    #: store files that degraded (corrupt read → rebuild, or corrupt
    #: file → recompile) during this sweep, worker-side events included
    store_degrades: int = 0

    def workloads(self) -> list[str]:
        return list(self.results)

    def prefetchers(self) -> list[str]:
        first = next(iter(self.results.values()), {})
        return list(first)

    def get(self, workload: str, prefetcher: str) -> SimulationResult:
        return self.results[workload][prefetcher]

    def speedups(self, baseline: str = "none") -> dict[str, dict[str, float]]:
        """Per-workload IPC speedups over ``baseline`` (Figure 12)."""
        out: dict[str, dict[str, float]] = {}
        for wl, by_pf in self.results.items():
            base = by_pf[baseline]
            out[wl] = {
                pf: res.speedup_over(base) for pf, res in by_pf.items() if pf != baseline
            }
        return out

    def mean_speedups(self, baseline: str = "none") -> dict[str, float]:
        """Geometric-mean speedup per prefetcher over all workloads."""
        per_wl = self.speedups(baseline)
        prefetchers = [p for p in self.prefetchers() if p != baseline]
        return {
            pf: geomean([per_wl[wl][pf] for wl in per_wl]) for pf in prefetchers
        }

    def mpki(self, level: str = "l2") -> dict[str, dict[str, float]]:
        """Per-workload MPKI per prefetcher (Figures 10/11)."""
        attr = "l1_mpki" if level == "l1" else "l2_mpki"
        return {
            wl: {pf: getattr(res, attr) for pf, res in by_pf.items()}
            for wl, by_pf in self.results.items()
        }

    def native_fallbacks(self) -> dict[str, int]:
        """Fallback reason -> count of cells that fell back for it."""
        counts: dict[str, int] = {}
        for handled, reason in self.native_cells.values():
            if not handled:
                key = reason or "unknown"
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def native_summary(self) -> str | None:
        """One line of native-kernel coverage, or ``None`` when no cell
        of this sweep recorded kernel info (interpreted mode, or every
        cell resumed)."""
        if not self.native_cells:
            return None
        total = len(self.native_cells)
        handled = sum(1 for ok, _ in self.native_cells.values() if ok)
        line = f"native kernel: {handled}/{total} executed cells"
        if handled == total:
            return line
        top = ", ".join(
            f"{reason} (x{count})"
            for reason, count in list(self.native_fallbacks().items())[:3]
        )
        return f"{line}; fallbacks: {top}"

    def resilience_summary(self) -> str | None:
        """One line of store degrades, or ``None`` for a clean run.

        Rendered next to :meth:`native_summary` in sweep output so
        corrupt-file recoveries are visible in the summary, not only in
        the log stream.
        """
        if not self.store_degrades:
            return None
        return f"resilience: {self.store_degrades} store degrade(s)"


def compare(
    workloads: Iterable[WorkloadSpec | TraceProgram | str],
    prefetchers: Iterable[str] = PREFETCHER_ORDER,
    *,
    hierarchy_config: HierarchyConfig | None = None,
    core_config: CoreConfig | None = None,
    limit: int | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
    cache: "Literal[False] | None" = None,
    store: "TraceStore | None" = None,
    native: bool | None = None,
) -> ComparisonResult:
    """The standard sweep every evaluation figure is built from.

    Every workload's trace is replayed under every prefetcher, so
    results across prefetchers are strictly comparable.

    ``jobs`` > 1 fans the grid out over worker processes, and ``store``
    is the compiled trace store every registry trace comes from; both
    are bit-neutral — the parity suites prove the output identical to
    a one-job run.  ``None`` defers to the process-wide defaults the
    CLI and scripts configure via
    :func:`repro.sim.parallel.set_default_execution`, which also name
    the result DB the cells resume from and commit to, and the kernel
    thread count; with no store configured, traces are compiled under
    ``results/.cache/traces/``.

    ``cache`` is inert: it accepts ``None`` or ``False`` and is never
    used, because the result DB is the one result store.  It stays only
    for the sweep benchmark (``perfbench/``), which passes
    ``cache=False``; the benchmark change that drops that argument
    deletes the keyword (ROADMAP item 3).
    """
    from repro.sim.parallel import parallel_compare

    if cache is not None and cache is not False:
        raise TypeError(
            f"compare(cache={cache!r}): only None or False is accepted; "
            "cells resume from the result DB"
        )

    return parallel_compare(
        workloads,
        prefetchers,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
        limit=limit,
        progress=progress,
        jobs=jobs,
        store=store,
        native=native,
    )
