"""Experiment runner: workload × prefetcher sweeps and derived figures.

The figures all reduce to the same sweep — run every workload under every
prefetcher and compare against the no-prefetch baseline — plus the
Figure 13 storage sweep, which rescales the context prefetcher's CST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from repro.sim.cache import SweepCache
    from repro.workloads.store import TraceStore

from repro.core.config import ContextPrefetcherConfig
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
    #: resumed cells (result DB or cache hits) ran no kernel and are
    #: absent.  The values never affect the results (the kernel is
    #: bit-neutral); they exist so sweeps can report how much of the
    #: grid the compiled path took and why the rest fell back.
    native_cells: dict[str, tuple[bool, str | None]] = field(default_factory=dict)
    #: result-cache entries that were unreadable and healed by recompute
    cache_heals: int = 0
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
        """One line of degrade/heal counts, or ``None`` for a clean run.

        Rendered next to :meth:`native_summary` in sweep output so
        corrupt-file recoveries are visible in the summary, not only in
        the log stream.
        """
        if not self.cache_heals and not self.store_degrades:
            return None
        return (
            f"resilience: {self.cache_heals} cache heal(s), "
            f"{self.store_degrades} store degrade(s)"
        )


def _execution(
    jobs: int | None,
    cache: "SweepCache | Path | str | bool | None",
    store: "TraceStore | Path | str | bool | None",
    native: bool | None,
) -> dict:
    """The sweep's execution choices, ``None`` deferring to the
    process-wide defaults (:func:`repro.sim.parallel.set_default_execution`)."""
    from repro.sim.cache import resolve_cache
    from repro.sim.parallel import default_execution
    from repro.workloads.store import resolve_store

    defaults = default_execution()
    return dict(
        jobs=defaults.jobs if jobs is None else max(1, jobs),
        cache=resolve_cache(cache, default=defaults.cache),
        store=resolve_store(store, default=defaults.store),
        native=defaults.native if native is None else native,
    )


def compare(
    workloads: Iterable[WorkloadSpec | TraceProgram | str],
    prefetchers: Iterable[str] = PREFETCHER_ORDER,
    *,
    hierarchy_config: HierarchyConfig | None = None,
    core_config: CoreConfig | None = None,
    limit: int | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int | None = None,
    cache: "SweepCache | Path | str | bool | None" = None,
    store: "TraceStore | Path | str | bool | None" = None,
    native: bool | None = None,
) -> ComparisonResult:
    """The standard sweep every evaluation figure is built from.

    Every workload's trace is replayed under every prefetcher, so
    results across prefetchers are strictly comparable.

    ``jobs`` > 1 fans the grid out over worker processes, ``cache``
    memoizes cells on disk (``True`` → ``results/.cache/``), and
    ``store`` supplies registry traces from compiled binary files
    (``True`` → ``results/.cache/traces/``); all three are bit-neutral —
    the parity suites prove the output identical to a one-job run.
    ``None`` defers to the process-wide defaults the CLI and scripts
    configure via :func:`repro.sim.parallel.set_default_execution`
    (which also name the result DB and the kernel thread count);
    ``cache=False`` / ``store=False`` force that feature off regardless
    of those defaults.
    """
    from repro.sim.parallel import parallel_compare

    return parallel_compare(
        workloads,
        prefetchers,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
        limit=limit,
        progress=progress,
        **_execution(jobs, cache, store, native),
    )


def storage_sweep(
    workloads: Iterable[WorkloadSpec | TraceProgram | str],
    cst_sizes: Iterable[int],
    *,
    limit: int | None = None,
    base_config: ContextPrefetcherConfig | None = None,
    jobs: int | None = None,
    cache: "SweepCache | Path | str | bool | None" = None,
    store: "TraceStore | Path | str | bool | None" = None,
    native: bool | None = None,
) -> dict[int, dict[str, SimulationResult]]:
    """Figure 13: context-prefetcher results per CST size per workload.

    Each entry of ``cst_sizes`` is a CST entry count; the reducer scales
    at 8× as the paper does.  Returns {cst_entries: {workload: result}}.
    Baseline (no-prefetch) results are not included: callers run a
    separate baseline comparison; this helper focuses on the context
    prefetcher itself.  Execution arguments behave as in :func:`compare`.
    """
    from repro.sim.parallel import parallel_storage_sweep

    return parallel_storage_sweep(
        workloads,
        cst_sizes,
        limit=limit,
        base_config=base_config,
        **_execution(jobs, cache, store, native),
    )
