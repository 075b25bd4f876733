"""Experiment runner: workload × prefetcher sweeps and derived figures.

The figures all reduce to the same sweep — run every workload under every
prefetcher and compare against the no-prefetch baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Literal

if TYPE_CHECKING:
    from repro.sim.sched.scheduler import SweepStats
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
    #: the record of the sweep that produced these results: its cell
    #: counts, kernel coverage and store degrades.  Every slice of one
    #: ``run_grid`` call shares it; ``None`` when no sweep ran
    stats: SweepStats | None = None

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
