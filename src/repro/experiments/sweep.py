"""Shared sweep machinery for the evaluation figures.

Every experiment's cells go through ``run_grid`` (behind ``compare``)
with the process-wide execution defaults, so a cell two reports share
runs once per result DB.

The evaluation figures (9–12) are all views over one workloads ×
prefetchers sweep.  ``standard_sweep`` runs it at a chosen scale:

* ``"small"``  — a representative workload subset, truncated traces; for
  tests and quick sanity runs (seconds to a couple of minutes).
* ``"medium"`` — the same subset, full traces.
* ``"full"``   — every Table 3 workload, full traces (the real figures;
  several minutes of pure-Python simulation).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.config import ContextPrefetcherConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.config import PREFETCHER_ORDER
from repro.sim.parallel import run_grid
from repro.sim.runner import ComparisonResult, compare
from repro.workloads.suites import all_workloads, get_workload

#: the subset used at "small"/"medium" scale: one or two representatives
#: per suite, spanning regular, irregular and mixed behaviour
REPRESENTATIVE_WORKLOADS = (
    "lbm",  # SPEC streaming
    "mcf",  # SPEC pointer-chasing
    "h264ref",  # SPEC region reuse
    "sjeng",  # SPEC cache-resident
    "graph500-list",
    "graph500-csr",
    "ssca2-list",
    "ssca2-csr",
    "suffixarray",
    "array",
    "list",
    "hashtest",
    "maptest",
    "bst",
    "prim",
    "listsort",
)

#: the μbenchmark set Figure 8's top panel uses
UKERNELS = (
    "array",
    "list",
    "bst",
    "hashtest",
    "maptest",
    "prim",
    "listsort",
    "bfs",
    "ssca-lds",
    "graph500-list",
)

SCALES = {
    "small": dict(limit=15000, subset=True),
    "medium": dict(limit=None, subset=True),
    "full": dict(limit=None, subset=False),
}


def sweep_workloads(scale: str = "small"):
    """The workload list for a scale."""
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; known: {', '.join(SCALES)}")
    if SCALES[scale]["subset"]:
        return [get_workload(name) for name in REPRESENTATIVE_WORKLOADS]
    return all_workloads()


def standard_sweep(
    scale: str = "small", *, prefetchers=PREFETCHER_ORDER, progress=None
) -> ComparisonResult:
    """Run the workloads × prefetchers sweep behind Figures 9–12."""
    workloads = sweep_workloads(scale)  # raises on an unknown scale
    return compare(
        workloads, prefetchers, limit=SCALES[scale]["limit"], progress=progress
    )


def context_speedups(
    baselines: ComparisonResult,
    configs: Iterable[ContextPrefetcherConfig],
    *,
    limit: int | None,
    hierarchy_config: HierarchyConfig | None = None,
) -> list[dict[str, float]]:
    """``{workload: speedup over its none cell in baselines}`` per config.

    The configs are the context-config axis of one plan over the
    baselines' workloads.
    """
    workloads = baselines.workloads()
    slices = run_grid(
        workloads,
        ("context",),
        context_configs=tuple(configs),
        hierarchy_config=hierarchy_config,
        limit=limit,
    )
    return [
        {
            name: part.get(name, "context").speedup_over(baselines.get(name, "none"))
            for name in workloads
        }
        for part in slices
    ]
