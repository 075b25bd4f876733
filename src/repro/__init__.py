"""repro — Semantic Locality and Context-based Prefetching (ISCA 2015).

A from-scratch Python reproduction of Peled, Mannor, Weiser & Etsion,
"Semantic Locality and Context-based Prefetching Using Reinforcement
Learning" (ISCA 2015): the context-based RL prefetcher, the baseline
prefetchers it is compared against, a trace-driven out-of-order timing
substrate standing in for gem5, workload models for the paper's benchmark
suites, and an experiment harness regenerating every evaluation figure.

Quickstart::

    from repro import run_workload

    result = run_workload("list", "context")
    baseline = run_workload("list", "none")
    print(f"speedup: {result.speedup_over(baseline):.2f}x")

Package map:

* :mod:`repro.core` — the context-based prefetcher (the contribution)
* :mod:`repro.prefetchers` — stride / GHB / SMS baselines
* :mod:`repro.memory` — caches, MSHRs, DRAM timing
* :mod:`repro.cpu` — branch history and the OoO interval model
* :mod:`repro.workloads` — benchmark models (Table 3)
* :mod:`repro.sim` — the simulator and sweep runner
* :mod:`repro.experiments` — one module per paper figure
"""

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.hints import RefForm, SemanticHints, TypeRegistry
from repro.memory.hierarchy import Hierarchy, HierarchyConfig
from repro.sim.config import PREFETCHER_FACTORIES, SystemConfig, make_prefetcher
from repro.sim.metrics import SimulationResult, geomean
from repro.sim.runner import ComparisonResult, compare, run_workload
from repro.sim.simulator import Simulator
from repro.workloads.suites import all_workloads, get_workload, workloads_in_suite

__version__ = "1.0.0"

__all__ = [
    "ComparisonResult",
    "ContextPrefetcher",
    "ContextPrefetcherConfig",
    "Hierarchy",
    "HierarchyConfig",
    "PREFETCHER_FACTORIES",
    "RefForm",
    "SemanticHints",
    "SimulationResult",
    "Simulator",
    "SystemConfig",
    "TypeRegistry",
    "all_workloads",
    "compare",
    "geomean",
    "get_workload",
    "make_prefetcher",
    "run_workload",
    "workloads_in_suite",
    "__version__",
]
