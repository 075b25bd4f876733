"""The serial oracle the sweep-parity suites compare against.

A direct ``Simulator`` loop over freshly built traces: no plan, no
batch protocol, no codec, no result DB.  Every sweep entry point runs
through that machinery, so a parity check whose reference side used it
too could not see a fault in it; this loop shares none of it.
"""

from typing import Iterable

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.sim.config import PREFETCHER_FACTORIES
from repro.sim.metrics import SimulationResult
from repro.sim.runner import ComparisonResult
from repro.sim.simulator import Simulator
from repro.workloads.suites import WorkloadSpec, get_workload
from repro.workloads.trace import TraceProgram

Workloads = Iterable["str | WorkloadSpec | TraceProgram"]


def _traces(workloads: Workloads):
    for workload in workloads:
        if isinstance(workload, str):
            workload = get_workload(workload)
        program = workload.build() if isinstance(workload, WorkloadSpec) else workload
        yield workload.name, program.trace()


def serial_compare(
    workloads: Workloads, prefetchers: Iterable[str], *, limit: int | None = None
) -> ComparisonResult:
    """What ``compare`` must return: every workload under every prefetcher."""
    prefetchers = tuple(prefetchers)
    out = ComparisonResult()
    for name, trace in _traces(workloads):
        out.results[name] = {
            pf: Simulator(PREFETCHER_FACTORIES[pf]()).run(
                trace, workload_name=name, limit=limit
            )
            for pf in prefetchers
        }
    return out


def serial_storage_sweep(
    workloads: Workloads, cst_sizes: Iterable[int], *, limit: int | None = None
) -> dict[int, dict[str, SimulationResult]]:
    """What ``storage_sweep`` must return under the default base config."""
    traces = list(_traces(workloads))
    base = ContextPrefetcherConfig()
    return {
        size: {
            name: Simulator(ContextPrefetcher(base.scaled(size))).run(
                trace, workload_name=name, limit=limit
            )
            for name, trace in traces
        }
        for size in cst_sizes
    }
