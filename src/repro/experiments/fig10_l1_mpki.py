"""Figure 10: L1 misses per kilo-instruction per prefetcher.

The paper shows the memory-intensive benchmarks (L1 MPKI > 5 without
prefetching) plus the average over all benchmarks, with the context
prefetcher consistently lowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.report import render_table
from repro.experiments.sweep import standard_sweep
from repro.sim.runner import ComparisonResult


@dataclass
class MPKIResult:
    level: str
    #: workload -> prefetcher -> MPKI (filtered to memory-intensive ones)
    table: dict[str, dict[str, float]]
    #: prefetcher -> arithmetic-mean MPKI over *all* swept workloads
    average: dict[str, float]
    threshold: float


def _run_level(
    level: str,
    threshold: float,
    scale: str,
    comparison: ComparisonResult | None,
) -> MPKIResult:
    comparison = comparison or standard_sweep(scale)
    full = comparison.mpki(level)
    prefetchers = comparison.prefetchers()
    table = {
        wl: row for wl, row in full.items() if row.get("none", 0.0) > threshold
    }
    # fsum: correctly rounded on every Python (see metrics.geomean)
    average = {
        pf: math.fsum(full[wl][pf] for wl in full) / len(full)
        for pf in prefetchers
    }
    return MPKIResult(level=level, table=table, average=average, threshold=threshold)


def run(
    scale: str = "small", comparison: ComparisonResult | None = None
) -> MPKIResult:
    # Figure 10 shows benchmarks with (L1) MPKI > 5
    return _run_level("l1", 5.0, scale, comparison)


def render(result: MPKIResult, *, figure: str = "Figure 10") -> str:
    prefetchers = list(result.average)
    rows = [
        (wl,) + tuple(f"{result.table[wl][pf]:.1f}" for pf in prefetchers)
        for wl in result.table
    ]
    rows.append(
        ("AVERAGE (all)",) + tuple(f"{result.average[pf]:.1f}" for pf in prefetchers)
    )
    return render_table(
        ("workload",) + tuple(prefetchers),
        rows,
        title=(
            f"{figure} — {result.level.upper()} MPKI "
            f"(workloads with baseline MPKI > {result.threshold:g})"
        ),
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
