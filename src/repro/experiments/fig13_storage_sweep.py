"""Figure 13: overall speedup as a function of CST storage size.

The paper scales the CST entry count (reducer at 8×) and finds that more
storage is *not* monotonically better: the "All benchmarks" mean peaks
around 64–128kB and the Top-10 mean around 256kB, then both flatten or
dip — because a larger action space slows the bandit's convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ContextPrefetcherConfig
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES, REPRESENTATIVE_WORKLOADS, context_speedups
from repro.sim.runner import compare

#: CST entry counts swept (paper's x axis is total storage)
DEFAULT_SIZES = (256, 512, 1024, 2048, 4096, 8192)


@dataclass
class Figure13Result:
    #: CST entries -> storage KiB of the whole prefetcher
    storage_kib: dict[int, float]
    #: CST entries -> geometric-ish mean speedup over all workloads
    mean_all: dict[int, float]
    #: CST entries -> mean speedup over the top-10 benefiting workloads
    mean_top10: dict[int, float]

    def best_size_all(self) -> int:
        return max(self.mean_all, key=self.mean_all.get)

    def best_size_top10(self) -> int:
        return max(self.mean_top10, key=self.mean_top10.get)


def run(
    scale: str = "small",
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    workloads: tuple[str, ...] = REPRESENTATIVE_WORKLOADS,
) -> Figure13Result:
    limit = SCALES[scale]["limit"]
    baselines = compare(workloads, ("none",), limit=limit)
    configs = [ContextPrefetcherConfig().scaled(size) for size in sizes]
    swept = context_speedups(baselines, configs, limit=limit)

    mean_all: dict[int, float] = {}
    mean_top10: dict[int, float] = {}
    storage_kib: dict[int, float] = {}
    for size, config, speedups in zip(sizes, configs, swept):
        values = sorted(speedups.values(), reverse=True)
        top = values[: min(10, len(values))]
        mean_all[size] = sum(values) / len(values)
        mean_top10[size] = sum(top) / len(top)
        storage_kib[size] = config.storage_bits() / 8 / 1024
    return Figure13Result(
        storage_kib=storage_kib, mean_all=mean_all, mean_top10=mean_top10
    )


def render(result: Figure13Result) -> str:
    rows = [
        (
            size,
            f"{result.storage_kib[size]:.0f}",
            f"{result.mean_top10[size]:.2f}",
            f"{result.mean_all[size]:.2f}",
        )
        for size in result.mean_all
    ]
    table = render_table(
        ("CST entries", "storage KiB", "Top10 speedup", "All speedup"),
        rows,
        title="Figure 13 — speedup vs prefetcher storage size",
    )
    summary = (
        f"\nbest size (All): {result.best_size_all()} entries; "
        f"best size (Top10): {result.best_size_top10()} entries"
        f"\n(paper: All peaks at 64-128kB, Top10 at ~256kB)"
    )
    return table + summary


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
