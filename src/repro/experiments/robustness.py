"""Seed robustness: are the headline speedups stable across randomness?

Two sources of randomness exist: the workload's (heap placement, keys,
graph structure) and the prefetcher's (ε-greedy exploration).  This
experiment re-runs a workload subset across several seeds of each and
reports the spread of the context prefetcher's speedup — evidence that
the reproduction's conclusions do not hinge on a lucky seed.

The prefetcher seeds are one plan over the context-config axis, divided
by one set of baseline cells; each workload seed is one ``compare`` of
the reseeded programs under both prefetchers.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from repro.core.config import ContextPrefetcherConfig
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES, context_speedups
from repro.sim.runner import compare
from repro.workloads.suites import get_workload

DEFAULT_WORKLOADS = ("list", "graph500-list", "array")
DEFAULT_SEEDS = (7, 11, 23, 41)


@dataclass
class SpeedupSpread:
    samples: list[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.samples) if len(self.samples) > 1 else 0.0

    @property
    def spread(self) -> float:
        return max(self.samples) - min(self.samples)

    @property
    def cv(self) -> float:
        """Coefficient of variation (stdev / mean)."""
        return self.stdev / self.mean if self.mean else 0.0


@dataclass
class RobustnessResult:
    #: workload -> spread over workload seeds (prefetcher seed fixed)
    workload_seed_spread: dict[str, SpeedupSpread]
    #: workload -> spread over prefetcher seeds (workload seed fixed)
    prefetcher_seed_spread: dict[str, SpeedupSpread]


def run(
    scale: str = "small",
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
) -> RobustnessResult:
    limit = SCALES[scale]["limit"]
    # every seed's programs carry the registry names, and one grid holds
    # one workload per name: a compare per workload seed
    workload_samples: dict[str, list[float]] = {name: [] for name in workloads}
    for seed in seeds:
        programs = {name: get_workload(name).build() for name in workloads}
        for program in programs.values():
            program.seed = seed
        speedups = compare(
            programs.values(), ("none", "context"), limit=limit
        ).speedups()
        for name, program in programs.items():
            workload_samples[name].append(speedups[program.name]["context"])
    by_prefetcher_seed = context_speedups(
        compare(workloads, ("none",), limit=limit),
        [replace(ContextPrefetcherConfig(), seed=seed) for seed in seeds],
        limit=limit,
    )
    return RobustnessResult(
        workload_seed_spread={
            name: SpeedupSpread(samples) for name, samples in workload_samples.items()
        },
        prefetcher_seed_spread={
            name: SpeedupSpread([per_wl[name] for per_wl in by_prefetcher_seed])
            for name in workloads
        },
    )


def render(result: RobustnessResult) -> str:
    rows = []
    for name, spread in result.workload_seed_spread.items():
        rows.append(
            ("workload-seed", name, f"{spread.mean:.2f}", f"{spread.stdev:.3f}", f"{spread.cv:.1%}")
        )
    for name, spread in result.prefetcher_seed_spread.items():
        rows.append(
            ("prefetcher-seed", name, f"{spread.mean:.2f}", f"{spread.stdev:.3f}", f"{spread.cv:.1%}")
        )
    return render_table(
        ("varied", "workload", "mean speedup", "stdev", "cv"),
        rows,
        title="Seed robustness — context prefetcher speedup spread",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
