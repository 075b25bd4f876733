"""Figure 8: cumulative distribution of prefetch hit depths.

The paper plots, per benchmark, the CDF of the number of demand accesses
between issuing a (real or shadow) prefetch and the demand hit, for the
context prefetcher, expecting the mass to step up inside the positive
range of the reward function (18–50 accesses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ContextPrefetcherConfig
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES, UKERNELS
from repro.sim.metrics import HitDepthCDF
from repro.sim.runner import compare


#: the "regular benchmarks" subset of the paper's bottom panel
REGULAR = ("lbm", "h264ref", "milc", "libquantum", "graph500-csr", "array")


@dataclass
class Figure8Result:
    #: workload -> hit-depth CDF for the context prefetcher
    cdfs: dict[str, HitDepthCDF]
    window: tuple[int, int]

    def summary_rows(self):
        lo, hi = self.window
        rows = []
        for name, cdf in self.cdfs.items():
            rows.append(
                (
                    name,
                    cdf.total,
                    f"{cdf.fraction_late(lo):.1%}",
                    f"{cdf.fraction_in_window(lo, hi):.1%}",
                    f"{cdf.fraction_early(hi):.1%}",
                )
            )
        return rows


def run(
    scale: str = "small",
    workloads: tuple[str, ...] = UKERNELS,
) -> Figure8Result:
    config = ContextPrefetcherConfig()
    comparison = compare(workloads, ("context",), limit=SCALES[scale]["limit"])
    cdfs = {
        name: comparison.get(name, "context").hit_depths
        for name in comparison.workloads()
    }
    return Figure8Result(cdfs=cdfs, window=(config.window_lo, config.window_hi))


def render(result: Figure8Result) -> str:
    lo, hi = result.window
    return render_table(
        ("workload", "hits", f"late (<{lo})", f"in window [{lo},{hi}]", f"early (>{hi})"),
        result.summary_rows(),
        title="Figure 8 — prefetch hit-depth distribution (context prefetcher)",
    )


def main() -> None:
    print(render(run()))
    print()
    print(render(run(workloads=REGULAR)))


if __name__ == "__main__":
    main()
