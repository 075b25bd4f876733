"""Parameter-sensitivity study for the context prefetcher.

Beyond the design-choice ablations, this sweeps the continuous knobs the
paper fixes by construction, showing how robust the headline result is:

* reward-window position (late / paper default / early bells)
* CST links per entry (the action-space width)
* prefetch-queue depth (how long feedback waits)
* maximum prefetch degree
* exploration ceiling ε_max

Each variant reports the geometric-mean speedup over the no-prefetch
baseline on an irregular-leaning workload subset.  Every setting is one
slot of a single plan's context-config axis; the paper-default setting
each knob repeats is one config, so its cells run once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import ContextPrefetcherConfig
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES, context_speedups
from repro.sim.metrics import geomean
from repro.sim.runner import compare

DEFAULT_WORKLOADS = ("list", "graph500-list", "array")


def parameter_grid() -> dict[str, dict[str, ContextPrefetcherConfig]]:
    """Knob -> {setting label: config}."""
    base = ContextPrefetcherConfig()
    return {
        "window": {
            "early(10-30)": replace(
                base,
                window_lo=10,
                window_hi=30,
                window_center=18,
                sample_depths=(10, 15, 20, 25, 30),
            ),
            "paper(18-50)": base,
            "late(30-90)": replace(
                base,
                window_lo=30,
                window_hi=90,
                window_center=50,
                sample_depths=(30, 45, 60, 75, 90),
                history_entries=90,
            ),
        },
        "cst_links": {
            "2": replace(base, cst_links=2),
            "4": base,
            "8": replace(base, cst_links=8),
        },
        "queue_depth": {
            "64": replace(base, prefetch_queue_entries=64),
            "128": base,
            "256": replace(base, prefetch_queue_entries=256),
        },
        "max_degree": {
            "1": replace(base, max_degree=1),
            "4": base,
            "8": replace(base, max_degree=8),
        },
        "epsilon_max": {
            "0.05": replace(base, epsilon_max=0.05),
            "0.20": base,
            "0.50": replace(base, epsilon_max=0.5),
        },
    }


@dataclass
class SensitivityResult:
    #: knob -> setting label -> geomean speedup over no prefetching
    grid: dict[str, dict[str, float]]
    workloads: tuple[str, ...]

    def best_setting(self, knob: str) -> str:
        settings = self.grid[knob]
        return max(settings, key=settings.get)


def run(
    scale: str = "small", workloads: tuple[str, ...] = DEFAULT_WORKLOADS
) -> SensitivityResult:
    limit = SCALES[scale]["limit"]
    settings = [
        (knob, label, config)
        for knob, by_label in parameter_grid().items()
        for label, config in by_label.items()
    ]
    speedups = context_speedups(
        compare(workloads, ("none",), limit=limit),
        [config for _, _, config in settings],
        limit=limit,
    )
    grid: dict[str, dict[str, float]] = {}
    for (knob, label, _), per_wl in zip(settings, speedups):
        grid.setdefault(knob, {})[label] = geomean(list(per_wl.values()))
    return SensitivityResult(grid=grid, workloads=workloads)


def render(result: SensitivityResult) -> str:
    rows = []
    for knob, settings in result.grid.items():
        best = result.best_setting(knob)
        for label, speedup in settings.items():
            marker = " <-- best" if label == best else ""
            rows.append((knob, label, f"{speedup:.2f}{marker}"))
    return render_table(
        ("knob", "setting", "geomean speedup"),
        rows,
        title=(
            "Parameter sensitivity — context prefetcher over "
            + ", ".join(result.workloads)
        ),
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
