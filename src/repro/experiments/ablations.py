"""Ablation study over the context prefetcher's design choices.

DESIGN.md calls out five mechanisms worth isolating:

* the Reducer's online feature selection (vs full-context hashing)
* shadow prefetches (vs on-policy feedback only)
* the bell-shaped reward (vs a flat positive window)
* adaptive ε (vs a fixed exploration rate)
* history-queue sampling density (sparse vs dense collection)

Each variant runs the same workloads; the report shows mean speedup over
the no-prefetch baseline per variant.  The prefetcher variants are one
plan over the context-config axis; the hierarchy variants are one plan
each, and every variant divides by the same baseline cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import ContextPrefetcherConfig
from repro.experiments.report import render_table
from repro.experiments.sweep import SCALES, context_speedups
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.metrics import geomean
from repro.sim.runner import compare

#: irregular-leaning subset where the learning machinery matters most
DEFAULT_WORKLOADS = ("list", "hashtest", "graph500-list", "mcf", "array")


def variant_configs() -> dict[str, ContextPrefetcherConfig]:
    """The ablation grid, keyed by report label."""
    base = ContextPrefetcherConfig()
    return {
        "full": base,
        "no-reducer": replace(base, adaptive_reduction=False),
        "no-shadow": replace(base, shadow_prefetches=False, shadow_probability=0.0),
        "flat-reward": replace(base, reward_shape="flat"),
        "fixed-epsilon": replace(base, adaptive_epsilon=False),
        "sparse-sampling": replace(base, sample_depths=(18, 34, 50)),
        "dense-sampling": replace(
            base, sample_depths=(18, 22, 26, 30, 34, 38, 42, 46, 50)
        ),
        # future-work extensions (Section 8)
        "softmax-policy": replace(base, policy="softmax"),
        "adaptive-window": replace(base, adaptive_window=True),
        "wide-delta": replace(base, delta_bits=12),
    }


def hierarchy_variants() -> dict[str, HierarchyConfig]:
    """Ablations of memory-system choices (same prefetcher config)."""
    return {
        "l2-only-fill": HierarchyConfig(prefetch_fill_l1=False),
    }


@dataclass
class AblationResult:
    #: variant -> workload -> speedup over no prefetching
    speedups: dict[str, dict[str, float]]
    #: variant -> geometric mean speedup
    means: dict[str, float]


def run(
    scale: str = "small", workloads: tuple[str, ...] = DEFAULT_WORKLOADS
) -> AblationResult:
    limit = SCALES[scale]["limit"]
    baselines = compare(workloads, ("none",), limit=limit)
    configs = variant_configs()
    speedups = dict(
        zip(configs, context_speedups(baselines, configs.values(), limit=limit))
    )
    for label, hierarchy in hierarchy_variants().items():
        (speedups[label],) = context_speedups(
            baselines, [configs["full"]], limit=limit, hierarchy_config=hierarchy
        )
    means = {
        label: geomean(list(per_wl.values())) for label, per_wl in speedups.items()
    }
    return AblationResult(speedups=speedups, means=means)


def render(result: AblationResult) -> str:
    workloads = list(next(iter(result.speedups.values())))
    rows = []
    for label, per_wl in result.speedups.items():
        rows.append(
            (label,)
            + tuple(f"{per_wl[wl]:.2f}" for wl in workloads)
            + (f"{result.means[label]:.2f}",)
        )
    return render_table(
        ("variant",) + tuple(workloads) + ("geomean",),
        rows,
        title="Ablations — speedup over no prefetching per design variant",
    )


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()
