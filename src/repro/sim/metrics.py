"""Result containers and derived metrics for simulation runs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from repro.memory.stats import AccessClass, AccessClassifier, CacheStats


def geomean(values: list[float]) -> float:
    """Geometric mean (the conventional speedup aggregate).

    The logs are summed with :func:`math.fsum`, which is correctly
    rounded: the builtin ``sum()`` of floats changed its rounding in
    Python 3.12, and reports must not depend on the interpreter.
    """
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs strictly positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


@dataclass
class HitDepthCDF:
    """Cumulative distribution of prefetch hit depths (Figure 8)."""

    histogram: Counter[int] = field(default_factory=Counter)

    def add(self, depth: int, count: int = 1) -> None:
        if depth < 0:
            raise ValueError("depth cannot be negative")
        self.histogram[depth] += count

    @property
    def total(self) -> int:
        return sum(self.histogram.values())

    def cdf(self, max_depth: int = 128) -> list[tuple[int, float]]:
        """(depth, cumulative fraction) pairs for depths 0..max_depth."""
        total = self.total
        if total == 0:
            return [(d, 0.0) for d in range(max_depth + 1)]
        out = []
        running = 0
        for depth in range(max_depth + 1):
            running += self.histogram.get(depth, 0)
            out.append((depth, running / total))
        return out

    def fraction_in_window(self, lo: int, hi: int) -> float:
        """Fraction of hits whose depth lies in [lo, hi] (timely hits)."""
        total = self.total
        if total == 0:
            return 0.0
        inside = sum(c for d, c in self.histogram.items() if lo <= d <= hi)
        return inside / total

    def fraction_late(self, lo: int) -> float:
        """Fraction of hits at depths below ``lo`` (issued too late)."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(c for d, c in self.histogram.items() if d < lo) / total

    def fraction_early(self, hi: int) -> float:
        """Fraction of hits at depths above ``hi`` (issued too early)."""
        total = self.total
        if total == 0:
            return 0.0
        return sum(c for d, c in self.histogram.items() if d > hi) / total


@dataclass
class SimulationResult:
    """Everything one (workload, prefetcher) run produces."""

    workload: str
    prefetcher: str
    instructions: int
    cycles: int
    l1: CacheStats
    l2: CacheStats
    classifier: AccessClassifier
    hit_depths: HitDepthCDF
    prefetches_issued: int = 0
    prefetches_shadow: int = 0
    prefetches_rejected: int = 0
    prefetches_redundant: int = 0
    prefetcher_accuracy: float = 0.0
    storage_bits: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def l1_mpki(self) -> float:
        return self.l1.mpki(self.instructions)

    @property
    def l2_mpki(self) -> float:
        return self.l2.mpki(self.instructions)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """IPC speedup of this run over ``baseline`` (Figure 12 metric)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def class_fraction(self, cls: AccessClass) -> float:
        return self.classifier.fractions()[cls]

    def summary(self) -> str:
        return (
            f"{self.workload}/{self.prefetcher}: "
            f"IPC={self.ipc:.3f} L1-MPKI={self.l1_mpki:.1f} "
            f"L2-MPKI={self.l2_mpki:.1f} "
            f"useful={self.classifier.useful_fraction():.1%}"
        )
