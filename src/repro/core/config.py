"""Configuration for the context-based prefetcher.

Defaults reproduce Table 2 of the paper: a 2K-entry × 4-link CST (18kB), a
16K-entry reducer (12kB), a 50-entry history queue, a 128-entry prefetch
queue — ~31kB of storage in total — plus the Section 4 learning knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.attributes import DEFAULT_ACTIVE, Attribute


@dataclass(slots=True)
class ContextPrefetcherConfig:
    # ------------------------------------------------------------------
    # table geometry (Table 2 / Figure 7)
    cst_entries: int = 2048
    cst_links: int = 4  # candidate (delta, score) pairs per entry
    cst_tag_bits: int = 8
    reducer_entries: int = 16384
    reducer_tag_bits: int = 2
    full_hash_bits: int = 16  # lower bits index reducer, upper bits tag
    reduced_hash_bits: int = 19  # lower bits index CST, upper bits tag
    history_entries: int = 50
    prefetch_queue_entries: int = 128

    # ------------------------------------------------------------------
    # address granularity (Sections 5 and 7.3)
    block_bytes: int = 32  # granularity the prefetcher tracks addresses at
    delta_granularity: int = 64  # bytes per stored delta unit (cache line)
    delta_bits: int = 8  # signed; ±127 lines ≈ ±8kB, per Section 5

    # ------------------------------------------------------------------
    # reward function (Section 4.3 / Figure 5)
    window_lo: int = 18  # accesses; start of the positive bell
    window_hi: int = 50  # accesses; end of the positive bell
    window_center: int = 30  # the average target prefetch distance
    reward_peak: int = 8
    late_penalty: int = -1  # hit closer than window_lo (prefetch too late)
    early_penalty: int = -2  # hit beyond window_hi or expired (too early)

    # ------------------------------------------------------------------
    # scores and replacement
    score_min: int = -128
    score_max: int = 127
    initial_score: int = 0
    #: a stored candidate is only replaced when its score is <= this
    replace_threshold: int = 0
    #: minimum score for a candidate to be eligible for a *real* prefetch;
    #: 0 lets unproven (fresh) candidates be tried, as Algorithm 1 pushes
    #: the max-score candidate unconditionally, while negatives stay out
    prefetch_score_threshold: int = 0

    # ------------------------------------------------------------------
    # collection (probabilistic history-queue sampling, Section 5)
    sample_depths: tuple[int, ...] = (18, 26, 34, 42, 50)

    # ------------------------------------------------------------------
    # exploration (ε-greedy with Tokic-style adaptation, Section 4.1)
    epsilon_min: float = 0.01
    epsilon_max: float = 0.20
    accuracy_ema_alpha: float = 0.01
    shadow_probability: float = 0.10  # extra shadow prefetch per prediction
    seed: int = 0x5EED

    # ------------------------------------------------------------------
    # throttling (Section 4.2)
    max_degree: int = 4
    #: accuracy thresholds mapping hit-rate EMA to prefetch degree 1..max
    degree_thresholds: tuple[float, ...] = (0.2, 0.45, 0.7)
    mshr_reserve: int = 1  # L1 MSHRs kept free for demand misses

    # ------------------------------------------------------------------
    # online feature selection (Section 4.4)
    initial_attributes: tuple[Attribute, ...] = field(
        default_factory=lambda: DEFAULT_ACTIVE
    )
    overload_refs: int = 8  # reducer entries per CST entry → activate
    overload_check_period: int = 4  # lookups between adaptation checks
    underload_lookups: int = 256  # lookups before underload may trigger
    adaptive_reduction: bool = True  # ablation switch: Reducer on/off

    # ------------------------------------------------------------------
    # ablation switches
    shadow_prefetches: bool = True
    adaptive_epsilon: bool = True
    fixed_epsilon: float = 0.05  # used when adaptive_epsilon is False
    reward_shape: str = "bell"  # or "flat" (ablation: no bell)

    # ------------------------------------------------------------------
    # extensions (the paper's future-work directions, Section 8)
    #: action selection: the paper's ε-greedy, or Boltzmann exploration
    #: ("policy improvement techniques in the spirit of policy search")
    policy: str = "egreedy"  # or "softmax"
    softmax_temperature: float = 4.0  # score units; anneals with accuracy
    #: recenter the reward bell on the observed hit-depth average instead
    #: of the fixed ~30-access workload mean ("the target prefetch
    #: distance varies for different workloads", Section 4.3)
    adaptive_window: bool = False
    window_update_period: int = 2048  # feedback events between updates
    window_center_bounds: tuple[int, int] = (12, 90)

    def __post_init__(self) -> None:
        # 0 passes the power-of-two tests (0 & -1 == 0); granules divide
        for name in ("cst_entries", "reducer_entries", "cst_links",
                     "block_bytes", "delta_granularity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.cst_entries & (self.cst_entries - 1):
            raise ValueError("cst_entries must be a power of two")
        if self.reducer_entries & (self.reducer_entries - 1):
            raise ValueError("reducer_entries must be a power of two")
        if self.window_lo >= self.window_hi:
            raise ValueError("reward window is empty")
        if not self.window_lo <= self.window_center <= self.window_hi:
            raise ValueError("window_center must lie inside the window")
        if self.prefetch_queue_entries < self.window_hi:
            raise ValueError(
                "prefetch queue must out-span the reward window "
                "(Section 5: the queue tracks too-early prefetches)"
            )
        if max(self.sample_depths) > self.history_entries:
            raise ValueError("sample depths exceed the history queue depth")
        if self.reward_shape not in ("bell", "flat"):
            raise ValueError(f"unknown reward shape {self.reward_shape!r}")
        if self.policy not in ("egreedy", "softmax"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax temperature must be positive")

    # ------------------------------------------------------------------

    @property
    def delta_max(self) -> int:
        """Largest storable positive delta, in delta-granularity units."""
        return (1 << (self.delta_bits - 1)) - 1

    @property
    def delta_min(self) -> int:
        return -(1 << (self.delta_bits - 1))

    def storage_bits(self) -> int:
        """Hardware budget of this configuration (Table 2 audit)."""
        link_bits = self.delta_bits + 8  # delta + score per link
        cst_entry_bits = self.cst_tag_bits + self.cst_links * link_bits
        cst_bits = self.cst_entries * cst_entry_bits
        reducer_bits = self.reducer_entries * (self.reducer_tag_bits + 8)
        history_bits = self.history_entries * self.reduced_hash_bits
        queue_bits = self.prefetch_queue_entries * (
            self.reduced_hash_bits + 48 + 8
        )  # context key + address + bookkeeping
        return cst_bits + reducer_bits + history_bits + queue_bits

    def scaled(self, cst_entries: int) -> "ContextPrefetcherConfig":
        """A copy with a different CST size and reducer at 8× (Figure 13)."""
        from dataclasses import replace

        return replace(
            self,
            cst_entries=cst_entries,
            reducer_entries=cst_entries * 8,
        )
