"""Differential fuzz: the native kernel against the interpreted oracle.

Each case derives a deterministic seed from its own case label (never
from the wall clock or global RNG state — rule ``DET``), generates a
synthetic trace plus a random hierarchy/core/prefetcher configuration,
runs the same inputs through the interpreted reference loop and the
compiled batch kernel, and requires field-for-field equality of the
resulting :class:`~repro.sim.metrics.SimulationResult`.

The tier-1 run covers ``NUM_FAST_CASES`` small cases (seconds); the
``--runslow`` tier re-runs the generator over many more, longer traces.
Cases are *not* minimized to kernel-eligible configs: some deliberately
exceed the native request caps — including over-cap RL context degrees —
so the documented fallback path is fuzzed alongside the kernel itself.
The context family draws randomized CST/reducer/window/bandit geometry,
so the C port of the RL loop (MT19937 included) is differentially fuzzed
against the interpreted oracle, not just replayed at the default config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.prefetchers.markov import MarkovConfig, MarkovPrefetcher
from repro.prefetchers.nopf import NoPrefetcher
from repro.prefetchers.sms import SMSConfig, SMSPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.sim import native as native_pkg
from repro.sim.simulator import Simulator
from repro.workloads.trace import MemoryAccess

NUM_FAST_CASES = 200
NUM_SLOW_CASES = 600

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (numpy/cffi/toolchain)",
)


def _seed_for(label: str) -> int:
    """Config-derived seed: stable across runs, machines and processes."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _fuzz_trace(rng: random.Random, length: int, line: int) -> list[MemoryAccess]:
    """A synthetic access stream mixing the locality shapes the families
    key on: unit/strided streams, region-local scatter, repeated miss
    sequences (Markov food) and dependent pointer chases."""
    pcs = [0x400000 + 4 * rng.randrange(64) for _ in range(rng.randrange(4, 16))]
    regions = [rng.randrange(1 << 34) * line for _ in range(rng.randrange(2, 8))]
    trace: list[MemoryAccess] = []
    addr = rng.choice(regions)
    while len(trace) < length:
        shape = rng.randrange(5)
        seg = rng.randrange(4, 24)
        if shape == 0:  # unit-stride stream
            stride = line
        elif shape == 1:  # fixed non-unit stride, sometimes negative
            stride = rng.choice((-3, -1, 2, 3, 5)) * line + rng.choice((0, 8))
        else:
            stride = 0
        if shape == 3:  # replay: revisit a region start (Markov training)
            addr = rng.choice(regions)
        for _ in range(seg):
            if len(trace) >= length:
                break
            if shape == 2:  # region-local scatter (SMS patterns)
                addr = rng.choice(regions) + rng.randrange(32) * line
            elif shape == 4:  # pointer chase: wild jump, dependent
                addr = rng.randrange(1 << 40)
            else:
                addr = (addr + stride) % (1 << 42)
            trace.append(
                MemoryAccess(
                    addr=addr,
                    pc=rng.choice(pcs),
                    is_load=rng.random() < 0.9,
                    inst_gap=rng.randrange(13),
                    depends_on_prev=(shape == 4 and rng.random() < 0.8),
                )
            )
    return trace


def _fuzz_hierarchy(rng: random.Random, line: int) -> HierarchyConfig:
    return HierarchyConfig(
        l1_size=rng.choice((4, 16, 64)) * 1024,
        l1_ways=rng.choice((1, 2, 4, 8)),
        l1_latency=rng.choice((1, 2, 4)),
        l1_mshrs=rng.choice((1, 2, 4, 8)),
        l2_size=rng.choice((16, 64, 256)) * 1024,
        l2_ways=rng.choice((4, 8, 16)),
        l2_latency=rng.choice((10, 20)),
        l2_mshrs=rng.choice((2, 8, 20)),
        dram_latency=rng.choice((80, 150, 300)),
        dram_service_interval=rng.choice((1, 4, 9)),
        line_bytes=line,
        prefetch_buffers=rng.choice((1, 2, 8, 16)),
        prefetch_mshr_reserve=rng.choice((0, 1, 2)),
        prefetch_backlog_depth=rng.choice((1, 4, 32)),
        prefetch_fill_l1=rng.random() < 0.8,
    )


def _fuzz_core(rng: random.Random) -> CoreConfig:
    return CoreConfig(
        issue_width=rng.choice((1, 2, 4, 8)),
        rob_size=rng.choice((16, 64, 192)),
        lq_size=rng.choice((4, 16, 32)),
    )


def _fuzz_prefetcher(rng: random.Random, line: int):
    family = rng.randrange(7)
    # an over-cap degree (> 64 requests) must fall back, not diverge
    degree = 100 if rng.random() < 0.05 else rng.randrange(1, 9)
    if family == 0:
        return NoPrefetcher()
    if family == 1:
        return StridePrefetcher(
            StrideConfig(
                table_entries=rng.choice((16, 64, 512)),
                degree=degree,
                line_bytes=line,
                train_on_miss_only=rng.random() < 0.8,
            )
        )
    if family in (2, 3):
        return GHBPrefetcher(
            GHBConfig(
                ghb_entries=rng.choice((64, 256, 2048)),
                index_entries=rng.choice((16, 256)),
                match_length=rng.choice((2, 3, 4)),
                degree=degree,
                max_walk=rng.choice((8, 64)),
                localization="global" if family == 2 else "pc",
                line_bytes=line,
                train_on_miss_only=rng.random() < 0.8,
            )
        )
    if family == 4:
        return SMSPrefetcher(
            SMSConfig(
                region_bytes=rng.choice((4, 16, 32)) * line,
                line_bytes=line,
                filter_entries=rng.choice((4, 32)),
                agt_entries=rng.choice((4, 32)),
                pht_entries=rng.choice((64, 2048)),
                generation_timeout=rng.choice((32, 512)),
            )
        )
    if family == 5:
        return MarkovPrefetcher(
            MarkovConfig(
                table_entries=rng.choice((64, 2048)),
                successors_per_entry=rng.choice((1, 2, 4)),
                degree=degree,
                line_bytes=line,
                train_on_miss_only=rng.random() < 0.8,
            )
        )
    return _fuzz_context(rng, degree)


def _fuzz_context(rng: random.Random, degree: int):
    """A randomized RL context prefetcher.

    Geometry is drawn to satisfy the config invariants (power-of-two
    tables, queue out-spanning the reward window, depths inside the
    history); the over-cap ``degree`` passed in by the family dispatcher
    still forces the documented native fallback on ~5% of cases.  The
    adaptive-window ablation keeps the default (known recenter-safe)
    window geometry so both kernels stay on the represented path.

    Two shapes are drawn last, so every earlier draw is unchanged:
    non-power-of-two block and delta granularities (the kernel divides
    where a power of two lets it shift), and a saturating queue — no
    longer than the reward window, eight predictions per access — whose
    pushes append to live buckets and whose FIFO evicts unhit heads.
    """
    from repro.core.config import ContextPrefetcherConfig
    from repro.core.prefetcher import ContextPrefetcher

    adaptive_window = rng.random() < 0.25
    if adaptive_window:
        lo, hi, center = 18, 50, 30
    else:
        lo = rng.randrange(2, 30)
        hi = lo + rng.randrange(4, 40)
        center = rng.randrange(lo, hi + 1)
    history = rng.choice((20, 50, 80))
    depths = tuple(sorted(rng.sample(range(1, history + 1), rng.randrange(2, 6))))
    cfg = ContextPrefetcherConfig(
        cst_entries=rng.choice((256, 1024, 2048)),
        cst_links=rng.choice((2, 4, 8)),
        cst_tag_bits=rng.choice((6, 8, 10)),
        reducer_entries=rng.choice((1024, 4096, 16384)),
        reducer_tag_bits=rng.choice((2, 4)),
        history_entries=history,
        prefetch_queue_entries=max(rng.choice((64, 128, 256)), hi),
        window_lo=lo,
        window_hi=hi,
        window_center=center,
        reward_peak=rng.choice((2, 4, 8, 16)),
        sample_depths=depths,
        epsilon_min=rng.choice((0.005, 0.01, 0.05)),
        epsilon_max=rng.choice((0.1, 0.2, 0.3)),
        accuracy_ema_alpha=rng.choice((0.005, 0.01, 0.05)),
        shadow_probability=rng.choice((0.0, 0.1, 0.3)),
        seed=rng.randrange(1 << 48),
        max_degree=degree,
        adaptive_reduction=rng.random() < 0.7,
        shadow_prefetches=rng.random() < 0.8,
        adaptive_epsilon=rng.random() < 0.7,
        fixed_epsilon=rng.choice((0.02, 0.05, 0.1)),
        reward_shape="flat" if rng.random() < 0.3 else "bell",
        policy="softmax" if rng.random() < 0.3 else "egreedy",
        softmax_temperature=rng.choice((1.0, 4.0, 8.0)),
        adaptive_window=adaptive_window,
        window_update_period=rng.choice((512, 2048)),
    )
    shape = rng.random()
    if shape < 0.15:
        cfg = dataclasses.replace(
            cfg,
            block_bytes=rng.choice((24, 48)),
            delta_granularity=rng.choice((96, 192)),
        )
    elif shape < 0.3 and not adaptive_window:
        # (a recentered window could then overrun the short queue)
        cfg = dataclasses.replace(
            cfg, prefetch_queue_entries=cfg.window_hi, max_degree=8
        )
    return ContextPrefetcher(cfg)


def _saturating(pf) -> bool:
    """The saturating-queue shape :func:`_fuzz_context` draws."""
    from repro.core.prefetcher import ContextPrefetcher

    if not isinstance(pf, ContextPrefetcher):
        return False
    cfg = pf.config
    return cfg.prefetch_queue_entries == cfg.window_hi and cfg.max_degree == 8


def _run_case(
    label: str, length_range: tuple[int, int], *, saturation_check: bool = False
) -> None:
    """One differential case; ``saturation_check`` also requires a native
    saturating-queue run to have hit and expired queue entries (a short
    fast-tier trace may never train the CST past its score threshold, so
    only the extended tier's traces carry that claim)."""
    rng = random.Random(_seed_for(label))
    line = rng.choice((32, 64, 64, 64, 128))
    trace = _fuzz_trace(rng, rng.randrange(*length_range), line)
    hier = _fuzz_hierarchy(rng, line)
    core = _fuzz_core(rng)

    limit = rng.randrange(50, len(trace) + 100) if rng.random() < 0.3 else None
    n_effective = len(trace) if limit is None else min(limit, len(trace))
    warmup = rng.randrange(1, n_effective) if rng.random() < 0.25 else 0
    start_index = rng.choice((0, 1, 1000)) if rng.random() < 0.2 else 0

    results = []
    for native in (False, True):
        # fresh prefetcher per mode from the same sub-seed, so learned
        # state never crosses the differential boundary
        pf = _fuzz_prefetcher(random.Random(_seed_for(label + "/pf")), line)
        sim = Simulator(
            pf, hierarchy_config=hier, core_config=core, native=native
        )
        results.append(
            sim.run(
                trace,
                workload_name=label,
                limit=limit,
                start_index=start_index,
                warmup=warmup,
            )
        )
        if native and not sim.last_run_native:
            # a fallback is legal, but it must say why — the sweep
            # summary aggregates exactly these strings
            assert sim.last_native_fallback, f"{label}: silent fallback"
        if saturation_check and native and sim.last_run_native and _saturating(pf):
            # the saturating shape reaches the queue's edge cases: pushes
            # that append to a live bucket and evictions of unhit heads
            from repro.sim.native.adapter import context_unit_counters

            counters = context_unit_counters(pf)
            assert counters["queue_hits"] > 0, label
            assert counters["queue_expirations"] > 0, label
    interpreted, native_result = results
    assert native_result == interpreted, (
        f"{label}: native kernel diverged from the interpreted oracle\n"
        f"config: hier={hier} core={core} limit={limit} "
        f"warmup={warmup} start_index={start_index}"
    )


@pytest.mark.parametrize("case", range(NUM_FAST_CASES))
def test_native_differential_fuzz(case: int) -> None:
    _run_case(f"native-fuzz/fast/{case}", (120, 500))


@pytest.mark.slow
@pytest.mark.parametrize("case", range(NUM_SLOW_CASES))
def test_native_differential_fuzz_extended(case: int) -> None:
    _run_case(f"native-fuzz/slow/{case}", (800, 4000), saturation_check=True)


# ----------------------------------------------------------------------
# context rows from configs: the batch path reads a context cell's kernel
# row off its config, the single-cell path off the live components


def _edge_configs():
    """Configs that reach each config-level refusal, or sit just beside it."""
    from repro.core.config import ContextPrefetcherConfig

    base = ContextPrefetcherConfig()
    return [
        base,
        dataclasses.replace(base, reward_peak=1),  # degenerate bell: refused
        dataclasses.replace(base, reward_peak=1, reward_shape="flat"),
        dataclasses.replace(base, max_degree=62),
        dataclasses.replace(base, max_degree=63),  # over the request buffer
        dataclasses.replace(base, cst_links=(1 << 31) + 1),
        dataclasses.replace(base, adaptive_window=True, window_center_bounds=(12, 200)),
        dataclasses.replace(base, adaptive_window=True),
        dataclasses.replace(base, adaptive_reduction=False),
        dataclasses.replace(base, sample_depths=(50, 18, 18, 26)),
        dataclasses.replace(base, initial_attributes=()),
        dataclasses.replace(base, seed=-(1 << 70)),
    ]


def test_context_row_equals_live_row() -> None:
    """``context_row(cfg)`` is ``_ctx_config_values(ContextPrefetcher(cfg))``
    over the fuzz suite's context space, refusal reasons included."""
    from repro.core.prefetcher import ContextPrefetcher
    from repro.sim.native.adapter import _ctx_config_values, context_row

    configs = _edge_configs()
    for case in range(NUM_FAST_CASES):
        rng = random.Random(_seed_for(f"native-fuzz/context-row/{case}"))
        degree = 100 if rng.random() < 0.05 else rng.randrange(1, 9)
        configs.append(_fuzz_context(rng, degree).config)
    reasons = set()
    for cfg in configs:
        want = _ctx_config_values(ContextPrefetcher(cfg))
        assert context_row(cfg) == want, cfg
        reasons.add(want[1])
    # every config-level refusal is exercised
    assert len(reasons - {None}) == 4, reasons


def test_context_row_raises_what_the_components_raise() -> None:
    """A config ``ContextPrefetcher(cfg)`` rejects raises the same
    exception, with the same message, from ``context_row``."""
    from repro.core.config import ContextPrefetcherConfig
    from repro.core.prefetcher import ContextPrefetcher
    from repro.sim.native.adapter import context_row

    base = ContextPrefetcherConfig()
    rejected = [
        dataclasses.replace(base, sample_depths=(0, 18)),
        dataclasses.replace(base, reward_peak=0),
        dataclasses.replace(base, late_penalty=0),
        dataclasses.replace(base, early_penalty=1, sample_depths=(0,)),
        dataclasses.replace(base, reducer_tag_bits=-1, sample_depths=(0,)),
        dataclasses.replace(base, delta_bits=0, reward_peak=0),
    ]
    # the config checks its own invariants at construction only
    for field, value in (
        ("history_entries", 0),
        ("prefetch_queue_entries", 0),
        ("window_center", 99),
        ("window_lo", 60),
    ):
        cfg = dataclasses.replace(base)
        setattr(cfg, field, value)
        rejected.append(cfg)
    for cfg in rejected:
        with pytest.raises(Exception) as want:
            ContextPrefetcher(cfg)
        with pytest.raises(type(want.value)) as got:
            context_row(cfg)
        assert type(got.value) is type(want.value), cfg
        assert str(got.value) == str(want.value), cfg
