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
Separate cases draw only table families, each with at least one size
that is not a power of two, which the kernel divides by where a power of
two lets it shift or mask; SMS cases of their own draw PCs above 2**33,
where the PHT index's product ``pc * 0x9E3779B1`` passes 2**64; another
test runs each table family over runs whose indices restart below the
last run's, one holds an SMS region of more than 64 lines to its
fallback, and one holds the prediction windows to the oracle across
their generation rolls.  The last cases hold the context kernel's trace
program to the oracle: a warm rerun over another trace, more sample
depths than one mask word holds, reducer entries whose bits adapt, and a
reward window that recenters, under the bell and the flat reward.
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
#: table-family cases with sizes that are not powers of two, per tier
NUM_FAST_ODD_CASES = 60
NUM_SLOW_ODD_CASES = 180
#: SMS cases whose PCs reach above 2**33, per tier
NUM_FAST_WIDE_PC_CASES = 40
NUM_SLOW_WIDE_PC_CASES = 120

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (cffi/toolchain)",
)


def _seed_for(label: str) -> int:
    """Config-derived seed: stable across runs, machines and processes."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _fuzz_trace(
    rng: random.Random, length: int, line: int, *, wide_pcs: bool = False
) -> list[MemoryAccess]:
    """A synthetic access stream mixing the locality shapes the families
    key on: unit/strided streams, region-local scatter, repeated miss
    sequences (Markov food) and dependent pointer chases.  ``wide_pcs``
    lifts about half the PCs above 2**33 (drawn after the PCs, so every
    other stream's draws are unchanged)."""
    pcs = [0x400000 + 4 * rng.randrange(64) for _ in range(rng.randrange(4, 16))]
    if wide_pcs:
        pcs = [
            pc + (rng.randrange(1, 1 << 30) << 34) if rng.random() < 0.5 else pc
            for pc in pcs
        ]
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


#: prefetcher line sizes that are not powers of two
ODD_LINES = (24, 48, 96)

#: each table family's sizes that are not powers of two; SMS's region is
#: drawn in lines (whole lines, at most 64 of them)
ODD_SIZES = {
    StridePrefetcher: {"table_entries": (12, 100, 500), "line_bytes": ODD_LINES},
    GHBPrefetcher: {"ghb_entries": (20, 100, 1000), "line_bytes": ODD_LINES},
    SMSPrefetcher: {
        "line_bytes": ODD_LINES,
        "pht_entries": (100, 1000, 2047),
        "region_lines": (3, 12, 24, 40),
    },
    MarkovPrefetcher: {"line_bytes": ODD_LINES},
}


def _fuzz_odd_table(rng: random.Random, line: int):
    """A table family drawn as :func:`_fuzz_prefetcher` draws it, with at
    least one of its sizes replaced by one that is not a power of two, so
    the kernel's divisions run where its shifts and masks otherwise do."""
    pf = _fuzz_prefetcher(rng, line)
    while type(pf) not in ODD_SIZES:
        pf = _fuzz_prefetcher(rng, line)
    choices = ODD_SIZES[type(pf)]
    names = [name for name in choices if rng.random() < 0.5]
    names = names or [rng.choice(sorted(choices))]
    odd = {name: rng.choice(choices[name]) for name in names}
    cfg = pf.config
    if isinstance(pf, SMSPrefetcher):
        lines = odd.pop("region_lines", cfg.region_bytes // cfg.line_bytes)
        odd["region_bytes"] = lines * odd.get("line_bytes", cfg.line_bytes)
    return type(pf)(dataclasses.replace(cfg, **odd))


def _fuzz_wide_pc_sms(rng: random.Random, line: int):
    """An SMS prefetcher drawn as :func:`_fuzz_prefetcher` draws it, with
    a PHT size that is not a power of two: the index then takes the
    kernel's 128-bit path, which the wide PCs wrap past 64 bits."""
    cfg = SMSConfig(
        region_bytes=rng.choice((4, 16, 32)) * line,
        line_bytes=line,
        filter_entries=rng.choice((4, 32)),
        agt_entries=rng.choice((4, 32)),
        pht_entries=rng.choice((100, 1000, 2047)),
        generation_timeout=rng.choice((32, 512)),
    )
    return SMSPrefetcher(cfg)


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
    label: str,
    length_range: tuple[int, int],
    *,
    saturation_check: bool = False,
    draw_prefetcher=_fuzz_prefetcher,
    wide_pcs: bool = False,
) -> None:
    """One differential case; ``saturation_check`` also requires a native
    saturating-queue run to have hit and expired queue entries (a short
    fast-tier trace may never train the CST past its score threshold, so
    only the extended tier's traces carry that claim)."""
    rng = random.Random(_seed_for(label))
    line = rng.choice((32, 64, 64, 64, 128))
    trace = _fuzz_trace(rng, rng.randrange(*length_range), line, wide_pcs=wide_pcs)
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
        pf = draw_prefetcher(random.Random(_seed_for(label + "/pf")), line)
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


@pytest.mark.parametrize("case", range(NUM_FAST_ODD_CASES))
def test_native_differential_fuzz_odd_sizes(case: int) -> None:
    _run_case(f"native-fuzz/odd/{case}", (120, 500), draw_prefetcher=_fuzz_odd_table)


@pytest.mark.slow
@pytest.mark.parametrize("case", range(NUM_SLOW_ODD_CASES))
def test_native_differential_fuzz_odd_sizes_extended(case: int) -> None:
    _run_case(
        f"native-fuzz/odd-slow/{case}", (800, 4000), draw_prefetcher=_fuzz_odd_table
    )


@pytest.mark.parametrize("case", range(NUM_FAST_WIDE_PC_CASES))
def test_native_differential_fuzz_wide_pcs(case: int) -> None:
    _run_case(
        f"native-fuzz/wide-pc/{case}",
        (120, 500),
        draw_prefetcher=_fuzz_wide_pc_sms,
        wide_pcs=True,
    )


@pytest.mark.slow
@pytest.mark.parametrize("case", range(NUM_SLOW_WIDE_PC_CASES))
def test_native_differential_fuzz_wide_pcs_extended(case: int) -> None:
    _run_case(
        f"native-fuzz/wide-pc-slow/{case}",
        (800, 4000),
        draw_prefetcher=_fuzz_wide_pc_sms,
        wide_pcs=True,
    )


# ----------------------------------------------------------------------
# rewound indices: a run may start its indices below the last run's, so
# a table kept in touch order is in index order only while indices rise

#: each table family, at its default geometry and at one whose sizes are
#: not powers of two (the odd SMS's short timeout ends generations while
#: a rewound run touches others: a stale generation behind a fresh one)
REWOUND_CASES = {
    "stride": (
        StridePrefetcher,
        StrideConfig(),
        StrideConfig(table_entries=100, line_bytes=48),
    ),
    "ghb-gdc": (GHBPrefetcher, GHBConfig(), GHBConfig(ghb_entries=100, line_bytes=48)),
    "ghb-pcdc": (
        GHBPrefetcher,
        GHBConfig(localization="pc"),
        GHBConfig(ghb_entries=1000, line_bytes=48, localization="pc"),
    ),
    "sms": (
        SMSPrefetcher,
        SMSConfig(),
        SMSConfig(
            region_bytes=24 * 48,
            line_bytes=48,
            pht_entries=1000,
            generation_timeout=128,
        ),
    ),
    "markov": (MarkovPrefetcher, MarkovConfig(), MarkovConfig(line_bytes=48)),
}


@pytest.fixture(scope="module")
def mcf_6000():
    from repro.workloads.suites import get_workload

    return get_workload("mcf").build().trace()[:6000]


@pytest.mark.parametrize("geometry", ["default", "odd"])
@pytest.mark.parametrize("family", sorted(REWOUND_CASES))
def test_rewound_indices_match_the_oracle(family, geometry, mcf_6000) -> None:
    """One simulator runs ``[0, 3000)``, then ``[3000, 6000)`` from index
    0 again, then ``[0, 2000)`` from index 5000; after every run the
    kernel's text is the oracle's."""
    from repro.sim.codec import encode_text

    make, default, odd = REWOUND_CASES[family]
    cfg = odd if geometry == "odd" else default
    sims = [Simulator(make(cfg), native=native) for native in (False, True)]
    for lo, hi, start_index in ((0, 3000, 0), (3000, 6000, 0), (0, 2000, 5000)):
        oracle, native = (
            encode_text(
                sim.run(mcf_6000[lo:hi], workload_name=family, start_index=start_index)
            )
            for sim in sims
        )
        assert sims[1].last_run_native, sims[1].last_native_fallback
        assert native == oracle, (family, geometry, lo, hi, start_index)


# ----------------------------------------------------------------------
# context rows: every native run takes its row from the config, through
# ``context_row``; a sweep's parent records a slot's refusal up front


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


def _single_cell(cfg, trace, *, native: bool):
    """``(payload text or the exception raised, ran natively, fallback
    reason)`` of one ``Simulator(ContextPrefetcher(cfg))`` run."""
    from repro.core.prefetcher import ContextPrefetcher
    from repro.sim.codec import encode_text

    sim = Simulator(ContextPrefetcher(cfg), native=native)
    try:
        text = encode_text(sim.run(trace, workload_name="context-row"))
    except Exception as exc:  # the oracle's own mid-run raise, met alike
        text = f"{type(exc).__name__}: {exc}"
    return text, sim.last_run_native, sim.last_native_fallback


def test_refusal_parity_through_the_entry_points() -> None:
    """A single-cell native run refuses exactly what ``context_rows``
    records for the config's slot, and runs natively when it records
    nothing; either way its text is the oracle's.  Over the fuzz suite's
    context space and every config-level refusal."""
    from repro.sim.native.adapter import context_rows

    configs = _edge_configs()
    for case in range(NUM_FAST_CASES):
        rng = random.Random(_seed_for(f"native-fuzz/context-row/{case}"))
        degree = 100 if rng.random() < 0.05 else rng.randrange(1, 9)
        configs.append(_fuzz_context(rng, degree).config)
    trace = _fuzz_trace(random.Random(_seed_for("native-fuzz/refusals")), 200, 64)
    reasons = set()
    for cfg in configs:
        refusal = context_rows((cfg,)).refused.get(0)
        text, ran_native, reason = _single_cell(cfg, trace, native=True)
        assert (ran_native, reason) == (refusal is None, refusal), cfg
        assert text == _single_cell(cfg, trace, native=False)[0], cfg
        reasons.add(refusal)
    # every config-level refusal is exercised
    assert len(reasons - {None}) == 4, reasons


@pytest.mark.parametrize("seed", [1.5, "abc"])
def test_a_seed_that_is_not_an_int_runs_on_the_oracle(seed) -> None:
    """``random.Random`` seeds a float by its hash and a string by its
    SHA-512, not by |seed| as the kernel's key does: such a config has
    no row, and its run is the oracle's."""
    from repro.core.config import ContextPrefetcherConfig
    from repro.sim.native.adapter import context_rows
    from repro.workloads.suites import get_workload

    cfg = ContextPrefetcherConfig(seed=seed)
    trace = get_workload("list").build().trace()[:3000]
    text, ran_native, reason = _single_cell(cfg, trace, native=True)
    assert not ran_native
    assert reason == "the bandit seed is not an int"
    assert text == _single_cell(cfg, trace, native=False)[0]
    assert context_rows((cfg,)).refused == {0: reason}


def test_a_seed_of_none_only_falls_back() -> None:
    from repro.core.config import ContextPrefetcherConfig
    from repro.sim.native.adapter import context_rows

    cfg = ContextPrefetcherConfig(seed=None)
    trace = _fuzz_trace(random.Random(_seed_for("native-fuzz/seed-none")), 200, 64)
    text, ran_native, reason = _single_cell(cfg, trace, native=True)
    assert text.startswith("{")
    assert (ran_native, reason) == (False, "the bandit seed is not an int")
    assert context_rows((cfg,)).refused == {0: reason}


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
    # the config checks its own invariants at construction only, so
    # these (frozen) configs are made by going round that check
    for field, value in (
        ("history_entries", 0),
        ("prefetch_queue_entries", 0),
        ("window_center", 99),
        ("window_lo", 60),
    ):
        cfg = dataclasses.replace(base)
        object.__setattr__(cfg, field, value)
        rejected.append(cfg)
    for cfg in rejected:
        with pytest.raises(Exception) as want:
            ContextPrefetcher(cfg)
        with pytest.raises(type(want.value)) as got:
            context_row(cfg)
        assert type(got.value) is type(want.value), cfg
        assert str(got.value) == str(want.value), cfg


# ----------------------------------------------------------------------
# SMS regions that end in a partial line: the partial line has a pattern
# bit of its own, so a region of 64 whole lines and a partial one has 65


def _partial_line_trace(rng: random.Random, region: int, length: int) -> list:
    """Regions triggered from a few PCs at a low line, each then touching
    its last ``region % 48`` bytes (the partial line) and a few lines,
    so trained patterns that hold the partial line's bit replay."""
    pcs = [0x400000 + 4 * k for k in range(4)]
    trace: list[MemoryAccess] = []
    while len(trace) < length:
        base = rng.randrange(1 << 30) * region
        pc = rng.choice(pcs)
        offsets = [48 * rng.randrange(1, 4), region - 1 - rng.randrange(region % 48)]
        offsets += [48 * rng.randrange(64) for _ in range(rng.randrange(3))]
        for offset in offsets:
            trace.append(
                MemoryAccess(
                    addr=base + offset, pc=pc, is_load=True, inst_gap=rng.randrange(8)
                )
            )
    return trace[:length]


def test_a_region_past_64_lines_runs_on_the_oracle() -> None:
    """64 whole 48-byte lines and 24 bytes more: the kernel's one-word
    pattern has no bit for the 65th line, so the config is refused with
    a reason (it used to run, and its text differed from the oracle's),
    while 64 whole lines still run in the kernel.  So is a region larger
    than the modelled address space, whose requests could pass the
    kernel's bound on a cache line."""
    from repro.sim.codec import encode_text

    trace = _partial_line_trace(
        random.Random(_seed_for("native-fuzz/sms-partial-line")), 64 * 48 + 24, 3000
    )
    for region, line, native_ok in (
        (64 * 48 + 24, 48, False),
        (64 * 48, 48, True),
        (1 << 49, 1 << 44, False),
    ):
        cfg = SMSConfig(region_bytes=region, line_bytes=line)
        texts = []
        for native in (False, True):
            sim = Simulator(SMSPrefetcher(cfg), native=native)
            texts.append(encode_text(sim.run(trace, workload_name="sms-partial")))
        assert sim.last_run_native is native_ok, region
        if not native_ok:
            assert sim.last_native_fallback == (
                "the sms config exceeds the kernel's fixed buffers"
            )
        assert texts[1] == texts[0], region


# ----------------------------------------------------------------------
# prediction windows: the kernel keeps each window (256 accesses for the
# hierarchy's unissued predictions, 128 for the hit depths) as two
# generations, a window long each, in place of a dict and an expiry log


def _window_trace(rng: random.Random, length: int) -> list[MemoryAccess]:
    """Rounds of three phases: a nine-line loop whose stride PC predicts
    (and, the lines being resident, notes as unissued) every line again
    and again, demand-hitting each within a few accesses; a quiet phase
    of strideless accesses that predict nothing, so no window rolls; and
    eight conflicting lines per loop set, each from a PC of its own, that
    evict the loop so its next round misses on lines noted before."""
    base = 1 << 20
    trace: list[MemoryAccess] = []
    while len(trace) < length:
        for _ in range(rng.randrange(3, 12)):
            trace += [
                MemoryAccess(addr=(base + j) * 64, pc=0x400100, inst_gap=2)
                for j in range(9)
            ]
        trace += [
            MemoryAccess(
                addr=rng.randrange(1 << 30) * 64,
                pc=0x400200 + 4 * rng.randrange(4),
                inst_gap=2,
            )
            for _ in range(rng.randrange(300))
        ]
        trace += [
            MemoryAccess(addr=(base + j + 64 * w) * 64, pc=0x500000 + 4 * w, inst_gap=2)
            for j in range(9)
            for w in range(1, 9)
        ]
    return trace[:length]


def test_prediction_windows_across_generation_rolls() -> None:
    """One run in which, across rolls of both windows, a predicted line
    is demand-hit (popped from the hit-depth window) and predicted again
    within 128 accesses, and a resident line's unissued prediction is
    noted again and again and then read by a miss.  The kernel's text is
    the oracle's only if a read tries the current generation first and
    a fresh entry leaves the older generation as it moves forward: a
    copy left behind there outlives the pop and dates the next
    prediction from the old one.  A kernel that reads the older
    generation first, or copies instead of moving, fails this case."""
    from repro.sim.codec import encode_text

    trace = _window_trace(random.Random(3), 4000)
    cfg = StrideConfig(train_on_miss_only=False)
    sims = [Simulator(StridePrefetcher(cfg), native=native) for native in (False, True)]
    oracle, native = (encode_text(sim.run(trace, workload_name="windows")) for sim in sims)
    assert sims[1].last_run_native, sims[1].last_native_fallback
    assert native == oracle


# ---------------------------------------------------------------------------
# The context kernel's trace program (``ctx_trace_build``): the keys, the
# address-history fold and the in-range sample positions of every access,
# built once per run, or once per shard and capture geometry in the batch
# driver.  These cases draw under labels of their own, so no case above
# moves; each fails on a kernel that gets one part of the program wrong.


def _paired_runs(cfg, runs):
    """``runs`` — ``(trace, warmup)`` pairs — in turn on one interpreted
    and one native simulator of ``cfg``, each warm from the runs before:
    every result must agree, and so must the learning units' counters
    after the last run (CST associations, reducer allocations and
    adaptations, queue feedback).  Returns the native run's prefetcher."""
    from repro.core.prefetcher import ContextPrefetcher
    from repro.sim.profile import _unit_counters

    results, counters = {}, {}
    for native in (False, True):
        pf = ContextPrefetcher(cfg)
        sim = Simulator(pf, native=native)
        results[native] = []
        for trace, warmup in runs:
            results[native].append(
                sim.run(trace, workload_name="trace-program", warmup=warmup)
            )
            if native:
                assert sim.last_run_native, sim.last_native_fallback
        units = _unit_counters(sim, results[native][-1], native_ran=native)
        counters[native] = {u: units[u] for u in ("feedback", "collection", "reduction")}
    assert results[True] == results[False]
    assert counters[True] == counters[False]
    return pf


def _kernel_counters(pf) -> dict:
    from repro.sim.native.adapter import context_unit_counters

    return context_unit_counters(pf)


def _drift_trace(rng: random.Random, length: int, line: int) -> list[MemoryAccess]:
    """A slow drift through 4,096 lines, mostly forward: the delta to
    each of the last 100 accesses is usually within the default 8-bit
    delta bounds, so deep sample positions train the CST too."""
    base = rng.randrange(1 << 30) * line
    pcs = [0x400000 + 4 * k for k in range(12)]
    trace: list[MemoryAccess] = []
    pos = 0
    for k in range(length):
        pos = (pos + rng.choice((1, 1, 1, 0, -1, 2))) % 4096
        trace.append(
            MemoryAccess(
                addr=base + pos * line,
                pc=pcs[k % len(pcs)] if rng.random() < 0.8 else rng.choice(pcs),
                is_load=rng.random() < 0.9,
                inst_gap=rng.randrange(6),
            )
        )
    return trace


def _cycle_trace(rng: random.Random, length: int, line: int) -> list[MemoryAccess]:
    """A short pattern of accesses, with their branch outcomes, repeated
    with a little noise: contexts recur, so reducer entries are looked up
    again and adapt, and what one run learns the next one uses."""
    base = rng.randrange(1 << 30) * line
    pattern = [
        (
            base + rng.randrange(256) * line,
            0x400000 + 4 * rng.randrange(6),
            tuple(rng.random() < 0.5 for _ in range(rng.randrange(3))),
        )
        for _ in range(rng.randrange(12, 24))
    ]
    trace: list[MemoryAccess] = []
    while len(trace) < length:
        for addr, pc, branches in pattern:
            if rng.random() < 0.05:
                addr += rng.randrange(1, 64) * line
            trace.append(
                MemoryAccess(
                    addr=addr, pc=pc, inst_gap=rng.randrange(4), branches=branches
                )
            )
    return trace[:length]


def _registry_trace(name: str, length: int) -> list:
    from repro.workloads.suites import get_workload

    return get_workload(name).build().trace()[:length]


@pytest.mark.parametrize("warmup", [0, 500])
def test_a_warm_rerun_over_another_trace_matches_the_oracle(warmup) -> None:
    # each run's program starts from the runs before: their branch
    # history (in the reduced keys here), recent blocks and history ring;
    # and it restarts the last loaded value where a warmup's second run
    # begins.  The cycle's second half reuses what its first half learnt.
    from repro.core.attributes import Attribute
    from repro.core.config import ContextPrefetcherConfig

    rng = random.Random(_seed_for(f"trace-program/rerun/{warmup}"))
    cfg = ContextPrefetcherConfig(
        initial_attributes=(Attribute.IP, Attribute.BRANCH_HISTORY),
        seed=rng.randrange(1 << 32),
    )
    cycle = _cycle_trace(rng, 3000, 64)
    runs = [(_registry_trace("mcf", 2000), 0), (cycle[:1500], 0), (cycle[1500:], warmup)]
    _paired_runs(cfg, runs)


def test_more_sample_depths_than_one_mask_word() -> None:
    from repro.core.config import ContextPrefetcherConfig

    rng = random.Random(_seed_for("trace-program/depths"))
    cfg = ContextPrefetcherConfig(
        history_entries=100,
        sample_depths=tuple(range(1, 101)),
        seed=rng.randrange(1 << 32),
    )
    pf = _paired_runs(cfg, [(_drift_trace(rng, 3000, 64), 0)])
    assert _kernel_counters(pf)["associations_added"] > 0


def test_reducer_adaptation_past_the_initial_bits() -> None:
    # overload_refs=1 adapts entries at once: their keys need bits the
    # program does not hold, and the lanes are rebuilt from the record
    from repro.core.config import ContextPrefetcherConfig

    rng = random.Random(_seed_for("trace-program/adapt"))
    cfg = ContextPrefetcherConfig(overload_refs=1, seed=rng.randrange(1 << 32))
    pf = _paired_runs(cfg, [(_cycle_trace(rng, 6000, 64), 0)])
    assert _kernel_counters(pf)["reducer_activations"] > 0


@pytest.mark.parametrize("shape", ["bell", "flat"])
def test_a_recentered_reward_window_matches_the_oracle(shape) -> None:
    # the reward table is rebuilt whenever the window moves
    from repro.core.config import ContextPrefetcherConfig

    rng = random.Random(_seed_for(f"trace-program/recenter/{shape}"))
    cfg = ContextPrefetcherConfig(
        adaptive_window=True,
        window_update_period=8,
        reward_shape=shape,
        seed=rng.randrange(1 << 32),
    )
    pf = _paired_runs(cfg, [(_registry_trace("array", 6000), 0)])
    assert _kernel_counters(pf)["window_updates"] > 0
