"""Bridge between :class:`~repro.sim.simulator.Simulator` and the C kernel.

One native run is the phase pipeline the package docstring describes:
:func:`phase_decode` extracts the columns, :func:`phase_kernel` drives the
compiled state machine (including warmup orchestration), and
:func:`phase_finalize` folds the kernel's output block into the exact
:class:`~repro.sim.metrics.SimulationResult` the interpreted path builds.
A sweep shard runs as :func:`phase_batch_kernel` instead, and
:func:`phase_render` writes each cell's payload text from the block
without building that result.  The phases are module-level functions
on purpose: ``repro profile`` attributes time to them by name.

State ownership: once a simulator or prefetcher has run natively, its
native handle — not the untouched Python object — is the authoritative
state.  The registries below remember that.  A run that cannot stay
native (unsupported config, a decode failure) *before* any handle exists
falls back to the interpreted path; the same failure on an object that
already carries native state raises, because silently resuming from the
stale Python state would diverge.  Batch cells never get handles: the
batch kernel owns their state (:func:`run_native_batch`), so a cell that
degrades leaves its config, or its untouched Python prefetcher, free to
run elsewhere.
"""

from __future__ import annotations

import itertools
import logging
from weakref import WeakKeyDictionary

from repro.core.attributes import ALL_ATTRIBUTES, AttributeSet
from repro.core.bandit import EpsilonGreedyPolicy, SoftmaxPolicy
from repro.core.config import ContextPrefetcherConfig
from repro.core.context import ContextTracker
from repro.core.prefetcher import ContextPrefetcher
from repro.core.reward import FlatRewardFunction, RewardFunction
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.stats import AccessClass, AccessClassifier, CacheStats
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.markov import MarkovPrefetcher
from repro.prefetchers.nopf import NoPrefetcher
from repro.prefetchers.sms import SMSPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.codec import render_text
from repro.sim.metrics import HitDepthCDF, SimulationResult
from repro.sim.native import decode
from repro.sim.native._csrc import (
    CTX_COUNTER_SLOTS,
    OUT_SLOTS,
    UNIT_NAMES,
    UNIT_SLOTS,
)
from repro.sim.native.build import kernel_or_none

log = logging.getLogger(__name__)

#: the kernel's fixed per-access request buffer (MAX_REQS in the C source)
MAX_REQUESTS = 64

#: the ``CacheStats`` names of the two cache levels a result reports
_LEVELS = ("L1D", "L2")

#: kernel prefetcher kinds (PF_* in the C source), keyed by *exact* type —
#: a subclass may override behaviour the port does not model
_PF_NONE, _PF_STRIDE, _PF_GHB, _PF_SMS, _PF_MARKOV, _PF_CONTEXT = range(6)
_PF_KINDS = {
    NoPrefetcher: _PF_NONE,
    StridePrefetcher: _PF_STRIDE,
    GHBPrefetcher: _PF_GHB,
    SMSPrefetcher: _PF_SMS,
    MarkovPrefetcher: _PF_MARKOV,
    ContextPrefetcher: _PF_CONTEXT,
}

#: Simulator -> RpSim handle and Prefetcher -> RpPf handle.  Weak keys:
#: a handle frees (``ffi.gc``) when its owner is collected — exactly the
#: lifetime of the Python-side state it replaces.  Only this module's
#: functions touch these, and every process builds its own handles, so
#: the registries never cross the spawn boundary.
_SIM_STATES: "WeakKeyDictionary" = WeakKeyDictionary()
_PF_STATES: "WeakKeyDictionary" = WeakKeyDictionary()

#: simulators whose native runs skipped the branch-history fold: the
#: kernel only replays branch outcomes for the context family (the one
#: consumer), so a simulator that ran native with any other family has a
#: stale BHR a later context run must not silently adopt
_SIM_BRANCH_BLIND: "WeakKeyDictionary" = WeakKeyDictionary()

#: TraceReader -> {(limit, line_bytes, with_context): Columns}.  Every
#: kernel input column is ``const`` in the C source, so decoded columns
#: are immutable and safe to replay across runs.  Warm sweep workers
#: keep their readers resident batch over batch, which makes this memo
#: the piece that amortises decode to once per (trace, shape) instead of
#: once per cell; weak keys free the arrays with the reader.
_READER_COLUMNS: "WeakKeyDictionary" = WeakKeyDictionary()


def reset_state_registries() -> None:
    """Drop every native handle (test isolation helper)."""
    _SIM_STATES.clear()
    _PF_STATES.clear()
    _SIM_BRANCH_BLIND.clear()
    _READER_COLUMNS.clear()


# ----------------------------------------------------------------------
# eligibility


def _pf_kind(pf) -> int | None:
    return _PF_KINDS.get(type(pf))


def _pf_config_values(pf, kind: int) -> list[int] | None:
    """The kernel's config array for ``pf``, or None when it cannot fit."""
    if kind == _PF_NONE:
        return [0]
    c = pf.config
    if kind == _PF_STRIDE:
        if c.degree > MAX_REQUESTS:
            return None
        return [
            c.table_entries,
            c.degree,
            c.line_bytes,
            1 if c.train_on_miss_only else 0,
        ]
    if kind == _PF_GHB:
        if c.degree > MAX_REQUESTS:
            return None
        return [
            c.ghb_entries,
            c.index_entries,
            c.match_length,
            c.degree,
            c.max_walk,
            1 if c.localization == "pc" else 0,
            c.line_bytes,
            1 if c.train_on_miss_only else 0,
        ]
    if kind == _PF_SMS:
        # the pattern bitmap is one u64 and a replay fans out at most
        # lines_per_region - 1 requests; both bound by MAX_REQUESTS
        if c.lines_per_region > MAX_REQUESTS:
            return None
        return [
            c.region_bytes,
            c.line_bytes,
            c.filter_entries,
            c.agt_entries,
            c.pht_entries,
            c.generation_timeout,
        ]
    if c.degree > MAX_REQUESTS:  # markov
        return None
    return [
        c.table_entries,
        c.successors_per_entry,
        c.degree,
        c.line_bytes,
        1 if c.train_on_miss_only else 0,
    ]


def _seed_key(seed: int) -> list[int]:
    """CPython ``random.Random(seed)`` key: |seed| as little-endian u32
    words (``random_seed`` feeds exactly this array to ``init_by_array``;
    zero seeds as the one-word key ``[0]``)."""
    v = abs(int(seed))
    words = []
    while v:
        words.append(v & 0xFFFFFFFF)
        v >>= 32
    return words or [0]


def _recenter_geometry_ok(cfg) -> bool:
    """True when every reachable recentered reward window is valid.

    The adaptive-window extension rebuilds the reward function around any
    integer center inside ``window_center_bounds``; the interpreted
    oracle raises from ``RewardFunction.__post_init__`` the moment a
    slide produces an empty window, and the kernel cannot reproduce an
    exception mid-run, so such configs stay interpreted.
    """
    half_lo = cfg.window_center - cfg.window_lo
    half_hi = cfg.window_hi - cfg.window_center
    lo_b, hi_b = cfg.window_center_bounds
    for center in range(min(lo_b, hi_b), max(lo_b, hi_b) + 1):
        hi = min(center + half_hi, cfg.prefetch_queue_entries)
        lo = max(1, center - half_lo)
        cen = min(center, hi)
        if lo >= hi or not lo <= cen <= hi:
            return False
    return True


def _ctx_row(
    cfg,
    *,
    flat: bool,
    softmax: bool,
    score_threshold,
    max_degree,
    alloc_bits: int,
    initial_count: int,
    adapt,
    shadow_on,
    adaptive_eps,
    adaptive_window,
    window_update_period,
    addr_history_depth,
    sample_depths,
    degree_thresholds,
    eps_min,
    eps_range,
    fixed_eps,
    alpha,
    shadow_p,
):
    """The context kernel's row, or ``(None, reason)``: the one place
    the layout ``rp_run_batch`` and ``rp_pf_ctx_new`` unpack is written.

    The keyword arguments are the knobs the interpreted hot path reads
    off its components; :func:`_ctx_config_values` passes the live
    components' values and :func:`context_row` the config's.
    """
    if not flat and cfg.reward_peak == 1:
        return None, "degenerate bell reward (peak == 1) raises at call time"
    if max_degree + 2 > MAX_REQUESTS:
        return None, "max_degree exceeds the kernel's request buffer"
    if cfg.cst_links > (1 << 31):
        return None, "cst_links exceeds the single-word getrandbits range"
    if cfg.adaptive_window and not _recenter_geometry_ok(cfg):
        return None, "a reachable recentered reward window is invalid"
    sample_depths = [int(d) for d in sample_depths]
    thresholds = [float(t) for t in degree_thresholds]
    lo_bound, hi_bound = cfg.window_center_bounds
    icfg = [
        cfg.cst_entries,
        cfg.cst_links,
        cfg.cst_tag_bits,
        cfg.reducer_entries,
        cfg.reducer_tag_bits,
        cfg.full_hash_bits,
        cfg.reduced_hash_bits,
        cfg.history_entries,
        cfg.prefetch_queue_entries,
        cfg.block_bytes,
        cfg.delta_granularity,
        cfg.delta_min,
        cfg.delta_max,
        cfg.window_lo,
        cfg.window_hi,
        cfg.window_center,
        cfg.reward_peak,
        cfg.late_penalty,
        cfg.early_penalty,
        cfg.score_min,
        cfg.score_max,
        cfg.initial_score,
        cfg.replace_threshold,
        score_threshold,
        max_degree,
        alloc_bits,
        initial_count,
        cfg.overload_refs,
        cfg.overload_check_period,
        cfg.underload_lookups,
        1 if adapt else 0,
        1 if shadow_on else 0,
        1 if adaptive_eps else 0,
        1 if flat else 0,
        1 if softmax else 0,
        1 if adaptive_window else 0,
        window_update_period,
        lo_bound,
        hi_bound,
        addr_history_depth,
        len(sample_depths),
        len(thresholds),
        *sample_depths,
    ]
    dcfg = [
        eps_min,
        float(eps_range),
        fixed_eps,
        alpha,
        shadow_p,
        cfg.softmax_temperature,
        *thresholds,
    ]
    return (icfg, dcfg, _seed_key(cfg.seed)), None


def _ctx_config_values(pf):
    """``((icfg, dcfg, seed_key), None)`` for the context kernel, or
    ``(None, reason)`` when the config cannot be represented exactly.

    The knobs are marshalled from the *live* component objects (policy,
    reducer, tracker) — the same flattened attributes the interpreted
    hot path reads — so a hand-mutated component disagrees loudly in the
    parity suites instead of silently reading stale config fields.
    """
    policy = pf.policy
    reward = pf.reward
    if type(policy) not in (EpsilonGreedyPolicy, SoftmaxPolicy):
        return None, "the policy subclass has no native port"
    if type(reward) not in (RewardFunction, FlatRewardFunction):
        return None, "the reward subclass has no native port"
    return _ctx_row(
        pf.config,
        flat=type(reward) is FlatRewardFunction,
        softmax=type(policy) is SoftmaxPolicy,
        score_threshold=policy._score_threshold,
        max_degree=policy._max_degree,
        alloc_bits=pf._r_alloc_active.bits,
        initial_count=len(pf.reducer._initial),
        adapt=pf._adapt_enabled,
        shadow_on=policy._shadow_on,
        adaptive_eps=policy._adaptive_eps,
        adaptive_window=pf._adaptive_window,
        window_update_period=pf._window_update_period,
        addr_history_depth=pf._addr_history_depth,
        sample_depths=pf._sample_depths,
        degree_thresholds=policy._degree_thresholds,
        eps_min=policy._eps_min,
        eps_range=policy._eps_range,
        fixed_eps=policy._fixed_eps,
        alpha=policy._alpha,
        shadow_p=policy._shadow_p,
    )


#: the reducer's allocation set when adaptive reduction is off
_ALL_ATTRIBUTE_BITS = AttributeSet(ALL_ATTRIBUTES).bits

#: the address-history depth every ``ContextPrefetcher`` builds its
#: tracker with (``ContextTracker``'s keyword default)
_ADDR_HISTORY_DEPTH = ContextTracker.__init__.__kwdefaults__["addr_history_depth"]


def context_row(cfg):
    """``_ctx_config_values(ContextPrefetcher(cfg))``, from ``cfg`` alone.

    A config yields the exact base policy and reward types, so only the
    config-level refusals apply.  What ``ContextPrefetcher(cfg)``'s
    components reject raises here too: the same exception, the same
    message, in the order they construct (reducer and CST masks, the
    history queue, the prefetch queue, the reward window).
    """
    # Reducer and ContextStatesTable build their masks as 1 << width
    # (the CST's delta bounds too), so a negative width raises there
    if min(cfg.reducer_tag_bits, cfg.full_hash_bits, cfg.reduced_hash_bits) < 0:
        raise ValueError("negative shift count")
    initial = AttributeSet(cfg.initial_attributes)
    if cfg.cst_tag_bits < 0 or cfg.delta_bits < 1:
        raise ValueError("negative shift count")
    # HistoryQueue
    if cfg.history_entries < 1:
        raise ValueError("history queue needs capacity >= 1")
    bad = [d for d in cfg.sample_depths if d < 1 or d > cfg.history_entries]
    if bad:
        raise ValueError(f"sample depths out of range: {bad}")
    # PrefetchQueue
    if cfg.prefetch_queue_entries < 1:
        raise ValueError("prefetch queue needs capacity >= 1")
    # RewardFunction.__post_init__, on the configured window
    if cfg.window_lo >= cfg.window_hi:
        raise ValueError("empty reward window")
    if not cfg.window_lo <= cfg.window_center <= cfg.window_hi:
        raise ValueError("center outside window")
    if cfg.reward_peak < 1:
        raise ValueError("peak must be positive")
    if cfg.late_penalty >= 0 or cfg.early_penalty >= 0:
        raise ValueError("edge penalties must be negative")
    return _ctx_row(
        cfg,
        flat=cfg.reward_shape == "flat",
        softmax=cfg.policy == "softmax",
        score_threshold=cfg.prefetch_score_threshold,
        max_degree=cfg.max_degree,
        alloc_bits=initial.bits if cfg.adaptive_reduction else _ALL_ATTRIBUTE_BITS,
        initial_count=len(initial),
        adapt=cfg.adaptive_reduction,
        shadow_on=cfg.shadow_prefetches,
        adaptive_eps=cfg.adaptive_epsilon,
        adaptive_window=cfg.adaptive_window,
        window_update_period=cfg.window_update_period,
        addr_history_depth=_ADDR_HISTORY_DEPTH,
        sample_depths=sorted(set(cfg.sample_depths)),
        degree_thresholds=cfg.degree_thresholds,
        eps_min=cfg.epsilon_min,
        eps_range=cfg.epsilon_max - cfg.epsilon_min,
        fixed_eps=cfg.fixed_epsilon,
        alpha=cfg.accuracy_ema_alpha,
        shadow_p=cfg.shadow_probability,
    )


def _hier_config_values(hier) -> list[int]:
    return _hier_values(hier.config)


def _hier_values(c) -> list[int]:
    return [
        c.l1_size,
        c.l1_ways,
        c.l1_latency,
        c.l1_mshrs,
        c.l2_size,
        c.l2_ways,
        c.l2_latency,
        c.l2_mshrs,
        c.dram_latency,
        c.dram_service_interval,
        c.line_bytes,
        c.prefetch_buffers,
        c.prefetch_mshr_reserve,
        c.prefetch_backlog_depth,
        1 if c.prefetch_fill_l1 else 0,
    ]


def _sim_pristine(sim) -> bool:
    return (
        sim._cycle_base == 0
        and sim.hierarchy.is_pristine()
        and sim.core.is_pristine()
        and sim.bhr._value == 0
    )


def _handles(sim, pf, kind: int, kernel, ctx_cfg=None):
    """The (RpSim, RpPf) handle pair for this run, creating as needed.

    Returns ``(None, None)`` when the pair cannot be assembled without
    mixing native and interpreted state *and* no native state exists yet
    (clean fallback); raises when one side already carries native state.
    """
    ffi, lib = kernel.ffi, kernel.lib
    sim_h = _SIM_STATES.get(sim)
    pf_h = _PF_STATES.get(pf)
    if sim_h is None and not _sim_pristine(sim):
        if pf_h is not None:
            raise RuntimeError(
                "prefetcher carries native state but the simulator already "
                "ran interpreted; mixed native/interpreted runs are "
                "unsupported"
            )
        return None, None
    if pf_h is None and not pf.is_pristine():
        if sim_h is not None:
            raise RuntimeError(
                "simulator carries native state but the prefetcher already "
                "ran interpreted; mixed native/interpreted runs are "
                "unsupported"
            )
        return None, None
    if sim_h is None:
        hier_cfg = ffi.new("int64_t[]", _hier_config_values(sim.hierarchy))
        core_cfg = ffi.new(
            "int64_t[]",
            [
                sim.core.config.issue_width,
                sim.core.config.rob_size,
                sim.core.config.lq_size,
                sim.bhr._mask,
            ],
        )
        ptr = lib.rp_sim_new(hier_cfg, core_cfg)
        if ptr == ffi.NULL:
            raise MemoryError("native simulator state allocation failed")
        sim_h = ffi.gc(ptr, lib.rp_sim_free)
        _SIM_STATES[sim] = sim_h
    if pf_h is None:
        if kind == _PF_CONTEXT:
            icfg, dcfg, key = ctx_cfg
            p_icfg = ffi.new("int64_t[]", icfg)
            p_dcfg = ffi.new("double[]", dcfg)
            p_key = ffi.new("uint32_t[]", key)
            ptr = lib.rp_pf_ctx_new(p_icfg, p_dcfg, p_key, len(key))
        else:
            pf_cfg = ffi.new("int64_t[]", _pf_config_values(pf, kind))
            ptr = lib.rp_pf_new(kind, pf_cfg)
        if ptr == ffi.NULL:
            raise MemoryError("native prefetcher state allocation failed")
        pf_h = ffi.gc(ptr, lib.rp_pf_free)
        _PF_STATES[pf] = pf_h
    return sim_h, pf_h


# ----------------------------------------------------------------------
# phases


def phase_decode(trace, limit, line_bytes, *, with_context: bool = False):
    """Columns for ``trace``, plus the (trace, limit) a fallback should use.

    A one-shot iterator is materialised (with the limit applied) so a
    decode failure hands the interpreted path a re-iterable list instead
    of a half-consumed generator.  ``with_context`` additionally decodes
    the value/branch/hint columns the context RL kernel consumes.
    """
    from repro.workloads.store import TraceReader

    if isinstance(trace, TraceReader):
        memo = _READER_COLUMNS.setdefault(trace, {})
        key = (limit, line_bytes, with_context)
        cols = memo.get(key)
        if cols is None:
            cols = decode.columns_from_reader(
                trace, limit, line_bytes, with_context=with_context
            )
            if cols is not None:  # decode failures are not memoized
                memo[key] = cols
        return cols, trace, limit
    if isinstance(trace, (list, tuple)):
        accesses = trace if limit is None else trace[:limit]
        cols = decode.columns_from_accesses(
            accesses, line_bytes, with_context=with_context
        )
        return cols, trace, limit
    accesses = (
        list(itertools.islice(trace, limit)) if limit is not None else list(trace)
    )
    cols = decode.columns_from_accesses(
        accesses, line_bytes, with_context=with_context
    )
    return cols, accesses, None


def _checked_run(lib, rc: int) -> None:
    if rc != 0:
        raise MemoryError("native kernel ran out of memory mid-run")


def phase_kernel(kernel, sim_h, pf_h, cols, start_index: int, warmup: int):
    """Drive the compiled per-access loop; returns the raw output block.

    Warmup replays the leading ``warmup`` accesses (their output block is
    discarded), resets the statistics counters without disturbing warm
    state, and replays the remainder — the native mirror of the
    interpreted :meth:`Simulator.run` warmup recursion, including its
    ``ValueError`` on a warmup that consumes the whole trace.
    """
    ffi, lib = kernel.ffi, kernel.lib
    n = cols.n
    if warmup and warmup >= n:
        raise ValueError("warmup consumes the whole trace")
    out = ffi.new("int64_t[]", OUT_SLOTS)
    p_addr = ffi.from_buffer("uint64_t[]", cols.addrs)
    p_pc = ffi.from_buffer("uint64_t[]", cols.pcs)
    p_line = ffi.from_buffer("uint64_t[]", cols.lines)
    p_gap = ffi.from_buffer("uint32_t[]", cols.inst_gaps)
    p_flag = ffi.from_buffer("uint8_t[]", cols.flags)
    if cols.values is not None:
        # context columns; every kernel read of these is gated on the
        # context family, so other families pass the NULLs below
        ctx_cols = [
            ffi.from_buffer("int64_t[]", cols.values),
            ffi.from_buffer("int64_t[]", cols.reg_values),
            ffi.from_buffer("uint64_t[]", cols.branch_bits),
            ffi.from_buffer("uint16_t[]", cols.branch_counts),
            ffi.from_buffer("uint32_t[]", cols.type_ids),
            ffi.from_buffer("uint32_t[]", cols.link_offsets),
            ffi.from_buffer("uint8_t[]", cols.ref_forms),
        ]
    else:
        ctx_cols = [ffi.NULL] * 7

    def _ctx_at(offset):
        if offset == 0 or cols.values is None:
            return ctx_cols
        return [p + offset for p in ctx_cols]

    if warmup:
        _checked_run(
            lib,
            lib.rp_run(
                sim_h, pf_h, warmup, start_index, p_addr, p_pc, p_line, p_gap,
                p_flag, *ctx_cols, out,
            ),
        )
        lib.rp_reset_stats(sim_h)
        _checked_run(
            lib,
            lib.rp_run(
                sim_h, pf_h, n - warmup, start_index + warmup, p_addr + warmup,
                p_pc + warmup, p_line + warmup, p_gap + warmup, p_flag + warmup,
                *_ctx_at(warmup), out,
            ),
        )
    else:
        _checked_run(
            lib,
            lib.rp_run(
                sim_h, pf_h, n, start_index, p_addr, p_pc, p_line, p_gap,
                p_flag, *ctx_cols, out,
            ),
        )
    return out


def phase_finalize(
    out, *, workload_name: str, pf, accuracy=None, hist=()
) -> SimulationResult:
    """Fold the kernel's output block into a :class:`SimulationResult`.

    Mirrors the interpreted construction exactly: class counts fold into
    a pre-seeded :class:`AccessClassifier` (plot order preserved), the
    wasted-prefetch count lands in ``PREFETCH_NEVER_HIT``, and the depth
    histogram replays through :meth:`HitDepthCDF.add`.

    A context run passes its kernel-side state as data: ``accuracy`` is
    the policy EMA (the Python policy object never observed the run) and
    ``hist`` the prefetcher's own per-queue-entry histogram as
    ``(depth, count)`` pairs in Counter insertion order.  The hit depths
    come from ``hist`` when it is non-empty (the interpreted
    ``if own_histogram:`` truthiness), else from the simulator's block.
    """
    classifier = AccessClassifier()
    counts = classifier.counts
    counts[AccessClass.HIT_PREFETCHED] += out[8]
    counts[AccessClass.SHORTER_WAIT] += out[9]
    counts[AccessClass.NON_TIMELY] += out[10]
    counts[AccessClass.MISS_NOT_PREFETCHED] += out[11]
    counts[AccessClass.HIT_OLDER_DEMAND] += out[12]
    classifier.demand_accesses += out[14]
    classifier.record_wasted_prefetch(out[13])
    hit_depths = HitDepthCDF()
    for depth, count in hist:
        hit_depths.add(depth, count)
    if not hit_depths.histogram:
        for depth in range(129):
            count = out[19 + depth]
            if count:
                hit_depths.add(depth, count)
    l1_name, l2_name = _LEVELS
    return SimulationResult(
        workload=workload_name,
        prefetcher=pf.name,
        instructions=out[0],
        cycles=out[1],
        l1=CacheStats(name=l1_name, accesses=out[2], hits=out[3], misses=out[4]),
        l2=CacheStats(name=l2_name, accesses=out[5], hits=out[6], misses=out[7]),
        classifier=classifier,
        hit_depths=hit_depths,
        prefetches_issued=out[15],
        prefetches_shadow=out[16],
        prefetches_rejected=out[17],
        prefetches_redundant=out[18],
        prefetcher_accuracy=accuracy if accuracy is not None else pf.accuracy(),
        storage_bits=pf.storage_bits(),
    )


# ----------------------------------------------------------------------
# entry point


def _fall_back(committed: bool, trace, limit, reason: str):
    if committed:
        raise RuntimeError(
            f"native simulation state is already active but this run cannot "
            f"stay native ({reason}); mixed native/interpreted runs on one "
            f"simulator are unsupported"
        )
    log.debug("native path unavailable (%s); using the interpreted kernel", reason)
    return False, None, trace, limit, reason


def try_native_run(sim, trace, *, workload_name, limit, start_index, warmup):
    """Attempt to run ``sim`` over ``trace`` natively.

    Returns ``(handled, result, trace, limit, reason)``.  When
    ``handled`` is False the caller must continue on the interpreted path
    using the *returned* trace and limit — a one-shot input iterator has
    been materialised (limit already applied, so it comes back ``None``)
    — and ``reason`` names why the run fell back (``None`` on success).
    """
    pf = sim.prefetcher
    committed = sim in _SIM_STATES or pf in _PF_STATES
    kind = _pf_kind(pf)
    if kind is None:
        return _fall_back(
            committed, trace, limit, f"the {pf.name} prefetcher has no native port"
        )
    is_ctx = kind == _PF_CONTEXT
    ctx_cfg = None
    if is_ctx:
        ctx_cfg, reason = _ctx_config_values(pf)
        if ctx_cfg is None:
            return _fall_back(committed, trace, limit, reason)
    elif _pf_config_values(pf, kind) is None:
        return _fall_back(
            committed,
            trace,
            limit,
            f"the {pf.name} config exceeds the kernel's fixed buffers",
        )
    kernel = kernel_or_none()
    if kernel is None:
        return _fall_back(committed, trace, limit, "compiled kernel unavailable")
    cols, trace, limit = phase_decode(
        trace, limit, sim.hierarchy.config.line_bytes, with_context=is_ctx
    )
    if cols is None:
        return _fall_back(committed, trace, limit, "column decode fell back")
    if is_ctx and _SIM_BRANCH_BLIND.get(sim):
        return _fall_back(
            sim in _SIM_STATES,
            trace,
            limit,
            "the simulator's native runs skipped the branch-history fold",
        )
    sim_h, pf_h = _handles(sim, pf, kind, kernel, ctx_cfg)
    if sim_h is None:
        return _fall_back(
            False, trace, limit, "simulator or prefetcher carries interpreted state"
        )
    out = phase_kernel(kernel, sim_h, pf_h, cols, start_index, warmup)
    if is_ctx:
        accuracy, hist = _ctx_readout(kernel, pf_h)
    else:
        _SIM_BRANCH_BLIND[sim] = True
        accuracy, hist = None, ()
    result = phase_finalize(
        out, workload_name=workload_name, pf=pf, accuracy=accuracy, hist=hist
    )
    return True, result, trace, limit, None


def _ctx_readout(kernel, pf_h):
    """``(accuracy, hist)`` off a live context handle, for finalize."""
    ffi, lib = kernel.ffi, kernel.lib
    hlen = lib.rp_pf_ctx_hist_len(pf_h)
    depths = ffi.new("int64_t[]", hlen)
    counts = ffi.new("int64_t[]", hlen)
    lib.rp_pf_ctx_hist(pf_h, depths, counts)
    return lib.rp_pf_ctx_accuracy(pf_h), zip(depths, counts)


# ----------------------------------------------------------------------
# batch entry point: one GIL-released call for a whole workload-pure shard


#: deterministic telemetry for the in-kernel batch calls made by this
#: process — counts only, no clocks (DET003 holds here too).  ``repro
#: profile`` and the sched tests read it; workers each keep their own
#: copy (nothing crosses the spawn boundary).
_BATCH_COUNTERS = {
    "batches": 0,
    "cells": 0,
    "native_cells": 0,
    "fallback_cells": 0,
    "kernel_threads": 0,
    "openmp": 0,
}


def batch_counters() -> dict:
    """A snapshot of this process's in-kernel batch telemetry."""
    return dict(_BATCH_COUNTERS)


def reset_batch_counters() -> None:
    """Zero the batch telemetry (test isolation helper)."""
    for key in _BATCH_COUNTERS:
        _BATCH_COUNTERS[key] = 0


#: (depth, count) pair slots the batch kernel gives each context cell
#: for its hit-depth histogram.  The most distinct depths any registry
#: trace reaches at full length is 302 (h264ref); a cell that needs more
#: degrades alone (:data:`_BATCH_RC_REASONS`) and its single-cell rerun
#: reads the histogram off its own handle, where nothing caps it.
BATCH_HIST_SLOTS = 512

#: per-cell kernel status -> why that cell degrades (``rp_run_batch``'s
#: ``RP_BATCH_*`` codes; -1 is ``rp_run``'s own out-of-memory exit)
_BATCH_RC_REASONS = {
    -1: "native kernel ran out of memory mid-run",
    -2: "native state allocation failed",
    -4: "the hit-depth histogram overflowed the batch kernel's slots",
}


def phase_batch_kernel(
    kernel, rows, sim_cfg, cols, start_index: int, warmup: int, threads: int
):
    """One ``rp_run_batch`` call over every cell.

    ``rows[j]`` is cell ``j``'s ``(kind, icfg, dcfg, seed_key)`` — the
    values :func:`_pf_config_values` / :func:`_ctx_config_values`
    produce, with empty ``dcfg``/``seed_key`` for the table families —
    and ``sim_cfg`` the shard-wide ``(hierarchy, core)`` config arrays.
    The kernel owns the cell state: each of its threads renews one
    simulator and one prefetcher in place between cells, so cell ``j``
    starts from a state equal to a fresh one built from its row.

    Returns ``(outs, rcs, accuracies, hist_lens, depths, counts)``:
    cell ``j``'s :data:`OUT_SLOTS` block at ``outs + j * OUT_SLOTS``,
    its status ``rcs[j]`` (0 ok), and for a context cell its accuracy
    EMA and ``hist_lens[j]`` histogram pairs at
    ``j * BATCH_HIST_SLOTS`` in ``depths``/``counts``.  The GIL is
    released for the whole call (cffi API mode) and the kernel fans
    cells across its OpenMP team when the loaded build has one; thread
    count cannot affect results, because cells share only ``const``
    inputs and write disjoint outputs.  A module-level function so
    ``repro profile`` attributes the whole in-kernel span to one name.
    """
    ffi, lib = kernel.ffi, kernel.lib
    n = cols.n
    if warmup and warmup >= n:
        raise ValueError("warmup consumes the whole trace")
    ncells = len(rows)
    slots = BATCH_HIST_SLOTS
    kinds: list[int] = []
    cfgs: list[int] = []
    dcfgs: list[float] = []
    keys: list[int] = []
    cfg_at = [0]
    dcfg_at = [0]
    key_at = [0]
    for kind, icfg, dcfg, key in rows:
        kinds.append(kind)
        cfgs += icfg
        cfg_at.append(len(cfgs))
        dcfgs += dcfg
        dcfg_at.append(len(dcfgs))
        keys += key
        key_at.append(len(keys))
    hier_values, core_values = sim_cfg
    outs = ffi.new("int64_t[]", ncells * OUT_SLOTS)
    rcs = ffi.new("int32_t[]", ncells)
    accuracies = ffi.new("double[]", ncells)
    hist_lens = ffi.new("int64_t[]", ncells)
    depths = ffi.new("int64_t[]", ncells * slots)
    counts = ffi.new("int64_t[]", ncells * slots)
    p_addr = ffi.from_buffer("uint64_t[]", cols.addrs)
    p_pc = ffi.from_buffer("uint64_t[]", cols.pcs)
    p_line = ffi.from_buffer("uint64_t[]", cols.lines)
    p_gap = ffi.from_buffer("uint32_t[]", cols.inst_gaps)
    p_flag = ffi.from_buffer("uint8_t[]", cols.flags)
    if cols.values is not None:
        ctx_cols = [
            ffi.from_buffer("int64_t[]", cols.values),
            ffi.from_buffer("int64_t[]", cols.reg_values),
            ffi.from_buffer("uint64_t[]", cols.branch_bits),
            ffi.from_buffer("uint16_t[]", cols.branch_counts),
            ffi.from_buffer("uint32_t[]", cols.type_ids),
            ffi.from_buffer("uint32_t[]", cols.link_offsets),
            ffi.from_buffer("uint8_t[]", cols.ref_forms),
        ]
    else:
        ctx_cols = [ffi.NULL] * 7
    lib.rp_run_batch(
        ncells,
        ffi.new("int32_t[]", kinds),
        ffi.new("int64_t[]", cfg_at),
        ffi.new("int64_t[]", cfgs),
        ffi.new("int64_t[]", dcfg_at),
        ffi.new("double[]", dcfgs),
        ffi.new("int64_t[]", key_at),
        ffi.new("uint32_t[]", keys),
        ffi.new("int64_t[]", hier_values),
        ffi.new("int64_t[]", core_values),
        n, start_index, warmup,
        p_addr, p_pc, p_line, p_gap, p_flag, *ctx_cols,
        outs, rcs, accuracies, hist_lens, depths, counts, slots,
        max(0, int(threads)),
    )
    return outs, rcs, accuracies, hist_lens, depths, counts


def phase_render(kernel, block, cells, *, workload_name: str) -> list:
    """Each cell's payload text, straight from the batch kernel's block.

    ``block`` is :func:`phase_batch_kernel`'s return and ``cells[j]``
    cell ``j``'s ``(prefetcher name, storage bits, accuracy)``, with
    accuracy ``None`` for a context cell: its accuracy EMA and hit-depth
    pairs come from the kernel.  The hit depths are the cell's pairs,
    else (none recorded, or a table family) the simulator's depth block,
    as :func:`phase_finalize` reads them.  A cell whose status is
    nonzero renders ``None``.  The text is
    :func:`~repro.sim.codec.encode_text` of the result
    :func:`phase_finalize` would build, without building it.

    The per-cell status, accuracy and pair count unpack once per shard;
    a cell's counters and pairs unpack on their own, because the block
    reserves :data:`BATCH_HIST_SLOTS` pair slots and 148 counter slots
    per cell of which a cell reads a few dozen.
    """
    unpack = kernel.ffi.unpack
    n = len(cells)
    outs, rcs, accuracies, hist_lens, depths, counts = block
    rcs = unpack(rcs, n)
    accuracies = unpack(accuracies, n)
    hist_lens = unpack(hist_lens, n)
    texts: list = []
    for j, (name, storage_bits, accuracy) in enumerate(cells):
        if rcs[j]:
            texts.append(None)
            continue
        out = outs + j * OUT_SLOTS
        (
            instructions, cycles, l1_accesses, l1_hits, l1_misses,
            l2_accesses, l2_hits, l2_misses, hit_prefetched, shorter_wait,
            non_timely, miss_not_prefetched, hit_older_demand, wasted,
            demand_accesses, issued, shadow, rejected, redundant,
        ) = unpack(out, 19)
        pairs = 0
        if accuracy is None:
            accuracy = accuracies[j]
            pairs = hist_lens[j]
        if pairs:
            at = j * BATCH_HIST_SLOTS
            hist = zip(unpack(depths + at, pairs), unpack(counts + at, pairs))
        else:
            hist = [(d, c) for d, c in enumerate(unpack(out + 19, 129)) if c]
        texts.append(
            render_text(
                workload_name,
                name,
                (
                    instructions, cycles,
                    l1_accesses, l1_hits, l1_misses, 0, 0,
                    l2_accesses, l2_hits, l2_misses, 0, 0,
                    demand_accesses,
                    hit_prefetched, shorter_wait, non_timely,
                    miss_not_prefetched, hit_older_demand, wasted,
                    issued, shadow, rejected, redundant,
                ),
                hist,
                accuracy,
                storage_bits,
                _LEVELS,
            )
        )
    return texts


def run_native_batch(
    cells,
    trace,
    *,
    workload_name: str,
    limit,
    hierarchy_config=None,
    core_config=None,
    bhr_bits: int = 8,
    warmup: int = 0,
    start_index: int = 0,
    threads: int = 0,
):
    """Execute N independent cells over one trace in one kernel call.

    ``cells[i]`` is a context cell's :class:`ContextPrefetcherConfig`
    (its row comes from :func:`context_row`) or a table family's fresh
    prefetcher.  Every cell runs on a state equal to a *fresh*
    simulator/prefetcher built from the shared configs plus its own —
    the exact state a ``Simulator(pf, ...)`` construction would hand
    :func:`try_native_run` — so cell ``i`` here is bit-identical to the
    single-cell native run of its prefetcher, regardless of thread
    count, schedule or the cells before it.

    Returns ``(texts, reasons, trace, limit)``: ``texts[i]`` is the
    cell's payload text (:func:`phase_render`) or ``None`` when it must
    run on the per-cell path, in which case ``reasons[i]`` names why.
    Per-cell conditions (no native port, unrepresentable config, kernel
    OOM, a histogram over :data:`BATCH_HIST_SLOTS`) degrade that one
    cell.  The call raises for whole-shard programming errors (warmup
    consuming the trace) and for a context config its prefetcher's
    components reject (see :func:`context_row`), so such a cell never
    reaches the kernel.
    """
    n_cells = len(cells)
    texts: list = [None] * n_cells
    reasons: list = [None] * n_cells
    kernel = kernel_or_none()
    if kernel is None:
        reason = "compiled kernel unavailable"
        _count_batch(n_cells, 0, threads, 0)
        return texts, [reason] * n_cells, trace, limit
    lib = kernel.lib
    rows: list = [None] * n_cells
    meta: list = [None] * n_cells
    for i, cell in enumerate(cells):
        if isinstance(cell, ContextPrefetcherConfig):
            row, reason = context_row(cell)
            if row is None:
                reasons[i] = reason
                continue
            rows[i] = (_PF_CONTEXT, *row)
            meta[i] = (ContextPrefetcher.name, cell.storage_bits(), None)
            continue
        kind = _pf_kind(cell)
        if kind == _PF_CONTEXT:
            raise TypeError(
                "a context cell enters the batch as its ContextPrefetcherConfig"
            )
        if kind is None:
            reasons[i] = f"the {cell.name} prefetcher has no native port"
            continue
        if cell in _PF_STATES or not cell.is_pristine():
            reasons[i] = "prefetcher carries prior run state"
            continue
        cfg = _pf_config_values(cell, kind)
        if cfg is None:
            reasons[i] = (
                f"the {cell.name} config exceeds the kernel's fixed buffers"
            )
            continue
        rows[i] = (kind, cfg, (), ())
        meta[i] = (cell.name, cell.storage_bits(), cell.accuracy())
    eligible = [i for i in range(n_cells) if reasons[i] is None]
    hier_cfg = hierarchy_config if hierarchy_config is not None else HierarchyConfig()
    if eligible:
        with_context = any(rows[i][0] == _PF_CONTEXT for i in eligible)
        cols, trace, limit = phase_decode(
            trace, limit, hier_cfg.line_bytes, with_context=with_context
        )
        if cols is None:
            for i in eligible:
                reasons[i] = "column decode fell back"
            eligible = []
    if not eligible:
        _count_batch(n_cells, 0, threads, int(lib.rp_batch_openmp()))
        return texts, reasons, trace, limit
    core_cfg = core_config if core_config is not None else CoreConfig()
    sim_cfg = (
        _hier_values(hier_cfg),
        [
            core_cfg.issue_width,
            core_cfg.rob_size,
            core_cfg.lq_size,
            (1 << bhr_bits) - 1,
        ],
    )
    block = phase_batch_kernel(
        kernel, [rows[i] for i in eligible], sim_cfg, cols, start_index,
        warmup, threads,
    )
    rendered = phase_render(
        kernel, block, [meta[i] for i in eligible], workload_name=workload_name
    )
    rcs = block[1]
    native_cells = 0
    for j, i in enumerate(eligible):
        if rendered[j] is None:
            reasons[i] = _BATCH_RC_REASONS[rcs[j]]
            continue
        texts[i] = rendered[j]
        native_cells += 1
    if native_cells != n_cells:
        log.debug(
            "batch kernel handled %d/%d cells; %d fell back",
            native_cells, n_cells, n_cells - native_cells,
        )
    _count_batch(n_cells, native_cells, threads, int(lib.rp_batch_openmp()))
    return texts, reasons, trace, limit


def _count_batch(cells: int, native_cells: int, threads: int, openmp: int) -> None:
    _BATCH_COUNTERS["batches"] += 1
    _BATCH_COUNTERS["cells"] += cells
    _BATCH_COUNTERS["native_cells"] += native_cells
    _BATCH_COUNTERS["fallback_cells"] += cells - native_cells
    _BATCH_COUNTERS["kernel_threads"] = max(0, int(threads))
    _BATCH_COUNTERS["openmp"] = openmp


#: counter names ``rp_pf_ctx_counters`` fills, in slot order — the same
#: quantities ``repro profile`` reads off the interpreted components
CTX_COUNTER_NAMES = (
    "predictions_real",
    "predictions_shadow",
    "rewards_applied",
    "window_updates",
    "explorations",
    "exploitations",
    "queue_hits",
    "queue_expirations",
    "feedback_events",
    "associations_added",
    "associations_rejected_full",
    "associations_rejected_range",
    "cst_conflicts",
    "cst_occupancy",
    "reducer_allocations",
    "reducer_conflicts",
    "reducer_activations",
    "reducer_deactivations",
    "reducer_occupancy",
    "history_records",
)


def context_unit_counters(pf) -> dict | None:
    """The kernel-side bandit/CST/reward counters for a context
    prefetcher that ran natively, or ``None`` when no native handle
    exists (``repro profile --native`` reports this block)."""
    if _pf_kind(pf) != _PF_CONTEXT:
        return None
    kernel = kernel_or_none()
    if kernel is None:
        return None
    pf_h = _PF_STATES.get(pf)
    if pf_h is None:
        return None
    ffi, lib = kernel.ffi, kernel.lib
    buf = ffi.new("int64_t[]", CTX_COUNTER_SLOTS)
    lib.rp_pf_ctx_counters(pf_h, buf)
    return {name: int(buf[i]) for i, name in enumerate(CTX_COUNTER_NAMES)}


def unit_times(sim) -> dict | None:
    """The unit-timing totals of a simulator that ran natively: ``units``
    maps each timed unit (in :data:`UNIT_NAMES` order) to its ns per
    access, next to ``kernel_ns_per_access`` (the time inside ``rp_run``
    over every access) and the ``timed``/``accesses`` counts.

    A unit's ns per access is its summed intervals, less one clock read
    per interval (the calibrated ``read_ns``), over the timed accesses.
    ``None`` when the simulator has no native handle, or the loaded
    kernel is not the unit-timing build (it reports no timed access).
    """
    kernel = kernel_or_none()
    sim_h = _SIM_STATES.get(sim)
    if kernel is None or sim_h is None:
        return None
    buf = kernel.ffi.new("int64_t[]", UNIT_SLOTS)
    kernel.lib.rp_sim_unit_times(sim_h, buf)
    raw = kernel.ffi.unpack(buf, UNIT_SLOTS)
    n_units = len(UNIT_NAMES)
    timed, accesses, kernel_ns, read_ns = raw[2 * n_units :]
    if not timed:
        return None
    units = {
        name: max(0, raw[i] - raw[n_units + i] * read_ns) / timed
        for i, name in enumerate(UNIT_NAMES)
        if raw[n_units + i]
    }
    return {
        "units": units,
        "kernel_ns_per_access": kernel_ns / accesses,
        "timed": timed,
        "accesses": accesses,
    }
