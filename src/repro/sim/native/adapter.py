"""Bridge between :class:`~repro.sim.simulator.Simulator` and the C kernel.

One native run is the phase pipeline the package docstring describes:
:func:`phase_decode` hands the kernel the trace's store records,
:func:`phase_kernel` drives the compiled state machine (including warmup
orchestration), and
:func:`phase_finalize` folds the kernel's output block into the exact
:class:`~repro.sim.metrics.SimulationResult` the interpreted path builds.
A sweep shard runs as :func:`phase_batch_kernel` instead, and
:func:`phase_render` writes each cell's payload text from the block
without building that result.  The phases are module-level functions
on purpose: ``repro profile`` attributes time to them by name.

Every prefetcher enters the kernel the same way: as a flat config row,
built by one row builder per family (:func:`context_row` for the
context prefetcher, :func:`_pf_config_values` for the table families),
and every cell runs through one C cell function, ``rp_batch_cell``.
A sweep builds its rows in the parent (:func:`context_rows`,
:meth:`KernelRows.add_family`); a single run takes its row from its
live prefetcher (:func:`_live_row`).

State ownership: once a simulator or prefetcher has run natively, its
native handle — not the untouched Python object — is the authoritative
state.  The registries below remember that.  A run that cannot stay
native (unsupported config, a trace the kernel cannot read) *before* any
handle exists falls back to the interpreted path; the same failure on an
object that
already carries native state raises, because silently resuming from the
stale Python state would diverge.  Batch cells never get handles, nor
Python objects: the batch kernel owns their state
(:func:`run_native_batch`), so a cell that degrades leaves nothing
behind, and the per-cell path builds its prefetcher afresh.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
from array import array
from dataclasses import dataclass, field
from operator import attrgetter, is_
from json.encoder import encode_basestring_ascii
from typing import NamedTuple
from weakref import WeakKeyDictionary

from repro.core.attributes import ALL_ATTRIBUTES, AttributeSet
from repro.core.bandit import EpsilonGreedyPolicy, SoftmaxPolicy
from repro.core.config import ContextPrefetcherConfig
from repro.core.context import ContextTracker
from repro.core.prefetcher import ContextPrefetcher
from repro.core.reward import FlatRewardFunction, RewardFunction
from repro.cpu.core_model import CoreConfig
from repro.memory.address import ADDRESS_MASK
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.stats import AccessClass, AccessClassifier, CacheStats
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.markov import MarkovPrefetcher
from repro.prefetchers.nopf import NoPrefetcher
from repro.prefetchers.sms import SMSPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.sim.codec import CODEC_VERSION, _json_number
from repro.sim.metrics import HitDepthCDF, SimulationResult
from repro.sim.native._csrc import (
    CTX_COUNTER_SLOTS,
    OUT_SLOTS,
    UNIT_NAMES,
    UNIT_SLOTS,
)
from repro.sim.native.build import kernel_or_none
from repro.workloads.store import (
    RECORD_SIZE,
    TraceReader,
    TraceStoreError,
    pack_records,
)

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


def reset_state_registries() -> None:
    """Drop every native handle (test isolation helper)."""
    _SIM_STATES.clear()
    _PF_STATES.clear()


# ----------------------------------------------------------------------
# rows: what a prefetcher is to the kernel


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
        # the pattern bitmap is one u64 with a bit per line a region
        # touches, a partial last line included, and a replay fans out
        # one request fewer; both bound by MAX_REQUESTS.  A region within
        # the modelled address space keeps every request below 2**49,
        # where the kernel's one-word cache lines hold it
        if (
            -(-c.region_bytes // c.line_bytes) > MAX_REQUESTS
            or c.region_bytes > ADDRESS_MASK + 1
        ):
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


#: why a context config whose bandit seed is not an int has no row
_SEED_REFUSAL = "the bandit seed is not an int"


def _seed_key(seed) -> list[int] | None:
    """CPython ``random.Random(seed)`` key for an int seed: |seed| as
    little-endian u32 words (``random_seed`` feeds exactly this array to
    ``init_by_array``; zero seeds as the one-word key ``[0]``).  ``None``
    for any other seed: ``random.Random`` seeds a float by its hash, a
    string by its SHA-512 and ``None`` from the OS, none of which the
    kernel reproduces."""
    if not isinstance(seed, int):
        return None
    v = int.__abs__(seed)  # as random_seed takes it, whatever a subclass overrides
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


#: the reducer's allocation set when adaptive reduction is off
_ALL_ATTRIBUTE_BITS = AttributeSet(ALL_ATTRIBUTES).bits

#: the address-history depth every ``ContextPrefetcher`` builds its
#: tracker with (``ContextTracker``'s keyword default)
_ADDR_HISTORY_DEPTH = ContextTracker.__init__.__kwdefaults__["addr_history_depth"]


def context_row(cfg):
    """The context kernel's row for ``cfg``, ``((icfg, dcfg, seed_key),
    None)``, or ``(None, reason)`` when the kernel cannot run it exactly.

    The one place the layout ``rp_pf_ctx_new`` and ``rp_run_batch``
    unpack is written.  Every knob is read off the config, as the
    components ``ContextPrefetcher(cfg)`` builds flatten it for the
    interpreted hot path; those components are never reassigned.  What
    they reject raises here too: the same exception, the same message,
    in the order they construct (reducer and CST masks, the history
    queue, the prefetch queue, the reward window).  The seed is checked
    last, after every refusal that does not read it.
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
    flat = cfg.reward_shape == "flat"
    if not flat and cfg.reward_peak == 1:
        return None, "degenerate bell reward (peak == 1) raises at call time"
    if cfg.max_degree + 2 > MAX_REQUESTS:
        return None, "max_degree exceeds the kernel's request buffer"
    if cfg.cst_links > (1 << 31):
        return None, "cst_links exceeds the single-word getrandbits range"
    if cfg.adaptive_window and not _recenter_geometry_ok(cfg):
        return None, "a reachable recentered reward window is invalid"
    key = _seed_key(cfg.seed)
    if key is None:
        return None, _SEED_REFUSAL
    # HistoryQueue samples each distinct depth once, shallowest first
    sample_depths = [int(d) for d in sorted(set(cfg.sample_depths))]
    thresholds = [float(t) for t in cfg.degree_thresholds]
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
        cfg.prefetch_score_threshold,
        cfg.max_degree,
        initial.bits if cfg.adaptive_reduction else _ALL_ATTRIBUTE_BITS,
        len(initial),
        cfg.overload_refs,
        cfg.overload_check_period,
        cfg.underload_lookups,
        1 if cfg.adaptive_reduction else 0,
        1 if cfg.shadow_prefetches else 0,
        1 if cfg.adaptive_epsilon else 0,
        1 if flat else 0,
        1 if cfg.policy == "softmax" else 0,
        1 if cfg.adaptive_window else 0,
        cfg.window_update_period,
        lo_bound,
        hi_bound,
        _ADDR_HISTORY_DEPTH,
        len(sample_depths),
        len(thresholds),
        *sample_depths,
    ]
    dcfg = [
        cfg.epsilon_min,
        float(cfg.epsilon_max - cfg.epsilon_min),
        cfg.fixed_epsilon,
        cfg.accuracy_ema_alpha,
        cfg.shadow_probability,
        cfg.softmax_temperature,
        *thresholds,
    ]
    return (icfg, dcfg, key), None


def _checked_row(cfg):
    """:func:`context_row` in the kernel's buffer types (``icfg`` an
    int64 and ``dcfg`` a double ``array``), never raising: what the
    config's components reject, or a knob those buffers cannot hold, is
    its refusal reason instead."""
    try:
        row, reason = context_row(cfg)
        if row is None:
            return None, reason
        icfg, dcfg, key = row
        return (array("q", icfg), array("d", dcfg), key), None
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        log.debug("a context config has no kernel row: %s", reason)
        return None, reason


def _live_row(pf):
    """``(kind, row, None)`` for a live prefetcher the kernel can run,
    or ``(kind, None, reason)``: the single-cell path's row.

    The kind is keyed by *exact* type, and a context prefetcher's policy
    and reward must be exactly the base types too: a subclass may
    override behaviour the port does not model.  That is the one check
    of the live objects; the row itself comes from the config.
    """
    kind = _PF_KINDS.get(type(pf))
    if kind is None:
        return None, None, f"the {pf.name} prefetcher has no native port"
    if kind == _PF_CONTEXT:
        if type(pf.policy) not in (EpsilonGreedyPolicy, SoftmaxPolicy):
            return kind, None, "the policy subclass has no native port"
        if type(pf.reward) not in (RewardFunction, FlatRewardFunction):
            return kind, None, "the reward subclass has no native port"
        row, reason = _checked_row(pf.config)
        return kind, row, reason
    cfg = _pf_config_values(pf, kind)
    if cfg is None:
        return kind, None, f"the {pf.name} config exceeds the kernel's fixed buffers"
    return kind, (array("q", cfg), array("d"), ()), None


@dataclass(eq=False)
class KernelRows:
    """Kernel rows and seed keys, in the flat buffers ``rp_run_batch`` reads.

    Row ``r`` is prefetcher kind ``kinds[r]`` with the config row at
    ``cfgs[cfg_at[r]:]`` and ``dcfgs[dcfg_at[r]:]``; ``meta[r]`` is the
    ``(name, storage bits, accuracy)`` its payload reports, with
    accuracy ``None`` for a context row (its accuracy is the kernel's).
    Seed key ``k`` is ``keys[key_at[k]:key_at[k + 1]]``.  A batch cell
    names one row and one key, so cells that share a config share its
    row.  A sweep's table maps context slot ``s`` to its row,
    ``slot_row[s]`` (-1 when it has none, with the reason in
    ``refused[s]``), and to seed key ``s`` (:func:`context_rows`); and
    a table family's registry name to its ``(row, key)`` in ``family``
    (:meth:`add_family`).
    """

    kinds: array = field(default_factory=lambda: array("i"))
    cfg_at: array = field(default_factory=lambda: array("q"))
    cfgs: array = field(default_factory=lambda: array("q"))
    dcfg_at: array = field(default_factory=lambda: array("q"))
    dcfgs: array = field(default_factory=lambda: array("d"))
    meta: list = field(default_factory=list)
    key_at: array = field(default_factory=lambda: array("q", [0]))
    keys: array = field(default_factory=lambda: array("I"))
    slot_row: array = field(default_factory=lambda: array("i"))
    refused: dict = field(default_factory=dict)
    family: dict = field(default_factory=dict)

    def add_row(self, kind: int, icfg, dcfg, meta: tuple) -> int:
        """Append one row; its index back."""
        self.kinds.append(kind)
        self.cfg_at.append(len(self.cfgs))
        self.cfgs.extend(icfg)
        self.dcfg_at.append(len(self.dcfgs))
        self.dcfgs.extend(dcfg)
        self.meta.append(meta)
        return len(self.kinds) - 1

    def add_key(self, words) -> int:
        """Append one seed key; its index back."""
        self.keys.extend(words)
        self.key_at.append(len(self.keys))
        return len(self.key_at) - 2

    def add_family(self, name: str, pf) -> None:
        """Give the cells of registry name ``name`` the row of ``pf``, a
        fresh table-family prefetcher, unless the kernel refuses it: its
        name, storage bits and accuracy are read here, once."""
        kind, row, _reason = _live_row(pf)
        if row is None or kind == _PF_CONTEXT:
            return
        icfg, dcfg, key = row
        meta = (pf.name, pf.storage_bits(), pf.accuracy())
        self.family[name] = (self.add_row(kind, icfg, dcfg, meta), self.add_key(key))


def _slot_row(table: KernelRows, shared: dict, cfg) -> tuple[int, str | None]:
    """``(row index, None)`` for one context config, adding its row to
    ``table`` unless an equal one is there; ``(-1, reason)`` when it has
    none."""
    row, reason = _checked_row(cfg)
    if row is None:
        return -1, reason
    icfg, dcfg, _key = row
    signature = (icfg.tobytes(), dcfg.tobytes(), cfg.storage_bits())
    index = shared.get(signature)
    if index is None:
        meta = (ContextPrefetcher.name, signature[2], None)
        index = shared[signature] = table.add_row(_PF_CONTEXT, icfg, dcfg, meta)
    return index, None


def context_rows(configs) -> KernelRows:
    """The kernel rows of a slice of context-config slots.

    Slot ``s`` (``None`` is the paper default) gets :func:`context_row`
    of its config plus the config's storage bits; slots with equal rows
    share one, compared bit for bit (a ``-0.0`` knob is not ``0.0``).
    A slot the kernel refuses, or whose config its prefetcher's
    components reject, gets no row: its cell leaves the kernel, and the
    per-cell path reports the refusal or raises the rejection there.
    Building the table never raises for a config.

    A seed sweep's slot is the slot before it with another seed, and
    ``dataclasses.replace`` shares every other field as the very same
    object.  Only the seed key reads the seed, so a slot whose other
    fields are the previous slot's objects takes that slot's row (or
    refusal) without building it again, unless it was refused for its
    seed; its own seed still needs a key.  Config values are immutable
    and ``last_values`` keeps them alive, so an identity match is never
    a reused address.
    """
    table = KernelRows()
    shared: dict = {}
    fields: dict = {}
    default = None
    last_type = None
    last_values: tuple = ()
    index, reason = -1, None
    for slot, cfg in enumerate(configs):
        if cfg is None:
            if default is None:
                default = ContextPrefetcherConfig()
            cfg = default
        get = fields.get(type(cfg))
        if get is None:
            get = fields[type(cfg)] = attrgetter(
                *(f.name for f in dataclasses.fields(cfg) if f.name != "seed")
            )
        values = get(cfg)
        if (
            reason == _SEED_REFUSAL
            or type(cfg) is not last_type
            or not all(map(is_, values, last_values))
        ):
            index, reason = _slot_row(table, shared, cfg)
        last_type, last_values = type(cfg), values
        key = _seed_key(cfg.seed) if index >= 0 else None
        if key is None:
            table.slot_row.append(-1)
            table.refused[slot] = reason if index < 0 else _SEED_REFUSAL
            table.add_key(())
        else:
            table.slot_row.append(index)
            table.add_key(key)
    return table


def _sim_values(hier, core, bhr_mask: int) -> tuple[list[int], list[int]]:
    """The simulator's row: the hierarchy and core config arrays
    ``rp_sim_new`` and ``rp_run_batch`` read, for ``HierarchyConfig``
    ``hier``, ``CoreConfig`` ``core`` and the branch-history mask."""
    return (
        [
            hier.l1_size,
            hier.l1_ways,
            hier.l1_latency,
            hier.l1_mshrs,
            hier.l2_size,
            hier.l2_ways,
            hier.l2_latency,
            hier.l2_mshrs,
            hier.dram_latency,
            hier.dram_service_interval,
            hier.line_bytes,
            hier.prefetch_buffers,
            hier.prefetch_mshr_reserve,
            hier.prefetch_backlog_depth,
            1 if hier.prefetch_fill_l1 else 0,
        ],
        [core.issue_width, core.rob_size, core.lq_size, bhr_mask],
    )


def _sim_pristine(sim) -> bool:
    return (
        sim._cycle_base == 0
        and sim.hierarchy.is_pristine()
        and sim.core.is_pristine()
        and sim.bhr._value == 0
    )


def _handles(sim, pf, kind: int, row, kernel):
    """The (RpSim, RpPf) handle pair for this run, creating as needed;
    a new prefetcher handle is built from ``row`` (:func:`_live_row`).

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
        hier_values, core_values = _sim_values(
            sim.hierarchy.config, sim.core.config, sim.bhr._mask
        )
        ptr = lib.rp_sim_new(
            ffi.new("int64_t[]", hier_values), ffi.new("int64_t[]", core_values)
        )
        if ptr == ffi.NULL:
            raise MemoryError("native simulator state allocation failed")
        sim_h = ffi.gc(ptr, lib.rp_sim_free)
        _SIM_STATES[sim] = sim_h
    if pf_h is None:
        icfg, dcfg, key = row
        p_icfg = ffi.from_buffer("int64_t[]", icfg)
        if kind == _PF_CONTEXT:
            ptr = lib.rp_pf_ctx_new(
                p_icfg,
                ffi.from_buffer("double[]", dcfg),
                ffi.new("uint32_t[]", key),
                len(key),
            )
        else:
            ptr = lib.rp_pf_new(kind, p_icfg)
        if ptr == ffi.NULL:
            raise MemoryError("native prefetcher state allocation failed")
        pf_h = ffi.gc(ptr, lib.rp_pf_free)
        _PF_STATES[pf] = pf_h
    return sim_h, pf_h


# ----------------------------------------------------------------------
# phases


#: why a trace runs on the oracle, whatever its family: an access the
#: store's record format cannot hold, or an address the kernel's delta
#: arithmetic cannot take exactly
_UNPACKABLE = "an access does not fit the trace store's record format"
_WIDE_ADDRESS = "an address exceeds the modelled 48-bit space"


class Records(NamedTuple):
    """A trace as the kernel reads it: ``n`` trace-store records
    (``store.RECORD_FIELDS``, ``RECORD_SIZE`` bytes each) in ``block``.
    Release ``block`` after the kernel call (``with records.block:``): a
    reader's mapped file cannot close under a live view."""

    n: int
    block: memoryview


def phase_decode(kernel, trace, limit):
    """The kernel's records for ``trace``: ``(records, reason, trace,
    limit)``.

    A :class:`~repro.workloads.store.TraceReader` hands over its mapped
    record block untouched; an access list is packed by the store's own
    encoder.  ``records`` is ``None``, with the ``reason``, when the trace
    cannot run in the kernel: the encoder refuses an access, or the
    kernel's scan finds an address beyond the modelled space.  A one-shot
    iterator is materialised (with the limit applied), so the ``trace``
    and ``limit`` returned are the ones a fallback should use.
    """
    if isinstance(trace, TraceReader):
        block = trace.record_block(limit)
    else:
        if isinstance(trace, (list, tuple)):
            accesses = trace if limit is None else trace[:limit]
        else:
            accesses = list(itertools.islice(trace, limit))
            trace, limit = accesses, None
        try:
            block = memoryview(pack_records(accesses))
        except TraceStoreError as exc:
            log.debug("%s (%s); using the interpreted kernel", _UNPACKABLE, exc)
            return None, _UNPACKABLE, trace, limit
    records = Records(len(block) // RECORD_SIZE, block)
    with kernel.ffi.from_buffer("uint8_t[]", block) as recs:
        wide = kernel.lib.rp_scan_records(recs, records.n)
    if wide >= 0:
        log.debug("%s (record %d); using the interpreted kernel", _WIDE_ADDRESS, wide)
        block.release()
        return None, _WIDE_ADDRESS, trace, limit
    return records, None, trace, limit


def phase_kernel(kernel, sim_h, pf_h, records, start_index: int, warmup: int):
    """Drive the compiled per-access loop; returns the raw output block.

    One ``rp_batch_cell`` call over ``records`` (:class:`Records`), the
    cell runner the batch driver runs every cell with.  Warmup replays
    the leading ``warmup`` accesses (their output block is discarded),
    resets the statistics counters without disturbing warm state, and
    replays the remainder — the native mirror of the interpreted
    :meth:`Simulator.run` warmup recursion, including its ``ValueError``
    on a warmup that consumes the whole trace.
    """
    ffi, lib = kernel.ffi, kernel.lib
    if warmup and warmup >= records.n:
        raise ValueError("warmup consumes the whole trace")
    out = ffi.new("int64_t[]", OUT_SLOTS)
    with ffi.from_buffer("uint8_t[]", records.block) as recs:
        rc = lib.rp_batch_cell(sim_h, pf_h, records.n, start_index, warmup, recs, out)
    if rc != 0:
        raise MemoryError("native kernel ran out of memory mid-run")
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
    kind, row, reason = _live_row(pf)
    if row is None:
        return _fall_back(committed, trace, limit, reason)
    kernel = kernel_or_none()
    if kernel is None:
        return _fall_back(committed, trace, limit, "compiled kernel unavailable")
    records, reason, trace, limit = phase_decode(kernel, trace, limit)
    if records is None:
        return _fall_back(committed, trace, limit, reason)
    with records.block:
        sim_h, pf_h = _handles(sim, pf, kind, row, kernel)
        if sim_h is None:
            return _fall_back(
                False, trace, limit, "simulator or prefetcher carries interpreted state"
            )
        out = phase_kernel(kernel, sim_h, pf_h, records, start_index, warmup)
    if kind == _PF_CONTEXT:
        accuracy, hist = _ctx_readout(kernel, pf_h)
    else:
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
    kernel, rows, sim_cfg, records, start_index: int, warmup: int, threads: int,
    *, table: KernelRows, keys,
):
    """One ``rp_run_batch`` call over every cell.

    Cell ``j`` runs row ``rows[j]`` of ``table`` (a :class:`KernelRows`)
    with its seed key ``keys[j]`` over ``records`` (:class:`Records`);
    ``rows`` and ``keys`` are int32 arrays, one entry per cell, and
    ``sim_cfg`` the shard-wide ``(hierarchy, core)`` config arrays.  The
    kernel owns the cell state: each of its threads renews one simulator
    and one prefetcher in place between cells, so cell ``j`` starts from
    a state equal to a fresh one built from its row.

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
    n = records.n
    if warmup and warmup >= n:
        raise ValueError("warmup consumes the whole trace")
    ncells = len(rows)
    slots = BATCH_HIST_SLOTS
    hier_values, core_values = sim_cfg
    outs = ffi.new("int64_t[]", ncells * OUT_SLOTS)
    rcs = ffi.new("int32_t[]", ncells)
    accuracies = ffi.new("double[]", ncells)
    hist_lens = ffi.new("int64_t[]", ncells)
    depths = ffi.new("int64_t[]", ncells * slots)
    counts = ffi.new("int64_t[]", ncells * slots)
    with ffi.from_buffer("uint8_t[]", records.block) as recs:
        lib.rp_run_batch(
            ncells,
            ffi.from_buffer("int32_t[]", rows),
            ffi.from_buffer("int32_t[]", keys),
            ffi.from_buffer("int32_t[]", table.kinds),
            ffi.from_buffer("int64_t[]", table.cfg_at),
            ffi.from_buffer("int64_t[]", table.cfgs),
            ffi.from_buffer("int64_t[]", table.dcfg_at),
            ffi.from_buffer("double[]", table.dcfgs),
            ffi.from_buffer("int64_t[]", table.key_at),
            ffi.from_buffer("uint32_t[]", table.keys),
            ffi.new("int64_t[]", hier_values),
            ffi.new("int64_t[]", core_values),
            n, start_index, warmup, recs,
            outs, rcs, accuracies, hist_lens, depths, counts, slots,
            max(0, int(threads)),
        )
    return outs, rcs, accuracies, hist_lens, depths, counts


#: first guess at a payload's rendered bytes, less its accuracy (a
#: typical payload is ~770); a shard whose texts need more renders twice
_RENDER_CELL_BYTES = 1536


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

    The kernel's renderer (``rp_render_batch``) writes every cell's text
    into one ASCII buffer, with names escaped here once per shard; this
    function decodes the buffer once and slices it per cell, splicing in
    the one float, the accuracy, as :func:`repr` writes it (C has no
    exact match for Python's shortest repr).  A table family's accuracy
    and empty pairs are written into ``block`` first.
    """
    ffi, lib = kernel.ffi, kernel.lib
    n = len(cells)
    outs, rcs, accuracies, hist_lens, depths, counts = block
    names = [workload_name, *_LEVELS]
    name_ids: dict = {}
    cell_names = array("i")
    cell_bits = array("q")
    for j, (name, storage_bits, accuracy) in enumerate(cells):
        k = name_ids.get(name)
        if k is None:
            k = name_ids[name] = len(names)
            names.append(name)
        cell_names.append(k)
        cell_bits.append(storage_bits)
        if accuracy is not None:
            accuracies[j] = accuracy
            hist_lens[j] = 0
    escaped = [encode_basestring_ascii(name) for name in names]
    text_at = array("q", [0])
    for name in escaped:
        text_at.append(text_at[-1] + len(name))
    name_text = "".join(escaped).encode("ascii")
    marks = ffi.new("int64_t[]", 2 * n)
    cap = 0
    need = n * _RENDER_CELL_BYTES
    while need > cap:
        cap = need
        buf = ffi.new("char[]", cap)
        need = lib.rp_render_batch(
            n,
            ffi.from_buffer("int32_t[]", cell_names),
            ffi.from_buffer("int64_t[]", cell_bits),
            name_text,
            ffi.from_buffer("int64_t[]", text_at),
            CODEC_VERSION,
            outs, rcs, hist_lens, depths, counts, BATCH_HIST_SLOTS,
            buf, cap, marks,
        )
        if need < 0:
            raise MemoryError("the native payload renderer failed")
    text = str(ffi.buffer(buf, need), "ascii")
    statuses = ffi.unpack(rcs, n)
    accuracies = ffi.unpack(accuracies, n)
    marks = ffi.unpack(marks, 2 * n)
    texts: list = []
    start = 0
    for j in range(n):
        split = marks[2 * j]
        end = marks[2 * j + 1]
        if statuses[j]:
            texts.append(None)
        else:
            texts.append(
                text[start:split] + _json_number(accuracies[j]) + text[split:end]
            )
        start = end
    return texts


def run_native_batch(
    rows,
    keys,
    trace,
    *,
    table: KernelRows,
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

    Cell ``i`` runs row ``rows[i]`` of ``table``, a :class:`KernelRows`
    its caller built (usually the sweep's parent process), with seed
    key ``keys[i]``; the payload's prefetcher name, storage bits and (for
    a table family) accuracy are the row's ``meta``.  No prefetcher or
    config is built here.  Every cell runs on a state equal to a *fresh*
    simulator/prefetcher built from the shared configs plus its row —
    the exact state a ``Simulator(pf, ...)`` construction would hand
    :func:`try_native_run` — so cell ``i`` here is bit-identical to the
    single-cell native run of its prefetcher, regardless of thread
    count, schedule or the cells before it.

    Returns ``(texts, reasons, trace, limit)``: ``texts[i]`` is the
    cell's payload text (:func:`phase_render`) or ``None`` when it must
    run on the per-cell path, in which case ``reasons[i]`` names why: no
    compiled kernel or a trace the kernel cannot read (every cell), a
    kernel OOM or a histogram over :data:`BATCH_HIST_SLOTS` (that cell
    alone).  The call raises for whole-shard programming errors (warmup
    consuming the trace).
    """
    n_cells = len(rows)
    if not n_cells:
        return [], [], trace, limit
    kernel = kernel_or_none()
    if kernel is None:
        _count_batch(n_cells, 0, threads, 0)
        return [None] * n_cells, ["compiled kernel unavailable"] * n_cells, trace, limit
    openmp = int(kernel.lib.rp_batch_openmp())
    rows = array("i", rows)
    records, reason, trace, limit = phase_decode(kernel, trace, limit)
    if records is None:
        _count_batch(n_cells, 0, threads, openmp)
        return [None] * n_cells, [reason] * n_cells, trace, limit
    sim_cfg = _sim_values(
        hierarchy_config if hierarchy_config is not None else HierarchyConfig(),
        core_config if core_config is not None else CoreConfig(),
        (1 << bhr_bits) - 1,
    )
    with records.block:
        block = phase_batch_kernel(
            kernel, rows, sim_cfg, records, start_index, warmup, threads,
            table=table, keys=array("i", keys),
        )
    meta = table.meta
    texts = phase_render(
        kernel, block, [meta[r] for r in rows], workload_name=workload_name
    )
    rcs = block[1]
    reasons = [
        None if text is not None else _BATCH_RC_REASONS[rcs[j]]
        for j, text in enumerate(texts)
    ]
    native_cells = reasons.count(None)
    if native_cells != n_cells:
        log.debug(
            "batch kernel handled %d/%d cells; %d fell back",
            native_cells, n_cells, n_cells - native_cells,
        )
    _count_batch(n_cells, native_cells, threads, openmp)
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
    if type(pf) is not ContextPrefetcher:
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
    and building the cells' trace programs, over every access) and the
    ``timed``/``accesses`` counts.

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
