"""The trace-driven simulator: one workload, one prefetcher, one run.

Replays a workload trace through the branch-history register, the core
timing model and the cache hierarchy, feeding each demand access to the
prefetcher and dispatching the prefetches it returns.  Produces the
:class:`~repro.sim.metrics.SimulationResult` every figure consumes.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
from collections import deque
from typing import Iterable

from repro.cpu.branch import BranchHistoryRegister
from repro.cpu.core_model import CoreStats
from repro.memory.stats import AccessClass, AccessClassifier, CacheStats
from repro.cpu.core_model import CoreConfig, CoreModel
from repro.memory.hierarchy import Hierarchy, HierarchyConfig
from repro.prefetchers.base import AccessInfo, Prefetcher
from repro.sim.metrics import HitDepthCDF, SimulationResult
from repro.workloads.trace import MemoryAccess


class Simulator:
    """Drives one prefetcher through one access trace."""

    def __init__(
        self,
        prefetcher: Prefetcher,
        *,
        hierarchy_config: HierarchyConfig | None = None,
        core_config: CoreConfig | None = None,
        bhr_bits: int = 8,
        native: bool = False,
    ):
        self.prefetcher = prefetcher
        self.hierarchy = Hierarchy(hierarchy_config)
        self.core = CoreModel(core_config or CoreConfig())
        self.bhr = BranchHistoryRegister(bits=bhr_bits)
        self._line_bytes = self.hierarchy.config.line_bytes
        self._cycle_base = 0
        #: run through the compiled kernel where possible; runs it cannot
        #: represent exactly (a refused config, a subclassed prefetcher or
        #: component, out-of-range traces) drop back to the interpreted
        #: loop below
        self.native = bool(native)
        #: did the most recent :meth:`run` go through the compiled kernel?
        #: (profiling reads this to know where the counters live)
        self.last_run_native = False
        #: why the most recent :meth:`run` fell back to the interpreted
        #: loop (``None`` when it stayed native); sweep summaries
        #: aggregate these strings into the fallback report
        self.last_native_fallback: str | None = None

    def _reset_stats(self) -> None:
        """Zero the statistics counters without disturbing warm state.

        Caches, MSHRs, in-flight fills and the prefetcher's learned state
        all survive; only the counters (and the cycle baseline) restart.
        Used by the ``warmup`` mode of :meth:`run`.
        """
        hier = self.hierarchy
        stats = self.core.finalize()
        self._cycle_base = stats.cycles
        hier.l1_stats = CacheStats(name="L1D")
        hier.l2_stats = CacheStats(name="L2")
        hier.prefetches_issued = 0
        hier.prefetches_rejected_mshr = 0
        hier.prefetches_redundant = 0
        hier.l1.unused_prefetch_evictions = 0
        hier.l1.used_prefetch_fills = 0
        self.core.stats = CoreStats()

    def run(
        self,
        trace: "Iterable[MemoryAccess]",
        *,
        workload_name: str = "trace",
        limit: int | None = None,
        start_index: int = 0,
        warmup: int = 0,
    ) -> SimulationResult:
        """Replay ``trace`` (optionally truncated to ``limit`` accesses).

        ``trace`` may be any iterable — a workload's list or a streaming
        reader such as :func:`repro.workloads.serialize.iter_trace`.
        (``warmup`` mode materialises the stream, since it replays a
        prefix separately.)

        ``start_index`` offsets the access-stream indices handed to the
        prefetcher — used by multi-phase runs that keep prefetcher state
        across phases, so hit depths remain monotone across the seam.

        ``warmup`` runs that many leading accesses through the caches and
        the prefetcher *before* statistics start counting — the standard
        simulator practice for measuring steady state (the paper simulates
        pre-characterised steady-state phases, Section 6).  A negative
        ``limit`` or ``warmup`` raises :class:`ValueError` on either path.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, not {limit}")
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, not {warmup}")
        if self.native:
            # the native adapter handles warmup itself; when it cannot
            # take the run it returns the (possibly materialised) trace
            # for the interpreted path below
            from repro.sim import native as native_kernel

            handled, result, trace, limit, reason = native_kernel.try_native_run(
                self,
                trace,
                workload_name=workload_name,
                limit=limit,
                start_index=start_index,
                warmup=warmup,
            )
            self.last_run_native = handled
            self.last_native_fallback = reason
            if handled:
                return result
        else:
            self.last_run_native = False
            self.last_native_fallback = "native mode disabled"
        if warmup:
            # materialise while applying the limit — a truncated long
            # trace must not be built in full just to slice a prefix
            accesses = (
                list(itertools.islice(trace, limit))
                if limit is not None
                else list(trace)
            )
            if warmup >= len(accesses):
                raise ValueError("warmup consumes the whole trace")
            self.run(
                accesses[:warmup],
                workload_name=workload_name,
                start_index=start_index,
            )
            self._reset_stats()
            return self.run(
                accesses[warmup:],
                workload_name=workload_name,
                start_index=start_index + warmup,
            )
        hier = self.hierarchy
        core = self.core
        pf = self.prefetcher
        bhr = self.bhr
        hit_depths = HitDepthCDF()
        classifier = AccessClassifier()
        #: line -> access index of the most recent (real or shadow)
        #: prediction; mirrors the paper's 128-entry prefetch queue, so
        #: hits deeper than the queue capacity count as expirations
        predicted_at: dict[int, int] = {}
        #: (index, line) insertion log: entries older than the depth cap
        #: are invisible to both read paths (a demand hit beyond the cap
        #: is not counted, and a stale timestamp is overwritten exactly
        #: like an absent one), so aging them out incrementally via the
        #: log is result-identical to the old periodic full-dict rebuild
        prediction_log: deque[tuple[int, int]] = deque()
        depth_cap = 128
        last_value = 0
        issued_real = 0
        issued_shadow = 0
        line_bytes = self._line_bytes

        # bound-method/local hoists for the per-access loop
        update_many = bhr.update_many
        demand_access = hier.demand_access
        # CoreModel.issue_time/complete inlined below — the simulator owns
        # its core (constructed in __init__, never replaced), so the model
        # state lives in locals for the loop and is written back after;
        # the arithmetic is copied verbatim from core_model.py
        cursor = core._cursor
        last_completion = core._last_completion
        max_completion = core._max_completion
        inst_pos = core._inst_pos
        rob_floor = core._rob_floor
        issue_width = core._issue_width
        rob_size = core._rob_size
        lq_ring = core._lq_ring
        lq_maxlen = lq_ring.maxlen
        rob_window = core._rob_window
        lq_append = lq_ring.append
        rob_append = rob_window.append
        rob_popleft = rob_window.popleft
        core_stats = core.stats
        stall_cycles = 0
        instructions = 0
        memory_accesses = 0
        # classifier.record_demand inlined: demand classes can never be
        # PREFETCH_NEVER_HIT (its guard is unreachable from this path) and
        # the per-access total is folded in once after the loop.  Counting
        # happens in plain-int locals matched by identity (Enum equality
        # IS identity) so the loop never pays the Python-level enum hash;
        # the counts dict is pre-seeded in ACCESS_CLASS_ORDER, so folding
        # the totals in afterwards cannot change its iteration order.
        ac_hit_older = AccessClass.HIT_OLDER_DEMAND
        ac_miss = AccessClass.MISS_NOT_PREFETCHED
        ac_hit_pref = AccessClass.HIT_PREFETCHED
        ac_shorter = AccessClass.SHORTER_WAIT
        c_hit_older = c_miss = c_hit_pref = c_shorter = c_non_timely = 0
        n_accesses = 0
        add_depth = hit_depths.add
        on_access = pf.on_access
        on_prefetch_issue = pf.on_prefetch_issue
        note_unissued = hier.note_unissued_prediction
        hier_prefetch = hier.prefetch
        log_append = prediction_log.append
        log_popleft = prediction_log.popleft
        predicted_pop = predicted_at.pop
        predicted_get = predicted_at.get
        # the generated NamedTuple __new__ is a Python frame per access
        # that does exactly tuple.__new__(cls, (args...)); call it direct
        tuple_new = tuple.__new__

        accesses = itertools.islice(trace, limit) if limit is not None else trace
        # The loop allocates only acyclic transients (records, events,
        # result tuples) that reference counting frees immediately, so the
        # cyclic collector can never reclaim anything here — but its
        # periodic scans walk the resident traces and tables and cost a
        # double-digit percentage of the run.  Pause it for the loop and
        # restore the caller's setting after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for index, access in enumerate(accesses, start=start_index):
                branches = access.branches
                if branches:  # update_many no-ops on an empty tuple
                    update_many(branches)
                # inst_gap already includes branch instructions (TraceBuilder
                # contract); branches are carried separately only for the BHR
                gap = access.inst_gap
                addr = access.addr

                # --- CoreModel.issue_time inlined -----------------------
                # drift: begin core-issue-time
                issue_f = cursor + (gap + 1) / issue_width
                if access.depends_on_prev and last_completion > issue_f:
                    issue_f = last_completion
                if len(lq_ring) == lq_maxlen and lq_ring[0] > issue_f:
                    issue_f = lq_ring[0]
                if rob_window:
                    rob_horizon = inst_pos + gap + 1 - rob_size
                    while rob_window and rob_window[0][1] <= rob_horizon:
                        completion, _ = rob_popleft()
                        if completion > rob_floor:
                            rob_floor = completion
                if rob_floor > issue_f:
                    issue_f = rob_floor
                issue = int(issue_f)
                # drift: end core-issue-time

                result = demand_access(addr, issue)
                ac = result.access_class
                # drift: begin classifier-record-demand
                if ac is ac_hit_older:
                    c_hit_older += 1
                elif ac is ac_miss:
                    c_miss += 1
                elif ac is ac_hit_pref:
                    c_hit_pref += 1
                elif ac is ac_shorter:
                    c_shorter += 1
                else:
                    c_non_timely += 1
                n_accesses += 1
                # drift: end classifier-record-demand

                # --- CoreModel.complete inlined -------------------------
                # drift: begin core-complete
                completion = float(issue + result.latency)
                insts = gap + 1
                stall = issue - (cursor + insts / issue_width)
                if stall > 0:
                    stall_cycles += int(stall)
                cursor = float(issue)
                inst_pos += insts
                last_completion = completion
                if completion > max_completion:
                    max_completion = completion
                lq_append(completion)
                rob_append((completion, inst_pos))
                instructions += insts
                memory_accesses += 1
                # drift: end core-complete

                line = addr // line_bytes
                prev = predicted_pop(line, None)
                if prev is not None:
                    depth = index - prev
                    if depth <= depth_cap:
                        add_depth(depth)

                l1_hit = result.l1_hit
                # drift: begin access-info-fields
                info = tuple_new(
                    AccessInfo,
                    (
                        index,
                        issue,
                        addr,
                        access.pc,
                        access.is_load,
                        l1_hit,
                        not l1_hit and result.served_by != "mshr",
                        bhr._value,  # .value is a property over this attribute
                        access.reg_value,
                        last_value,
                        access.hints,
                    ),
                )
                # drift: end access-info-fields
                for request in on_access(info):
                    pf_line = request.addr // line_bytes
                    if request.shadow:
                        note_unissued(pf_line)
                        issued_shadow += 1
                    else:
                        outcome = hier_prefetch(request.addr, issue)
                        on_prefetch_issue(request, outcome.issued, outcome.reason)
                        if outcome.issued:
                            issued_real += 1
                        else:
                            note_unissued(pf_line)
                            issued_shadow += 1
                    # oldest-unexpired semantics: a line keeps its first
                    # prediction's timestamp until that entry would have
                    # expired from a 128-deep prefetch queue
                    prev = predicted_get(pf_line)
                    if prev is None or index - prev > depth_cap:
                        predicted_at[pf_line] = index
                        log_append((index, pf_line))
                cutoff = index - depth_cap
                while prediction_log and prediction_log[0][0] < cutoff:
                    i, ln = log_popleft()
                    if predicted_get(ln) == i:
                        del predicted_at[ln]

                if access.is_load:
                    last_value = access.value
        finally:
            if gc_was_enabled:
                gc.enable()
            # write the inlined core-model state back (the deques were
            # mutated in place); kept in the finally so the core stays
            # consistent even if a prefetcher raises mid-loop
            core._cursor = cursor
            core._last_completion = last_completion
            core._max_completion = max_completion
            core._inst_pos = inst_pos
            core._rob_floor = rob_floor
            core_stats.stall_cycles += stall_cycles
            core_stats.instructions += instructions
            core_stats.memory_accesses += memory_accesses
        # drift: begin classifier-record-demand
        class_counts = classifier.counts
        class_counts[ac_hit_older] += c_hit_older
        class_counts[ac_miss] += c_miss
        class_counts[ac_hit_pref] += c_hit_pref
        class_counts[ac_shorter] += c_shorter
        class_counts[AccessClass.NON_TIMELY] += c_non_timely
        classifier.demand_accesses += n_accesses
        # drift: end classifier-record-demand

        # The context prefetcher tracks per-queue-entry hit depths itself
        # (real and shadow predictions, exactly the paper's Figure 8
        # metric); prefer that over the per-line approximation.
        own_histogram = getattr(pf, "hit_depth_histogram", None)
        if own_histogram:
            hit_depths = HitDepthCDF()
            for depth, count in own_histogram.items():
                hit_depths.add(depth, count)

        stats = core.finalize()
        hier.drain(stats.cycles + 10_000)
        classifier.record_wasted_prefetch(
            hier.wasted_prefetches() + hier.l1.resident_unused_prefetches()
        )

        return SimulationResult(
            workload=workload_name,
            prefetcher=pf.name,
            instructions=stats.instructions,
            cycles=max(1, stats.cycles - self._cycle_base),
            # copies: the hierarchy keeps counting into its own on a
            # later run, and a result must not change after it is made
            l1=dataclasses.replace(hier.l1_stats),
            l2=dataclasses.replace(hier.l2_stats),
            classifier=classifier,
            hit_depths=hit_depths,
            prefetches_issued=issued_real,
            prefetches_shadow=issued_shadow,
            prefetches_rejected=hier.prefetches_rejected_mshr,
            prefetches_redundant=hier.prefetches_redundant,
            prefetcher_accuracy=pf.accuracy(),
            storage_bits=pf.storage_bits(),
        )
