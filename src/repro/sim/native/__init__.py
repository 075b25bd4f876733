"""Batch-oriented native simulation kernel (``repro.sim.native``).

The interpreted per-access loop in :mod:`repro.sim.simulator` is the
reference oracle; this package is its compiled counterpart.  A run is
restructured into phases:

* **decode** — the ``.rpt`` record block reinterprets as a numpy struct
  array (zero-copy from the mmap), and the per-access columns the kernel
  consumes (addresses, PCs, instruction gaps, flags) are extracted
  array-at-a-time.
* **classify** — address classification and cache-index math that is
  pure arithmetic over the columns (line numbers, the 48-bit address
  eligibility scan) runs vectorized in numpy before the kernel starts.
* **kernel** — the inherently sequential state machine (core timing,
  hierarchy, the table-based prefetchers) runs in a cffi-compiled C
  kernel over the decoded columns, chunk-free and allocation-free.
* **finalize** — kernel counters are folded back into the same
  :class:`~repro.sim.metrics.SimulationResult` the interpreted path
  builds; on the batch path, **render** writes each cell's payload text
  straight from the kernel's output block instead, byte for byte the
  codec's encoding of that result.

The context RL prefetcher — the paper's own contribution — runs in the
same kernel: CPython's ``random.Random`` is reproduced bit-for-bit
(MT19937 + ``genrand_res53`` + the exact ``choice``/``choices``
semantics), so the CST/bandit/reward feedback loop is compiled too.
Whenever any phase cannot represent a run exactly — unsupported configs
(degenerate reward bells, subclassed policies), addresses outside the
modelled 48-bit space, branch tuples beyond the u64 bitmap, or a missing
numpy/cffi/toolchain — the run drops to the interpreted scalar path, and
the fallback is logged with a reason the sweep summary aggregates.  The
PERF003 analysis rule pins :data:`VECTOR_PHASES` below: every vectorized
phase must keep its scalar-fallback counterpart, so a one-sided edit
fails ``repro lint``.
"""

from __future__ import annotations

#: (phase, native implementation, scalar fallback) — the contract PERF003
#: pins.  Both sides of every row must exist as importable functions or
#: methods; editing one side without the other fails ``repro lint``.
VECTOR_PHASES = (
    ("decode", "repro.workloads.store:TraceReader.as_array", "repro.workloads.store:TraceReader.materialize"),
    ("classify", "repro.memory.address:lines_of_array", "repro.memory.address:line_of"),
    ("kernel", "repro.sim.native.adapter:phase_kernel", "repro.sim.simulator:Simulator.run"),
    ("kernel-batch", "repro.sim.native.adapter:phase_batch_kernel", "repro.sim.sched.pool:run_batch"),
    ("finalize", "repro.sim.native.adapter:phase_finalize", "repro.sim.simulator:Simulator.run"),
    ("render", "repro.sim.native.adapter:phase_render", "repro.sim.codec:encode_result"),
    ("context", "repro.sim.native.adapter:_ctx_config_values", "repro.core.prefetcher:ContextPrefetcher.on_access"),
)


def is_available() -> bool:
    """True when the compiled kernel can be built/loaded in this process."""
    from repro.sim.native.build import kernel_or_none

    return kernel_or_none() is not None


def try_native_run(sim, trace, *, workload_name, limit, start_index, warmup):
    """Attempt a native run; see :func:`repro.sim.native.adapter.try_native_run`."""
    from repro.sim.native import adapter

    return adapter.try_native_run(
        sim,
        trace,
        workload_name=workload_name,
        limit=limit,
        start_index=start_index,
        warmup=warmup,
    )


__all__ = ["VECTOR_PHASES", "is_available", "try_native_run"]
