"""In-kernel batch driver suite: batch-of-N ≡ N single-cell runs.

The batch entry point (:func:`repro.sim.native.adapter.run_native_batch`,
one GIL-released ``rp_run_batch`` call per workload-pure shard) must be
an *invisible* optimization: every cell's result bit-identical to the
single-cell native run of the same prefetcher — which the kernel-parity
and fuzz suites in turn prove identical to the interpreted oracle — and
provably independent of the OpenMP team size and of cell order.  The
kernel owns the cell state: each thread keeps one simulator and one
prefetcher for the whole call and resets them in place between cells,
so a reset state must equal a fresh one.

Coverage here:

* batch-of-N against N fresh single-cell ``Simulator`` runs, on a shard
  ordered so one thread resets a state a grown cell left behind and
  reallocates after a change of table sizes;
* thread-count invariance (1, 2, 4 and the OpenMP default);
* warmup and ``start_index`` riding the shared columns correctly;
* per-cell fallback isolation — one unrepresentable cell, or one whose
  hit-depth histogram overflows the kernel's slots, degrades alone,
  with its reason, while its neighbours stay native; a context config
  its prefetcher's components reject fails the whole batch instead;
* payload text rendered from the kernel's block against the codec's
  encoding of the result :func:`phase_finalize` builds from it;
* the deterministic batch telemetry counters;
* the pool's ``run_batch`` with the kernel driver on vs off (the PR 9
  per-cell dispatch), which is exactly the parity the sweep benchmark
  gates on;
* worker memory: a 1,024-cell shard peaks with the thread count's
  state, not the cell count's;
* ``--runslow``: a randomized differential fuzz over shard composition
  (sizes, eligible/fallback mixes, table sizes, thread counts), and a
  subprocess leg that forces the serial (no-OpenMP) build and requires
  bit-identical payloads from whichever build this process loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.sim import native as native_pkg
from repro.sim.codec import encode_text
from repro.sim.native import adapter
from repro.sim.sched.pool import BatchShared, run_batch
from repro.sim.simulator import Simulator
from repro.workloads.suites import get_workload
from repro.workloads.trace import MemoryAccess

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (numpy/cffi/toolchain)",
)

LIMIT = 300

_TRACES: dict[str, list] = {}


def _trace(name: str) -> list:
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).build().trace()[:LIMIT]
    return _TRACES[name]


def _mixed_cells() -> list:
    """A representative shard: RL context configs + table baselines.

    The order is load-bearing for state reuse: on one thread the kernel
    resets the first default cell from a state whose containers the
    degree-8 adaptive-window cell grew, and reallocates for the second
    default cell because the ``cst_entries=1024`` cell changed the table
    sizes.  Each cell must still equal its fresh single-cell run.
    """
    return [
        ContextPrefetcherConfig(
            max_degree=8, adaptive_window=True, window_update_period=64
        ),
        ContextPrefetcherConfig(),
        ContextPrefetcherConfig(seed=7, cst_entries=1024),
        ContextPrefetcherConfig(),
        ContextPrefetcherConfig(policy="softmax"),
        StridePrefetcher(StrideConfig(degree=4)),
        StridePrefetcher(StrideConfig(degree=2, table_entries=16)),
    ]


def _prefetcher(cell):
    """The prefetcher a batch cell stands for, for its single-cell run."""
    if isinstance(cell, ContextPrefetcherConfig):
        return ContextPrefetcher(cell)
    return cell


def _batch_encoded(cells, trace, *, threads: int, **kwargs) -> list:
    texts, reasons, _trace, _limit = adapter.run_native_batch(
        cells,
        trace,
        workload_name="batch-test",
        limit=None,
        threads=threads,
        **kwargs,
    )
    return texts, reasons


class TestBatchParity:
    def test_batch_equals_single_cell_native_runs(self):
        trace = _trace("list")
        encoded, reasons = _batch_encoded(
            _mixed_cells(), trace, threads=1
        )
        assert all(r is None for r in reasons), reasons
        for pos, cell in enumerate(_mixed_cells()):
            pf = _prefetcher(cell)
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test")
            assert sim.last_run_native, sim.last_native_fallback
            assert encoded[pos] == encode_text(single), (
                f"cell {pos} ({pf.name}) diverged from its single-cell run"
            )

    def test_thread_count_invariance(self):
        trace = _trace("array")
        reference = None
        for threads in (0, 1, 2, 4):
            encoded, reasons = _batch_encoded(
                _mixed_cells(), trace, threads=threads
            )
            assert all(r is None for r in reasons), reasons
            if reference is None:
                reference = encoded
            else:
                assert encoded == reference, (
                    f"threads={threads} changed batch results"
                )

    def test_warmup_parity(self):
        trace = _trace("list")
        encoded, reasons = _batch_encoded(
            _mixed_cells(), trace, threads=2, warmup=50
        )
        assert all(r is None for r in reasons), reasons
        for pos, cell in enumerate(_mixed_cells()):
            pf = _prefetcher(cell)
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test", warmup=50)
            assert sim.last_run_native, sim.last_native_fallback
            assert encoded[pos] == encode_text(single)

    def test_start_index_parity(self):
        trace = _trace("array")
        encoded, reasons = _batch_encoded(
            _mixed_cells(), trace, threads=2, start_index=1000
        )
        assert all(r is None for r in reasons), reasons
        for pos, cell in enumerate(_mixed_cells()):
            pf = _prefetcher(cell)
            sim = Simulator(pf, native=True)
            single = sim.run(
                trace, workload_name="batch-test", start_index=1000
            )
            assert sim.last_run_native, sim.last_native_fallback
            assert encoded[pos] == encode_text(single)


class TestFallbackIsolation:
    def test_unrepresentable_cell_degrades_alone(self):
        # degree > the kernel's 64-request cap cannot run natively; its
        # neighbours must stay in the kernel and keep their exact results
        trace = _trace("list")
        bad = StridePrefetcher(StrideConfig(degree=100))
        cells = [
            ContextPrefetcherConfig(),
            bad,
            StridePrefetcher(StrideConfig(degree=4)),
        ]
        results, reasons, _t, _l = adapter.run_native_batch(
            cells, trace, workload_name="batch-test", limit=None, threads=2
        )
        assert results[1] is None
        assert reasons[1], "fallback must carry a reason"
        assert results[0] is not None and results[2] is not None
        for pos in (0, 2):
            pf = (
                ContextPrefetcher(ContextPrefetcherConfig())
                if pos == 0
                else StridePrefetcher(StrideConfig(degree=4))
            )
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test")
            assert results[pos] == encode_text(single)

    def test_fallback_prefetcher_left_pristine(self):
        # a degraded cell's Python prefetcher must be untouched, so the
        # caller can still run it interpreted
        trace = _trace("list")
        bad = StridePrefetcher(StrideConfig(degree=100))
        results, reasons, out_trace, out_limit = adapter.run_native_batch(
            [bad], trace, workload_name="batch-test", limit=None, threads=1
        )
        assert results[0] is None
        assert bad.is_pristine()
        interp = Simulator(bad).run(out_trace, workload_name="batch-test")
        oracle = Simulator(
            StridePrefetcher(StrideConfig(degree=100))
        ).run(trace, workload_name="batch-test")
        assert interp == oracle


class TestRejectedConfig:
    """A context config its prefetcher's components reject fails the
    batch, with the exception ``ContextPrefetcher(cfg)`` raises; it never
    reaches the kernel."""

    def test_batch_raises_what_the_prefetcher_raises(self):
        trace = _trace("list")
        bad = ContextPrefetcherConfig(sample_depths=(0, 18))
        with pytest.raises(ValueError) as want:
            ContextPrefetcher(bad)
        with pytest.raises(ValueError) as got:
            adapter.run_native_batch(
                [ContextPrefetcherConfig(), bad],
                trace,
                workload_name="batch-test",
                limit=None,
                threads=1,
            )
        assert str(got.value) == str(want.value)

    def test_pool_batch_fails_alike_on_and_off(self):
        shared = dict(
            workload="rejected-config",
            limit=None,
            native=True,
            context_table=(ContextPrefetcherConfig(reward_peak=0),),
            trace=tuple(_trace("list")),
        )
        cells = ((0, "none", 0), (1, "context", 0))
        messages = []
        for kernel_batch in (True, False):
            with pytest.raises(ValueError) as err:
                run_batch(BatchShared(**shared, kernel_batch=kernel_batch), cells)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "peak must be positive"

    def test_context_cells_enter_as_configs(self):
        with pytest.raises(TypeError):
            adapter.run_native_batch(
                [ContextPrefetcher(ContextPrefetcherConfig())],
                _trace("list"),
                workload_name="batch-test",
                limit=None,
            )


class TestRender:
    """The payload text rendered from a batch block equals the codec's
    encoding of the result :func:`phase_finalize` builds from it."""

    WORKLOAD = 'ad "hoc" \\ é'

    def test_render_matches_finalize(self):
        from repro.sim.native.build import kernel_or_none

        kernel = kernel_or_none()
        ffi = kernel.ffi
        slots = adapter.BATCH_HIST_SLOTS
        out_slots = adapter.OUT_SLOTS
        config = ContextPrefetcherConfig(seed=3)
        # (prefetcher, pairs, depth block, status): duplicate and zero-count
        # pairs, depths 9 and 10, no pairs (the 129-slot block), a table
        # family, and a failed cell
        cases = [
            (config, [(10, 2), (9, 3), (4, 0), (9, 1), (128, 7)], {}, 0),
            (config, [], {3: 5, 12: 1, 0: 2}, 0),
            (StridePrefetcher(StrideConfig(degree=4)), [], {9: 4, 10: 1}, 0),
            (config, [(1, 1)], {}, -4),
        ]
        n = len(cases)
        outs = ffi.new("int64_t[]", n * out_slots)
        rcs = ffi.new("int32_t[]", n)
        accuracies = ffi.new("double[]", n)
        hist_lens = ffi.new("int64_t[]", n)
        depths = ffi.new("int64_t[]", n * slots)
        counts = ffi.new("int64_t[]", n * slots)
        meta = []
        for j, (cell, pairs, block, rc) in enumerate(cases):
            for k in range(19):
                outs[j * out_slots + k] = 1000 * j + 37 * k + 1
            for depth, count in block.items():
                outs[j * out_slots + 19 + depth] = count
            rcs[j] = rc
            accuracies[j] = 0.1 * (j + 1) / 3
            hist_lens[j] = len(pairs)
            for k, (depth, count) in enumerate(pairs):
                depths[j * slots + k] = depth
                counts[j * slots + k] = count
            if isinstance(cell, ContextPrefetcherConfig):
                meta.append(("context", cell.storage_bits(), None))
            else:
                meta.append((cell.name, cell.storage_bits(), cell.accuracy()))
        texts = adapter.phase_render(
            kernel,
            (outs, rcs, accuracies, hist_lens, depths, counts),
            meta,
            workload_name=self.WORKLOAD,
        )
        assert texts[3] is None
        for j, (cell, pairs, _block, _rc) in enumerate(cases[:3]):
            context = isinstance(cell, ContextPrefetcherConfig)
            want = adapter.phase_finalize(
                outs + j * out_slots,
                workload_name=self.WORKLOAD,
                pf=ContextPrefetcher(cell) if context else cell,
                accuracy=accuracies[j] if context else None,
                hist=pairs if context else (),
            )
            assert texts[j] == encode_text(want), f"case {j}"


class TestHistogramOverflow:
    """A context cell whose histogram outgrows its slots degrades alone."""

    def test_overflow_degrades_only_that_cell(self, monkeypatch):
        trace = _trace("list")
        probe = Simulator(ContextPrefetcher(ContextPrefetcherConfig()), native=True)
        depths = probe.run(trace, workload_name="batch-test").hit_depths.histogram
        assert len(depths) > 1, "the trace must reach several hit depths"
        monkeypatch.setattr(adapter, "BATCH_HIST_SLOTS", 1)

        def cells():
            return [
                StridePrefetcher(StrideConfig(degree=4)),
                ContextPrefetcherConfig(),
                StridePrefetcher(StrideConfig(degree=2, table_entries=16)),
            ]

        results, reasons, _t, _l = adapter.run_native_batch(
            cells(), trace, workload_name="batch-test", limit=None, threads=1
        )
        assert results[1] is None
        assert "histogram" in reasons[1]
        for pos in (0, 2):
            assert reasons[pos] is None
            single = Simulator(cells()[pos], native=True).run(
                trace, workload_name="batch-test"
            )
            assert results[pos] == encode_text(single)

    def test_run_batch_reruns_the_overflowed_cell(self, monkeypatch):
        monkeypatch.setattr(adapter, "BATCH_HIST_SLOTS", 1)
        shared = dict(
            workload="hist-overflow",
            limit=None,
            native=True,
            trace=tuple(_trace("list")),
        )
        cells = ((0, "stride", 0), (1, "context", 0), (2, "none", 0))
        on, _ = run_batch(BatchShared(**shared, kernel_batch=True), cells)
        off, _ = run_batch(BatchShared(**shared, kernel_batch=False), cells)
        assert [(i, p) for i, p, _info in on] == [(i, p) for i, p, _info in off]
        # the overflowed cell reran through the single-cell native path
        assert [info for _i, _p, info in on] == [(True, None)] * 3


class TestBatchCounters:
    def test_counters_accumulate(self):
        adapter.reset_batch_counters()
        trace = _trace("list")
        cells = [
            ContextPrefetcherConfig(),
            StridePrefetcher(StrideConfig(degree=100)),  # falls back
            StridePrefetcher(StrideConfig(degree=4)),
        ]
        adapter.run_native_batch(
            cells, trace, workload_name="batch-test", limit=None, threads=2
        )
        counters = adapter.batch_counters()
        assert counters["batches"] == 1
        assert counters["cells"] == 3
        assert counters["native_cells"] == 2
        assert counters["fallback_cells"] == 1
        assert counters["kernel_threads"] == 2
        adapter.reset_batch_counters()
        assert not any(adapter.batch_counters().values())


class TestPoolBatchDriver:
    """run_batch with the kernel driver on vs off — the benchmark gate."""

    def _shared(self, trace, *, kernel_batch: bool, threads: int = 2):
        base = ContextPrefetcherConfig()
        return BatchShared(
            workload="pool-batch-test",
            limit=None,
            native=True,
            context_table=(
                None,
                dataclasses.replace(base, seed=11),
                dataclasses.replace(base, max_degree=100),  # falls back
            ),
            trace=tuple(trace),
            kernel_batch=kernel_batch,
            kernel_threads=threads,
        )

    def test_kernel_batch_on_off_parity(self):
        trace = _trace("list")
        cells = tuple(
            (index, pf, ctx)
            for index, (pf, ctx) in enumerate(
                [
                    ("context", 0),
                    ("context", 1),
                    ("context", 2),
                    ("stride", 0),
                    ("none", 0),
                ]
            )
        )
        on, _deg = run_batch(self._shared(trace, kernel_batch=True), cells)
        off, _deg = run_batch(self._shared(trace, kernel_batch=False), cells)
        assert [(i, payload) for i, payload, _info in on] == [
            (i, payload) for i, payload, _info in off
        ]
        # the driver really ran: every representable cell reports native
        on_info = {i: info for i, _p, info in on}
        assert on_info[0] == (True, None)
        assert on_info[3] == (True, None)
        # the over-cap context cell degraded alone, with a reason
        assert on_info[2][0] is False and on_info[2][1]


#: subprocess body for the worker-memory test: one 1,024-cell context
#: shard through the pool's batch entry point, then the peak RSS in KiB
_RSS_SCRIPT = """
import resource
from repro.core.config import ContextPrefetcherConfig
from repro.sim.sched.pool import BatchShared, run_batch

table = tuple(ContextPrefetcherConfig(seed=seed) for seed in range(8))
cells = tuple((i, "context", i % len(table)) for i in range(1024))
shared = BatchShared(workload="list", limit=50, native=True, context_table=table)
results, _ = run_batch(shared, cells)
assert all(info == (True, None) for _i, _p, info in results)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_worker_memory_scales_with_threads_not_cells() -> None:
    """A shard's cell state costs one simulator/prefetcher pair per
    kernel thread, not per cell: 1,024 cells of Table 2 sized state
    (about 1.4 MB a pair) stay far below what per-cell pairs would
    need."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb < 400, f"worker peaked at {peak_mb:.0f} MB for 1,024 cells"


def _batch_fuzz_trace(rng: random.Random, length: int) -> list[MemoryAccess]:
    """Strided segments with scatter jumps: enough structure to train
    every family, small enough to keep the interpreted leg fast."""
    trace: list[MemoryAccess] = []
    addr = rng.randrange(1 << 30) * 64
    while len(trace) < length:
        stride = rng.choice((-2, -1, 1, 1, 2, 3)) * 64
        if rng.random() < 0.15:
            addr = rng.randrange(1 << 34)
        for _ in range(rng.randrange(4, 20)):
            if len(trace) >= length:
                break
            addr = (addr + stride) % (1 << 40)
            trace.append(
                MemoryAccess(
                    addr=addr,
                    pc=0x400000 + 4 * rng.randrange(16),
                    is_load=rng.random() < 0.9,
                    inst_gap=rng.randrange(9),
                )
            )
    return trace


@pytest.mark.slow
@pytest.mark.parametrize("case", range(12))
def test_batch_shard_fuzz(case: int) -> None:
    """Randomized shard composition through the production pool path.

    Each case draws a shard size, a context-config table (some entries
    deliberately over the kernel's request cap, forcing the per-cell
    fallback), a prefetcher mix and an OpenMP team size, then requires
    the in-kernel batch driver's payloads to equal the per-cell dispatch
    path's, cell for cell.
    """
    seed = int.from_bytes(
        hashlib.sha256(f"batch-fuzz/{case}".encode()).digest()[:8], "big"
    )
    rng = random.Random(seed)
    trace = tuple(_batch_fuzz_trace(rng, rng.randrange(200, 700)))
    base = ContextPrefetcherConfig()
    table = tuple(
        dataclasses.replace(
            base,
            seed=rng.randrange(1 << 32),
            cst_entries=rng.choice((1024, 2048)),
            max_degree=100 if rng.random() < 0.2 else rng.randrange(1, 8),
        )
        for _ in range(rng.randrange(2, 6))
    )
    names = ("context", "context", "context", "stride", "none", "sms")
    cells = tuple(
        (index, rng.choice(names), rng.randrange(len(table)))
        for index in range(rng.randrange(3, 18))
    )
    threads = rng.choice((1, 2, 4))
    shared = dict(
        workload=f"batch-fuzz-{case}",
        limit=None,
        native=True,
        context_table=table,
        trace=trace,
    )
    on, _ = run_batch(
        BatchShared(**shared, kernel_batch=True, kernel_threads=threads), cells
    )
    off, _ = run_batch(BatchShared(**shared, kernel_batch=False), cells)
    assert [(i, p) for i, p, _info in on] == [(i, p) for i, p, _info in off], (
        f"case {case}: batch driver diverged (threads={threads}, "
        f"{len(cells)} cells)"
    )


@pytest.mark.slow
def test_no_openmp_build_parity(tmp_path) -> None:
    """The serial (``REPRO_NATIVE_NO_OPENMP=1``) build is bit-identical.

    A subprocess forced onto the serial artifact runs a fixed shard and
    prints its encoded payloads; they must equal this process's (usually
    OpenMP) build output exactly.  Also proves the kill-switch works:
    the subprocess asserts its loaded kernel reports no OpenMP.
    """
    script = Path(__file__).with_name("_batch_no_openmp.py")
    env = dict(os.environ)
    env["REPRO_NATIVE_NO_OPENMP"] = "1"
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["openmp"] is False

    trace = _trace(payload["workload"])
    encoded, reasons = _batch_encoded(
        _mixed_cells(), trace, threads=payload["threads"]
    )
    assert all(r is None for r in reasons), reasons
    assert encoded == payload["results"], (
        "serial build diverged from this process's kernel build"
    )
