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
* a shard whose context rows differ in capture geometry, each cell
  against its oracle run: the kernel builds one trace program per
  geometry, and a cell must read its own;
* per-cell fallback isolation — one unrepresentable cell (no row), or
  one whose hit-depth histogram overflows the kernel's slots, degrades
  alone, with its reason, while its neighbours stay native; a context
  config its prefetcher's components reject fails the whole batch
  instead;
* payload text rendered from the kernel's block against the codec's
  encoding of the result :func:`phase_finalize` builds from it;
* the deterministic batch telemetry counters;
* the pool's ``run_batch`` with the kernel driver on vs off (the PR 9
  per-cell dispatch), which is exactly the parity the sweep benchmark
  gates on;
* the record boundary: the kernel reads the trace store's records, so
  a stored trace and the same records by value give identical text; a
  trace the kernel cannot read (an address past 48 bits, an access the
  record format refuses) runs every family on the oracle with one
  reason; every family folds branch history, so a simulator can take a
  context prefetcher after a table family; and a reader closes after a
  native run;
* worker memory: a 1,024-cell shard peaks with the thread count's
  state, not the cell count's, and a one-cell shard starts no thread;
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
import pickle
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.core.attributes import Attribute
from repro.core.config import ContextPrefetcherConfig
from repro.core.prefetcher import ContextPrefetcher
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.markov import MarkovPrefetcher
from repro.prefetchers.nopf import NoPrefetcher
from repro.prefetchers.sms import SMSPrefetcher
from repro.prefetchers.stride import StrideConfig, StridePrefetcher
from repro.sim import native as native_pkg
from repro.sim.codec import encode_text
from repro.sim.config import PREFETCHER_FACTORIES, PREFETCHER_ORDER
from repro.sim.native import adapter
from repro.sim.native.build import kernel_openmp
from repro.sim.sched.pool import BatchShared, ContextTable, run_batch
from repro.sim.simulator import Simulator
from repro.workloads.store import TraceReader, write_trace
from repro.workloads.suites import get_workload
from repro.workloads.trace import MemoryAccess

pytestmark = pytest.mark.skipif(
    not native_pkg.is_available(),
    reason="compiled kernel unavailable (cffi/toolchain)",
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


def _cell_table(cells):
    """``(rows, keys, table)``: the kernel rows a sweep's parent builds
    for ``cells``.  A context config is a slot of the table, a table
    family's prefetcher a family row under a name of its own; a cell the
    kernel refuses maps to row -1."""
    configs = [cell for cell in cells if isinstance(cell, ContextPrefetcherConfig)]
    table = adapter.context_rows(configs)
    rows, keys = [], []
    slot = 0
    for pos, cell in enumerate(cells):
        if isinstance(cell, ContextPrefetcherConfig):
            rows.append(table.slot_row[slot])
            keys.append(slot)
            slot += 1
        else:
            table.add_family(f"cell-{pos}", cell)
            row, key = table.family.get(f"cell-{pos}", (-1, -1))
            rows.append(row)
            keys.append(key)
    return rows, keys, table


def _batch_encoded(cells, trace, *, threads: int, **kwargs) -> list:
    rows, keys, table = _cell_table(cells)
    assert -1 not in rows
    texts, reasons, _trace, _limit = adapter.run_native_batch(
        rows,
        keys,
        trace,
        table=table,
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


def _geometry_cells() -> list:
    """Context configs whose capture geometries differ in turn from the
    default's: the block and delta granularities, the delta bounds, the
    initial attributes (all eight bits without adaptation), the sample
    depths; the last shares the first's geometry under another seed."""
    base = ContextPrefetcherConfig()
    return [
        base,
        dataclasses.replace(base, block_bytes=48, delta_granularity=96, seed=2),
        dataclasses.replace(base, delta_granularity=32, seed=3),
        dataclasses.replace(base, delta_bits=4, seed=4),
        dataclasses.replace(
            base, initial_attributes=(Attribute.IP, Attribute.LAST_VALUE), seed=5
        ),
        dataclasses.replace(base, adaptive_reduction=False, seed=6),
        dataclasses.replace(base, sample_depths=(3, 8, 20), seed=7),
        dataclasses.replace(base, seed=8),
    ]


class TestTraceProgramGeometry:
    """Cells share a trace program only where their rows capture alike:
    each cell of a shard whose context rows differ in geometry equals
    its oracle run, with and without warmup, at one and two threads."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("warmup", [0, 400])
    def test_rows_of_differing_geometry_match_the_oracle(self, warmup, threads):
        trace = get_workload("list").build().trace()[:1500]
        cells = _geometry_cells()
        encoded, reasons = _batch_encoded(
            cells, trace, threads=threads, warmup=warmup
        )
        assert all(r is None for r in reasons), reasons
        for pos, cfg in enumerate(cells):
            sim = Simulator(ContextPrefetcher(cfg), native=False)
            oracle = sim.run(trace, workload_name="batch-test", warmup=warmup)
            assert encoded[pos] == encode_text(oracle), f"cell {pos}: {cfg}"


class TestFallbackIsolation:
    def test_unrepresentable_cell_degrades_alone(self):
        # max_degree > the kernel's request buffer cannot run natively:
        # its slot gets no row, its cell runs per-cell with the reason,
        # and its neighbours stay in the kernel with their exact results
        trace = _trace("list")
        base = ContextPrefetcherConfig()
        configs = (None, dataclasses.replace(base, max_degree=100))
        table = ContextTable.with_rows(configs, ("context", "stride"))
        assert list(table.rows.slot_row) == [0, -1]
        cells = ((0, "context", 0), (1, "context", 1), (2, "stride", 0))
        got, _ = run_batch(
            BatchShared(
                workload="batch-test", limit=None, native=True,
                context_table=table, trace=tuple(trace), kernel_threads=2,
            ),
            cells,
        )
        reason = table.rows.refused[1]
        assert reason == adapter.context_row(configs[1])[1]
        assert [info for _i, _t, info in got] == [
            (True, None), (False, reason), (True, None)
        ]
        for pos, pf in ((0, ContextPrefetcher(base)), (2, StridePrefetcher())):
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name="batch-test")
            assert got[pos][1] == encode_text(single)

    def test_fallback_prefetcher_left_pristine(self):
        # a table family the kernel refuses gets no row, and reading its
        # row, name, bits and accuracy leaves the prefetcher untouched,
        # so the caller can still run it interpreted
        trace = _trace("list")
        bad = StridePrefetcher(StrideConfig(degree=100))
        rows, _keys, _table = _cell_table([bad])
        assert rows == [-1]
        assert bad.is_pristine()
        assert bad not in adapter._PF_STATES
        interp = Simulator(bad).run(trace, workload_name="batch-test")
        oracle = Simulator(
            StridePrefetcher(StrideConfig(degree=100))
        ).run(trace, workload_name="batch-test")
        assert interp == oracle


class TestRejectedConfig:
    """A context config its prefetcher's components reject fails the
    batch, with the exception ``ContextPrefetcher(cfg)`` raises; it never
    reaches the kernel."""

    def test_batch_raises_what_the_prefetcher_raises(self):
        bad = ContextPrefetcherConfig(sample_depths=(0, 18))
        with pytest.raises(ValueError) as want:
            ContextPrefetcher(bad)
        table = ContextTable.with_rows((None, bad), ("context",))
        assert list(table.rows.slot_row) == [0, -1]
        shared = BatchShared(
            workload="batch-test", limit=None, native=True,
            context_table=table, trace=tuple(_trace("list")),
        )
        with pytest.raises(ValueError) as got:
            run_batch(shared, ((0, "context", 0), (1, "context", 1)))
        assert str(got.value) == str(want.value)

    def test_pool_batch_fails_alike_on_and_off(self):
        configs = (ContextPrefetcherConfig(reward_peak=0),)
        shared = dict(
            workload="rejected-config",
            limit=None,
            native=True,
            trace=tuple(_trace("list")),
        )
        cells = ((0, "none", 0), (1, "context", 0))
        messages = []
        for kernel_batch, table in (
            (True, ContextTable.with_rows(configs, ("none", "context"))),
            (False, ContextTable(configs)),
        ):
            with pytest.raises(ValueError) as err:
                run_batch(
                    BatchShared(
                        **shared, context_table=table, kernel_batch=kernel_batch
                    ),
                    cells,
                )
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "peak must be positive"


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


class _Named:
    """What :func:`phase_finalize` reads off a prefetcher, as plain data."""

    def __init__(self, name, bits, accuracy=0.0):
        self.name = name
        self._bits = bits
        self._accuracy = accuracy

    def storage_bits(self):
        return self._bits

    def accuracy(self):
        return self._accuracy


class TestKernelRender:
    """The kernel's renderer (``rp_render_batch``, plus the accuracy the
    adapter splices in) writes exactly ``encode_text`` of the result
    :func:`phase_finalize` builds, hence of the per-cell run."""

    WORKLOAD = 'ad "hoc" \\ é \u2603\n'

    def _block(self, kernel, cases):
        """A hand-built batch block: ``cases[j]`` is ``(pairs, depth
        block, status, accuracy)`` plus the 19 counters' base value."""
        ffi = kernel.ffi
        slots = adapter.BATCH_HIST_SLOTS
        out_slots = adapter.OUT_SLOTS
        n = len(cases)
        outs = ffi.new("int64_t[]", n * out_slots)
        rcs = ffi.new("int32_t[]", n)
        accuracies = ffi.new("double[]", n)
        hist_lens = ffi.new("int64_t[]", n)
        depths = ffi.new("int64_t[]", n * slots)
        counts = ffi.new("int64_t[]", n * slots)
        for j, (pairs, block, rc, accuracy, base) in enumerate(cases):
            for k in range(19):
                outs[j * out_slots + k] = base + 37 * k
            for depth, count in block.items():
                outs[j * out_slots + 19 + depth] = count
            rcs[j] = rc
            accuracies[j] = accuracy
            hist_lens[j] = len(pairs)
            for k, (depth, count) in enumerate(pairs):
                depths[j * slots + k] = depth
                counts[j * slots + k] = count
        return outs, rcs, accuracies, hist_lens, depths, counts

    @pytest.mark.parametrize("cell_bytes", [adapter._RENDER_CELL_BYTES, 8])
    def test_edge_blocks_match_finalize(self, monkeypatch, cell_bytes):
        # cell_bytes=8 makes every shard outgrow its first buffer
        from repro.sim.native.build import kernel_or_none

        monkeypatch.setattr(adapter, "_RENDER_CELL_BYTES", cell_bytes)
        kernel = kernel_or_none()
        big = (1 << 63) - 1
        many = [(d * 7919 % 100_003, d % 5) for d in range(adapter.BATCH_HIST_SLOTS)]
        context = [
            # depths 9, 10 and 100 sort as strings; duplicates sum and
            # zero counts stay
            ([(100, 1), (10, 2), (9, 3), (4, 0), (9, 1)], {}, 0, 0.1, 1),
            ([], {9: 4, 10: 1, 100: 6, 0: 2, 128: 3}, 0, float("nan"), 5),
            ([(1, big)], {}, 0, float("inf"), big - 18 * 37),
            ([(3, 1), (30, 2), (300, 0)], {}, 0, float("-inf"), -(1 << 62)),
            (many, {}, 0, -0.0, 7),
            ([(1, 1)], {}, -4, 0.5, 9),
            ([], {}, 0, 1e-300, 0),
        ]
        tables = [
            ([], {9: 1, 10: 2, 100: 3}, 0, 0.25, 11),
            ([], {}, 0, 0.0, 12),
        ]
        cases = context + tables
        meta = [("context", 1234 + j, None) for j in range(len(context))]
        stand_ins = [
            _Named('stride "x" é', 99, float("nan")),
            _Named("none", 0, 0.0),
        ]
        meta += [(pf.name, pf.storage_bits(), pf.accuracy()) for pf in stand_ins]
        block = self._block(kernel, cases)
        texts = adapter.phase_render(kernel, block, meta, workload_name=self.WORKLOAD)
        out_slots = adapter.OUT_SLOTS
        for j, (pairs, _block, rc, accuracy, _base) in enumerate(cases):
            if rc:
                assert texts[j] is None
                continue
            if j < len(context):
                pf, acc, hist = _Named("context", 1234 + j), accuracy, pairs
            else:
                pf, acc, hist = stand_ins[j - len(context)], None, ()
            want = adapter.phase_finalize(
                block[0] + j * out_slots,
                workload_name=self.WORKLOAD,
                pf=pf,
                accuracy=acc,
                hist=hist,
            )
            assert texts[j] == encode_text(want), f"case {j}"

    def test_text_equals_the_per_cell_run_over_the_fuzz_space(self):
        # every family, the fuzz suite's context space and its edge
        # configs (refusals included) through the production path: a
        # table the parent builds, a pickle round trip, one kernel call
        import copy

        from test_native_fuzz import (
            _edge_configs,
            _fuzz_context,
            _fuzz_prefetcher,
            _seed_for,
        )

        trace = _trace("list")
        configs = _edge_configs()
        families = []
        for case in range(40):
            rng = random.Random(_seed_for(f"native-render/{case}"))
            degree = 100 if rng.random() < 0.05 else rng.randrange(1, 9)
            configs.append(_fuzz_context(rng, degree).config)
            pf = _fuzz_prefetcher(rng, 64)
            if not isinstance(pf, ContextPrefetcher):
                families.append(pf)
        assert {type(pf) for pf in families} >= {
            type(pf) for pf in (NoPrefetcher(), StridePrefetcher())
        } | {GHBPrefetcher, SMSPrefetcher, MarkovPrefetcher}
        table = adapter.context_rows(configs)
        for j, pf in enumerate(families):
            table.add_family(f"family-{j}", copy.deepcopy(pf))
        table = pickle.loads(pickle.dumps(table))
        cells = [(table.slot_row[s], s) for s in range(len(configs))] + [
            table.family.get(f"family-{j}", (-1, -1)) for j in range(len(families))
        ]
        at = [pos for pos, (row, _key) in enumerate(cells) if row >= 0]
        texts, reasons, _t, _l = adapter.run_native_batch(
            [cells[pos][0] for pos in at], [cells[pos][1] for pos in at], trace,
            table=table, workload_name=self.WORKLOAD, limit=None, threads=2,
        )
        assert reasons == [None] * len(at)
        batch = dict(zip(at, texts))
        wants = [ContextPrefetcher(cfg) for cfg in configs] + families
        for pos, pf in enumerate(wants):
            # a cell leaves the batch only for the refusal its own
            # single-cell native run meets
            if pos not in batch:
                _kind, row, reason = adapter._live_row(pf)
                assert row is None, pos
                if pos < len(configs):
                    assert table.refused[pos] == reason, pos
                continue
            sim = Simulator(pf, native=True)
            single = sim.run(trace, workload_name=self.WORKLOAD)
            assert sim.last_run_native, pos
            assert batch[pos] == encode_text(single), f"cell {pos} ({pf.name})"
        assert len(batch) > len(wants) // 2


def _seed_table(n: int) -> tuple:
    rng = random.Random(3)
    base = ContextPrefetcherConfig()
    return tuple(dataclasses.replace(base, seed=rng.getrandbits(32)) for _ in range(n))


def _round_trip(message):
    """What a worker queue does to a batch message."""
    return pickle.loads(pickle.dumps(message))


class TestRowsIn:
    """A kernel batch carries its slots' rows, built once by the sweep's
    parent, and its configs as one blob the worker opens only for a cell
    that leaves the kernel."""

    def _shared(self, table, **kwargs):
        return BatchShared(
            workload="rows-in",
            limit=None,
            native=kwargs.pop("native", True),
            context_table=table,
            trace=tuple(_trace("list")),
            **kwargs,
        )

    def test_a_kernel_shard_needs_no_config(self, monkeypatch):
        configs = _seed_table(24)
        cells = tuple((i, "context", i) for i in range(len(configs)))
        want, _ = run_batch(
            self._shared(ContextTable(configs), kernel_batch=False), cells
        )
        table = ContextTable(configs, adapter.context_rows(configs))
        shared, cells = _round_trip((self._shared(table), cells))

        def no_row(cfg):
            raise AssertionError("context_row ran on the executing side")

        monkeypatch.setattr(adapter, "context_row", no_row)
        got, _ = run_batch(shared, cells)
        assert not shared.context_table.opened
        assert [info for _i, _p, info in got] == [(True, None)] * len(cells)
        assert [(i, p) for i, p, _ in got] == [(i, p) for i, p, _ in want]

    def test_every_slot_gets_the_row_context_row_builds(self):
        # seed variants reuse the previous slot's row; a signed zero or
        # an equal value in a new object must not share a row it differs
        # from bit for bit
        from test_native_fuzz import _edge_configs, _fuzz_context, _seed_for

        base = ContextPrefetcherConfig()
        configs = [None, base]
        for seed in (1, 2, -(1 << 70)):
            configs.append(dataclasses.replace(configs[-1], seed=seed))
        configs += [
            dataclasses.replace(base, shadow_probability=0.0),
            dataclasses.replace(base, shadow_probability=-0.0),
            dataclasses.replace(base, shadow_probability=-0.0, seed=9),
            dataclasses.replace(base, cst_entries=int("1024")),
            dataclasses.replace(base, reward_peak=0),  # rejected
            dataclasses.replace(base, reward_peak=0, seed=4),
        ]
        configs += _edge_configs()
        for case in range(20):
            rng = random.Random(_seed_for(f"native-rows/{case}"))
            cfg = _fuzz_context(rng, rng.randrange(1, 9)).config
            configs += [cfg, dataclasses.replace(cfg, seed=case)]
        rows = pickle.loads(pickle.dumps(adapter.context_rows(configs)))
        assert len(rows.slot_row) == len(configs)
        for slot, cfg in enumerate(configs):
            cfg = ContextPrefetcherConfig() if cfg is None else cfg
            try:
                want, reason = adapter.context_row(cfg)
            except ValueError as exc:
                want, reason = None, f"ValueError: {exc}"
            r = rows.slot_row[slot]
            if want is None:
                assert r == -1 and rows.refused[slot] == reason, slot
                continue
            icfg, dcfg, key = want
            at, dat = rows.cfg_at[r], rows.dcfg_at[r]
            assert rows.kinds[r] == adapter._PF_CONTEXT
            assert list(rows.cfgs[at : at + len(icfg)]) == icfg, slot
            got = rows.dcfgs[dat : dat + len(dcfg)].tobytes()
            assert got == array("d", dcfg).tobytes(), slot
            assert rows.meta[r] == ("context", cfg.storage_bits(), None)
            assert list(rows.keys[rows.key_at[slot] : rows.key_at[slot + 1]]) == key
        # the default slot, the paper default and its seed variants share
        # one row; the signed zero has a row of its own
        assert len({rows.slot_row[s] for s in range(5)}) == 1
        assert rows.slot_row[5] != rows.slot_row[6] == rows.slot_row[7]

    def test_the_message_does_not_outgrow_pickled_configs(self):
        # an 834-slot seed slice, the seed-sweep shard shape
        configs = _seed_table(834)
        table = ContextTable(configs, adapter.context_rows(configs))
        assert len(table.rows.kinds) == 1  # one row, 834 seed keys
        cells = tuple((i, "context", i) for i in range(len(configs)))
        rows_in = pickle.dumps((self._shared(table), cells))
        # the same message with the configs pickled plainly instead
        bare = pickle.dumps((self._shared(ContextTable((None,))), cells))
        assert len(rows_in) < len(bare) + len(pickle.dumps(configs))
        # the blob is made once, however many messages carry the table
        blob = table._blob
        pickle.dumps(self._shared(table))
        assert table._blob is blob

    @pytest.mark.parametrize(
        "native, kernel_batch",
        [(True, True), (True, False), (False, True)],
        ids=["kernel", "per-cell", "interpreted"],
    )
    def test_cells_leaving_the_kernel_match_the_oracle(
        self, monkeypatch, native, kernel_batch
    ):
        base = ContextPrefetcherConfig()
        configs = (
            None,
            dataclasses.replace(base, max_degree=100),  # refused row
            dataclasses.replace(base, seed=5),
        )
        cells = ((0, "context", 0), (1, "context", 1), (2, "stride", 0),
                 (3, "context", 2))
        trace = _trace("list")
        oracle = [
            encode_text(Simulator(pf, native=False).run(trace, workload_name="rows-in"))
            for pf in (
                ContextPrefetcher(base),
                ContextPrefetcher(configs[1]),
                StridePrefetcher(),
                ContextPrefetcher(configs[2]),
            )
        ]
        # every context cell's histogram overflows: a nonzero status
        monkeypatch.setattr(adapter, "BATCH_HIST_SLOTS", 1)
        table = ContextTable.with_rows(configs, ("context", "stride"))
        assert table.rows.slot_row[1] == -1
        shared, cells = _round_trip(
            (self._shared(table, native=native, kernel_batch=kernel_batch), cells)
        )
        got, _ = run_batch(shared, cells)
        assert [text for _i, text, _info in got] == oracle
        assert shared.context_table.opened
        if native:
            # the refused row still reports its reason
            refusal = adapter.context_row(configs[1])[1]
            assert got[1][2] == (False, refusal)
        else:
            assert [info for _i, _t, info in got] == [
                (False, "native mode disabled")
            ] * len(cells)

    def test_a_rejected_config_fails_at_execution_not_planning(self):
        bad = ContextPrefetcherConfig(reward_peak=0)
        with pytest.raises(ValueError) as want:
            ContextPrefetcher(bad)
        table = ContextTable((None, bad), adapter.context_rows((None, bad)))
        assert list(table.rows.slot_row) == [0, -1]
        shared, cells = _round_trip(
            (self._shared(table), ((0, "context", 0), (1, "context", 1)))
        )
        with pytest.raises(ValueError) as got:
            run_batch(shared, cells)
        assert str(got.value) == str(want.value)


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

        rows, keys, table = _cell_table(cells())
        results, reasons, _t, _l = adapter.run_native_batch(
            rows, keys, trace, table=table, workload_name="batch-test",
            limit=None, threads=1,
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
        table = ContextTable.with_rows((None,), ("stride", "context", "none"))
        on, _ = run_batch(
            BatchShared(**shared, context_table=table, kernel_batch=True), cells
        )
        off, _ = run_batch(BatchShared(**shared, kernel_batch=False), cells)
        assert [(i, p) for i, p, _info in on] == [(i, p) for i, p, _info in off]
        # the overflowed cell reran through the single-cell native path
        assert [info for _i, _p, info in on] == [(True, None)] * 3


class TestBatchCounters:
    def test_counters_accumulate(self, monkeypatch):
        adapter.reset_batch_counters()
        trace = _trace("list")
        rows, keys, table = _cell_table(
            [
                StridePrefetcher(StrideConfig(degree=2)),
                ContextPrefetcherConfig(),
                StridePrefetcher(StrideConfig(degree=4)),
            ]
        )
        # the context cell's histogram overflows: it falls back
        monkeypatch.setattr(adapter, "BATCH_HIST_SLOTS", 1)
        adapter.run_native_batch(
            rows, keys, trace, table=table, workload_name="batch-test",
            limit=None, threads=2,
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
        configs = (
            None,
            dataclasses.replace(base, seed=11),
            dataclasses.replace(base, max_degree=100),  # falls back
        )
        return BatchShared(
            workload="pool-batch-test",
            limit=None,
            native=True,
            context_table=ContextTable.with_rows(configs, ("context", "stride", "none")),
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


def _family_batch(trace) -> tuple:
    """``(texts, reasons)`` of one ``run_native_batch`` call that runs
    every family of the registry once over ``trace``."""
    table = ContextTable.with_rows((None,), PREFETCHER_ORDER).rows
    cells = [
        (table.slot_row[0], 0) if name == "context" else table.family[name]
        for name in PREFETCHER_ORDER
    ]
    texts, reasons, _trace, _limit = adapter.run_native_batch(
        [row for row, _key in cells],
        [key for _row, key in cells],
        trace,
        table=table,
        workload_name="records",
        limit=None,
    )
    return texts, reasons


def _oracle_text(name: str, trace) -> str:
    sim = Simulator(PREFETCHER_FACTORIES[name](), native=False)
    return encode_text(sim.run(trace, workload_name="records"))


class TestRecordBoundary:
    """The kernel's one input is the trace store's packed record."""

    @pytest.fixture()
    def stored(self, tmp_path):
        """``list``'s records (about half carry a branch outcome and
        half are hinted), by value and as a store file's reader."""
        built = get_workload("list").build().trace()[:LIMIT]
        meta = write_trace(tmp_path / "t.rpt", built, workload="list")
        reader = TraceReader(meta.path)
        yield tuple(built), reader
        reader.close()

    def test_a_store_file_and_its_records_by_value_give_one_text(self, stored):
        by_value, reader = stored
        texts, reasons = _family_batch(by_value)
        assert reasons == [None] * len(PREFETCHER_ORDER)
        assert _family_batch(reader) == (texts, reasons)
        for name, text in zip(PREFETCHER_ORDER, texts):
            assert text == _oracle_text(name, by_value), name

    @pytest.mark.parametrize(
        "access, reason",
        [
            pytest.param(
                MemoryAccess(addr=1 << 48, pc=0x400000),
                "an address exceeds the modelled 48-bit space",
                id="address-beyond-48-bits",
            ),
            pytest.param(
                MemoryAccess(addr=0x9000, pc=0x400000, branches=(True,) * 65),
                "an access does not fit the trace store's record format",
                id="65-branch-outcomes",
            ),
        ],
    )
    def test_a_trace_the_kernel_cannot_read_runs_on_the_oracle(
        self, tmp_path, access, reason
    ):
        trace = [*_trace("list")[:200], access, *_trace("list")[200:]]
        sources = [trace, tuple(trace)]
        if access.addr >> 48:  # the store holds any u64 address
            path = write_trace(tmp_path / "t.rpt", trace, workload="wide").path
            sources.append(TraceReader(path))
        for source in sources:
            texts, reasons = _family_batch(source)
            assert texts == [None] * len(PREFETCHER_ORDER)
            assert reasons == [reason] * len(PREFETCHER_ORDER)
            for name in PREFETCHER_ORDER:
                sim = Simulator(PREFETCHER_FACTORIES[name](), native=True)
                text = encode_text(sim.run(source, workload_name="records"))
                assert not sim.last_run_native, name
                assert sim.last_native_fallback == reason, name
                assert text == _oracle_text(name, trace), name
            if isinstance(source, TraceReader):
                source.close()

    def test_a_simulator_takes_a_context_prefetcher_after_a_table_family(self):
        # the kernel folds branch outcomes into the history register for
        # every family, as the oracle does, so a simulator that ran
        # stride natively hands a context prefetcher the same history
        first, second = _trace("list")[:150], _trace("list")[150:]
        texts = []
        for native in (True, False):
            sim = Simulator(PREFETCHER_FACTORIES["stride"](), native=native)
            sim.run(first, workload_name="records")
            sim.prefetcher = PREFETCHER_FACTORIES["context"]()
            result = sim.run(second, workload_name="records", start_index=150)
            assert sim.last_run_native is native
            texts.append(encode_text(result))
        assert texts[0] == texts[1]

    def test_a_reader_closes_after_a_native_run(self, stored):
        _by_value, reader = stored
        sim = Simulator(PREFETCHER_FACTORIES["context"](), native=True)
        sim.run(reader, workload_name="records")
        assert sim.last_run_native, sim.last_native_fallback
        _family_batch(reader)
        reader.close()


#: subprocess body for the team-size test: one one-cell batch asking for
#: four kernel threads, then the process's OS threads before and after
_TEAM_SCRIPT = """
import os
from repro.core.config import ContextPrefetcherConfig
from repro.sim.native.adapter import run_native_batch
from repro.sim.sched.pool import ContextTable
from repro.workloads.suites import get_workload

table = ContextTable.with_rows((ContextPrefetcherConfig(),), ("context",)).rows
trace = tuple(get_workload("list").build().trace()[:200])
before = len(os.listdir("/proc/self/task"))
texts, reasons, _trace, _limit = run_native_batch(
    [table.slot_row[0]], [0], trace, table=table, workload_name="list",
    limit=None, threads=4,
)
assert reasons == [None], reasons
print(before, len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(
    not Path("/proc/self/task").exists() or not kernel_openmp(),
    reason="needs /proc and the OpenMP build",
)
def test_a_kernel_team_never_outnumbers_its_cells() -> None:
    """libgomp keeps a team's threads for reuse, so a team larger than
    its shard would leave idle threads behind for the process's life."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[2] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TEAM_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert after == before


#: subprocess body for the worker-memory test: one 1,024-cell context
#: shard through the pool's batch entry point, then the peak RSS in KiB
_RSS_SCRIPT = """
import resource
from repro.core.config import ContextPrefetcherConfig
from repro.sim.sched.pool import BatchShared, ContextTable, run_batch
from repro.workloads.suites import get_workload

configs = tuple(ContextPrefetcherConfig(seed=seed) for seed in range(8))
table = ContextTable.with_rows(configs, ("context",))
cells = tuple((i, "context", i % len(configs)) for i in range(1024))
trace = tuple(get_workload("list").build().trace()[:50])
shared = BatchShared(
    workload="list", limit=50, native=True, context_table=table, trace=trace
)
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
        trace=trace,
    )
    on, _ = run_batch(
        BatchShared(
            **shared,
            context_table=ContextTable.with_rows(table, names),
            kernel_batch=True,
            kernel_threads=threads,
        ),
        cells,
    )
    off, _ = run_batch(
        BatchShared(**shared, context_table=ContextTable(table), kernel_batch=False),
        cells,
    )
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
