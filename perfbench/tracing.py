"""Spans around the public functions of each ``repro`` layer.

Nothing here edits the program: :func:`layer_spans` rebinds public
functions and methods to timing wrappers for the length of a ``with``
block, and :class:`InlinePool` stands in for the worker pool so that
every layer, the worker-side ones included, runs in this process where
the wrappers can see it.

Spans are ``[name, start_ns, end_ns, parent]`` lists kept in memory and
written out once, at the end, as Chrome trace-event JSON (Perfetto and
``chrome://tracing`` open it directly).  Execution inside a traced
replay is sequential -- the scheduler's event loop waits while the
stand-in pool runs a batch on the loop's helper thread -- so one stack
gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import pickle
import sys
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Callable, Iterator

CountFn = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    """An in-memory span recorder with per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name of duration minus child-span duration."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
        return out

    def span_counts(self) -> Counter:
        return Counter(record[0] for record in self.spans)

    def table(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, total_s, self_s}}`` for every span name."""
        totals: dict[str, float] = {}
        for name, start, end, _parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
        selfs = self.self_times()
        calls = self.span_counts()
        return {
            name: {
                "calls": calls[name],
                "total_s": totals[name],
                "self_s": selfs[name],
            }
            for name in sorted(totals)
        }

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Complete ("X") events in microseconds from the first span."""
        origin = min((record[1] for record in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for name, start, end, _parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata,
                }
            )
        )


def _wrap(tracer: Tracer, name: str, fn: Callable, count: CountFn | None) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            record = tracer.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def rebound(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` inside the block.

    A class attribute is replaced on the class (a ``staticmethod`` stays
    one).  A module-level function is replaced in every loaded ``repro``
    module that bound the same object with ``from ... import``, so
    callers that resolved the name at import time see the wrapper too.
    """
    if inspect.isclass(owner):
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))
        try:
            yield
        finally:
            setattr(owner, attr, original)
        return
    original = getattr(owner, attr)
    replacement = make(original)
    modules = [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.split(".", 1)[0] == "repro"
        and module is not None
        and vars(module).get(attr) is original
    ]
    for module in modules:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module in modules:
            setattr(module, attr, original)


def _count_shards(counts: Counter, _args: tuple, _kwargs: dict, result: Any) -> None:
    counts["plan.shards"] += len(result)


def _count_batch(counts: Counter, args: tuple, _kwargs: dict, _result: Any) -> None:
    counts["pool.batches"] += 1
    counts["pool.cells"] += len(args[1])


def _count_accesses(counts: Counter, args: tuple, _kwargs: dict, _result: Any) -> None:
    # phase_batch_kernel(kernel, sim_hs, pf_hs, cols, ...): every cell
    # simulates the whole column set
    counts["adapter.sim_accesses"] += len(args[1]) * args[3].n


def _count_oracle(counts: Counter, args: tuple, _kwargs: dict, _result: Any) -> None:
    if not args[0].last_run_native:
        counts["simulator.oracle_cells"] += 1


def layer_targets() -> list[tuple[str, Any, str, CountFn | None]]:
    """``(span name, owner, attribute, counter)`` for every traced layer."""
    from repro.serve.service import SweepService
    from repro.sim import cache, codec, parallel, runner
    from repro.sim.native import adapter
    from repro.sim.sched import plan, pool, scheduler
    from repro.sim.sched.db import ResultDB
    from repro.sim.sched.plan import GridPlan
    from repro.sim.sched.scheduler import SweepScheduler
    from repro.sim.simulator import Simulator
    from repro.workloads.store import TraceStore

    return [
        ("service.submit", SweepService, "submit", None),
        ("scheduler.run_plan", SweepScheduler, "run_plan", None),
        ("scheduler.dispatch", scheduler, "dispatch", None),
        ("runner.compare", runner, "compare", None),
        ("parallel.compare", parallel, "parallel_compare", None),
        ("plan.cell_keys", GridPlan, "cell_keys", None),
        ("plan.cell_key", cache, "cell_key", None),
        ("plan.spec", GridPlan, "spec", None),
        ("plan.sweep_id", GridPlan, "sweep_id", None),
        ("plan.shard", plan, "shard_by_workload", _count_shards),
        ("db.open", ResultDB, "__init__", None),
        ("db.ensure_sweep", ResultDB, "ensure_sweep", None),
        ("db.diff", ResultDB, "completed_keys", None),
        ("db.diff", ResultDB, "load", None),
        ("db.commit", ResultDB, "store_cells", None),
        ("db.query", ResultDB, "query", None),
        ("store.ensure", TraceStore, "ensure", None),
        ("pool.run_batch", pool, "run_batch", _count_batch),
        ("adapter.run_native_batch", adapter, "run_native_batch", None),
        ("adapter.decode", adapter, "phase_decode", None),
        ("adapter.kernel", adapter, "phase_batch_kernel", _count_accesses),
        ("adapter.finalize", adapter, "phase_finalize", None),
        ("codec.encode", codec, "encode_result", None),
        ("codec.decode", codec, "decode_result", None),
        ("simulator.run", Simulator, "run", _count_oracle),
    ]


@contextlib.contextmanager
def layer_spans(tracer: Tracer) -> Iterator[None]:
    """Every function in :func:`layer_targets` records spans into ``tracer``."""
    with contextlib.ExitStack() as stack:
        for name, owner, attr, count in layer_targets():
            stack.enter_context(
                rebound(
                    owner,
                    attr,
                    lambda fn, name=name, count=count: _wrap(tracer, name, fn, count),
                )
            )
        yield


class InlinePool:
    """The worker pool's ``submit``/``drain_one`` interface, in process.

    Batches run through :func:`repro.sim.sched.pool.run_batch` in FIFO
    order when drained.  Tasks and results still make the pickle round
    trip a worker queue makes, so its cost and size stay in the replay
    (span ``pool.ipc``; ``ipc_bytes`` counts both directions).
    """

    def __init__(self, jobs: int, tracer: Tracer | None = None):
        self.jobs = jobs
        self.ipc_bytes = 0
        self._tracer = tracer
        self._queue: deque[bytes] = deque()

    def _ipc(self):
        return self._tracer.span("pool.ipc") if self._tracer else contextlib.nullcontext()

    def _round_trip(self, message: Any) -> Any:
        with self._ipc():
            blob = pickle.dumps(message)
            self.ipc_bytes += len(blob)
            return pickle.loads(blob)

    def alive(self) -> bool:
        return True

    def worker_pids(self) -> list[int]:
        return []

    def submit(self, batch_id: int, shared: Any, cells: Any) -> None:
        self._queue.append(self._round_trip((batch_id, shared, cells)))

    def drain_one(self) -> tuple[int, list, int]:
        from repro.sim.sched import pool

        batch_id, shared, cells = self._queue.popleft()
        results, degrades = pool.run_batch(shared, cells)
        _tag, batch_id, results, degrades = self._round_trip(
            ("done", batch_id, results, degrades)
        )
        return batch_id, results, degrades

    def close(self) -> None:
        self._queue.clear()


@contextlib.contextmanager
def inline_pool(pool: InlinePool) -> Iterator[None]:
    """Route ``shared_pool`` lookups to ``pool`` inside the block."""
    from repro.sim.sched import pool as pool_module

    with rebound(pool_module, "shared_pool", lambda _fn: lambda _jobs: pool):
        yield
