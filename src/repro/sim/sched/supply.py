"""Trace supply: how a sweep workload's access stream reaches a batch.

Parent side, :func:`resolve_supply` turns each workload of a grid into
a :class:`TraceSupply` once per sweep: its full-trace content
fingerprint (half of every cell key) plus one of two ways a batch gets
at its records:

* **a compiled store file** — every registry workload.  The batch
  ships the path and fingerprint; the executing process maps the file
  (zero-copy for the native kernel).  On a warm store this is a header
  read: the parent builds and hashes nothing;
* **the records themselves** — ad-hoc :class:`TraceProgram` instances
  and :class:`WorkloadSpec` objects that are not the registry's own
  entry, which no other process could rebuild, and registry traces
  whose store could not be written.  A custom workload that merely
  shares a registry name ships by value too, so a worker can never run
  the wrong trace.

Either way the fingerprint names the trace's content, so a cell key
means the same thing in every result DB.

Executing side, :func:`resolve_worker_trace` materialises a batch's
trace, memoized per process so a worker that receives several batches
of one workload maps it once.  A store file that went bad between
resolve and execute degrades to a rebuild by name, never a crash.
Degrade events are counted per process and travel back to the parent
by value with each batch's results (:func:`drain_store_degrades`):
nothing is shared across the spawn boundary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from repro.workloads.serialize import trace_fingerprint
from repro.workloads.store import (
    TraceReader,
    TraceStore,
    TraceStoreError,
    read_trace,
)
from repro.workloads.suites import WorkloadSpec, get_workload
from repro.workloads.trace import MemoryAccess, TraceProgram

__all__ = [
    "TraceSupply",
    "count_store_degrade",
    "drain_store_degrades",
    "resolve_supply",
    "resolve_worker_trace",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TraceSupply:
    """One workload's content fingerprint and where its trace comes from."""

    workload: str
    #: full-trace content fingerprint
    fingerprint: str
    #: compiled store file (registry workloads)
    store_path: str | None = None
    #: the records, shipped by value when there is no store file
    trace: Sequence[MemoryAccess] | None = None


# -- store-degrade accounting -------------------------------------------
#
# Each process counts its own corrupt-store degrade events; the parent
# drains its own counter after resolving a plan, and every batch drains
# the executing process's counter into its result message.  Both
# accessors are reachable from the worker entry point, so every access
# to the counter lives on one side of the boundary at a time.

_STORE_DEGRADES = [0]


def count_store_degrade() -> None:
    _STORE_DEGRADES[0] += 1


def drain_store_degrades() -> int:
    """Read-and-reset this process's degrade count (returned by value)."""
    count = _STORE_DEGRADES[0]
    _STORE_DEGRADES[0] = 0
    return count


# -- parent side: workload -> supply ------------------------------------


def _is_registered(spec: WorkloadSpec) -> bool:
    try:
        return get_workload(spec.name) is spec
    except KeyError:
        return False


def resolve_supply(
    workload: str | WorkloadSpec | TraceProgram, store: TraceStore
) -> TraceSupply:
    """The :class:`TraceSupply` of one sweep workload.

    A registry workload comes from ``store``, compiled on a miss; the
    store header carries its fingerprint.  An ad-hoc program memoizes
    its own fingerprint.  A store that cannot be written counts one
    degrade, and the trace its compile built ships by value.
    """
    if isinstance(workload, TraceProgram):
        trace = workload.trace()
        fp = getattr(workload, "_fingerprint_cache", None)
        if fp is None:
            fp = trace_fingerprint(trace)
            workload._fingerprint_cache = fp  # type: ignore[attr-defined]
        return TraceSupply(workload.name, fp, trace=trace)
    spec = get_workload(workload) if isinstance(workload, str) else workload
    trace = None
    if _is_registered(spec):
        try:
            ref, _built = store.ensure(spec.name, build=spec)
        except TraceStoreError as exc:
            count_store_degrade()
            log.warning("%s; %s ships by value", exc, spec.name)
            trace = exc.trace
        else:
            return TraceSupply(spec.name, ref.fingerprint, store_path=ref.path)
    if trace is None:
        trace = spec.build().trace()
    return TraceSupply(spec.name, trace_fingerprint(trace), trace=trace)


# -- executing side: batch header -> trace ------------------------------


def _load_trace(
    workload: str,
    store_path: str,
    store_fingerprint: str,
    limit: int | None,
    native: bool,
) -> Sequence[MemoryAccess]:
    """Load one workload's trace from the store, or rebuild it by name
    when the file went bad."""
    try:
        if native:
            # hand the mmap-backed reader straight to the simulator:
            # the native kernel reads its record block in place, and
            # any interpreted fallback iterates it lazily.  A
            # fingerprint mismatch falls through to read_trace, which
            # raises the descriptive store error
            reader = TraceReader(store_path)
            if (
                not store_fingerprint
                or reader.meta.fingerprint == store_fingerprint
            ):
                return reader
        return read_trace(
            store_path, limit=limit, expect_fingerprint=store_fingerprint or None
        )
    except (TraceStoreError, FileNotFoundError, OSError) as exc:
        # the store file went bad between resolve and execute; degrade
        # to a rebuild, never fail the sweep
        count_store_degrade()
        log.warning("%s; rebuilding %s", exc, workload)
    trace: Sequence[MemoryAccess] = get_workload(workload).build().trace()
    return trace if limit is None else trace[:limit]


# Keyed by content fingerprint — never by path alone — so a swapped file
# can't alias a stale trace.  Capped: traces are large and workers churn
# through workloads in shard order, so keeping the last few is enough.
_WORKER_TRACE_MEMO: dict[
    tuple[str, str, int | None, bool], Sequence[MemoryAccess]
] = {}
_WORKER_TRACE_MEMO_CAP = 4


def resolve_worker_trace(
    workload: str,
    store_path: str | None,
    store_fingerprint: str,
    limit: int | None,
    native: bool,
    shipped: Sequence[MemoryAccess] | None = None,
) -> Sequence[MemoryAccess]:
    """One batch's trace: shipped by value, or mapped from the store."""
    if shipped is not None:
        return shipped
    if store_path is None:
        raise ValueError(
            f"batch of {workload!r} carries neither a store path nor records"
        )
    key = (store_path, store_fingerprint, limit, native)
    trace = _WORKER_TRACE_MEMO.get(key)
    if trace is None:
        trace = _load_trace(workload, store_path, store_fingerprint, limit, native)
        while len(_WORKER_TRACE_MEMO) >= _WORKER_TRACE_MEMO_CAP:
            _WORKER_TRACE_MEMO.pop(next(iter(_WORKER_TRACE_MEMO)))
        _WORKER_TRACE_MEMO[key] = trace
    return trace
