"""Trace supply: how a sweep workload's access stream reaches a batch.

Parent side, :func:`resolve_supply` turns each workload of a grid into
a :class:`TraceSupply` once per sweep: its full-trace content
fingerprint (half of every cell key) plus the cheapest way a batch can
get at its records:

* **a compiled store file** — registry workloads with a trace store
  configured.  The batch ships the path and fingerprint; the executing
  process maps the file (zero-copy for the native kernel).  On a warm
  store this is a header read: the parent builds and hashes nothing;
* **the registry name** — registry workloads without a store.  The
  executing process rebuilds the trace from the workload's own config,
  re-seeding from it; no RNG state crosses the process boundary.  The
  parent builds the trace only to hash it, and only when a cell key
  must name its content (:meth:`TraceSupply.hashed`); the trace it
  built is kept for an in-process batch to run;
* **the records themselves** — ad-hoc :class:`TraceProgram` instances
  and :class:`WorkloadSpec` objects that are not the registry's own
  entry.  No other process could rebuild them, so they ship by value.
  A custom workload that merely shares a registry name ships by value
  too, so a worker can never run the wrong trace.

Executing side, :func:`resolve_worker_trace` materialises a batch's
trace, memoized per process so a worker that receives several batches
of one workload decodes it once.  A store file that went bad between
resolve and execute degrades to a rebuild by name, never a crash.
Degrade events are counted per process and travel back to the parent
by value with each batch's results (:func:`drain_store_degrades`):
nothing is shared across the spawn boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class TraceSupply:
    """One workload's content fingerprint and where its trace comes from."""

    workload: str
    #: full-trace content fingerprint; ``None`` for a registry workload
    #: this process has not hashed yet (see :meth:`hashed`)
    fingerprint: str | None
    #: compiled store file (registry workloads with a store configured)
    store_path: str | None = None
    #: the records, when this process holds them: an ad-hoc workload's
    #: trace, or a registry trace just built in order to fingerprint it
    trace: Sequence[MemoryAccess] | None = None
    #: another process may rebuild the workload from the registry by name
    by_name: bool = True

    def hashed(self) -> "TraceSupply":
        """This supply with its fingerprint known.

        Only a registry workload nobody has hashed in this process lacks
        one: its trace is built and hashed here, and kept so a batch
        that runs in this process need not rebuild it.
        """
        if self.fingerprint is not None:
            return self
        trace = get_workload(self.workload).build().trace()
        fp = _REGISTRY_FP_MEMO[self.workload] = trace_fingerprint(trace)
        return replace(self, fingerprint=fp, trace=trace)


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

#: full-trace fingerprints of *registry* workloads, memoized per process:
#: the trace is a pure function of the workload source (hashed into the
#: store address and the cache's code fingerprint), so within a process
#: the same name can never map to two different streams
_REGISTRY_FP_MEMO: dict[str, str] = {}


def _is_registered(spec: WorkloadSpec) -> bool:
    try:
        return get_workload(spec.name) is spec
    except KeyError:
        return False


def resolve_supply(
    workload: str | WorkloadSpec | TraceProgram,
    store: TraceStore | None,
) -> TraceSupply:
    """The :class:`TraceSupply` of one sweep workload.

    Fingerprints are hashed at most once per trace identity: the store
    header carries one, registry names are memoized per process, and an
    ad-hoc program memoizes its own.  A registry workload without a
    store is left unhashed until a key needs its content
    (:meth:`TraceSupply.hashed`).  An unusable store (unwritable
    directory) counts a degrade and falls back to the in-memory path.
    """
    if isinstance(workload, TraceProgram):
        trace = workload.trace()
        fp = getattr(workload, "_fingerprint_cache", None)
        if fp is None:
            fp = trace_fingerprint(trace)
            workload._fingerprint_cache = fp  # type: ignore[attr-defined]
        return TraceSupply(workload.name, fp, trace=trace, by_name=False)
    spec = get_workload(workload) if isinstance(workload, str) else workload
    if not _is_registered(spec):
        trace = spec.build().trace()
        return TraceSupply(
            spec.name, trace_fingerprint(trace), trace=trace, by_name=False
        )
    if store is not None:
        try:
            ref, _built = store.ensure(spec.name, build=spec)
        except TraceStoreError:
            count_store_degrade()
        else:
            return TraceSupply(spec.name, ref.fingerprint, store_path=ref.path)
    return TraceSupply(spec.name, _REGISTRY_FP_MEMO.get(spec.name))


# -- executing side: batch header -> trace ------------------------------


def _rebuild_by_name(workload: str, limit: int | None) -> Sequence[MemoryAccess]:
    trace: Sequence[MemoryAccess] = get_workload(workload).build().trace()
    if limit is not None:
        trace = trace[:limit]
    return trace


def _load_trace(
    workload: str,
    store_path: str | None,
    store_fingerprint: str,
    limit: int | None,
    native: bool,
) -> Sequence[MemoryAccess]:
    """Load one workload's trace from the store, or rebuild by name."""
    if store_path is not None:
        try:
            if native:
                # hand the mmap-backed reader straight to the simulator:
                # the native kernel decodes it zero-copy via as_array,
                # and any interpreted fallback iterates it lazily.  A
                # fingerprint mismatch falls through to read_trace, which
                # raises the descriptive store error
                reader = TraceReader(store_path)
                if (
                    not store_fingerprint
                    or reader.meta.fingerprint == store_fingerprint
                ):
                    return reader
            return read_trace(
                store_path,
                limit=limit,
                expect_fingerprint=store_fingerprint or None,
            )
        except (TraceStoreError, FileNotFoundError, OSError):
            # the store file went bad between resolve and execute;
            # degrade to a rebuild, never fail the sweep
            count_store_degrade()
    return _rebuild_by_name(workload, limit)


# Keyed by content fingerprint — never by path alone — so a swapped file
# can't alias a stale trace.  Capped: traces are large and workers churn
# through workloads in shard order, so keeping the last few is enough.
_WORKER_TRACE_MEMO: dict[
    tuple[str, str, str, int | None, bool], Sequence[MemoryAccess]
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
    """One batch's trace: shipped by value, mapped, or rebuilt by name."""
    if shipped is not None:
        return shipped
    if store_path is not None:
        key = ("store", store_path, store_fingerprint, limit, native)
    else:
        key = ("name", workload, "", limit, native)
    trace = _WORKER_TRACE_MEMO.get(key)
    if trace is None:
        trace = _load_trace(workload, store_path, store_fingerprint, limit, native)
        while len(_WORKER_TRACE_MEMO) >= _WORKER_TRACE_MEMO_CAP:
            _WORKER_TRACE_MEMO.pop(next(iter(_WORKER_TRACE_MEMO)))
        _WORKER_TRACE_MEMO[key] = trace
    return trace
