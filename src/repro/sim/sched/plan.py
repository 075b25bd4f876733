"""Grid plans: deterministic enumeration and sharding of sweep grids.

A :class:`GridPlan` is the declarative form of a parameter sweep: the
workload, context-configuration and prefetcher axes, plus the shared
hierarchy/core configs and the trace truncation limit.  Enumeration
order is the serial loop's order — workloads outer, configs middle,
prefetchers inner — so every consumer (scheduler, result DB, progress
reporting) agrees on cell indices without communicating.

Cells are content-addressed with :func:`~repro.sim.cache.cell_key`,
so a plan cell and the result-DB row for the same simulated inputs
share one key, whichever plan committed it.  The
sweep id is a hash over the ordered key list: two plans that simulate
the same cells in the same order are the same sweep, however they were
spelled, and any change that would alter a simulated result (trace
content, config field, semantic source) re-keys the sweep.

``native`` is deliberately excluded from both keys — the compiled
kernel is bit-neutral, so a sweep resumed under the other kernel mode
must keep its completed cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.cache import CellKeyer, plain_data

__all__ = [
    "DEFAULT_BATCH_CELLS",
    "KERNEL_BATCH_CELLS",
    "GridPlan",
    "PlanCell",
    "shard_by_workload",
]

#: upper bound on cells per dispatched batch: small enough that results
#: stream back (and commit to the DB) while the grid is still running,
#: large enough that per-batch IPC is amortized over many cells
DEFAULT_BATCH_CELLS = 512

#: upper bound when the shard executes inside the kernel's batch driver
#: (one GIL-released C call per shard): the per-shard Python cost is
#: near-constant there, so doubling the shard roughly halves boundary
#: overhead while a commit granule of ~1k sub-millisecond cells still
#: streams results back several times per second
KERNEL_BATCH_CELLS = 1024


class PlanCell(NamedTuple):
    """One grid position: integer refs into the plan's axes, no configs.

    Cells deliberately carry only the index, the prefetcher name and the
    context-config *table index* — the configs themselves ride the
    once-per-batch shared header (PERF004 pins this layout).
    """

    index: int
    workload: str
    prefetcher: str
    context_id: int


@dataclass(frozen=True)
class GridPlan:
    """A declarative sweep grid over registry workloads."""

    workloads: tuple[str, ...]
    prefetchers: tuple[str, ...]
    #: context-prefetcher variants; ``None`` means the paper default.
    #: Non-``context`` cells ignore the axis for keying (their configs
    #: live in source), but still enumerate once per entry so the grid
    #: stays a full cross product with stable indices.
    context_configs: tuple[ContextPrefetcherConfig | None, ...] = (None,)
    limit: int | None = None
    hierarchy_config: HierarchyConfig | None = None
    core_config: CoreConfig | None = None

    def __post_init__(self) -> None:
        if not self.workloads or not self.prefetchers or not self.context_configs:
            raise ValueError("GridPlan axes must be non-empty")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"limit must be non-negative, not {self.limit}")

    @property
    def n_cells(self) -> int:
        return (
            len(self.workloads) * len(self.context_configs) * len(self.prefetchers)
        )

    def cells(self) -> Iterator[PlanCell]:
        """Deterministic grid order: workload » config » prefetcher.

        All cells of one workload are contiguous, which is what makes
        workload-affinity sharding a pure slicing operation.
        """
        index = 0
        for workload in self.workloads:
            for context_id in range(len(self.context_configs)):
                for prefetcher in self.prefetchers:
                    yield PlanCell(index, workload, prefetcher, context_id)
                    index += 1

    def context_fragments(self) -> list[str]:
        """Each context-table slot's canonical JSON, in table order.

        A ``None`` slot renders as the paper default it keys as.  This
        is the one rendering :meth:`cell_keys` and :meth:`spec` are both
        built from: ``run_plan`` renders once and hands the list to
        both.  It is not cached on the plan: for 2,500 slots it is about
        2.6 MB, which would live as long as the plan does.
        """
        return self._keyer().context_fragments(self.context_configs)

    def cell_keys(
        self,
        fingerprints: dict[str, str],
        fragments: Sequence[str] | None = None,
    ) -> list[str]:
        """Content-addressed key per cell, in enumeration order.

        ``fingerprints`` maps each workload to its full-trace content
        fingerprint (the store header carries it; the scheduler resolves
        it once per workload).  Keys are identical to
        :func:`~repro.sim.cache.cell_key`'s, so every plan addresses a
        DB row the same way.

        Built through :class:`~repro.sim.cache.CellKeyer`: the configs
        shared by the whole grid serialize once, and each context-table
        slot is its :meth:`context_fragments` entry (``fragments``, when
        the caller has rendered them already).
        """
        if fragments is None:
            fragments = self.context_fragments()
        keyer = self._keyer()
        return [
            keyer.key(
                workload=cell.workload,
                trace_fp=fingerprints[cell.workload],
                prefetcher=cell.prefetcher,
                context_fragment=fragments[cell.context_id],
            )
            for cell in self.cells()
        ]

    def spec(self, fragments: Sequence[str] | None = None) -> str:
        """Canonical JSON description of the grid (stored in the DB).

        Byte-identical to ``json.dumps`` of the plan with
        ``dataclasses.asdict`` configs, sorted keys and compact
        separators.  The context-config array is spliced together from
        :meth:`context_fragments` (``fragments``, when the caller has
        rendered them already), each of which is its slot's canonical
        JSON, so no config is serialized a second time.
        """
        if fragments is None:
            fragments = self.context_fragments()
        slots = ",".join(
            "null" if cfg is None else fragment
            for cfg, fragment in zip(self.context_configs, fragments, strict=True)
        )
        rest = json.dumps(
            {
                "workloads": list(self.workloads),
                "prefetchers": list(self.prefetchers),
                "limit": self.limit,
                "hierarchy": (
                    None
                    if self.hierarchy_config is None
                    else plain_data(self.hierarchy_config)
                ),
                "core": (
                    None
                    if self.core_config is None
                    else plain_data(self.core_config)
                ),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        # "context_configs" sorts before every other field
        return f'{{"context_configs":[{slots}],{rest[1:]}'

    def _keyer(self) -> CellKeyer:
        return CellKeyer(
            limit=self.limit,
            hierarchy_config=self.hierarchy_config,
            core_config=self.core_config,
        )

    @staticmethod
    def sweep_id(keys: Sequence[str]) -> str:
        """Content address of a sweep: a hash of its ordered cell keys."""
        digest = hashlib.sha256()
        for key in keys:
            digest.update(key.encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()


_T = TypeVar("_T")


def shard_by_workload(
    items: Sequence[_T],
    workload_of: Callable[[_T], str],
    jobs: int,
    max_batch: int = DEFAULT_BATCH_CELLS,
) -> list[tuple[_T, ...]]:
    """Workload-affinity batches, grid order, bounded batch size.

    Generalizes the PR 5 affinity grouping: all cells of a batch share
    one workload (the worker materialises the trace once per batch and
    its memo keeps it resident across batches), each workload splits
    into enough contiguous chunks to occupy every worker, and no batch
    exceeds ``max_batch`` cells so results stream back — and commit to
    the result DB — while the grid is still executing.
    """
    groups: dict[str, list[_T]] = {}
    for item in items:
        groups.setdefault(workload_of(item), []).append(item)
    if not groups:
        return []
    chunks_per = max(1, -(-max(1, jobs) // len(groups)))  # ceil division
    batches: list[tuple[_T, ...]] = []
    for cells in groups.values():
        k = max(min(len(cells), chunks_per), -(-len(cells) // max_batch))
        size = -(-len(cells) // k)
        for start in range(0, len(cells), size):
            batches.append(tuple(cells[start : start + size]))
    return batches
