"""PC-indexed stride prefetcher (Fu, Patel & Janssens, MICRO 1992).

A reference-prediction table keyed by the load PC tracks the last address
and stride per load site with a two-bit confidence state machine
(initial → transient → steady).  In the steady state it prefetches
``degree`` strides ahead.  The paper evaluated this prefetcher and found
it significantly weaker than the others (Section 7), which our Figure 12
reproduction confirms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest


@dataclass(slots=True)
class StrideConfig:
    table_entries: int = 512
    degree: int = 3
    line_bytes: int = 64
    #: classic placement: the prefetcher observes the L1 miss stream, so
    #: unit-stride loops appear as clean one-line strides
    train_on_miss_only: bool = True

    def __post_init__(self) -> None:
        # both divide every training access
        for name in ("table_entries", "line_bytes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(slots=True)
class _RPTEntry:
    tag: int
    last_addr: int
    stride: int = 0
    state: int = 0  # 0=initial, 1=transient, 2=steady


class StridePrefetcher(Prefetcher):
    """Classic reference-prediction-table stride prefetcher."""

    name = "stride"

    __slots__ = ("config", "_table")

    def __init__(self, config: StrideConfig | None = None):
        self.config = config or StrideConfig()
        self._table: dict[int, _RPTEntry] = {}

    def _index(self, pc: int) -> tuple[int, int]:
        idx = pc % self.config.table_entries
        tag = pc // self.config.table_entries
        return idx, tag

    def on_access(self, access: AccessInfo) -> list[PrefetchRequest]:
        cfg = self.config
        if cfg.train_on_miss_only and not access.primary_miss:
            return []
        addr = (access.addr // cfg.line_bytes) * cfg.line_bytes
        idx, tag = self._index(access.pc)
        entry = self._table.get(idx)

        if entry is None or entry.tag != tag:
            self._table[idx] = _RPTEntry(tag=tag, last_addr=addr)
            return []

        stride = addr - entry.last_addr
        if stride == entry.stride and stride != 0:
            entry.state = min(2, entry.state + 1)
        elif stride != 0:
            # new stride: transient — one confirmation away from steady
            entry.stride = stride
            entry.state = 1
        else:
            entry.state = 0
        entry.last_addr = addr

        if entry.state < 2 or entry.stride == 0:
            return []
        requests = []
        for k in range(1, cfg.degree + 1):
            target = addr + entry.stride * k
            if target > 0:
                requests.append(PrefetchRequest(addr=target))
        return requests

    def storage_bits(self) -> int:
        # tag (32) + last addr (48) + stride (16) + state (2) per entry
        return self.config.table_entries * (32 + 48 + 16 + 2)

    def reset(self) -> None:
        self._table.clear()

    def is_pristine(self) -> bool:
        return not self._table
