"""Markov prefetcher (Joseph & Grunwald, ISCA 1997).

Discussed in the paper's related work (Section 3): the memory access
stream is modelled as a Markov process whose states are miss addresses;
each state keeps the most likely successor addresses, and a miss
prefetches its predicted successors.  The paper's critique — the model
"does not use other context information, which greatly limits its
scalability to predict diverging paths" — is directly observable here:
the Markov table keys on the address alone, so a node reached from two
different traversals cannot disambiguate its successor.

Implemented as a bounded first-order Markov table over the L1 miss
stream at cache-line granularity, with per-state LRU successor lists and
frequency counts (the classic design).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest


@dataclass(slots=True)
class MarkovConfig:
    table_entries: int = 2048
    successors_per_entry: int = 4
    degree: int = 2
    line_bytes: int = 64
    train_on_miss_only: bool = True

    def __post_init__(self) -> None:
        # divides every training access
        if self.line_bytes < 1:
            raise ValueError("line_bytes must be >= 1")


@dataclass(slots=True)
class _State:
    #: successor line -> observation count
    successors: dict[int, int] = field(default_factory=dict)

    def observe(self, line: int, max_successors: int) -> None:
        if line in self.successors:
            self.successors[line] += 1
            return
        if len(self.successors) >= max_successors:
            victim = min(self.successors, key=self.successors.get)
            del self.successors[victim]
        self.successors[line] = 1

    def predict(self, count: int) -> list[int]:
        ranked = sorted(self.successors, key=self.successors.get, reverse=True)
        return ranked[:count]


class MarkovPrefetcher(Prefetcher):
    """First-order Markov predictor over the miss-address stream."""

    name = "markov"

    __slots__ = ("config", "_table", "_last_line")

    def __init__(self, config: MarkovConfig | None = None):
        self.config = config or MarkovConfig()
        self._table: OrderedDict[int, _State] = OrderedDict()
        self._last_line: int | None = None

    def on_access(self, access: AccessInfo) -> list[PrefetchRequest]:
        cfg = self.config
        if cfg.train_on_miss_only and not access.primary_miss:
            return []
        line = access.addr // cfg.line_bytes

        # train: record the transition from the previous miss
        if self._last_line is not None and self._last_line != line:
            state = self._table.get(self._last_line)
            if state is None:
                state = _State()
                self._table[self._last_line] = state
                if len(self._table) > cfg.table_entries:
                    self._table.popitem(last=False)
            else:
                self._table.move_to_end(self._last_line)
            state.observe(line, cfg.successors_per_entry)
        self._last_line = line

        # predict: replay this line's most frequent successors
        state = self._table.get(line)
        if state is None:
            return []
        self._table.move_to_end(line)
        return [
            PrefetchRequest(addr=successor * cfg.line_bytes)
            for successor in state.predict(cfg.degree)
        ]

    def storage_bits(self) -> int:
        # per entry: 48-bit tag + successors * (48-bit address + 8-bit count)
        cfg = self.config
        return cfg.table_entries * (48 + cfg.successors_per_entry * (48 + 8))

    def reset(self) -> None:
        self._table.clear()
        self._last_line = None

    def is_pristine(self) -> bool:
        return not self._table and self._last_line is None
