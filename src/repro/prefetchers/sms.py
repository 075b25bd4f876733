"""Spatial Memory Streaming prefetcher (Somogyi et al., ISCA 2006).

SMS learns *spatial patterns*: bitmaps of which cache lines are touched
within a fixed-size region during one "generation" of accesses.  Patterns
are indexed by the trigger access's (PC, region offset), so the same code
touching a fresh region replays the learned footprint.

Structures (paper-scaled per Table 2): a 32-entry filter table for regions
touched once, a 32-entry active generation table (AGT) accumulating
patterns, and a 2K-entry pattern history table (PHT).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest


@dataclass(slots=True)
class SMSConfig:
    region_bytes: int = 2048
    line_bytes: int = 64
    filter_entries: int = 32
    agt_entries: int = 32
    pht_entries: int = 2048
    #: a generation also ends after this many demand accesses without a
    #: touch to the region (stand-in for the L1-eviction end condition)
    generation_timeout: int = 512

    def __post_init__(self) -> None:
        # each divides every access or every PHT index
        for name in ("region_bytes", "line_bytes", "pht_entries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def lines_per_region(self) -> int:
        return self.region_bytes // self.line_bytes


@dataclass(slots=True)
class _Generation:
    region: int
    trigger_pc: int
    trigger_offset: int  # line offset within region
    pattern: int  # bitmap over lines_per_region
    last_touch: int  # access index of the most recent touch


class SMSPrefetcher(Prefetcher):
    """Spatial memory streaming with trigger-(PC, offset) pattern indexing."""

    name = "sms"

    __slots__ = ("config", "_filter", "_agt", "_pht", "generations_trained")

    def __init__(self, config: SMSConfig | None = None):
        self.config = config or SMSConfig()
        self._filter: OrderedDict[int, _Generation] = OrderedDict()
        self._agt: OrderedDict[int, _Generation] = OrderedDict()
        self._pht: dict[int, int] = {}  # hashed (pc, offset) -> pattern
        self.generations_trained = 0

    # ------------------------------------------------------------------

    def _pht_index(self, pc: int, offset: int) -> int:
        return (pc * 0x9E3779B1 + offset) % self.config.pht_entries

    def _region_of(self, addr: int) -> tuple[int, int]:
        region = addr // self.config.region_bytes
        offset = (addr % self.config.region_bytes) // self.config.line_bytes
        return region, offset

    def _end_generation(self, gen: _Generation) -> None:
        """Commit a finished generation's pattern to the PHT."""
        if bin(gen.pattern).count("1") >= 2:
            idx = self._pht_index(gen.trigger_pc, gen.trigger_offset)
            self._pht[idx] = gen.pattern
            self.generations_trained += 1

    def _expire_stale(self, now_index: int) -> None:
        timeout = self.config.generation_timeout
        stale = [
            region
            for region, gen in self._agt.items()
            if now_index - gen.last_touch > timeout
        ]
        for region in stale:
            self._end_generation(self._agt.pop(region))
        stale_f = [
            region
            for region, gen in self._filter.items()
            if now_index - gen.last_touch > timeout
        ]
        for region in stale_f:
            del self._filter[region]

    # ------------------------------------------------------------------

    def on_access(self, access: AccessInfo) -> list[PrefetchRequest]:
        cfg = self.config
        region, offset = self._region_of(access.addr)
        self._expire_stale(access.index)

        gen = self._agt.get(region)
        if gen is not None:
            gen.pattern |= 1 << offset
            gen.last_touch = access.index
            self._agt.move_to_end(region)
            return []

        gen = self._filter.get(region)
        if gen is not None:
            # Second unique line promotes the region to the AGT.
            gen.last_touch = access.index
            if not gen.pattern & (1 << offset):
                gen.pattern |= 1 << offset
                del self._filter[region]
                self._agt[region] = gen
                if len(self._agt) > cfg.agt_entries:
                    _, evicted = self._agt.popitem(last=False)
                    self._end_generation(evicted)
            return []

        # Trigger access: a region with no active generation.
        gen = _Generation(
            region=region,
            trigger_pc=access.pc,
            trigger_offset=offset,
            pattern=1 << offset,
            last_touch=access.index,
        )
        self._filter[region] = gen
        if len(self._filter) > cfg.filter_entries:
            self._filter.popitem(last=False)

        # Predict: replay the learned footprint for this trigger.
        pattern = self._pht.get(self._pht_index(access.pc, offset), 0)
        if pattern == 0:
            return []
        base = region * cfg.region_bytes
        requests = []
        for line in range(cfg.lines_per_region):
            if pattern & (1 << line) and line != offset:
                requests.append(PrefetchRequest(addr=base + line * cfg.line_bytes))
        return requests

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        cfg = self.config
        pattern_bits = cfg.lines_per_region
        # filter/AGT: region tag (26) + pc (32) + offset (5) + pattern
        gen_bits = 26 + 32 + 5 + pattern_bits
        pht_bits = cfg.pht_entries * pattern_bits
        return (cfg.filter_entries + cfg.agt_entries) * gen_bits + pht_bits

    def reset(self) -> None:
        self._filter.clear()
        self._agt.clear()
        self._pht.clear()
        self.generations_trained = 0

    def is_pristine(self) -> bool:
        return (
            not self._filter
            and not self._agt
            and not self._pht
            and self.generations_trained == 0
        )
