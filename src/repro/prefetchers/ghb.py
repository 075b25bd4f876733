"""Global History Buffer prefetcher (Nesbit & Smith, HPCA 2004).

The GHB is an n-entry FIFO of recent miss addresses; each entry links to
the previous entry that shared its index-table key, so walking the links
recovers a *localized* address stream.  Two axes define the flavour:

* **Localization** — Global (one stream) or PC (per load site).
* **Detection** — Delta Correlation: the most recent ``match_length``
  address deltas are matched against the older delta history; on a match,
  the deltas that followed the earlier occurrence are replayed as
  predictions.

The paper evaluates the G/DC and PC/DC flavours with a 2K-entry GHB,
history (match) length 3, and degree 3 (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.prefetchers.base import AccessInfo, Prefetcher, PrefetchRequest


@dataclass(slots=True)
class GHBConfig:
    ghb_entries: int = 2048
    index_entries: int = 256
    match_length: int = 3
    degree: int = 3
    max_walk: int = 64  # bound on link-chain traversal per access
    localization: str = "global"  # "global" or "pc"
    line_bytes: int = 64
    #: classic placement: the GHB records the L1 miss stream
    train_on_miss_only: bool = True

    def __post_init__(self) -> None:
        if self.localization not in ("global", "pc"):
            raise ValueError(f"unknown localization {self.localization!r}")
        if self.match_length < 1:
            raise ValueError("match_length must be >= 1")
        if self.ghb_entries < 1:
            raise ValueError("ghb_entries must be >= 1")


@dataclass(slots=True)
class _GHBEntry:
    addr: int
    link: int  # absolute sequence number of the previous same-key entry, or -1


class GHBPrefetcher(Prefetcher):
    """GHB with delta-correlation detection (G/DC or PC/DC)."""

    __slots__ = ("config", "name", "_buffer", "_next_seq", "_index")

    def __init__(self, config: GHBConfig | None = None):
        self.config = config or GHBConfig()
        self.name = "ghb-gdc" if self.config.localization == "global" else "ghb-pcdc"
        self._buffer: list[_GHBEntry | None] = [None] * self.config.ghb_entries
        self._next_seq = 0  # absolute sequence number of the next push
        self._index: dict[int, int] = {}  # key -> absolute seq of newest entry

    # ------------------------------------------------------------------

    def _key_for(self, access: AccessInfo) -> int:
        if self.config.localization == "pc":
            # the index table is tagged: one localized stream per PC, with
            # the table bounded to index_entries (FIFO eviction)
            return access.pc
        return 0

    def _entry_at(self, seq: int) -> _GHBEntry | None:
        """Entry for absolute sequence number ``seq`` if still resident."""
        if seq < 0 or seq < self._next_seq - self.config.ghb_entries:
            return None
        entry = self._buffer[seq % self.config.ghb_entries]
        return entry

    def _localized_stream(self, head_seq: int) -> list[int]:
        """Addresses of the localized stream, newest first."""
        stream: list[int] = []
        seq = head_seq
        oldest_valid = self._next_seq - self.config.ghb_entries
        while seq >= max(0, oldest_valid) and len(stream) < self.config.max_walk:
            entry = self._buffer[seq % self.config.ghb_entries]
            if entry is None:
                break
            stream.append(entry.addr)
            seq = entry.link
        return stream

    # ------------------------------------------------------------------

    def on_access(self, access: AccessInfo) -> list[PrefetchRequest]:
        cfg = self.config
        if cfg.train_on_miss_only and not access.primary_miss:
            return []
        addr = (access.addr // cfg.line_bytes) * cfg.line_bytes
        key = self._key_for(access)

        prev_seq = self._index.get(key, -1)
        # Drop a stale link if the previous entry has been overwritten.
        if self._entry_at(prev_seq) is None:
            prev_seq = -1
        seq = self._next_seq
        self._buffer[seq % cfg.ghb_entries] = _GHBEntry(addr=addr, link=prev_seq)
        self._index[key] = seq
        if len(self._index) > cfg.index_entries:
            oldest_key = next(iter(self._index))
            del self._index[oldest_key]
        self._next_seq += 1

        stream = self._localized_stream(seq)
        if len(stream) < cfg.match_length + 2:
            return []

        # Deltas, newest first: deltas[i] = stream[i] - stream[i+1].
        deltas = [stream[i] - stream[i + 1] for i in range(len(stream) - 1)]
        pattern = deltas[: cfg.match_length]

        # Find the most recent earlier occurrence of the pattern.
        match_at = -1
        for start in range(1, len(deltas) - cfg.match_length + 1):
            if deltas[start : start + cfg.match_length] == pattern:
                match_at = start
                break
        if match_at <= 0:
            return []

        # Replay the deltas that followed the match (the deltas at indices
        # just *newer* than the matched window, i.e. match_at-1 ... 0 going
        # forward in time), cumulatively from the current address.  When
        # the match is adjacent (a short-period pattern such as a pure
        # stride), fewer than ``degree`` observed deltas exist; continue
        # by repeating the matched period, as practical DC implementations
        # do to reach the configured degree.
        requests: list[PrefetchRequest] = []
        target = addr
        for step in range(1, cfg.degree + 1):
            idx = match_at - step
            delta = deltas[idx] if idx >= 0 else pattern[idx % cfg.match_length]
            target += delta
            if target > 0:
                requests.append(PrefetchRequest(addr=target))
        return requests

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        # GHB entry: 48-bit address + pointer (log2 entries); index table:
        # key tag + pointer.
        ptr_bits = max(1, (self.config.ghb_entries - 1).bit_length())
        ghb_bits = self.config.ghb_entries * (48 + ptr_bits)
        index_bits = self.config.index_entries * (16 + ptr_bits)
        return ghb_bits + index_bits

    def reset(self) -> None:
        self._buffer = [None] * self.config.ghb_entries
        self._index.clear()
        self._next_seq = 0

    def is_pristine(self) -> bool:
        return self._next_seq == 0 and not self._index
