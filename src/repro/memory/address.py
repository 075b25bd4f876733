"""Address arithmetic helpers.

The paper's context prefetcher operates at 32-byte block granularity
(Section 7.3: finer granularities thrash its tables), while the caches use
64-byte lines.  These helpers centralise the alignment math so no module
hand-rolls shifts.
"""

from __future__ import annotations

#: Granularity at which the context prefetcher tracks addresses (bytes).
BLOCK_BYTES = 32

#: Cache line size used by both cache levels (bytes).
LINE_BYTES = 64

#: Size of the virtual address space modelled (48-bit, x86-64 canonical).
ADDRESS_BITS = 48
ADDRESS_MASK = (1 << ADDRESS_BITS) - 1


def align_down(addr: int, granularity: int) -> int:
    """Round ``addr`` down to a multiple of ``granularity`` (a power of two)."""
    return addr & ~(granularity - 1)


def block_of(addr: int, block_bytes: int = BLOCK_BYTES) -> int:
    """Return the block number containing byte address ``addr``."""
    return addr // block_bytes


def block_to_addr(block: int, block_bytes: int = BLOCK_BYTES) -> int:
    """Return the first byte address of block number ``block``."""
    return block * block_bytes


def line_of(addr: int, line_bytes: int = LINE_BYTES) -> int:
    """Return the cache-line number containing byte address ``addr``."""
    return addr // line_bytes


def line_to_addr(line: int, line_bytes: int = LINE_BYTES) -> int:
    """Return the first byte address of cache line number ``line``."""
    return line * line_bytes


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0

