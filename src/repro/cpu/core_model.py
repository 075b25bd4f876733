"""Interval-style out-of-order core timing model.

The paper evaluates on a gem5 OoO x86 core (4-wide fetch, 192-entry ROB,
32-entry LQ/SQ).  For a trace-driven reproduction we model the properties
the prefetcher's benefit depends on:

* **Frontend bandwidth** — instructions issue at ``issue_width`` per cycle.
* **Memory-level parallelism** — independent misses overlap freely; the
  load queue bounds how many memory operations are simultaneously in
  flight (the MSHR files in the hierarchy bound it further).
* **ROB-bounded latency hiding** — instructions retire in order, so once
  an access is ``rob_size`` instructions older than the frontend and still
  incomplete, issue stalls until it finishes.  This is what turns a DRAM
  miss into an exposed stall while hiding L1/L2 hits entirely.
* **Dependence serialisation** — a pointer-chasing access cannot issue
  until the access producing its address completes, which is exactly why
  linked traversals are latency-bound and why prefetching transforms them.

The model advances a monotonically non-decreasing *issue cursor*; total
cycles are the later of the frontend cursor and the last completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(slots=True)
class CoreConfig:
    """Core parameters (defaults reproduce Table 2)."""

    issue_width: int = 4
    rob_size: int = 192
    lq_size: int = 32

    def __post_init__(self) -> None:
        # the issue cursor divides by the width and the load queue is a
        # ring of lq_size slots: neither means anything below one.  Nor
        # does a ROB below one entry, and the kernel sizes its reorder
        # ring from rob_size, which a negative size makes wrap
        if self.issue_width < 1:
            raise ValueError("issue_width must be at least 1")
        if self.rob_size < 1:
            raise ValueError("rob_size must be at least 1")
        if self.lq_size < 1:
            raise ValueError("lq_size must be at least 1")


@dataclass(slots=True)
class CoreStats:
    """Aggregate timing results."""

    instructions: int = 0
    memory_accesses: int = 0
    cycles: int = 0
    stall_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


def _state(default: object = None) -> object:
    """An internal-state field: not part of init, repr or equality, so the
    dataclass behaves exactly as before slots were added."""
    return field(init=False, repr=False, compare=False, default=default)


@dataclass(slots=True)
class CoreModel:
    """Tracks issue/completion times for a stream of memory accesses.

    Usage: call :meth:`issue_time` to learn when the next access issues
    (this is the ``now`` handed to the memory hierarchy), then report the
    hierarchy's latency back through :meth:`complete`.

    ``slots=True`` keeps the per-access methods on slot reads; the state
    attributes are declared as non-init fields and set in __post_init__.
    """

    config: CoreConfig = field(default_factory=CoreConfig)
    stats: CoreStats = field(default_factory=CoreStats)
    _cursor: float = _state()  # issue time of the most recent access
    _last_completion: float = _state()
    _max_completion: float = _state()
    _inst_pos: int = _state()  # instructions issued so far
    _issue_width: int = _state()
    _rob_size: int = _state()
    #: completions bounded by the load queue (ring of size lq_size)
    _lq_ring: "deque[float]" = _state()
    #: (completion, inst position) per outstanding access, for the ROB cap
    _rob_window: "deque[tuple[float, int]]" = _state()
    _rob_floor: float = _state()

    def __post_init__(self) -> None:
        self._cursor = 0.0
        self._last_completion = 0.0
        self._max_completion = 0.0
        self._inst_pos = 0
        # config parameters are immutable per run; cache them as plain
        # attributes so the per-access methods skip the double lookup
        self._issue_width = self.config.issue_width
        self._rob_size = self.config.rob_size
        self._lq_ring = deque(maxlen=self.config.lq_size)
        self._rob_window = deque()
        self._rob_floor = 0.0

    def issue_time(self, inst_gap: int, *, depends_on_prev: bool) -> int:
        """Cycle at which the next memory access issues.

        ``inst_gap`` is the number of non-memory instructions executed
        since the previous access; they flow through the frontend at the
        issue width.  A dependent access additionally waits for the
        previous access's data; a full load queue or ROB waits for the
        oldest outstanding completion.
        """
        issue = self._cursor + (inst_gap + 1) / self._issue_width
        if depends_on_prev and self._last_completion > issue:
            issue = self._last_completion
        lq_ring = self._lq_ring
        if len(lq_ring) == lq_ring.maxlen and lq_ring[0] > issue:
            issue = lq_ring[0]
        # Retirement: accesses more than rob_size instructions older than
        # the frontend must have completed before this one can issue.
        rob_window = self._rob_window
        if rob_window:
            rob_horizon = self._inst_pos + inst_gap + 1 - self._rob_size
            while rob_window and rob_window[0][1] <= rob_horizon:
                completion, _ = rob_window.popleft()
                if completion > self._rob_floor:
                    self._rob_floor = completion
        if self._rob_floor > issue:
            issue = self._rob_floor
        return int(issue)

    def complete(self, issue: int, latency: int, inst_gap: int) -> int:
        """Record the completion of an access; returns the completion cycle."""
        completion = float(issue + latency)
        insts = inst_gap + 1
        stats = self.stats
        stall = issue - (self._cursor + insts / self._issue_width)
        if stall > 0:
            stats.stall_cycles += int(stall)
        self._cursor = float(issue)
        inst_pos = self._inst_pos + insts
        self._inst_pos = inst_pos
        self._last_completion = completion
        if completion > self._max_completion:
            self._max_completion = completion
        self._lq_ring.append(completion)
        self._rob_window.append((completion, inst_pos))
        stats.instructions += insts
        stats.memory_accesses += 1
        return int(completion)

    def finalize(self) -> CoreStats:
        """Account for draining the window at end of trace."""
        self.stats.cycles = int(max(self._cursor, self._max_completion))
        return self.stats

    def is_pristine(self) -> bool:
        """True when no access has been issued (freshly constructed)."""
        return (
            self._inst_pos == 0
            and not self._lq_ring
            and not self._rob_window
            and self.stats.memory_accesses == 0
        )
