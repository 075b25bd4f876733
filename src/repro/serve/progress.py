"""Live-throughput sidecar for ``repro serve`` (cells/s and ETA).

The result DB is deliberately clock-free — its canonical dump is part
of the determinism story (DET003 bans wall-clock reads across the sim
packages, and the resume/parity suites compare DBs byte for byte), so
progress timestamps must never land in it.  They land here instead: a
small JSON sidecar next to the DB file (``<db>.progress.json``) holding
a bounded window of ``[timestamp, completed_cells]`` samples per sweep.

The scheduler stays clock-free too: it emits a deterministic
``on_cells(sweep, done, total)`` count stream, and *this* module — the
operational serving layer, on the reviewed DET003 allowlist — attaches
wall-clock timestamps on the way to disk.  ``repro serve status`` folds
the samples into cells/s over the recent window and a remaining-cells
ETA; a sweep with no fresh samples (finished long ago, or being run by
nobody) simply reports no rate.

The sidecar is advisory: losing or deleting it loses nothing but the
rate display, and concurrent submitters clobbering each other's write
at worst drops a sample from the other's window.  An in-memory DB
(``:memory:``) has no file to sit next to: its tracker keeps the
samples in memory, for the life of the service that owns it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from repro.sim.sched.db import IN_MEMORY

__all__ = ["ProgressTracker", "throughput"]

#: samples kept per sweep: at one sample per committed batch this spans
#: the last few minutes of a big sweep — enough for a stable recent rate
SAMPLE_CAP = 64

#: samples older than this no longer describe the *current* rate; status
#: treats a window whose newest sample is staler as "no live submitter"
STALE_AFTER_S = 600.0


def throughput(samples: list[list[float]]) -> float | None:
    """Cells/s over a ``[t, done]`` sample window, or ``None``.

    Needs at least two samples spanning positive time and positive
    progress — a resumed sweep whose first callback already reports
    every cell done produces one sample and, correctly, no rate.
    """
    if len(samples) < 2:
        return None
    t0, d0 = samples[0]
    t1, d1 = samples[-1]
    if t1 <= t0 or d1 <= d0:
        return None
    return (d1 - d0) / (t1 - t0)


class ProgressTracker:
    """Records timestamped completion samples for one DB's sweeps."""

    def __init__(
        self,
        db_path: str | Path,
        clock: Callable[[], float] | None = None,
    ):
        #: the sidecar file; ``None`` for an in-memory DB, whose samples
        #: stay in this object
        self.path = (
            None
            if str(db_path) == IN_MEMORY
            else Path(str(db_path) + ".progress.json")
        )
        # injectable clock so tests drive deterministic timelines; the
        # default is the one reviewed wall-clock read in the serve layer
        self._clock = clock if clock is not None else time.time
        self._data: dict[str, dict] | None = None

    # -- write side (submit) -------------------------------------------

    def _load(self) -> dict[str, dict]:
        if self._data is None:
            try:
                if self.path is None:
                    raise FileNotFoundError("an in-memory DB has no sidecar")
                self._data = json.loads(self.path.read_text())
            except (OSError, ValueError):
                self._data = {}
        return self._data

    def _flush(self) -> None:
        if self.path is None:
            return
        try:
            self.path.write_text(json.dumps(self._data))
        except OSError:  # advisory telemetry: never fail the sweep
            pass

    def on_cells(self, sweep: str, done: int, total: int) -> None:
        """Scheduler callback: timestamp and persist one sample.

        The first callback of a submit (the resume diff) resets the
        sweep's window — rates never span the gap between two submits.
        """
        data = self._load()
        entry = data.get(sweep)
        if entry is None or entry.get("total") != total or not entry.get("open"):
            entry = {"total": total, "open": True, "samples": []}
            data[sweep] = entry
        entry["samples"].append([float(self._clock()), int(done)])
        del entry["samples"][:-SAMPLE_CAP]
        if done >= total:
            entry["open"] = False  # the next submit starts a fresh window
        self._flush()

    # -- read side (status) --------------------------------------------

    def rates(self) -> dict[str, tuple[float | None, float | None]]:
        """``{sweep: (cells_per_sec, eta_seconds)}`` from the sidecar.

        ``eta_seconds`` needs a rate *and* the recorded total; both come
        back ``None`` for sweeps without a fresh window (nothing ran
        recently, or the sidecar was lost — both fine).
        """
        out: dict[str, tuple[float | None, float | None]] = {}
        now = float(self._clock())
        for sweep, entry in self._load().items():
            samples = entry.get("samples") or []
            rate = throughput(samples)
            if rate is not None and now - samples[-1][0] > STALE_AFTER_S:
                rate = None
            eta: float | None = None
            if rate is not None:
                remaining = max(0, int(entry.get("total", 0)) - int(samples[-1][1]))
                eta = remaining / rate
            out[sweep] = (rate, eta)
        return out
