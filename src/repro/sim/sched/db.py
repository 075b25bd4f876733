"""SQLite result store for sweep cells, under ``results/``.

One row per content-addressed sweep cell, carrying the versioned
codec's canonical JSON text (:func:`~repro.sim.codec.encode_text`).  A
worker renders that text, it crosses the result queue as is, and it is
the string this store commits and the JSON cache splices into its
record — so a DB row, a cache file and an in-flight result are the same
bytes, gated by the same parity suites.  Design constraints:

* **per-batch commits** — a crash leaves only whole, valid cells, which
  is what makes resume a pure key diff;
* **no timestamps, no environment** — the DB content is a function of
  the simulated inputs alone, so an interrupted-then-resumed sweep can
  produce a store logically identical to an uninterrupted one;
* **canonical dump** — SQLite's physical file layout depends on
  insertion history (page splits, freelist), so "bit-identical DBs"
  is defined over :meth:`ResultDB.canonical_dump`: every row in key
  order as canonical JSON lines.  Two dumps are equal iff the stores
  hold identical sweeps and identical cell payloads;
* **insert-or-ignore** — cell keys are content addresses; a key that is
  already present is the same result by construction, so re-running
  never rewrites rows and concurrent submitters cannot fight.

Multiple concurrent submitters are first-class: WAL lets readers stream
while a writer commits, ``busy_timeout`` makes writers queue instead of
failing the moment two batches commit together, and the remaining
``SQLITE_BUSY`` window (a timeout under pathological stalls) is retried
with backoff.  Because every row is content-addressed insert-or-ignore,
the interleaving of writers is unobservable: any set of submitters
producing the same cells yields byte-identical canonical dumps.


Corrupt rows degrade on read (logged, counted by the caller) exactly
like the JSON result cache, and a sweep discards and recomputes them;
a corrupt *file* raises
:class:`ResultDBError` at open so the CLI can report it instead of
silently starting an empty store.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import time
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from repro.sim.codec import CODEC_VERSION, CodecError, decode_result
from repro.sim.metrics import SimulationResult

__all__ = ["DEFAULT_DB_PATH", "IN_MEMORY", "ResultDB", "ResultDBError", "CellRow"]

log = logging.getLogger(__name__)

#: default result database, beside (not inside) the cache tree so
#: ``rm -rf results/.cache`` cannot take the sweep history with it
DEFAULT_DB_PATH = Path("results") / "sweep.db"

#: bump when the table shapes change; stored in ``meta`` and checked at
#: open so an old-layout file fails loudly instead of misreading
DB_SCHEMA_VERSION = 1

#: how long SQLite itself queues behind another writer before surfacing
#: SQLITE_BUSY; generous, because a blocked batch commit costs latency
#: while a failed one costs the batch
BUSY_TIMEOUT_MS = 30_000

#: belt-and-braces above busy_timeout: retries (with linear backoff) for
#: the SQLITE_BUSY that escapes the timeout under pathological stalls
_BUSY_RETRIES = 5
_BUSY_BACKOFF_S = 0.05

_T = TypeVar("_T")


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS sweeps ("
    " sweep TEXT PRIMARY KEY, spec TEXT NOT NULL, cells INTEGER NOT NULL)",
    "CREATE TABLE IF NOT EXISTS cells ("
    " key TEXT PRIMARY KEY,"
    " sweep TEXT NOT NULL,"
    " idx INTEGER NOT NULL,"
    " workload TEXT NOT NULL,"
    " prefetcher TEXT NOT NULL,"
    " codec INTEGER NOT NULL,"
    " payload TEXT NOT NULL)",
    "CREATE INDEX IF NOT EXISTS cells_by_sweep ON cells (sweep, idx)",
    "CREATE INDEX IF NOT EXISTS cells_by_grid ON cells (workload, prefetcher)",
)


class ResultDBError(Exception):
    """The result database is unusable (corrupt file, schema skew)."""


class CellRow:
    """One queryable cell: identity columns + the decoded result."""

    __slots__ = ("key", "sweep", "index", "workload", "prefetcher", "result")

    def __init__(
        self,
        key: str,
        sweep: str,
        index: int,
        workload: str,
        prefetcher: str,
        result: SimulationResult,
    ):
        self.key = key
        self.sweep = sweep
        self.index = index
        self.workload = workload
        self.prefetcher = prefetcher
        self.result = result


#: the path that opens a private in-memory store (SQLite's own name):
#: what a sweep commits into when no persistent result DB is configured
IN_MEMORY = ":memory:"


class ResultDB:
    """A sweep-result store over one SQLite file (or :data:`IN_MEMORY`)."""

    def __init__(self, path: str | Path = DEFAULT_DB_PATH):
        self.path = Path(path)
        if str(path) != IN_MEMORY:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(str(self.path))
            # WAL keeps `serve status/query` readable while a submit is
            # committing batches; both modes are logically equivalent
            # and invisible to canonical_dump
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            for stmt in _SCHEMA:
                self._conn.execute(stmt)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema", str(DB_SCHEMA_VERSION)),
            )
            self._conn.commit()
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
        except sqlite3.Error as exc:
            raise ResultDBError(f"cannot open result DB {self.path}: {exc}") from exc
        if row is None or row[0] != str(DB_SCHEMA_VERSION):
            raise ResultDBError(
                f"result DB {self.path} has schema {row[0] if row else '?'}, "
                f"this build expects {DB_SCHEMA_VERSION}"
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultDB":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writes ---------------------------------------------------------

    def _write(self, attempt: Callable[[], _T]) -> _T:
        """Run a write transaction, retrying the SQLITE_BUSY escape path.

        ``busy_timeout`` absorbs ordinary writer contention inside
        SQLite; this loop only fires when that timeout itself expires
        (another submitter stalled mid-commit).  Rows are insert-or-
        ignore content addresses, so re-running ``attempt`` after a
        rollback is always safe.
        """
        for tries in range(_BUSY_RETRIES):
            try:
                result = attempt()
                self._conn.commit()
                return result
            except sqlite3.OperationalError as exc:
                if not _is_busy(exc) or tries == _BUSY_RETRIES - 1:
                    raise
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                log.warning(
                    "result DB %s: busy (%s); retry %d/%d",
                    self.path, exc, tries + 1, _BUSY_RETRIES - 1,
                )
                time.sleep(_BUSY_BACKOFF_S * (tries + 1))
        raise AssertionError("unreachable")  # pragma: no cover

    def ensure_sweep(self, sweep: str, spec: str, cells: int) -> None:
        """Register a sweep id (idempotent; the spec is content-bound)."""

        def attempt() -> None:
            self._conn.execute(
                "INSERT OR IGNORE INTO sweeps (sweep, spec, cells) VALUES (?, ?, ?)",
                (sweep, spec, cells),
            )

        try:
            self._write(attempt)
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc

    def store_cells(
        self,
        sweep: str,
        rows: Iterable[tuple[str, int, str, str, str]],
    ) -> int:
        """Insert ``(key, index, workload, prefetcher, payload)`` rows.

        ``payload`` is the cell's canonical codec text
        (:func:`~repro.sim.codec.encode_text`), stored as given.  One
        transaction per call — the scheduler calls this once per drained
        batch, so a kill can only ever lose the in-flight batch, never
        tear a cell.  Returns the number of rows newly inserted (keys
        already present are the same content and are left alone).
        """
        packed = [
            (key, sweep, index, workload, prefetcher, CODEC_VERSION, payload)
            for key, index, workload, prefetcher, payload in rows
        ]
        if not packed:
            return 0

        def attempt() -> int:
            before = self._conn.total_changes
            self._conn.executemany(
                "INSERT OR IGNORE INTO cells "
                "(key, sweep, idx, workload, prefetcher, codec, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                packed,
            )
            return self._conn.total_changes - before

        try:
            return self._write(attempt)
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc

    def discard(self, keys: Iterable[str]) -> None:
        """Delete the rows for ``keys``: rows that will not decode, so
        the next run's resume diff treats their cells as pending."""
        doomed = [(key,) for key in keys]

        def attempt() -> None:
            self._conn.executemany("DELETE FROM cells WHERE key = ?", doomed)

        try:
            self._write(attempt)
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc

    # -- reads ----------------------------------------------------------

    def completed_keys(self, keys: Iterable[str]) -> set[str]:
        """The subset of ``keys`` already present (the resume diff).

        Membership is by content address alone, not by sweep: a cell
        computed under any earlier sweep is the same result.
        """
        out: set[str] = set()
        chunk: list[str] = []
        try:
            for key in keys:
                chunk.append(key)
                if len(chunk) >= 500:  # SQLite bind-parameter headroom
                    out.update(self._present(chunk))
                    chunk.clear()
            if chunk:
                out.update(self._present(chunk))
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc
        return out

    def _present(self, chunk: list[str]) -> list[str]:
        marks = ",".join("?" * len(chunk))
        rows = self._conn.execute(
            f"SELECT key FROM cells WHERE key IN ({marks})", chunk
        ).fetchall()
        return [r[0] for r in rows]

    def load(self, key: str) -> SimulationResult | None:
        """The decoded result for one cell key, or ``None`` on a miss.

        A row that fails to decode (foreign junk, codec skew) degrades
        to a miss with a warning, mirroring the JSON cache's contract.
        """
        try:
            row = self._conn.execute(
                "SELECT codec, payload FROM cells WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc
        if row is None:
            return None
        try:
            return decode_result(json.loads(row[1]))
        except (ValueError, KeyError, TypeError, CodecError) as exc:
            log.warning(
                "result DB %s: undecodable cell %s (%s: %s); treating as miss",
                self.path,
                key,
                type(exc).__name__,
                exc,
            )
            return None

    def query(
        self,
        *,
        sweep: str | None = None,
        workload: str | None = None,
        prefetcher: str | None = None,
    ) -> list[CellRow]:
        """Decoded cells matching the filters, ordered (sweep, idx)."""
        clauses, params = [], []
        for column, value in (
            ("sweep", sweep),
            ("workload", workload),
            ("prefetcher", prefetcher),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        try:
            rows = self._conn.execute(
                "SELECT key, sweep, idx, workload, prefetcher, payload "
                f"FROM cells{where} ORDER BY sweep, idx",
                params,
            ).fetchall()
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc
        out: list[CellRow] = []
        for key, sweep_id, idx, wl, pf, payload in rows:
            try:
                result = decode_result(json.loads(payload))
            except (ValueError, KeyError, TypeError, CodecError) as exc:
                log.warning(
                    "result DB %s: skipping undecodable cell %s (%s)",
                    self.path,
                    key,
                    exc,
                )
                continue
            out.append(CellRow(key, sweep_id, idx, wl, pf, result))
        return out

    def sweeps(self) -> list[tuple[str, int, int]]:
        """``(sweep, completed cells, total cells)`` per registered sweep,
        plus an ``"(ad hoc)"`` bucket for rows stored outside any plan."""
        try:
            rows = self._conn.execute(
                "SELECT s.sweep, "
                " (SELECT COUNT(*) FROM cells c WHERE c.sweep = s.sweep), "
                " s.cells FROM sweeps s ORDER BY s.sweep"
            ).fetchall()
            adhoc = self._conn.execute(
                "SELECT COUNT(*) FROM cells WHERE sweep = ''"
            ).fetchone()[0]
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc
        out = [(sweep, done, total) for sweep, done, total in rows]
        if adhoc:
            out.append(("(ad hoc)", adhoc, adhoc))
        return out

    def canonical_dump(self) -> str:
        """The store's logical content as deterministic text.

        Key-ordered canonical JSON lines for every cell, then every
        sweep.  This — not the raw ``.db`` bytes, which depend on page
        history — is the equality the resume guarantee is stated over.
        """
        try:
            cells = self._conn.execute(
                "SELECT key, sweep, idx, workload, prefetcher, codec, payload "
                "FROM cells ORDER BY key"
            ).fetchall()
            sweeps = self._conn.execute(
                "SELECT sweep, spec, cells FROM sweeps ORDER BY sweep"
            ).fetchall()
        except sqlite3.Error as exc:
            raise ResultDBError(f"result DB {self.path}: {exc}") from exc
        lines = []
        for key, sweep, idx, wl, pf, codec, payload in cells:
            lines.append(
                json.dumps(
                    {
                        "cell": key,
                        "sweep": sweep,
                        "idx": idx,
                        "workload": wl,
                        "prefetcher": pf,
                        "codec": codec,
                        "payload": json.loads(payload),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        for sweep, spec, cells_total in sweeps:
            lines.append(
                json.dumps(
                    {"sweep": sweep, "spec": json.loads(spec), "cells": cells_total},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + "\n"
