"""Correctness checks for the cells a benchmark run committed.

Three checks, each counting the cells it cannot vouch for as failed:

* every pass commits every cell of its grid, and all passes of a run
  commit byte-identical payloads (the grid is the same each pass);
* a seeded sample of cells is recomputed on the interpreted oracle
  (``Simulator(native=False)``) and compared field by field with the
  decoded result from the DB;
* for the seed a pin was recorded at, a digest of every cell's
  simulated statistics in grid order must equal the pin.

The statistics are a correctness pin, not an accuracy claim: the
simulator is not validated against hardware.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random
import sqlite3
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence

PINS_PATH = Path(__file__).with_name("pins.json")


def flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    """A result as ``{"l1.hits": 123, ...}``: every field, by name.

    Dataclasses, dicts and counters recurse; enum keys become their
    names; floats keep every digit through ``repr``.
    """
    out: dict[str, Any] = {}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            out.update(flatten(getattr(value, field.name), f"{prefix}{field.name}."))
        return out
    if isinstance(value, (dict, Counter)):
        for key in sorted(value, key=_key_name):
            out.update(flatten(value[key], f"{prefix}{_key_name(key)}."))
        return out
    if isinstance(value, float):
        value = repr(value)
    return {prefix[:-1]: value}


def _key_name(key: Any) -> str:
    return key.name if isinstance(key, enum.Enum) else str(key)


def stats_digest(results: Sequence[Any]) -> str:
    """sha256 over the flattened results, in the order given."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps(flatten(result), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def payload_digest(db_path: Path) -> tuple[int, str]:
    """``(rows, sha256 over (idx, payload) in idx order)`` of one DB."""
    digest = hashlib.sha256()
    rows = 0
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        for idx, payload in conn.execute("SELECT idx, payload FROM cells ORDER BY idx"):
            digest.update(f"{idx}\t{payload}\n".encode())
            rows += 1
    finally:
        conn.close()
    return rows, digest.hexdigest()


def mean_payload_bytes(db_path: Path) -> float:
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        (value,) = conn.execute("SELECT avg(length(payload)) FROM cells").fetchone()
    finally:
        conn.close()
    return float(value or 0.0)


def oracle_sample(
    cells: Sequence[Any],
    accesses: Callable[[Any], int],
    seed: int,
    budget: int,
) -> list[Any]:
    """Cells in a seeded random order, until ``budget`` accesses are
    covered (at least one cell)."""
    order = list(cells)
    random.Random(f"oracle:{seed}").shuffle(order)
    chosen, covered = [], 0
    for cell in order:
        if chosen and covered + accesses(cell) > budget:
            continue
        chosen.append(cell)
        covered += accesses(cell)
    return chosen


def diff_fields(got: Any, want: Any) -> list[str]:
    """Names of the fields on which two results differ."""
    a, b = flatten(got), flatten(want)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def load_pin(workload: str, seed: int) -> dict | None:
    """The recorded pin for ``workload`` when it applies to ``seed``."""
    if not PINS_PATH.exists():
        return None
    pin = json.loads(PINS_PATH.read_text()).get(workload)
    if pin is None or (pin["seed"] is not None and pin["seed"] != seed):
        return None
    return pin


def write_pin(workload: str, seed: int | None, cells: int, digest: str) -> None:
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    pins[workload] = {"seed": seed, "cells": cells, "digest": digest}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
