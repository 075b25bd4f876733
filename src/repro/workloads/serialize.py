"""Trace serialization: save and load access streams as JSON lines.

Lets users capture a workload's trace once and replay it later (or feed
externally generated traces — e.g. converted from a binary-instrumentation
tool — into the simulator).  One JSON object per access; fields with
default values are omitted to keep files compact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.hints import NO_HINTS, RefForm, SemanticHints
from repro.workloads.trace import MemoryAccess

FORMAT_VERSION = 1


def access_to_dict(access: MemoryAccess) -> dict:
    """Compact dict form of one access (defaults omitted)."""
    out: dict = {"a": access.addr, "p": access.pc}
    if not access.is_load:
        out["st"] = 1
    if access.inst_gap != 2:
        out["g"] = access.inst_gap
    if access.depends_on_prev:
        out["d"] = 1
    if access.branches:
        out["b"] = [int(t) for t in access.branches]
    if access.reg_value:
        out["r"] = access.reg_value
    if access.value:
        out["v"] = access.value
    if access.hints is not NO_HINTS and access.hints != NO_HINTS:
        out["h"] = [
            access.hints.type_id,
            access.hints.link_offset,
            int(access.hints.ref_form),
        ]
    return out


def access_from_dict(data: dict) -> MemoryAccess:
    """Inverse of :func:`access_to_dict`; validates required fields."""
    if "a" not in data or "p" not in data:
        raise ValueError(f"access record missing addr/pc: {data!r}")
    hints = NO_HINTS
    if "h" in data:
        type_id, link_offset, ref_form = data["h"]
        hints = SemanticHints(
            type_id=type_id, link_offset=link_offset, ref_form=RefForm(ref_form)
        )
    return MemoryAccess(
        addr=data["a"],
        pc=data["p"],
        is_load=not data.get("st", 0),
        inst_gap=data.get("g", 2),
        depends_on_prev=bool(data.get("d", 0)),
        branches=tuple(bool(t) for t in data.get("b", ())),
        reg_value=data.get("r", 0),
        value=data.get("v", 0),
        hints=hints,
    )


def trace_fingerprint(trace: Iterable[MemoryAccess]) -> str:
    """Stable content hash of an access stream (canonical serialized form).

    This is the fingerprint sweep cells are keyed on in the result DB and
    the binary trace store records in its header — both must agree byte for
    byte, which is why the one implementation lives here, next to the
    canonical dict form it hashes.
    """
    digest = hashlib.sha256()
    for access in trace:
        digest.update(
            json.dumps(
                access_to_dict(access), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        )
        digest.update(b"\n")
    return digest.hexdigest()


def dump_trace(trace: Iterable[MemoryAccess], fp: TextIO) -> int:
    """Write a trace as JSONL with a header line; returns records written."""
    header = {"format": "repro-trace", "version": FORMAT_VERSION}
    fp.write(json.dumps(header) + "\n")
    count = 0
    for access in trace:
        fp.write(json.dumps(access_to_dict(access), separators=(",", ":")) + "\n")
        count += 1
    return count


def iter_trace(fp: TextIO) -> Iterator[MemoryAccess]:
    """Stream accesses back from a JSONL trace file."""
    header_line = fp.readline()
    if not header_line:
        raise ValueError("empty trace file")
    header = json.loads(header_line)
    if header.get("format") != "repro-trace":
        raise ValueError(f"not a repro trace file: {header!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported trace version {header.get('version')!r}")
    for line in fp:
        line = line.strip()
        if line:
            yield access_from_dict(json.loads(line))


def save_trace(trace: Iterable[MemoryAccess], path: str | Path) -> int:
    """Write a trace file; returns the number of accesses written."""
    with open(path, "w", encoding="utf-8") as fp:
        return dump_trace(trace, fp)


def load_trace(path: str | Path) -> list[MemoryAccess]:
    """Read a trace file fully into memory."""
    with open(path, "r", encoding="utf-8") as fp:
        return list(iter_trace(fp))
