"""Content-addressed keys for sweep cells.

Every evaluation figure reduces to the workload × prefetcher sweep, and
every cell of that sweep is a pure function of (trace, prefetcher,
configuration, limit, simulator code).  This module names each cell by
a stable hash of exactly those inputs: the key the result DB
(:mod:`repro.sim.sched.db`) files the cell under and resumes it by.  So
re-running a figure after an unrelated edit (docs, CLI, figure
formatting, the sweep engine itself) finds its cells again, while any
change that could alter simulated behaviour — a trace, a config field,
the truncation limit, or the simulator core's source — is a new key.

Key anatomy (see docs/parallel_runner.md):

* ``workload`` name **and** a fingerprint of its access trace — renaming
  a workload or regenerating a different trace both invalidate;
* ``prefetcher`` report name, plus the ``ContextPrefetcherConfig`` for
  ``context`` cells (other prefetchers' defaults live in source and are
  covered by the code fingerprint);
* ``HierarchyConfig`` and ``CoreConfig`` field values;
* the trace truncation ``limit``;
* a fingerprint of the simulator's *semantic* source (the packages that
  define simulated behaviour — not figures, CLI, docs or this engine);
* the result codec version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import compress, count, repeat
from operator import is_not
from pathlib import Path
from typing import Iterable

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.codec import CODEC_VERSION
from repro.workloads.serialize import trace_fingerprint

__all__ = [
    "CellKeyer",
    "cell_key",
    "code_fingerprint",
    "plain_data",
    "trace_fingerprint",  # canonical impl lives in workloads.serialize
]

#: source whose edits can change simulated behaviour: the packages the
#: simulator core is built from.  experiments/, cli.py, analysis/ and the
#: sweep engine itself (parallel.py, cache.py, export.py) are excluded on
#: purpose — editing them must not re-key stored results.
SEMANTIC_SOURCE_PREFIXES = (
    "compiler/",
    "core/",
    "cpu/",
    "memory/",
    "prefetchers/",
    "workloads/",
)
SEMANTIC_SOURCE_FILES = (
    "hints.py",
    "sim/config.py",
    "sim/metrics.py",
    "sim/phases.py",
    "sim/simulator.py",
)

_code_fingerprint_cache: str | None = None


def _canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def plain_data(value: object) -> object:
    """``dataclasses.asdict`` minus the deepcopy, for canonical JSON.

    ``asdict`` deep-copies every leaf; on a config whose fields are all
    immutable (ints, strings, tuples of attribute enums) that copy is
    pure overhead.  JSON output is identical because ``json.dumps``
    renders a tuple as an array and never mutates its input.
    :class:`CellKeyer` renders compound config fields through it, and
    :meth:`GridPlan.spec` the hierarchy and core configs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: plain_data(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [plain_data(item) for item in value]
    if isinstance(value, dict):
        return {key: plain_data(item) for key, item in value.items()}
    return value


def code_fingerprint() -> str:
    """Hash of the simulator's semantic source files (cached per process)."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in SEMANTIC_SOURCE_FILES or rel.startswith(
                SEMANTIC_SOURCE_PREFIXES
            ):
                digest.update(rel.encode("utf-8"))
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def cell_key(
    *,
    workload: str,
    trace_fp: str,
    prefetcher: str,
    limit: int | None,
    hierarchy_config: HierarchyConfig | None = None,
    core_config: CoreConfig | None = None,
    context_config: ContextPrefetcherConfig | None = None,
    code_version: str | None = None,
) -> str:
    """The content-addressed key for one (workload, prefetcher) sweep cell."""
    context: dict | None = None
    if prefetcher == "context":
        context = dataclasses.asdict(context_config or ContextPrefetcherConfig())
    payload = {
        "codec": CODEC_VERSION,
        "code": code_version if code_version is not None else code_fingerprint(),
        "workload": workload,
        "trace": trace_fp,
        "prefetcher": prefetcher,
        "limit": limit,
        "hierarchy": dataclasses.asdict(hierarchy_config or HierarchyConfig()),
        "core": dataclasses.asdict(core_config or CoreConfig()),
        "context": context,
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


class CellKeyer:
    """Grid-wide key builder: :func:`cell_key` with shared fields frozen.

    :func:`cell_key` canonicalizes a flat payload with sorted keys and
    compact separators, so the hashed string is exactly a concatenation
    of independently-canonicalized ``"field":value`` fragments in sorted
    field order.  Within one sweep grid the codec, code fingerprint,
    limit, hierarchy and core fields never vary, and the context configs
    repeat once per table slot, so re-serializing all of them for every
    cell would dominate key generation on large grids.  The builder
    serializes the invariants once and each slot once; producing a key
    is then two string joins and one hash (10,000 keys of a 2,500-slot
    grid take 30–48 ms on a 2-core VM, most of it SHA-256 over the
    1.7 KB payload).  ``TestCellKeyer`` proves every key byte-identical
    to :func:`cell_key`'s across all axes.
    """

    def __init__(
        self,
        *,
        limit: int | None,
        hierarchy_config: HierarchyConfig | None = None,
        core_config: CoreConfig | None = None,
        code_version: str | None = None,
    ):
        code = code_version if code_version is not None else code_fingerprint()
        # sorted payload fields: code, codec, context, core, hierarchy,
        # limit, prefetcher, trace, workload — keep in sync with cell_key
        self._head = (
            f'{{"code":{_canonical(code)}'
            f',"codec":{_canonical(CODEC_VERSION)},"context":'
        )
        self._mid = (
            f',"core":{_canonical(dataclasses.asdict(core_config or CoreConfig()))}'
            f',"hierarchy":'
            f"{_canonical(dataclasses.asdict(hierarchy_config or HierarchyConfig()))}"
            f',"limit":{_canonical(limit)},"prefetcher":'
        )
        # the workload/prefetcher/trace strings repeat across a grid's
        # cells; canonicalize each distinct value once
        self._pf_fragments: dict[str, str] = {}
        self._tails: dict[tuple[str, str], str] = {}
        # sorted field names per config type
        self._config_fields: dict[type, tuple[str, ...]] = {}

    def context_fragments(
        self, context_configs: Iterable[ContextPrefetcherConfig | None]
    ) -> list[str]:
        """Canonical JSON of each context-table slot, in order.

        A ``None`` slot renders as the paper default it keys as.  Each
        fragment is exactly ``json.dumps`` of its config with sorted keys
        and compact separators, so :meth:`GridPlan.spec` splices it into
        the sweep spec as is; non-``context`` cells ignore it.

        A config sweep's slot usually differs from the one before it in
        one or two fields, and ``dataclasses.replace`` shares the others
        as the very same objects.  A field holding the previous slot's
        object keeps that slot's rendering: config values are immutable,
        so one object renders one way, and ``last_values`` keeps the
        previous slot's objects alive, so an identity match is never a
        reused address.  The scan for changed fields runs in C; only the
        changed fields render.
        """
        fragments = []
        last_names: tuple[str, ...] | None = None
        last_values: tuple = ()
        last_parts: list[str] = []
        for cfg in context_configs:
            if cfg is None:
                cfg = ContextPrefetcherConfig()
            names = self._config_fields.get(type(cfg))
            if names is None:
                # canonical JSON sorts keys; field names are plain ASCII
                # identifiers, so lexicographic name order matches
                names = tuple(sorted(f.name for f in dataclasses.fields(cfg)))
                self._config_fields[type(cfg)] = names
            values = tuple(map(getattr, repeat(cfg), names))
            changed: Iterable[int]
            if names is last_names:
                parts = last_parts.copy()
                changed = compress(count(), map(is_not, values, last_values))
            else:
                parts = [""] * len(names)
                changed = range(len(names))
            for i in changed:
                parts[i] = (
                    f"{_canonical(names[i])}:{_canonical(plain_data(values[i]))}"
                )
            fragments.append("{" + ",".join(parts) + "}")
            last_names, last_values, last_parts = names, values, parts
        return fragments

    def key(
        self,
        *,
        workload: str,
        trace_fp: str,
        prefetcher: str,
        context_fragment: str = "null",
    ) -> str:
        """The key for one cell; equals the :func:`cell_key` key."""
        context = context_fragment if prefetcher == "context" else "null"
        pf = self._pf_fragments.get(prefetcher)
        if pf is None:
            pf = self._pf_fragments[prefetcher] = _canonical(prefetcher)
        tail = self._tails.get((trace_fp, workload))
        if tail is None:
            tail = self._tails[(trace_fp, workload)] = (
                f',"trace":{_canonical(trace_fp)}'
                f',"workload":{_canonical(workload)}}}'
            )
        payload = f"{self._head}{context}{self._mid}{pf}{tail}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
