"""On-disk result cache for sweep cells.

Every evaluation figure reduces to the workload × prefetcher sweep, and
every cell of that sweep is a pure function of (trace, prefetcher,
configuration, limit, simulator code).  This module memoizes cells under
``results/.cache/`` keyed by a stable hash of exactly those inputs, so
re-running a figure after an unrelated edit (docs, CLI, figure
formatting, the sweep engine itself) is a cache hit, while any change
that could alter simulated behaviour — a trace, a config field, the
truncation limit, or the simulator core's source — is a miss.

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

Corrupt or version-skewed cache files are treated as misses and
overwritten; a cache directory deleted mid-run is recreated on the next
store.  The cache never changes results — only whether they are
recomputed — and the parity suite proves a warm run equals a cold run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import is_not
from pathlib import Path
from typing import Iterable

from repro.core.config import ContextPrefetcherConfig
from repro.cpu.core_model import CoreConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.sim.codec import CODEC_VERSION, CodecError, decode_result, encode_text
from repro.sim.metrics import SimulationResult
from repro.workloads.serialize import trace_fingerprint

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheCounters",
    "CellKeyer",
    "SweepCache",
    "cell_key",
    "code_fingerprint",
    "plain_data",
    "resolve_cache",
    "trace_fingerprint",  # canonical impl lives in workloads.serialize
]

log = logging.getLogger(__name__)

#: default cache location, relative to the invoking directory
DEFAULT_CACHE_DIR = Path("results") / ".cache"

#: source whose edits can change simulated behaviour: the packages the
#: simulator core is built from.  experiments/, cli.py, analysis/ and the
#: sweep engine itself (parallel.py, cache.py, export.py) are excluded on
#: purpose — editing them must not invalidate cached results.
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
    """The cache key for one (workload, prefetcher) sweep cell."""
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
        """The cache key for one cell; equals the :func:`cell_key` key."""
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


@dataclass
class CacheCounters:
    """Per-run observability: how the cache behaved during a sweep."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stored, {self.errors} unreadable"
        )


class SweepCache:
    """Directory of memoized sweep cells, one JSON file per cell key."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.counters = CacheCounters()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> SimulationResult | None:
        """The cached result for ``key``, or None on any kind of miss.

        Unreadable files — truncated writes, foreign junk, older codec
        versions — count as misses so a corrupt cache degrades to a cold
        start instead of failing the sweep.
        """
        try:
            payload = json.loads(self._path(key).read_text(encoding="utf-8"))
            result = decode_result(payload["result"])
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, CodecError) as exc:
            log.warning(
                "sweep cache: unreadable entry %s (%s: %s); treating as miss",
                self._path(key),
                type(exc).__name__,
                exc,
            )
            self.counters.errors += 1
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return result

    def store(self, key: str, result: SimulationResult) -> None:
        """Persist one cell atomically (write-temp-then-rename)."""
        self.store_payload(key, encode_text(result))

    def store_payload(self, key: str, text: str) -> None:
        """Persist one cell from its canonical codec text (a sweep's
        worker payload).

        The record is the canonical JSON of ``{"codec", "key",
        "result"}``; its keys sort in that order, so splicing ``text``
        in as the result writes the same bytes as canonicalizing the
        decoded record.  The directory is (re)created on every store, so
        deleting ``results/.cache`` mid-run costs the remaining hits,
        not the run.  Storage failures are counted, not raised — caching
        is strictly an optimization.
        """
        record = (
            f'{{"codec":{CODEC_VERSION},"key":{_canonical(key)},"result":{text}}}'
        )
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self._path(key).with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(record, encoding="utf-8")
            os.replace(tmp, self._path(key))
        except OSError as exc:
            log.warning(
                "sweep cache: cannot store %s (%s: %s); result not memoized",
                self._path(key),
                type(exc).__name__,
                exc,
            )
            self.counters.errors += 1
            return
        self.counters.stores += 1


def resolve_cache(
    cache: "SweepCache | Path | str | bool | None",
    default: SweepCache | None = None,
) -> SweepCache | None:
    """Normalize the user-facing ``cache`` argument.

    ``None`` → the configured ``default`` (no caching when unset);
    ``False`` → caching explicitly off; ``True`` → the default on-disk
    location; a path → a cache rooted there; a :class:`SweepCache` →
    itself.
    """
    if cache is None:
        return default
    if cache is False:
        return None
    if cache is True:
        return SweepCache(DEFAULT_CACHE_DIR)
    if isinstance(cache, SweepCache):
        return cache
    return SweepCache(Path(cache))
