"""Hot-path performance rules (``PERF*``).

The per-access simulation loop constructs and touches objects of the
classes defined under ``core/``, ``prefetchers/``, ``memory/`` and
``cpu/`` millions of times per sweep.  A class without ``__slots__``
carries a per-instance ``__dict__`` — slower attribute access and a
~3× memory footprint — so the hot-path modules must opt every class
into slotted layout:

* ``PERF001`` — a class in a hot-path module declares neither
  ``__slots__`` nor ``@dataclass(slots=True)`` and is not one of the
  layouts that manage their own storage (``NamedTuple``, enums,
  exceptions).  Legitimately dict-backed classes are listed in
  :data:`DICT_BACKED_ALLOWLIST` (budget-style: the allowlist *is* the
  inventory, so growing it is a reviewed decision).
* ``PERF002`` — the binary trace-store record layout
  (``workloads/store.py``) is an on-disk contract: files compiled by
  one build are read by later ones.  The rule extracts
  ``STORE_VERSION`` and ``RECORD_FIELDS`` from the AST and compares
  the layout hash against :data:`PINNED_RECORD_LAYOUTS`; changing the
  field list, order or formats without bumping ``STORE_VERSION`` (and
  pinning the new hash) fails ``repro lint``, so a stale file can
  never be misread as a current one.
* ``PERF003`` — the native batch kernel declares its phase contract in
  ``repro.sim.native.VECTOR_PHASES``: every vectorized phase names the
  scalar-fallback implementation that must keep existing (the kernel
  falls back per run, so deleting or renaming either side strands the
  other).  The rule resolves both sides of every row against the AST;
  a one-sided edit — a vectorized phase whose fallback is gone, or a
  fallback whose vectorized twin was renamed — fails ``repro lint``.
* ``PERF005`` — the in-kernel batch driver (``sim/native/_csrc.py``)
  is the one C entry point that runs whole shards GIL-released across
  an OpenMP team, so its layout is pinned like PERF002 pins the trace
  store: ``CDEF_BATCH``/``SOURCE_BATCH`` must stay statically
  extractable literals whose hash matches the pin for
  ``BATCH_VERSION``; the batch source may not declare ``static`` (or
  ``__thread``) storage — shared mutable state is exactly what would
  break the bit-identical-at-any-thread-count guarantee — and must
  keep the ``#ifdef _OPENMP`` guard so the serial fallback build keeps
  compiling.
* ``PERF004`` — the batch-dispatch layout is pinned, and it is the
  only dispatch path under ``sim/``.  Cells cross the spawn boundary
  as bare ``CELL_FIELDS`` tuples riding one per-batch ``BatchShared`` —
  never as per-cell job objects (a ``SweepJob`` pickled a config per
  cell) and never as per-cell futures (``concurrent.futures``
  re-spawns workers per call); both are banned anywhere in ``sim/``.
  Submit callsites anywhere in ``sim/`` and queue-put callsites in
  ``sim/sched/`` are allowlisted (budget-style, like ``PERF001``): a
  new place that ships payloads into workers is a reviewed decision,
  because that is exactly where the per-cell pickling the warm pool
  exists to avoid would creep back in.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.visitor import NodeRule, Project, SourceFile

#: modules whose classes live on the per-access path
HOT_DIRS = ("core/", "prefetchers/", "memory/", "cpu/")

#: base classes that manage instance storage themselves
_SELF_STORING_BASES = frozenset(
    {"NamedTuple", "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "Protocol"}
)

#: ``rel-path:ClassName`` entries reviewed as legitimately dict-backed
DICT_BACKED_ALLOWLIST = frozenset(
    {
        # frozen dataclasses that derive ``_bell_denom`` in __post_init__
        # via object.__setattr__; declaring it as a field would leak the
        # derived value into asdict()/repr comparisons, and the objects
        # are constructed once per run, not per access
        "core/reward.py:RewardFunction",
        "core/reward.py:FlatRewardFunction",
    }
)


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _dataclass_with_slots(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = (
            deco.func.attr
            if isinstance(deco.func, ast.Attribute)
            else getattr(deco.func, "id", "")
        )
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


@register_rule
class SlotsRule(NodeRule):
    """PERF001: hot-path classes must use slotted instance layout."""

    rule_id = "PERF001"
    title = "hot-path class without __slots__"
    node_types = (ast.ClassDef,)
    scope = HOT_DIRS

    def visit_node(self, source: SourceFile, node: ast.AST) -> Iterable[Finding]:
        assert isinstance(node, ast.ClassDef)
        bases = _base_names(node)
        if any(base in _SELF_STORING_BASES for base in bases):
            return
        if any(base.endswith(("Error", "Exception")) for base in bases):
            return
        if _declares_slots(node) or _dataclass_with_slots(node):
            return
        if f"{source.rel}:{node.name}" in DICT_BACKED_ALLOWLIST:
            return
        yield Finding(
            source.rel,
            node.lineno,
            self.rule_id,
            f"{node.name} is on the hot path but has no __slots__ "
            "(declare __slots__, use @dataclass(slots=True), or add a "
            "reviewed entry to DICT_BACKED_ALLOWLIST)",
        )


# ----------------------------------------------------------------------
# PERF002: the trace-store record layout is pinned per STORE_VERSION

STORE_MODULE = "workloads/store.py"

#: STORE_VERSION -> sha256 of the canonical RECORD_FIELDS JSON (the same
#: hash ``repro.workloads.store.record_layout_hash`` computes).  Bumping
#: the version means adding a row here — the table doubles as the
#: format's change history.
PINNED_RECORD_LAYOUTS = {
    1: "e7832b3697cc9849029949bdfc5eca03c21159a0b768041dc658d1488dc120d2",
}


def _literal_assign(tree: ast.Module, name: str) -> tuple[object, int] | None:
    """``(value, lineno)`` of a top-level literal assignment, else None."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in targets
        ):
            continue
        try:
            return ast.literal_eval(value), stmt.lineno
        except ValueError:
            return None
    return None


def layout_hash(fields: Iterable[Iterable[str]]) -> str:
    """The pinned-layout hash: canonical JSON of the field list.

    Mirrors ``repro.workloads.store.record_layout_hash`` byte-for-byte;
    duplicated here so the analysis pass stays purely static (it reads
    the AST, never imports the module under analysis).
    """
    canonical = json.dumps([list(f) for f in fields], separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@register_rule
class RecordLayoutRule(Rule):
    """PERF002: trace-store record layout must match its pinned hash."""

    rule_id = "PERF002"
    title = "trace-store record layout drifted without a version bump"

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.get(STORE_MODULE)
        if source is None:
            yield Finding(
                STORE_MODULE,
                0,
                self.rule_id,
                "workloads/store.py is missing: the trace-store codec "
                "(and its pinned record layout) must exist",
            )
            return
        version = _literal_assign(source.tree, "STORE_VERSION")
        fields = _literal_assign(source.tree, "RECORD_FIELDS")
        if version is None or not isinstance(version[0], int):
            yield Finding(
                source.rel,
                version[1] if version else 0,
                self.rule_id,
                "STORE_VERSION must be a top-level integer literal so the "
                "on-disk format version is statically auditable",
            )
            return
        raw, fields_line = fields if fields is not None else (None, 0)
        if not isinstance(raw, (tuple, list)):
            yield Finding(
                source.rel,
                fields_line,
                self.rule_id,
                "RECORD_FIELDS must be a top-level literal tuple of "
                "(name, format) pairs so the record layout is statically "
                "auditable",
            )
            return
        pinned = PINNED_RECORD_LAYOUTS.get(version[0])
        if pinned is None:
            yield Finding(
                source.rel,
                version[1],
                self.rule_id,
                f"STORE_VERSION {version[0]} has no pinned record layout: "
                "add its layout hash to PINNED_RECORD_LAYOUTS in "
                "analysis/rules/perf.py",
            )
            return
        actual = layout_hash(raw)
        if actual != pinned:
            yield Finding(
                source.rel,
                fields_line,
                self.rule_id,
                f"RECORD_FIELDS changed but STORE_VERSION is still "
                f"{version[0]} (layout hash {actual[:12]}… != pinned "
                f"{pinned[:12]}…): bump STORE_VERSION and pin the new "
                "layout, or revert the layout change",
            )


# ----------------------------------------------------------------------
# PERF003: vectorized phases keep their scalar-fallback counterparts

NATIVE_MODULE = "sim/native/__init__.py"


def _module_rel(module: str) -> str:
    """``repro.sim.native.adapter`` -> ``sim/native/adapter.py``."""
    parts = module.split(".")
    if parts and parts[0] == "repro":
        parts = parts[1:]
    return "/".join(parts) + ".py"


def _resolve_qualname(tree: ast.Module, qualname: str) -> bool:
    """True when ``qualname`` names a function/method in ``tree``.

    Handles top-level functions (``lines_of_array``) and one class level
    (``Simulator.run``) — the only shapes the phase table uses.
    """
    parts = qualname.split(".")
    body: list[ast.stmt] = tree.body
    for i, part in enumerate(parts):
        match = None
        for stmt in body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == part
                and i == len(parts) - 1
            ):
                match = stmt
                break
            if isinstance(stmt, ast.ClassDef) and stmt.name == part:
                match = stmt
                break
        if match is None:
            return False
        if isinstance(match, ast.ClassDef):
            body = match.body
    return not isinstance(match, ast.ClassDef) or len(parts) == 1


@register_rule
class VectorPhaseContractRule(Rule):
    """PERF003: every vectorized phase keeps its scalar fallback."""

    rule_id = "PERF003"
    title = "vectorized phase without its scalar-fallback counterpart"

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.get(NATIVE_MODULE)
        if source is None:
            yield Finding(
                NATIVE_MODULE,
                0,
                self.rule_id,
                "sim/native/__init__.py is missing: the native kernel's "
                "phase contract (VECTOR_PHASES) must exist",
            )
            return
        phases = _literal_assign(source.tree, "VECTOR_PHASES")
        if phases is None or not isinstance(phases[0], (tuple, list)):
            yield Finding(
                source.rel,
                phases[1] if phases else 0,
                self.rule_id,
                "VECTOR_PHASES must be a top-level literal tuple of "
                "(phase, native_impl, scalar_fallback) rows so the "
                "vectorize/fallback pairing is statically auditable",
            )
            return
        rows, line = phases
        for row in rows:
            if (
                not isinstance(row, (tuple, list))
                or len(row) != 3
                or not all(isinstance(item, str) for item in row)
            ):
                yield Finding(
                    source.rel,
                    line,
                    self.rule_id,
                    f"malformed VECTOR_PHASES row {row!r}: expected "
                    "(phase, 'module:qualname', 'module:qualname')",
                )
                continue
            phase, native_impl, fallback = row
            for side, ref in (("native", native_impl), ("fallback", fallback)):
                if ref.count(":") != 1:
                    yield Finding(
                        source.rel,
                        line,
                        self.rule_id,
                        f"phase {phase!r}: {side} reference {ref!r} is not "
                        "'module:qualname'",
                    )
                    continue
                module, qualname = ref.split(":")
                target = project.get(_module_rel(module))
                if target is None:
                    yield Finding(
                        source.rel,
                        line,
                        self.rule_id,
                        f"phase {phase!r}: {side} module {module!r} "
                        f"({_module_rel(module)}) does not exist — the "
                        "vectorized phase and its scalar fallback must "
                        "be edited together",
                    )
                    continue
                if not _resolve_qualname(target.tree, qualname):
                    yield Finding(
                        source.rel,
                        line,
                        self.rule_id,
                        f"phase {phase!r}: {side} implementation "
                        f"{qualname!r} is gone from {_module_rel(module)} "
                        "— a vectorized phase must keep its scalar "
                        "fallback (and vice versa); update VECTOR_PHASES "
                        "together with the code",
                    )


# ----------------------------------------------------------------------
# PERF004: the warm-worker batch-dispatch layout is pinned

SIM_DIR = "sim/"
SCHED_DIR = "sim/sched/"
POOL_MODULE = "sim/sched/pool.py"

#: the wire shape of one sweep cell inside a batch message.  Everything
#: else a cell needs (trace identity, limit, native flag, the context
#: config table) is batch-shared; growing this tuple grows every queue
#: message by cells-per-batch copies, so it is a reviewed decision.
PINNED_CELL_FIELDS = ("index", "prefetcher", "context_id")

#: ``rel-path:qualname`` functions allowed to put onto worker queues —
#: the complete inventory of places payloads enter the spawn boundary
QUEUE_PUT_ALLOWLIST = frozenset(
    {
        f"{POOL_MODULE}:WorkerPool.submit",  # batch messages in
        f"{POOL_MODULE}:_worker_main",  # results/errors out
        f"{POOL_MODULE}:WorkerPool.close",  # shutdown sentinels
    }
)

#: ``rel-path:qualname`` functions under ``sim/`` allowed to call
#: ``*.submit(...)``: the scheduler's batch dispatch, and nothing else
SUBMIT_ALLOWLIST = frozenset({"sim/sched/scheduler.py:dispatch"})

#: names whose appearance under ``sim/`` signals per-cell payloads or
#: per-call executors leaking back beside the one dispatch path
_BANNED_NAMES = {
    "SweepJob": "per-cell job objects must not enter the batch protocol "
    "(ship bare CELL_FIELDS tuples; batch-constant state rides "
    "BatchShared)",
    "ProcessPoolExecutor": "sweeps dispatch to the persistent worker "
    "pool, never to a pool-per-call executor",
}


def _qualname_walk(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, str]]:
    """Every node paired with its enclosing class/function qualname."""

    def rec(node: ast.AST, stack: tuple[str, ...]) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            yield child, ".".join(stack)
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from rec(child, stack + (child.name,))
            else:
                yield from rec(child, stack)

    return rec(tree, ())


@register_rule
class BatchDispatchLayoutRule(Rule):
    """PERF004: warm-pool dispatch ships batches, never per-cell jobs."""

    rule_id = "PERF004"
    title = "batch-dispatch layout drifted from its pinned contract"

    def check(self, project: Project) -> Iterator[Finding]:
        pool = project.get(POOL_MODULE)
        if pool is None:
            yield Finding(
                POOL_MODULE,
                0,
                self.rule_id,
                "sim/sched/pool.py is missing: the warm worker pool (and "
                "its pinned CELL_FIELDS wire shape) must exist",
            )
            return
        fields = _literal_assign(pool.tree, "CELL_FIELDS")
        if fields is None or not isinstance(fields[0], (tuple, list)):
            yield Finding(
                pool.rel,
                fields[1] if fields else 0,
                self.rule_id,
                "CELL_FIELDS must be a top-level literal tuple so the "
                "per-cell wire shape is statically auditable",
            )
        elif tuple(fields[0]) != PINNED_CELL_FIELDS:
            yield Finding(
                pool.rel,
                fields[1],
                self.rule_id,
                f"CELL_FIELDS {tuple(fields[0])!r} != pinned "
                f"{PINNED_CELL_FIELDS!r}: growing the per-cell message is "
                "a reviewed decision — move batch-constant state to "
                "BatchShared, or update the pin in analysis/rules/perf.py",
            )
        for source in project.in_dir(SIM_DIR):
            yield from self._check_sim_file(source)

    def _check_sim_file(self, source: SourceFile) -> Iterator[Finding]:
        in_sched = source.rel.startswith(SCHED_DIR)
        for node, qualname in _qualname_walk(source.tree):
            if isinstance(node, ast.Name) and node.id in _BANNED_NAMES:
                yield Finding(
                    source.rel,
                    node.lineno,
                    self.rule_id,
                    f"{node.id} referenced under sim/: "
                    f"{_BANNED_NAMES[node.id]}",
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", "") or ""
                names = [alias.name for alias in node.names]
                if module.startswith("concurrent") or any(
                    name.startswith("concurrent") for name in names
                ):
                    yield Finding(
                        source.rel,
                        node.lineno,
                        self.rule_id,
                        "concurrent.futures imported under sim/: sweeps "
                        "dispatch to the persistent worker pool, never to "
                        "a pool-per-call executor",
                    )
                banned = [
                    alias.name
                    for alias in node.names
                    if alias.name in _BANNED_NAMES
                ]
                for name in banned:
                    yield Finding(
                        source.rel,
                        node.lineno,
                        self.rule_id,
                        f"{name} imported under sim/: {_BANNED_NAMES[name]}",
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                site = f"{source.rel}:{qualname}"
                if attr in ("put", "put_nowait"):
                    if in_sched and site not in QUEUE_PUT_ALLOWLIST:
                        yield Finding(
                            source.rel,
                            node.lineno,
                            self.rule_id,
                            f"queue put in {qualname or '<module>'} is not "
                            "in QUEUE_PUT_ALLOWLIST: payloads enter the "
                            "spawn boundary only through the reviewed "
                            "pool entry points",
                        )
                elif attr == "submit" and site not in SUBMIT_ALLOWLIST:
                    yield Finding(
                        source.rel,
                        node.lineno,
                        self.rule_id,
                        f".submit() in {qualname or '<module>'} is not in "
                        "SUBMIT_ALLOWLIST: batches are submitted from the "
                        "scheduler's dispatch loop, never as per-cell "
                        "futures",
                    )


# ----------------------------------------------------------------------
# PERF005: the in-kernel batch driver's layout is pinned

CSRC_MODULE = "sim/native/_csrc.py"

#: BATCH_VERSION -> sha256 of ``CDEF_BATCH + SOURCE_BATCH``.  Bumping
#: the version means adding a row here — the table doubles as the batch
#: ABI's change history (the build keys its artifact cache on the same
#: source text, so a drifted hash is a silently different kernel).
PINNED_BATCH_LAYOUTS = {
    1: "6936c5c2fe7b921543cedc75f1608142e5b9bf5c4580f0a72469af0d08171c2f",
    # 2: the driver owns cell state (per-thread renew) and takes config rows
    2: "6d156aceb371b4a1d955f45d9554a29b5729ffbb759f271fbeda3e86f6f9851a",
}

#: storage-class tokens banned from the batch source: anything with
#: process lifetime is shared across the OpenMP team and would make
#: results depend on thread interleaving
_BATCH_BANNED_TOKENS = ("static", "__thread")


def batch_layout_hash(cdef: str, source: str) -> str:
    """The pinned-batch hash: sha256 over the concatenated C text."""
    return hashlib.sha256((cdef + source).encode("utf-8")).hexdigest()


@register_rule
class BatchKernelLayoutRule(Rule):
    """PERF005: the batch C driver must match its pinned, state-free layout."""

    rule_id = "PERF005"
    title = "batch kernel layout drifted or declares shared mutable state"

    def check(self, project: Project) -> Iterator[Finding]:
        source = project.get(CSRC_MODULE)
        if source is None:
            yield Finding(
                CSRC_MODULE,
                0,
                self.rule_id,
                "sim/native/_csrc.py is missing: the compiled kernel's "
                "batch driver (and its pinned layout) must exist",
            )
            return
        version = _literal_assign(source.tree, "BATCH_VERSION")
        cdef = _literal_assign(source.tree, "CDEF_BATCH")
        body = _literal_assign(source.tree, "SOURCE_BATCH")
        if version is None or not isinstance(version[0], int):
            yield Finding(
                source.rel,
                version[1] if version else 0,
                self.rule_id,
                "BATCH_VERSION must be a top-level integer literal so the "
                "batch ABI version is statically auditable",
            )
            return
        for name, got in (("CDEF_BATCH", cdef), ("SOURCE_BATCH", body)):
            if got is None or not isinstance(got[0], str):
                yield Finding(
                    source.rel,
                    got[1] if got else 0,
                    self.rule_id,
                    f"{name} must be a top-level string literal so the "
                    "batch driver's C text is statically auditable",
                )
                return
        pinned = PINNED_BATCH_LAYOUTS.get(version[0])
        if pinned is None:
            yield Finding(
                source.rel,
                version[1],
                self.rule_id,
                f"BATCH_VERSION {version[0]} has no pinned layout: add "
                "its hash to PINNED_BATCH_LAYOUTS in analysis/rules/perf.py",
            )
            return
        actual = batch_layout_hash(cdef[0], body[0])
        if actual != pinned:
            yield Finding(
                source.rel,
                body[1],
                self.rule_id,
                f"the batch C driver changed but BATCH_VERSION is still "
                f"{version[0]} (layout hash {actual[:12]}… != pinned "
                f"{pinned[:12]}…): bump BATCH_VERSION and pin the new "
                "layout, or revert the change",
            )
        # strip comments first (block comments span lines), then match
        # tokens as whole words so e.g. `statically` in prose is fine
        code = re.sub(r"/\*.*?\*/", "", body[0], flags=re.S)
        code = re.sub(r"//[^\n]*", "", code)
        for token in _BATCH_BANNED_TOKENS:
            for offset, line in enumerate(code.splitlines()):
                if re.search(rf"\b{token}\b", line):
                    yield Finding(
                        source.rel,
                        body[1],
                        self.rule_id,
                        f"SOURCE_BATCH declares `{token}` storage (batch "
                        f"source line {offset + 1}): everything mutable "
                        "must live in per-cell state, or results depend "
                        "on OpenMP scheduling",
                    )
        if "#ifdef _OPENMP" not in body[0]:
            yield Finding(
                source.rel,
                body[1],
                self.rule_id,
                "SOURCE_BATCH has no `#ifdef _OPENMP` guard: the batch "
                "driver must keep compiling (serially) on toolchains "
                "without OpenMP",
            )
