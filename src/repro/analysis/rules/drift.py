"""DRIFT: inline-parity pinning for the PR-4/PR-5 fast paths.

The kernel in ``sim/simulator.py`` and the fused prefetcher path in
``core/prefetcher.py`` carry *inlined copies* of canonical component
methods (``CoreModel.issue_time``, ``Reducer.lookup``, ...).  The copies
were proven bit-exact when they landed — but nothing kept them that way:
edit the canonical method and forget the copy (or vice versa) and the
fast and slow paths silently diverge, exactly the class of bug the
golden suites exist to catch, caught only when someone happens to run
them against the right workload.

This rule turns that into a lint error, using the same hash-pinning
trick PERF002 uses for the record layout:

* each canonical symbol is fingerprinted from its AST (``ast.unparse``,
  docstrings stripped — formatting and comments don't count, code does);
* each inlined copy is delimited in source by marker comments::

      # drift: begin <key>
      ...
      # drift: end <key>

  and fingerprinted the same way (several regions may share a key —
  they concatenate in file order);
* both fingerprints are pinned in ``analysis/drift_pins.json``.

**DRIFT001** fires when either side's fingerprint leaves its pin — the
message says which side moved.  After an *intentional, paired* edit,
re-pin with::

    PYTHONPATH=src python scripts/regen_drift_pins.py

which refuses to run unless both sides are presented together, and the
kernel-golden suite re-proves parity.  **DRIFT002** reports broken
infrastructure (missing symbol, marker or pin) so a refactor cannot
quietly drop a pair out of coverage.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import re
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.visitor import Project, SourceFile

#: the command a DRIFT001 message tells the developer to run
REGEN_CMD = "PYTHONPATH=src python scripts/regen_drift_pins.py"

PINS_PATH = Path(__file__).resolve().parents[1] / "drift_pins.json"

MARKER_RE = re.compile(r"#\s*drift:\s*(begin|end)\s+([A-Za-z0-9_.-]+)")


#: (key, canonical rel, canonical symbol, inlined rel) — the symbol is a
#: function qualname ("Class.meth") or a class name; the inlined side is
#: the file whose ``# drift:`` regions carry the copy.
#:
#: The ``native-context-*`` pairs tie the C port of the RL context loop
#: (the ``SOURCE_CTX_*`` string assignments in ``sim/native/_csrc.py``,
#: each wrapped in a marker region) to its interpreted oracle: editing a
#: canonical method re-fingerprints the Python side, editing the C string
#: re-fingerprints the inlined side (the string literal is part of the
#: unparsed assignment), and DRIFT001 fires unless both move together
#: and are re-pinned after the parity suites pass.  The kernel's MT19937
#: region carries no pair — its canonical is CPython's own ``_random``,
#: and ``tests/sim/test_native_rng.py`` compares against that directly.
#: ``native-render`` ties the kernel's payload renderer (``SOURCE_RENDER``)
#: to the template it writes, ``codec.render_text``.
DRIFT_PAIRS: tuple[tuple[str, str, str, str], ...] = (
    ("core-issue-time", "cpu/core_model.py", "CoreModel.issue_time", "sim/simulator.py"),
    ("core-complete", "cpu/core_model.py", "CoreModel.complete", "sim/simulator.py"),
    ("classifier-record-demand", "memory/stats.py", "AccessClassifier.record_demand", "sim/simulator.py"),
    ("access-info-fields", "prefetchers/base.py", "AccessInfo", "sim/simulator.py"),
    ("tracker-capture", "core/context.py", "ContextTracker.capture", "core/prefetcher.py"),
    ("reducer-lookup", "core/reducer.py", "Reducer.lookup", "core/prefetcher.py"),
    ("policy-select", "core/bandit.py", "EpsilonGreedyPolicy.select", "core/prefetcher.py"),
    ("native-context-hash", "core/context.py", "context_hash", "sim/native/_csrc.py"),
    ("native-context-state", "core/prefetcher.py", "ContextPrefetcher.__init__", "sim/native/_csrc.py"),
    ("native-context-reward", "core/reward.py", "RewardFunction.__call__", "sim/native/_csrc.py"),
    ("native-context-cst", "core/cst.py", "ContextStatesTable.add_association", "sim/native/_csrc.py"),
    ("native-context-feedback", "core/prefetcher.py", "ContextPrefetcher._apply_feedback", "sim/native/_csrc.py"),
    ("native-context-reducer", "core/reducer.py", "Reducer.adapt", "sim/native/_csrc.py"),
    ("native-context-select", "core/bandit.py", "EpsilonGreedyPolicy.select", "sim/native/_csrc.py"),
    ("native-context-softmax", "core/bandit.py", "SoftmaxPolicy.select", "sim/native/_csrc.py"),
    ("native-context-kernel", "core/prefetcher.py", "ContextPrefetcher.on_access", "sim/native/_csrc.py"),
    ("native-render", "sim/codec.py", "render_text", "sim/native/_csrc.py"),
)


def _strip_docstring(node: ast.AST) -> ast.AST:
    if (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body
    ):
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            node = copy.deepcopy(node)
            node.body = node.body[1:] or [ast.Pass()]
    return node


def fingerprint_nodes(nodes: list[ast.AST]) -> str:
    """sha256 over the unparsed (comment/format-free) source of ``nodes``.

    ``ast.unparse`` is used rather than ``ast.dump`` because the dump
    format changes between CPython minors (3.12 added ``type_params``),
    and these pins must verify identically on every CI interpreter.
    """
    text = "\n".join(ast.unparse(_strip_docstring(n)) for n in nodes)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def find_symbol(source: SourceFile, symbol: str) -> ast.AST | None:
    """A top-level function/class or ``Class.method`` def node."""
    head, _, rest = symbol.partition(".")
    for stmt in source.tree.body:
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name == head
        ):
            if not rest:
                return stmt
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if (
                        isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and sub.name == rest
                    ):
                        return sub
    return None


def marker_regions(text: str, key: str) -> list[tuple[int, int]]:
    """``(begin_line, end_line)`` pairs for ``key``'s marker comments."""
    regions: list[tuple[int, int]] = []
    open_line: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = MARKER_RE.search(line)
        if match is None or match.group(2) != key:
            continue
        if match.group(1) == "begin":
            open_line = lineno
        elif open_line is not None:
            regions.append((open_line, lineno))
            open_line = None
    return regions


def region_statements(
    tree: ast.Module, regions: list[tuple[int, int]]
) -> list[ast.AST]:
    """Maximal statements lying fully inside any region, in file order."""
    collected: list[tuple[int, ast.AST]] = []

    def inside(stmt: ast.stmt) -> bool:
        end = getattr(stmt, "end_lineno", stmt.lineno)
        return any(
            begin <= stmt.lineno and end <= stop for begin, stop in regions
        )

    def scan(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if inside(stmt):
                collected.append((stmt.lineno, stmt))
                continue
            for field_name in ("body", "orelse", "finalbody"):
                block = getattr(stmt, field_name, None)
                if block and isinstance(block, list):
                    scan([s for s in block if isinstance(s, ast.stmt)])
            for handler in getattr(stmt, "handlers", ()):
                scan(handler.body)

    scan(tree.body)
    collected.sort(key=lambda pair: pair[0])
    return [stmt for _, stmt in collected]


def load_pins(path: Path | None = None) -> dict[str, dict[str, str]]:
    pins_path = path or PINS_PATH
    if not pins_path.is_file():
        return {}
    data = json.loads(pins_path.read_text(encoding="utf-8"))
    return {str(k): dict(v) for k, v in data.items()}


def compute_fingerprints(
    project: Project,
    pairs: tuple[tuple[str, str, str, str], ...] = DRIFT_PAIRS,
) -> dict[str, dict[str, str]]:
    """Current ``{key: {canonical, inlined}}`` fingerprints (regen path).

    Raises ``KeyError``/``ValueError`` on missing files, symbols or
    markers — the regen script must fail loudly, never pin a gap.
    """
    out: dict[str, dict[str, str]] = {}
    for key, canon_rel, symbol, inline_rel in pairs:
        canon_src = project.get(canon_rel)
        inline_src = project.get(inline_rel)
        if canon_src is None or inline_src is None:
            raise KeyError(f"{key}: missing file {canon_rel} or {inline_rel}")
        node = find_symbol(canon_src, symbol)
        if node is None:
            raise KeyError(f"{key}: symbol {symbol} not found in {canon_rel}")
        regions = marker_regions(inline_src.text, key)
        if not regions:
            raise ValueError(f"{key}: no '# drift: begin {key}' in {inline_rel}")
        stmts = region_statements(inline_src.tree, regions)
        if not stmts:
            raise ValueError(f"{key}: marker region in {inline_rel} is empty")
        out[key] = {
            "canonical": fingerprint_nodes([node]),
            "inlined": fingerprint_nodes(stmts),
        }
    return out


@register_rule
class InlineDriftRule(Rule):
    """Canonical methods and their inlined kernel copies must move together."""

    rule_id = "DRIFT"
    title = "inline-parity pinning: fast-path copies match their canonicals"

    codes = {
        "DRIFT001": "a pinned canonical/inlined pair changed on one side",
        "DRIFT002": "drift-pin infrastructure broken (missing symbol, "
        "marker or pin entry)",
    }

    def __init__(
        self,
        pairs: tuple[tuple[str, str, str, str], ...] = DRIFT_PAIRS,
        pins: dict[str, dict[str, str]] | None = None,
    ):
        self.pairs = pairs
        self.pins = pins

    def check(self, project: Project) -> Iterator[Finding]:
        pins = self.pins if self.pins is not None else load_pins()
        for key, canon_rel, symbol, inline_rel in self.pairs:
            canon_src = project.get(canon_rel)
            inline_src = project.get(inline_rel)
            if canon_src is None or inline_src is None:
                # files outside this analysis root: the pair does not
                # apply (fixture trees pass their own pairs)
                continue
            node = find_symbol(canon_src, symbol)
            if node is None:
                yield Finding(
                    canon_rel,
                    1,
                    "DRIFT002",
                    f"drift pair {key}: canonical symbol {symbol} not "
                    f"found in {canon_rel}; update DRIFT_PAIRS or restore "
                    "the symbol",
                )
                continue
            regions = marker_regions(inline_src.text, key)
            if not regions:
                yield Finding(
                    inline_rel,
                    1,
                    "DRIFT002",
                    f"drift pair {key}: no '# drift: begin {key}' marker "
                    f"in {inline_rel}; the inlined copy is out of "
                    "coverage",
                )
                continue
            stmts = region_statements(inline_src.tree, regions)
            if not stmts:
                yield Finding(
                    inline_rel,
                    regions[0][0],
                    "DRIFT002",
                    f"drift pair {key}: marker region contains no "
                    "statements",
                )
                continue
            pin = pins.get(key)
            if pin is None:
                yield Finding(
                    canon_rel,
                    getattr(node, "lineno", 1),
                    "DRIFT002",
                    f"drift pair {key} has no pinned fingerprints; run "
                    f"`{REGEN_CMD}`",
                )
                continue
            canon_hash = fingerprint_nodes([node])
            inline_hash = fingerprint_nodes(stmts)
            canon_moved = canon_hash != pin.get("canonical")
            inline_moved = inline_hash != pin.get("inlined")
            if canon_moved and not inline_moved:
                yield Finding(
                    canon_rel,
                    getattr(node, "lineno", 1),
                    "DRIFT001",
                    f"{symbol} changed but its inlined copy in "
                    f"{inline_rel} ({key}) did not; port the edit, "
                    f"re-prove parity, then `{REGEN_CMD}`",
                )
            elif inline_moved and not canon_moved:
                yield Finding(
                    inline_rel,
                    regions[0][0],
                    "DRIFT001",
                    f"inlined copy of {symbol} ({key}) changed but the "
                    f"canonical in {canon_rel} did not; port the edit, "
                    f"re-prove parity, then `{REGEN_CMD}`",
                )
            elif canon_moved and inline_moved:
                yield Finding(
                    canon_rel,
                    getattr(node, "lineno", 1),
                    "DRIFT001",
                    f"both sides of drift pair {key} changed; if the "
                    "edit is intentional and the golden suite passes, "
                    f"re-pin with `{REGEN_CMD}`",
                )
