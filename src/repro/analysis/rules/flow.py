"""FLW: hot-path dataflow — keep the per-access loop allocation-free.

PR 4 made ``Simulator.run`` a profile-guided kernel: no allocation, no
repeated attribute loads, no enum hashing inside the per-access loop.
Nothing *enforced* that shape — one innocent ``info = {...}`` in a later
PR would quietly give back the 2x.  These rules pin the shape:

* **FLW001** — object allocation inside the hot loop: list/dict/set
  displays and comprehensions, generator expressions, lambdas,
  f-strings, and constructor calls (builtin container types or project
  classes).  Tuples are exempt — the kernel's ``tuple_new`` payloads
  and ring entries are tuples by design, and CPython allocates small
  tuples from a free list.
* **FLW002** — an un-hoisted bound-method call: ``recv.meth(...)``
  where ``recv`` is loop-invariant.  Every iteration pays a dict lookup
  plus a bound-method allocation; hoist ``meth = recv.meth`` above the
  loop.  Plain attribute *reads* are not flagged — some (``bhr._value``)
  must be re-read every iteration for correctness.
* **FLW003** — enum equality / hashing in the loop: ``== / !=``
  against an enum member (or a local alias of one) and subscripts keyed
  by one go through rich comparison and ``__hash__``; the kernel uses
  ``is`` on hoisted members instead.
* **FLW004** — a silent degrade path: an ``except`` handler in
  ``sim/sched/db.py``, ``workloads/store.py`` or the native kernel's
  build and adapter layers that neither re-raises nor logs.
  Degrade-to-rebuild is a *feature* of those modules, but an
  unobservable degrade hides corrupt stores and cold-cache storms.
  Handlers catching only ``FileNotFoundError`` are exempt: a cold miss
  is the expected case, not a degradation.

Raise-only paths inside the loop (guard clauses building an error
message) are exempt from FLW001 — allocation on the way to an exception
is free.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import (
    handler_exception_names,
    handler_logs,
    handler_reraises,
    names_bound_in,
    outer_for_loops,
    simple_local_bindings,
)
from repro.analysis.findings import Finding
from repro.analysis.graph import ModuleInfo, SemanticModel
from repro.analysis.registry import Rule, register_rule
from repro.analysis.visitor import Project

#: builtin constructors that allocate a fresh container/object
ALLOCATING_BUILTINS = frozenset(
    {"list", "dict", "set", "frozenset", "bytearray", "object"}
)

#: exception types whose silent handling is the expected cold-miss path
EXPECTED_MISS_EXCEPTIONS = frozenset({"FileNotFoundError"})

#: default hot-path targets: (file, function qualname) of the kernel
DEFAULT_HOT_TARGETS: tuple[tuple[str, str], ...] = (
    ("sim/simulator.py", "Simulator.run"),
)

#: default FLW004 scope: the degrade-to-rebuild modules (the result DB
#: recomputes rows that will not decode, the trace store rebuilds
#: corrupt files, and the native kernel's build and adapter layers
#: degrade to the interpreted path): none may swallow a failure silently
DEFAULT_DEGRADE_SCOPE: tuple[str, ...] = (
    "sim/sched/db.py",
    "workloads/store.py",
    "sim/native/build.py",
    "sim/native/adapter.py",
)


@register_rule
class HotPathDataflowRule(Rule):
    """Allocation, un-hoisted loads and enum ops in the per-access loop."""

    rule_id = "FLW"
    title = "hot-path dataflow: allocation-free per-access loop"

    codes = {
        "FLW001": "object allocation inside the hot per-access loop",
        "FLW002": "un-hoisted bound-method call on a loop-invariant "
        "receiver in the hot loop",
        "FLW003": "enum equality/hash operation in the hot loop "
        "(use `is` on hoisted members)",
        "FLW004": "except handler degrades silently (no raise, no log)",
    }

    def __init__(
        self,
        hot_targets: tuple[tuple[str, str], ...] = DEFAULT_HOT_TARGETS,
        degrade_scope: tuple[str, ...] = DEFAULT_DEGRADE_SCOPE,
    ):
        self.hot_targets = hot_targets
        self.degrade_scope = degrade_scope

    def check(self, project: Project) -> Iterator[Finding]:
        model = project.semantic()
        for rel, qualname in self.hot_targets:
            info = model.by_rel.get(rel)
            if info is None or qualname not in info.functions:
                continue
            node = info.functions[qualname]
            bindings = simple_local_bindings(node)
            enum_aliases = self._enum_aliases(model, info, bindings)
            loops = outer_for_loops(node)
            if not loops:
                continue
            # the per-access loop is the loop that dominates the
            # function body; small pre/post-processing loops (histogram
            # folds, warmup slicing) are not the hot path
            hot = max(loops, key=lambda lp: sum(1 for _ in ast.walk(lp)))
            yield from self._check_loop(model, info, qualname, hot, enum_aliases)
        yield from self._check_degrade_paths(project)

    # -- hot-loop checks ------------------------------------------------

    def _check_loop(
        self,
        model: SemanticModel,
        info: ModuleInfo,
        qualname: str,
        loop: ast.For,
        enum_aliases: set[str],
    ) -> Iterator[Finding]:
        loop_bound = names_bound_in(loop)
        raise_nodes = self._nodes_under_raises(loop)
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if sub in raise_nodes:
                    continue
                yield from self._check_allocation(model, info, qualname, sub)
                yield from self._check_unhoisted(
                    info, qualname, sub, loop_bound
                )
                yield from self._check_enum_ops(
                    model, info, qualname, sub, enum_aliases
                )

    @staticmethod
    def _nodes_under_raises(loop: ast.For) -> set[ast.AST]:
        """Every node inside a ``raise`` statement within the loop."""
        under: set[ast.AST] = set()
        for sub in ast.walk(loop):
            if isinstance(sub, ast.Raise):
                under.update(ast.walk(sub))
        return under

    def _check_allocation(
        self,
        model: SemanticModel,
        info: ModuleInfo,
        qualname: str,
        node: ast.AST,
    ) -> Iterator[Finding]:
        label: str | None = None
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            label = f"{type(node).__name__.lower()} display"
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            label = "comprehension"
        elif isinstance(node, ast.Lambda):
            label = "lambda"
        elif isinstance(node, ast.JoinedStr):
            label = "f-string"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ALLOCATING_BUILTINS:
                    label = f"{func.id}() call"
                else:
                    kind, target, _ = model.resolve(info, func.id)
                    if kind == "class":
                        label = f"{func.id}() instantiation"
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                kind, target, _ = model.resolve(
                    info, f"{func.value.id}.{func.attr}"
                )
                if kind == "class":
                    label = f"{func.value.id}.{func.attr}() instantiation"
        if label is not None:
            yield Finding(
                info.rel,
                getattr(node, "lineno", 0),
                "FLW001",
                f"{label} inside the hot per-access loop of {qualname}; "
                "allocate outside the loop or restructure to tuples",
            )

    def _check_unhoisted(
        self,
        info: ModuleInfo,
        qualname: str,
        node: ast.AST,
        loop_bound: set[str],
    ) -> Iterator[Finding]:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            return
        recv = node.func.value.id
        if recv == "self" or recv in loop_bound:
            return
        yield Finding(
            info.rel,
            node.lineno,
            "FLW002",
            f"{recv}.{node.func.attr}(...) in the hot loop of {qualname} "
            f"re-binds the method every iteration; hoist "
            f"`{node.func.attr} = {recv}.{node.func.attr}` above the loop",
        )

    def _check_enum_ops(
        self,
        model: SemanticModel,
        info: ModuleInfo,
        qualname: str,
        node: ast.AST,
        enum_aliases: set[str],
    ) -> Iterator[Finding]:
        def is_enum_ref(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in enum_aliases
            if isinstance(expr, ast.Attribute) and isinstance(
                expr.value, ast.Name
            ):
                return self._is_enum_class(model, info, expr.value.id)
            return False

        if isinstance(node, ast.Compare):
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                return
            if any(is_enum_ref(e) for e in [node.left, *node.comparators]):
                yield Finding(
                    info.rel,
                    node.lineno,
                    "FLW003",
                    f"enum ==/!= compare in the hot loop of {qualname}; "
                    "use `is` against a hoisted member",
                )
        elif isinstance(node, ast.Subscript):
            if is_enum_ref(node.slice):
                yield Finding(
                    info.rel,
                    node.lineno,
                    "FLW003",
                    f"enum-keyed subscript in the hot loop of {qualname} "
                    "hashes the member every iteration; index by a "
                    "hoisted int (`member.value`) instead",
                )

    def _enum_aliases(
        self,
        model: SemanticModel,
        info: ModuleInfo,
        bindings: dict[str, ast.expr],
    ) -> set[str]:
        """Function locals bound to an enum member (``x = Cls.MEMBER``)."""
        aliases: set[str] = set()
        for name, value in bindings.items():
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and self._is_enum_class(model, info, value.value.id)
            ):
                aliases.add(name)
        return aliases

    @staticmethod
    def _is_enum_class(
        model: SemanticModel, info: ModuleInfo, name: str
    ) -> bool:
        if name in info.enums:
            return True
        kind, target, target_info = model.resolve(info, name)
        if kind != "class" or target_info is None:
            return False
        local = target[len(target_info.name) + 1 :]
        return local in target_info.enums

    # -- FLW004: silent degrade paths -----------------------------------

    def _check_degrade_paths(self, project: Project) -> Iterator[Finding]:
        for rel in self.degrade_scope:
            source = project.get(rel)
            if source is None:
                continue
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if handler_reraises(node) or handler_logs(node):
                    continue
                caught = handler_exception_names(node)
                if caught and caught <= EXPECTED_MISS_EXCEPTIONS:
                    continue
                what = ", ".join(sorted(c or "<bare>" for c in caught))
                yield Finding(
                    rel,
                    node.lineno,
                    "FLW004",
                    f"except ({what}) degrades silently — neither "
                    "re-raises nor logs; emit log.warning so corrupt-"
                    "store fallbacks are observable",
                )
