"""RACE: fork/worker-safety for the parallel sweep engine.

The sweep scheduler ships batches to spawn-started worker processes
(:mod:`repro.sim.sched.pool`, whose ``Process(target=_worker_main)``
is the worker entry).  Under spawn, each worker re-imports the
package, so module-level state is *re-created per process* — mutations
made in a worker are invisible to the parent and vice versa.  Code that
relies on such state being shared is silently wrong, and nothing at
runtime says so.  These rules use the project call graph to find the
functions reachable from worker entry points — submitted functions and
``Process`` targets (the *worker-reachable set*) — and audit what they
touch:

* **RACE001** — a module-level mutable object written on one side of
  the process boundary and read on the other.  One-sided use is fine
  (a per-worker memo, a parent-only cache); the hazard is exactly the
  cross-boundary pairing.  Module-scope writes (import-time
  registration) are safe under spawn and never counted.
* **RACE002** — RNG state crossing the boundary: calls to the global
  ``random.*`` functions inside worker-reachable code, ``Random()``
  constructed without a seed, or a module-level ``Random`` instance
  read from a worker.  Workers must derive seeds from job config
  (``seed_for``-style), or identical/implicit RNG streams make the
  sweep silently depend on scheduling.
* **RACE003** — an open file / mmap / trace-reader handle passed into a
  submit call.  OS handles do not survive pickling to a spawned
  process; workers must receive *paths or keys* and open locally.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import resolve_local, simple_local_bindings
from repro.analysis.findings import Finding
from repro.analysis.graph import ModuleInfo, SemanticModel, WorkerEntry
from repro.analysis.registry import Rule, register_rule
from repro.analysis.visitor import Project

#: callables whose result is an OS-handle-like object (RACE003)
HANDLE_OPENERS = frozenset(
    {"open", "mmap", "TraceReader", "gzip.open", "io.open", "mmap.mmap"}
)

#: functions whose call marks a seed being derived from config (RACE002
#: exemption): re-seeding inside the worker is the *fix*, not the bug
RESEED_MARKERS = frozenset({"seed_for", "derive_seed", "seed_from_config"})


@register_rule
class ForkSafetyRule(Rule):
    """Module state, RNG and handles crossing the process boundary."""

    rule_id = "RACE"
    title = "fork/worker-safety across the process-pool boundary"

    #: per-code one-liners for ``--list-rules``
    codes = {
        "RACE001": "module-level mutable written on one side of the "
        "process boundary, read on the other",
        "RACE002": "RNG stream crossing the process boundary without "
        "config-derived re-seeding",
        "RACE003": "open file/mmap handle captured into a submit call",
    }

    def check(self, project: Project) -> Iterator[Finding]:
        model = project.semantic()
        entries = model.worker_entries()
        if not entries:
            return
        worker_set = model.reachable([e.target for e in entries])
        parent_set = {
            q for q in model.functions if q not in worker_set
        }
        yield from self._check_shared_mutables(model, worker_set, parent_set)
        yield from self._check_rng(model, worker_set)
        yield from self._check_rng_in_args(model, entries)
        yield from self._check_handles(model, entries)

    # -- RACE001 --------------------------------------------------------

    def _check_shared_mutables(
        self,
        model: SemanticModel,
        worker_set: set[str],
        parent_set: set[str],
    ) -> Iterator[Finding]:
        from repro.analysis.dataflow import global_accesses

        for modname in sorted(model.modules):
            info = model.modules[modname]
            watched = {
                name
                for name in info.mutable_globals
                if not name.startswith("__")
            }
            if not watched:
                continue
            worker_reads: dict[str, str] = {}
            worker_writes: dict[str, str] = {}
            parent_reads: dict[str, str] = {}
            parent_writes: dict[str, str] = {}
            for local, node in sorted(info.functions.items()):
                qual = f"{modname}.{local}"
                reads, writes = global_accesses(node, watched)
                if qual in worker_set:
                    for n in reads:
                        worker_reads.setdefault(n, qual)
                    for n in writes:
                        worker_writes.setdefault(n, qual)
                if qual in parent_set:
                    # registration pattern: a writer that the module
                    # itself invokes at import time populates state
                    # before any fork — identical in every process
                    registered = local.split(".")[0] in info.module_level_called
                    for n in reads:
                        parent_reads.setdefault(n, qual)
                    if not registered:
                        for n in writes:
                            parent_writes.setdefault(n, qual)
            for name in sorted(watched):
                glob = info.mutable_globals[name]
                if name in worker_writes and (
                    name in parent_reads or name in parent_writes
                ):
                    other = parent_reads.get(name) or parent_writes[name]
                    yield Finding(
                        info.rel,
                        glob.line,
                        "RACE001",
                        f"{name} ({glob.kind}) is written in worker-"
                        f"reachable {worker_writes[name]} but also used "
                        f"in parent-side {other}; worker mutations are "
                        "invisible across the spawn boundary",
                    )
                elif name in worker_reads and name in parent_writes:
                    yield Finding(
                        info.rel,
                        glob.line,
                        "RACE001",
                        f"{name} ({glob.kind}) is written in parent-side "
                        f"{parent_writes[name]} but read in worker-"
                        f"reachable {worker_reads[name]}; workers see the "
                        "import-time value, not the parent's updates",
                    )

    # -- RACE002 --------------------------------------------------------

    def _check_rng(
        self, model: SemanticModel, worker_set: set[str]
    ) -> Iterator[Finding]:
        rng_globals = {
            modname: self._module_rng_globals(model.modules[modname])
            for modname in model.modules
        }
        for qual in sorted(worker_set):
            info, node = model.functions[qual]
            module_rngs = rng_globals.get(info.name, set())
            if module_rngs:
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in module_rngs
                    ):
                        yield Finding(
                            info.rel,
                            sub.lineno,
                            "RACE002",
                            f"{qual} uses module-level RNG {sub.id} in "
                            "worker-reachable code; each spawned process "
                            "re-creates it, so streams repeat across "
                            "workers — derive a per-job seed from config",
                        )
                        break
            if self._reseeds_from_config(node):
                continue
            random_alias = {
                local
                for local, target in info.imports.items()
                if target == "random"
            }
            random_funcs = {
                local
                for local, target in info.imports.items()
                if target.startswith("random.") and target != "random.Random"
            }
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_alias
                ):
                    if func.attr == "Random":
                        if not sub.args and not sub.keywords:
                            yield Finding(
                                info.rel,
                                sub.lineno,
                                "RACE002",
                                f"{qual} constructs random.Random() with "
                                "no seed in worker-reachable code; seed "
                                "from job config so parallel and serial "
                                "runs match",
                            )
                    else:
                        yield Finding(
                            info.rel,
                            sub.lineno,
                            "RACE002",
                            f"{qual} calls random.{func.attr}() in "
                            "worker-reachable code; the global RNG is "
                            "per-process under spawn — use a config-"
                            "seeded Random instance",
                        )
                elif isinstance(func, ast.Name) and func.id in random_funcs:
                    yield Finding(
                        info.rel,
                        sub.lineno,
                        "RACE002",
                        f"{qual} calls {func.id}() from the global "
                        "random module in worker-reachable code; use a "
                        "config-seeded Random instance",
                    )

    @staticmethod
    def _module_rng_globals(info: ModuleInfo) -> set[str]:
        """Module-level names bound to a ``random.Random``-like instance."""
        out: set[str] = set()
        for stmt in info.source.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            func = stmt.value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name != "Random":
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        return out

    def _check_rng_in_args(
        self, model: SemanticModel, entries: list[WorkerEntry]
    ) -> Iterator[Finding]:
        for entry in entries:
            bindings = simple_local_bindings(entry.submitter_node)
            for arg in entry.payload:
                resolved = resolve_local(arg, bindings)
                if not isinstance(resolved, ast.Call):
                    continue
                func = resolved.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name == "Random":
                    label = (
                        arg.id if isinstance(arg, ast.Name) else "argument"
                    )
                    yield Finding(
                        entry.rel,
                        entry.call.lineno,
                        "RACE002",
                        f"{entry.submitter} passes Random instance "
                        f"{label} into a submit call; pickled RNG state "
                        "diverges from the parent's stream after the "
                        "first draw — pass a seed instead",
                    )

    @staticmethod
    def _reseeds_from_config(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = None
                if isinstance(sub.func, ast.Name):
                    name = sub.func.id
                elif isinstance(sub.func, ast.Attribute):
                    name = sub.func.attr
                if name in RESEED_MARKERS:
                    return True
                # Random(expr) with an explicit seed argument also counts
                if name == "Random" and (sub.args or sub.keywords):
                    return True
        return False

    # -- RACE003 --------------------------------------------------------

    def _check_handles(
        self, model: SemanticModel, entries: list[WorkerEntry]
    ) -> Iterator[Finding]:
        for entry in entries:
            info = model.by_rel[entry.rel]
            bindings = simple_local_bindings(entry.submitter_node)
            for arg in entry.payload:
                resolved = resolve_local(arg, bindings)
                opener = self._opener_name(resolved, info)
                if opener is not None:
                    label = (
                        arg.id if isinstance(arg, ast.Name) else "argument"
                    )
                    yield Finding(
                        entry.rel,
                        entry.call.lineno,
                        "RACE003",
                        f"{entry.submitter} passes {label} (from "
                        f"{opener}(...)) into a submit call; OS handles "
                        "do not survive pickling to a spawned worker — "
                        "pass a path/key and open inside the worker",
                    )

    @staticmethod
    def _opener_name(expr: ast.expr, info: ModuleInfo) -> str | None:
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        dotted: str | None = None
        if isinstance(func, ast.Name):
            dotted = func.id
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            dotted = f"{func.value.id}.{func.attr}"
        if dotted is None:
            return None
        if dotted in HANDLE_OPENERS:
            return dotted
        # an imported name that itself points at an opener
        target = info.imports.get(dotted)
        if target is not None and (
            target in HANDLE_OPENERS
            or target.rsplit(".", 1)[-1] in {"TraceReader", "open", "mmap"}
        ):
            return dotted
        return None
