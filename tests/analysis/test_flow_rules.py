"""FLW family: hot-loop allocation/hoisting/enum rules and silent degrades."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze, load_project
from repro.analysis.rules.flow import DEFAULT_DEGRADE_SCOPE, HotPathDataflowRule


def run_flow(
    root: Path,
    files: dict[str, str],
    hot_targets=(("hot.py", "kernel"),),
    degrade_scope=(),
) -> list:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    project = load_project(root, manifest={})
    rule = HotPathDataflowRule(
        hot_targets=tuple(hot_targets), degrade_scope=tuple(degrade_scope)
    )
    return analyze(project=project, rules=[rule])


class TestFlw001Allocation:
    def test_container_displays_and_class_instantiation(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                class Thing:
                    pass

                def kernel(items, out):
                    for x in items:
                        d = {"a": x}
                        s = [y for y in (x,)]
                        t = Thing()
                        out.extend((d, s, t))
                    return out
                """
            },
        )
        flw1 = [f for f in findings if f.rule == "FLW001"]
        labels = sorted(f.message.split(" inside")[0] for f in flw1)
        assert labels == [
            "Thing() instantiation",
            "comprehension",
            "dict display",
        ]

    def test_tuples_and_preloop_allocation_are_clean(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                def kernel(items):
                    out = []
                    append = out.append
                    total = 0
                    for x in items:
                        pair = (x, x + 1)
                        append(pair)
                        total += x
                    return out, total
                """
            },
        )
        assert [f for f in findings if f.rule == "FLW001"] == []

    def test_raise_paths_are_exempt(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                def kernel(items):
                    total = 0
                    for x in items:
                        if x < 0:
                            raise ValueError(f"negative input: {x}")
                        total += x
                    return total
                """
            },
        )
        assert [f for f in findings if f.rule == "FLW001"] == []


class TestFlw002Unhoisted:
    def test_loop_invariant_method_call_is_flagged(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                def kernel(items, sink):
                    for x in items:
                        sink.push(x)
                """
            },
        )
        assert [f.rule for f in findings] == ["FLW002"]
        assert "push = sink.push" in findings[0].message

    def test_hoisted_and_loop_bound_receivers_are_clean(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                def kernel(batches, sink):
                    push = sink.push
                    for batch in batches:
                        push(batch.finalize())
                """
            },
        )
        # push() is a hoisted Name call; batch is bound by the loop
        assert findings == []

    def test_small_postprocessing_loop_is_not_the_hot_loop(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                def kernel(items, sink):
                    push = sink.push
                    for x in items:
                        a = x + 1
                        b = a * 2
                        c = b - x
                        push(c)
                    for leftover in sink.drain():
                        sink.log(leftover)
                """
            },
        )
        # only the dominant loop is audited; the drain loop is teardown
        assert findings == []


class TestFlw003EnumOps:
    def test_enum_compare_alias_and_subscript(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                import enum

                class Kind(enum.Enum):
                    A = 1
                    B = 2

                def kernel(items, counts):
                    ka = Kind.A
                    n = 0
                    for x in items:
                        if x == Kind.A:
                            n += 1
                        if x != ka:
                            counts[ka] += 1
                    return n
                """
            },
        )
        rules = [f.rule for f in findings]
        assert rules.count("FLW003") == 3  # direct ==, alias !=, subscript

    def test_identity_checks_are_clean(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "hot.py": """
                import enum

                class Kind(enum.Enum):
                    A = 1
                    B = 2

                def kernel(items):
                    ka = Kind.A
                    n = 0
                    for x in items:
                        if x is ka:
                            n += 1
                    return n
                """
            },
        )
        assert findings == []


class TestFlw004SilentDegrade:
    def test_silent_handler_flagged_logged_and_miss_exempt(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "store.py": """
                import logging

                log = logging.getLogger(__name__)

                def load(path):
                    try:
                        return open(path).read()
                    except FileNotFoundError:
                        return None
                    except OSError:
                        return ""

                def load_logged(path):
                    try:
                        return open(path).read()
                    except OSError as exc:
                        log.warning("degraded: %s", exc)
                        return ""

                def load_raising(path):
                    try:
                        return open(path).read()
                    except OSError as exc:
                        raise RuntimeError(path) from exc
                """
            },
            hot_targets=(),
            degrade_scope=("store.py",),
        )
        assert [f.rule for f in findings] == ["FLW004"]
        assert "except (OSError)" in findings[0].message

    def test_default_scope_covers_the_result_db(self, tmp_path):
        # the result DB is the store every CLI run opens: a silent
        # handler there hides a failed commit or rollback
        findings = run_flow(
            tmp_path,
            {
                "sim/sched/db.py": """
                import sqlite3

                def rollback(conn):
                    try:
                        conn.rollback()
                    except sqlite3.Error:
                        pass
                """
            },
            hot_targets=(),
            degrade_scope=DEFAULT_DEGRADE_SCOPE,
        )
        assert [(f.path, f.rule) for f in findings] == [("sim/sched/db.py", "FLW004")]

    def test_out_of_scope_files_are_ignored(self, tmp_path):
        findings = run_flow(
            tmp_path,
            {
                "other.py": """
                def load(path):
                    try:
                        return open(path).read()
                    except OSError:
                        return ""
                """
            },
            hot_targets=(),
            degrade_scope=("store.py",),
        )
        assert findings == []
