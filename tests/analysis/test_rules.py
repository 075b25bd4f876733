"""Unit tests for the static-analysis rule families.

Each family is exercised against known-good and known-bad snippets laid
out as a miniature package under ``tmp_path``; the live-tree test lives
in ``test_live_tree.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import analyze, load_project
from repro.analysis.registry import all_rules
from repro.analysis.rules.budget import HardwareBudgetRule
from repro.analysis.rules.contracts import PrefetcherContractRule
from repro.analysis.rules.determinism import (
    FloatEqualityRule,
    GlobalRandomRule,
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.experiments import ExperimentHygieneRule


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


def run_rules(root: Path, rules, manifest: dict | None = None) -> list:
    project = load_project(root, manifest=manifest or {})
    return analyze(project=project, rules=rules)


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# determinism (DET*)


class TestGlobalRandomRule:
    def test_flags_global_rng_calls(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/x.py": """
                import random
                def pick(items):
                    random.shuffle(items)
                    return random.choice(items) if random.random() < 0.5 else None
                """
            },
        )
        findings = run_rules(tmp_path, [GlobalRandomRule()])
        assert rule_ids(findings) == ["DET001", "DET001", "DET001"]
        assert all(f.path == "core/x.py" for f in findings)

    def test_seeded_instance_calls_are_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "workloads/x.py": """
                import random
                def pick(items, seed):
                    rng = random.Random(seed)
                    return rng.choice(items)
                """
            },
        )
        assert run_rules(tmp_path, [GlobalRandomRule()]) == []

    def test_attribute_named_random_is_not_flagged(self, tmp_path):
        # spec_proxy-style: a dataclass field called `random`
        write_tree(
            tmp_path,
            {
                "workloads/x.py": """
                def mix(profile):
                    return profile.random() + profile.random
                """
            },
        )
        assert run_rules(tmp_path, [GlobalRandomRule()]) == []


class TestUnseededRandomRule:
    def test_flags_unseeded_random(self, tmp_path):
        write_tree(
            tmp_path,
            {"workloads/x.py": "import random\nrng = random.Random()\n"},
        )
        assert rule_ids(run_rules(tmp_path, [UnseededRandomRule()])) == ["DET002"]

    def test_flags_system_random(self, tmp_path):
        write_tree(
            tmp_path,
            {"workloads/x.py": "import random\nrng = random.SystemRandom()\n"},
        )
        assert rule_ids(run_rules(tmp_path, [UnseededRandomRule()])) == ["DET002"]

    def test_literal_seed_in_core_is_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {"core/x.py": "import random\nrng = random.Random(1234)\n"},
        )
        findings = run_rules(tmp_path, [UnseededRandomRule()])
        assert rule_ids(findings) == ["DET002"]
        assert "config" in findings[0].message

    def test_literal_seed_in_workloads_is_fine(self, tmp_path):
        # workload dataclasses carry their own seed defaults
        write_tree(
            tmp_path,
            {"workloads/x.py": "import random\nrng = random.Random(1234)\n"},
        )
        assert run_rules(tmp_path, [UnseededRandomRule()]) == []

    def test_config_seed_in_core_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {"core/x.py": "import random\ndef f(cfg):\n    return random.Random(cfg.seed)\n"},
        )
        assert run_rules(tmp_path, [UnseededRandomRule()]) == []


class TestWallClockRule:
    def test_flags_time_and_datetime(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/x.py": """
                import time
                import datetime
                def stamp():
                    return time.time(), time.perf_counter(), datetime.datetime.now()
                """
            },
        )
        findings = run_rules(tmp_path, [WallClockRule()])
        assert rule_ids(findings) == ["DET003", "DET003", "DET003"]

    def test_simulated_time_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {"sim/x.py": "def tick(core):\n    return core.time + 1\n"},
        )
        assert run_rules(tmp_path, [WallClockRule()]) == []


class TestSetIterationRule:
    def test_flags_for_and_comprehension_and_list(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "memory/x.py": """
                def f(a, b):
                    for item in {1, 2, 3}:
                        print(item)
                    out = [v for v in set(a)]
                    return list(set(a) | set(b)), out
                """
            },
        )
        findings = run_rules(tmp_path, [SetIterationRule()])
        assert rule_ids(findings) == ["DET004", "DET004", "DET004"]

    def test_sorted_set_is_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "memory/x.py": """
                def f(a):
                    for item in sorted(set(a)):
                        print(item)
                    return item in set(a)
                """
            },
        )
        assert run_rules(tmp_path, [SetIterationRule()]) == []

    def test_outside_strict_dirs_not_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {"experiments/x.py": "def f(a):\n    return [v for v in set(a)]\n"},
        )
        assert run_rules(tmp_path, [SetIterationRule()]) == []


class TestFloatEqualityRule:
    def test_flags_float_literal_equality(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/x.py": """
                def f(x, y):
                    return x == 0.5 or y != -1.0
                """
            },
        )
        findings = run_rules(tmp_path, [FloatEqualityRule()])
        assert rule_ids(findings) == ["DET005"]

    def test_ordering_and_int_equality_are_fine(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/x.py": """
                def f(x, y):
                    return x >= 0.5 and y == 1 and x <= 1.0
                """
            },
        )
        assert run_rules(tmp_path, [FloatEqualityRule()]) == []


# ----------------------------------------------------------------------
# hardware budget (BUD*)

GOOD_CONFIG = """
from dataclasses import dataclass

@dataclass
class ContextPrefetcherConfig:
    cst_entries: int = 16
    cst_links: int = 2
    cst_tag_bits: int = 4
    reducer_entries: int = 32
    reducer_tag_bits: int = 2
    full_hash_bits: int = 9
    reduced_hash_bits: int = 8
    history_entries: int = 4
    prefetch_queue_entries: int = 8
    delta_bits: int = 8
"""

GOOD_CST = """
from dataclasses import dataclass

@dataclass
class Candidate:
    delta: int
    score: int
"""

MINI_MANIFEST = {
    "config_defaults": {
        "cst_entries": 16,
        "cst_links": 2,
        "cst_tag_bits": 4,
        "reducer_entries": 32,
        "reducer_tag_bits": 2,
        "full_hash_bits": 9,
        "reduced_hash_bits": 8,
        "history_entries": 4,
        "prefetch_queue_entries": 8,
        "delta_bits": 8,
    },
    "derived": {
        "score_bits": 8,
        "reducer_payload_bits": 8,
        "queue_extra_bits": 56,
        "reducer_index_bits": 5,
        "cst_index_bits": 4,
        "cst_entry_bits": 36,
        # 16*36 + 32*10 + 4*8 + 8*64 = 1440
        "expected_total_bits": 1440,
        "max_total_bits": 2048,
    },
    "structure": {"core/cst.py": {"Candidate": ["delta", "score"]}},
}


class TestHardwareBudgetRule:
    def build(self, tmp_path, config=GOOD_CONFIG, cst=GOOD_CST):
        return write_tree(
            tmp_path, {"core/config.py": config, "core/cst.py": cst}
        )

    def test_clean_tree(self, tmp_path):
        root = self.build(tmp_path)
        assert run_rules(root, [HardwareBudgetRule()], MINI_MANIFEST) == []

    def test_entry_count_drift_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path,
            config=GOOD_CONFIG.replace(
                "cst_entries: int = 16", "cst_entries: int = 64"
            ),
        )
        findings = run_rules(root, [HardwareBudgetRule()], MINI_MANIFEST)
        codes = set(rule_ids(findings))
        assert "BUD001" in codes  # the default itself
        assert "BUD003" in codes  # derived geometry + budget cap

    def test_field_width_drift_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path,
            config=GOOD_CONFIG.replace(
                "delta_bits: int = 8", "delta_bits: int = 16"
            ),
        )
        findings = run_rules(root, [HardwareBudgetRule()], MINI_MANIFEST)
        assert "BUD001" in rule_ids(findings)

    def test_non_literal_default_is_unauditable(self, tmp_path):
        root = self.build(
            tmp_path,
            config=GOOD_CONFIG.replace(
                "cst_entries: int = 16", "cst_entries: int = 1 << 4"
            ),
        )
        findings = run_rules(root, [HardwareBudgetRule()], MINI_MANIFEST)
        assert rule_ids(findings) == ["BUD002"]

    def test_lost_structure_field_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path, cst=GOOD_CST.replace("    score: int\n", "")
        )
        findings = run_rules(root, [HardwareBudgetRule()], MINI_MANIFEST)
        assert rule_ids(findings) == ["BUD004"]

    def test_missing_manifest_is_an_error(self, tmp_path):
        root = self.build(tmp_path)
        findings = run_rules(root, [HardwareBudgetRule()], manifest={})
        assert rule_ids(findings) == ["BUD002"]


# ----------------------------------------------------------------------
# prefetcher contract (CON*)

BASE_MODULE = """
import abc

class Prefetcher(abc.ABC):
    name = "base"

    @abc.abstractmethod
    def on_access(self, access):
        ...

    def on_prefetch_issue(self, request, issued, reason):
        ...

    def accuracy(self):
        return 0.0
"""

GOOD_IMPL = """
from repro.prefetchers.base import Prefetcher

class GoodPrefetcher(Prefetcher):
    name = "good"

    def on_access(self, access):
        return []
"""

FACTORY = """
PREFETCHER_FACTORIES = {
    "good": GoodPrefetcher,
}
"""


class TestPrefetcherContractRule:
    def build(self, tmp_path, impl=GOOD_IMPL, factory=FACTORY):
        return write_tree(
            tmp_path,
            {
                "prefetchers/base.py": BASE_MODULE,
                "prefetchers/good.py": impl,
                "sim/config.py": factory,
            },
        )

    def test_clean_tree(self, tmp_path):
        root = self.build(tmp_path)
        assert run_rules(root, [PrefetcherContractRule()]) == []

    def test_not_subclassing_base_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path, impl=GOOD_IMPL.replace("(Prefetcher)", "")
        )
        findings = run_rules(root, [PrefetcherContractRule()])
        assert "CON001" in rule_ids(findings)

    def test_incompatible_signature_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path,
            impl=GOOD_IMPL.replace(
                "def on_access(self, access):",
                "def on_access(self, access, extra):",
            ),
        )
        findings = run_rules(root, [PrefetcherContractRule()])
        assert rule_ids(findings) == ["CON002"]

    def test_missing_on_access_is_flagged(self, tmp_path):
        impl = """
        from repro.prefetchers.base import Prefetcher

        class GoodPrefetcher(Prefetcher):
            name = "good"
        """
        root = self.build(tmp_path, impl=textwrap.dedent(impl))
        findings = run_rules(root, [PrefetcherContractRule()])
        assert "CON002" in rule_ids(findings)

    def test_unregistered_prefetcher_is_flagged(self, tmp_path):
        root = self.build(tmp_path, factory="PREFETCHER_FACTORIES = {}\n")
        findings = run_rules(root, [PrefetcherContractRule()])
        assert rule_ids(findings) == ["CON003"]

    def test_registration_through_lambda_is_seen(self, tmp_path):
        root = self.build(
            tmp_path,
            factory=(
                "PREFETCHER_FACTORIES = {\n"
                '    "good": lambda: GoodPrefetcher(),\n'
                "}\n"
            ),
        )
        assert run_rules(root, [PrefetcherContractRule()]) == []

    def test_missing_name_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path, impl=GOOD_IMPL.replace('    name = "good"\n', "")
        )
        findings = run_rules(root, [PrefetcherContractRule()])
        assert rule_ids(findings) == ["CON004"]

    def test_name_set_in_init_is_fine(self, tmp_path):
        impl = GOOD_IMPL.replace(
            '    name = "good"\n',
            '    def __init__(self):\n        self.name = "good"\n',
        )
        root = self.build(tmp_path, impl=impl)
        assert run_rules(root, [PrefetcherContractRule()]) == []

    def test_base_without_accuracy_is_flagged(self, tmp_path):
        root = self.build(tmp_path)
        base = (tmp_path / "prefetchers/base.py").read_text()
        (tmp_path / "prefetchers/base.py").write_text(
            base.replace("    def accuracy(self):\n        return 0.0\n", "")
        )
        findings = run_rules(root, [PrefetcherContractRule()])
        assert "CON005" in rule_ids(findings)

    def test_accuracy_signature_drift_is_flagged(self, tmp_path):
        impl = GOOD_IMPL.rstrip() + (
            "\n\n    def accuracy(self, window):\n        return 0.0\n"
        )
        root = self.build(tmp_path, impl=impl)
        findings = run_rules(root, [PrefetcherContractRule()])
        assert "CON002" in rule_ids(findings)


# ----------------------------------------------------------------------
# experiment hygiene (EXP*)

GOOD_FIGURE = """
def run(scale: str = "small"):
    return {"scale": scale}

def render(result) -> str:
    return str(result)
"""

GOOD_CLI = """
from repro.experiments import fig99_demo

_FIGURES = {
    "99": (fig99_demo, True),
}
"""


class TestExperimentHygieneRule:
    def build(self, tmp_path, figure=GOOD_FIGURE, cli=GOOD_CLI):
        return write_tree(
            tmp_path,
            {"experiments/fig99_demo.py": figure, "cli.py": cli},
        )

    def test_clean_tree(self, tmp_path):
        root = self.build(tmp_path)
        assert run_rules(root, [ExperimentHygieneRule()]) == []

    def test_missing_run_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path, figure=GOOD_FIGURE.replace("def run", "def build")
        )
        findings = run_rules(root, [ExperimentHygieneRule()])
        assert "EXP001" in rule_ids(findings)

    def test_missing_render_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path, figure=GOOD_FIGURE.replace("def render", "def show")
        )
        findings = run_rules(root, [ExperimentHygieneRule()])
        assert "EXP002" in rule_ids(findings)

    def test_run_with_extra_required_args_is_flagged(self, tmp_path):
        root = self.build(
            tmp_path,
            figure=GOOD_FIGURE.replace(
                'def run(scale: str = "small"):', "def run(scale, extra):"
            ),
        )
        findings = run_rules(root, [ExperimentHygieneRule()])
        assert rule_ids(findings) == ["EXP003"]

    def test_unwired_figure_is_flagged(self, tmp_path):
        root = self.build(tmp_path, cli="_FIGURES = {}\n")
        findings = run_rules(root, [ExperimentHygieneRule()])
        assert rule_ids(findings) == ["EXP004"]

    def test_non_figure_modules_are_ignored(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"experiments/tables.py": "def main():\n    pass\n", "cli.py": "_FIGURES = {}\n"},
        )
        assert run_rules(root, [ExperimentHygieneRule()]) == []


# ----------------------------------------------------------------------
# framework behaviour


class TestFramework:
    def test_parse_error_is_reported_not_fatal(self, tmp_path):
        root = write_tree(tmp_path, {"core/broken.py": "def f(:\n"})
        findings = run_rules(root, [GlobalRandomRule()])
        assert rule_ids(findings) == ["PARSE"]

    def test_catalogue_has_all_families(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert {"DET001", "DET002", "DET003", "DET004", "DET005"} <= ids
        assert {"BUD", "CON", "EXP"} <= ids

    def test_findings_are_deterministically_ordered(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "core/b.py": "import random\nx = random.random()\n",
                "core/a.py": "import random\ny = random.random()\nz = random.random()\n",
            },
        )
        findings = run_rules(tmp_path, [GlobalRandomRule()])
        assert [(f.path, f.line) for f in findings] == [
            ("core/a.py", 2),
            ("core/a.py", 3),
            ("core/b.py", 2),
        ]


# ----------------------------------------------------------------------
# hot-path performance (PERF*)


class TestSlotsRule:
    def _run(self, tmp_path, files):
        from repro.analysis.rules.perf import SlotsRule

        write_tree(tmp_path, files)
        return run_rules(tmp_path, [SlotsRule()])

    def test_plain_class_is_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "core/x.py": """
                class HotRecord:
                    def __init__(self):
                        self.a = 1
                """
            },
        )
        assert rule_ids(findings) == ["PERF001"]

    def test_slotted_layouts_pass(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "memory/x.py": """
                from dataclasses import dataclass
                from enum import Enum
                from typing import NamedTuple

                class Slotted:
                    __slots__ = ("a",)

                @dataclass(slots=True)
                class SlottedData:
                    a: int = 0

                class Record(NamedTuple):
                    a: int

                class Kind(Enum):
                    A = "a"

                class BadConfigError(ValueError):
                    pass
                """
            },
        )
        assert findings == []

    def test_dataclass_without_slots_is_flagged(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "prefetchers/x.py": """
                from dataclasses import dataclass

                @dataclass
                class HotEntry:
                    a: int = 0
                """
            },
        )
        assert rule_ids(findings) == ["PERF001"]

    def test_outside_hot_dirs_is_ignored(self, tmp_path):
        findings = self._run(
            tmp_path,
            {
                "workloads/x.py": """
                class Builder:
                    def __init__(self):
                        self.a = 1
                """
            },
        )
        assert findings == []

    def test_allowlist_suppresses(self, tmp_path):
        from repro.analysis.rules.perf import SlotsRule

        write_tree(
            tmp_path,
            {
                "core/reward.py": """
                class RewardFunction:
                    def __init__(self):
                        self.peak = 8
                """
            },
        )
        assert run_rules(tmp_path, [SlotsRule()]) == []

class TestRecordLayoutRule:
    """PERF002: the trace-store record layout is pinned per version."""

    def _rule(self):
        from repro.analysis.rules.perf import RecordLayoutRule

        return RecordLayoutRule()

    def _store_source(self, version: int, fields: str) -> str:
        return f"STORE_VERSION = {version}\nRECORD_FIELDS = {fields}\n"

    def test_live_layout_matches_pin(self):
        # the real module must always satisfy its own pin — this is the
        # test that fires when someone edits RECORD_FIELDS in place
        from repro.analysis.rules.perf import PINNED_RECORD_LAYOUTS
        from repro.workloads.store import STORE_VERSION, record_layout_hash

        assert PINNED_RECORD_LAYOUTS[STORE_VERSION] == record_layout_hash()

    def test_current_layout_passes(self, tmp_path):
        from repro.workloads.store import RECORD_FIELDS, STORE_VERSION

        write_tree(
            tmp_path,
            {
                "workloads/store.py": self._store_source(
                    STORE_VERSION, repr(RECORD_FIELDS)
                )
            },
        )
        assert run_rules(tmp_path, [self._rule()]) == []

    def test_layout_drift_without_bump_is_flagged(self, tmp_path):
        from repro.workloads.store import RECORD_FIELDS, STORE_VERSION

        drifted = RECORD_FIELDS + (("extra", "B"),)
        write_tree(
            tmp_path,
            {
                "workloads/store.py": self._store_source(
                    STORE_VERSION, repr(drifted)
                )
            },
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF002"]
        assert "bump STORE_VERSION" in findings[0].message

    def test_new_version_requires_a_pin(self, tmp_path):
        from repro.workloads.store import RECORD_FIELDS

        write_tree(
            tmp_path,
            {"workloads/store.py": self._store_source(999, repr(RECORD_FIELDS))},
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF002"]
        assert "no pinned record layout" in findings[0].message

    def test_missing_module_is_flagged(self, tmp_path):
        write_tree(tmp_path, {"core/x.py": "pass\n"})
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF002"]

    def test_non_literal_layout_is_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "workloads/store.py": (
                    "STORE_VERSION = 1\n"
                    "RECORD_FIELDS = tuple(make_fields())\n"
                )
            },
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF002"]
        assert "statically auditable" in findings[0].message

    def test_non_int_version_is_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {"workloads/store.py": 'STORE_VERSION = "one"\nRECORD_FIELDS = ()\n'},
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF002"]
        assert "integer literal" in findings[0].message


class TestVectorPhaseContractRule:
    """PERF003: vectorized phases keep their scalar-fallback twins."""

    def _rule(self):
        from repro.analysis.rules.perf import VectorPhaseContractRule

        return VectorPhaseContractRule()

    def _good_tree(self) -> dict[str, str]:
        # miniature native package: one phase whose native side is a
        # top-level function and whose fallback is a one-level method
        return {
            "sim/native/__init__.py": """
            VECTOR_PHASES = (
                (
                    "kernel",
                    "repro.sim.native.adapter:phase_kernel",
                    "repro.sim.simulator:Simulator.run",
                ),
            )
            """,
            "sim/native/adapter.py": """
            def phase_kernel(sim, cols):
                return cols
            """,
            "sim/simulator.py": """
            class Simulator:
                def run(self, trace):
                    return trace
            """,
        }

    def test_live_contract_resolves(self):
        # the real tree must satisfy its own phase table — this is the
        # test that fires when someone renames a phase function in place
        from repro.analysis.rules.perf import _module_rel
        from repro.sim.native import VECTOR_PHASES

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        for _phase, native_impl, fallback in VECTOR_PHASES:
            for ref in (native_impl, fallback):
                module, _, qualname = ref.partition(":")
                assert (src / _module_rel(module)).exists(), ref

    def test_paired_phases_pass(self, tmp_path):
        write_tree(tmp_path, self._good_tree())
        assert run_rules(tmp_path, [self._rule()]) == []

    def test_deleted_fallback_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/simulator.py"] = """
        class Simulator:
            def run_batches(self, trace):
                return trace
        """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "scalar" in findings[0].message

    def test_deleted_native_impl_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/native/adapter.py"] = "def other():\n    pass\n"
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "phase_kernel" in findings[0].message

    def test_missing_module_is_flagged(self, tmp_path):
        files = self._good_tree()
        del files["sim/native/adapter.py"]
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "does not exist" in findings[0].message

    def test_missing_contract_module_is_flagged(self, tmp_path):
        write_tree(tmp_path, {"core/x.py": "pass\n"})
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "VECTOR_PHASES" in findings[0].message

    def test_non_literal_table_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/native/__init__.py"] = (
            "VECTOR_PHASES = tuple(build_phases())\n"
        )
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "statically auditable" in findings[0].message

    def test_malformed_row_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/native/__init__.py"] = (
            'VECTOR_PHASES = (("kernel", "only-one-side"),)\n'
        )
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "malformed" in findings[0].message

    def test_bad_reference_shape_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/native/__init__.py"] = """
        VECTOR_PHASES = (
            (
                "kernel",
                "no-colon-here",
                "repro.sim.simulator:Simulator.run",
            ),
        )
        """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF003"]
        assert "module:qualname" in findings[0].message


class TestBatchDispatchLayoutRule:
    """PERF004: the warm-pool batch-dispatch layout is pinned."""

    def _rule(self):
        from repro.analysis.rules.perf import BatchDispatchLayoutRule

        return BatchDispatchLayoutRule()

    def _good_tree(self) -> dict[str, str]:
        # miniature dispatch stack: the pinned wire shape, puts only in
        # the reviewed pool entry points, submits only in the reviewed
        # dispatch loop, and a sweep entry point that only builds plans
        return {
            "sim/sched/pool.py": """
            CELL_FIELDS = ("index", "prefetcher", "context_id")

            def _worker_main(task_q, result_q):
                result_q.put(("done", 0, [], 0))

            class WorkerPool:
                def submit(self, batch_id, shared, cells):
                    self._task_q.put((batch_id, shared, cells))

                def close(self):
                    self._task_q.put(None)
            """,
            "sim/sched/scheduler.py": """
            async def dispatch(pool, batches, on_batch):
                for i, (shared, cells) in enumerate(batches):
                    pool.submit(i, shared, cells)
            """,
            "sim/parallel.py": """
            def parallel_compare(workloads, prefetchers):
                plan = GridPlan(workloads, prefetchers)
                return SweepScheduler().run_plan_sync(plan)
            """,
        }

    def test_pinned_layout_passes(self, tmp_path):
        write_tree(tmp_path, self._good_tree())
        assert run_rules(tmp_path, [self._rule()]) == []

    def test_live_pin_matches_pool(self):
        from repro.analysis.rules.perf import PINNED_CELL_FIELDS
        from repro.sim.sched.pool import CELL_FIELDS

        assert CELL_FIELDS == PINNED_CELL_FIELDS

    def test_missing_pool_module_is_flagged(self, tmp_path):
        write_tree(tmp_path, {"core/x.py": "pass\n"})
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF004"]
        assert "pool.py is missing" in findings[0].message

    def test_grown_cell_tuple_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/sched/pool.py"] = files["sim/sched/pool.py"].replace(
            '"context_id")', '"context_id", "config")'
        )
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF004"]
        assert "reviewed decision" in findings[0].message

    def test_non_literal_fields_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/sched/pool.py"] = (
            "CELL_FIELDS = tuple(make_fields())\n"
        )
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert "PERF004" in rule_ids(findings)
        assert "statically auditable" in findings[0].message

    def test_sweepjob_in_sched_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/sched/scheduler.py"] = """
        from repro.sim.parallel import SweepJob

        async def dispatch(pool, batches, on_batch):
            for i, batch in enumerate(batches):
                pool.submit(i, [SweepJob(c) for c in batch], ())
        """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert set(rule_ids(findings)) == {"PERF004"}
        assert any("SweepJob" in f.message for f in findings)

    def test_executor_in_sched_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/sched/scheduler.py"] = """
        from concurrent.futures import ProcessPoolExecutor

        async def dispatch(pool, batches, on_batch):
            pass
        """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert set(rule_ids(findings)) == {"PERF004"}
        assert any("concurrent.futures" in f.message for f in findings)

    def test_executor_in_parallel_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/parallel.py"] = """
        from concurrent.futures import ProcessPoolExecutor

        def parallel_compare(workloads, prefetchers):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(run, workloads))
        """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert set(rule_ids(findings)) == {"PERF004"}
        assert all(f.path == "sim/parallel.py" for f in findings)
        assert any("concurrent.futures" in f.message for f in findings)
        assert any("ProcessPoolExecutor" in f.message for f in findings)

    def test_unreviewed_queue_put_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/sched/scheduler.py"] += """

            def side_channel(q, cell):
                q.put_nowait(cell)
            """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF004"]
        assert "QUEUE_PUT_ALLOWLIST" in findings[0].message

    def test_unreviewed_submit_in_sched_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/sched/scheduler.py"] += """

            def rogue(pool, cells):
                return [pool.submit(run, c) for c in cells]
            """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF004"]
        assert "SUBMIT_ALLOWLIST" in findings[0].message

    def test_unreviewed_submit_in_parallel_is_flagged(self, tmp_path):
        files = self._good_tree()
        files["sim/parallel.py"] += """

            def per_cell_dispatch(pool, cells):
                return [pool.submit(run, c) for c in cells]
            """
        write_tree(tmp_path, files)
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF004"]
        assert "per-cell futures" in findings[0].message


class TestBatchKernelLayoutRule:
    """PERF005: the in-kernel batch driver is pinned and state-free."""

    def _rule(self):
        from repro.analysis.rules.perf import BatchKernelLayoutRule

        return BatchKernelLayoutRule()

    def _csrc_source(self, version, cdef, body) -> str:
        return (
            f"BATCH_VERSION = {version}\n"
            f"CDEF_BATCH = {cdef!r}\n"
            f"SOURCE_BATCH = {body!r}\n"
        )

    def test_live_layout_matches_pin(self):
        # the real module must always satisfy its own pin — this fires
        # when someone edits the batch C source in place
        from repro.analysis.rules.perf import (
            PINNED_BATCH_LAYOUTS,
            batch_layout_hash,
        )
        from repro.sim.native._csrc import (
            BATCH_VERSION,
            CDEF_BATCH,
            SOURCE_BATCH,
        )

        assert PINNED_BATCH_LAYOUTS[BATCH_VERSION] == batch_layout_hash(
            CDEF_BATCH, SOURCE_BATCH
        )

    def test_current_layout_passes(self, tmp_path):
        from repro.sim.native._csrc import (
            BATCH_VERSION,
            CDEF_BATCH,
            SOURCE_BATCH,
        )

        write_tree(
            tmp_path,
            {
                "sim/native/_csrc.py": self._csrc_source(
                    BATCH_VERSION, CDEF_BATCH, SOURCE_BATCH
                )
            },
        )
        assert run_rules(tmp_path, [self._rule()]) == []

    def test_drift_without_bump_is_flagged(self, tmp_path):
        from repro.sim.native._csrc import BATCH_VERSION, CDEF_BATCH, SOURCE_BATCH

        write_tree(
            tmp_path,
            {
                "sim/native/_csrc.py": self._csrc_source(
                    BATCH_VERSION, CDEF_BATCH, SOURCE_BATCH + "\nint x;\n"
                )
            },
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF005"]
        assert "bump BATCH_VERSION" in findings[0].message

    def test_new_version_requires_a_pin(self, tmp_path):
        from repro.sim.native._csrc import CDEF_BATCH, SOURCE_BATCH

        write_tree(
            tmp_path,
            {
                "sim/native/_csrc.py": self._csrc_source(
                    999, CDEF_BATCH, SOURCE_BATCH
                )
            },
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF005"]
        assert "no pinned layout" in findings[0].message

    def test_static_storage_is_flagged(self, tmp_path):
        body = (
            "#ifdef _OPENMP\n#endif\n"
            "int f(void) { static int hits = 0; return ++hits; }\n"
        )
        write_tree(
            tmp_path,
            {"sim/native/_csrc.py": self._csrc_source(1, "int f(void);", body)},
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert "PERF005" in rule_ids(findings)
        assert any("`static` storage" in f.message for f in findings)

    def test_missing_openmp_guard_is_flagged(self, tmp_path):
        body = "int f(void) { return 0; }\n"
        write_tree(
            tmp_path,
            {"sim/native/_csrc.py": self._csrc_source(1, "int f(void);", body)},
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert "PERF005" in rule_ids(findings)
        assert any("_OPENMP" in f.message for f in findings)

    def test_non_literal_source_is_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "sim/native/_csrc.py": (
                    "BATCH_VERSION = 1\n"
                    'CDEF_BATCH = "int f(void);"\n'
                    "SOURCE_BATCH = make_source()\n"
                )
            },
        )
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF005"]
        assert "statically auditable" in findings[0].message

    def test_missing_module_is_flagged(self, tmp_path):
        write_tree(tmp_path, {"core/x.py": "pass\n"})
        findings = run_rules(tmp_path, [self._rule()])
        assert rule_ids(findings) == ["PERF005"]
