"""Golden-regression gate for the paper-facing sweep metrics.

tests/golden/small_sweep.json pins IPC, L1/L2 MPKI, accuracy and
coverage for a small workloads × prefetchers sweep.  This test re-runs
exactly the sweep recorded in the fixture's ``spec`` and demands the
numbers match to float round-trip precision — the simulator is
bit-reproducible, so any drift is a real behavioural change.  A PR that
*means* to move the numbers regenerates the fixture
(``python scripts/regen_golden.py``) and ships the diff for review; a
PR that moves them accidentally fails here.
"""

import json
import math
from pathlib import Path

import pytest

from repro.sim.runner import compare

GOLDEN_PATH = Path(__file__).parent / "golden" / "small_sweep.json"

#: tolerance for values that crossed a JSON round-trip: repr-based float
#: serialization is exact, so this only guards pathological platforms
REL_TOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def sweep(golden):
    spec = golden["spec"]
    return compare(
        spec["workloads"],
        tuple(spec["prefetchers"]),
        limit=spec["limit"],
        jobs=1,
    )


def current_metrics(result) -> dict[str, float]:
    return {
        "ipc": result.ipc,
        "l1_mpki": result.l1_mpki,
        "l2_mpki": result.l2_mpki,
        "accuracy": result.prefetcher_accuracy,
        "coverage": result.classifier.useful_fraction(),
    }


def test_fixture_covers_full_grid(golden):
    spec = golden["spec"]
    assert sorted(golden["metrics"]) == sorted(spec["workloads"])
    for wl in spec["workloads"]:
        assert sorted(golden["metrics"][wl]) == sorted(spec["prefetchers"])


def test_metrics_match_golden(golden, sweep):
    drifted = []
    for wl, by_pf in golden["metrics"].items():
        for pf, expected in by_pf.items():
            actual = current_metrics(sweep.get(wl, pf))
            assert sorted(actual) == sorted(expected), f"{wl}/{pf}: metric set changed"
            for metric, value in expected.items():
                if not math.isclose(
                    actual[metric], value, rel_tol=REL_TOL, abs_tol=REL_TOL
                ):
                    drifted.append(
                        f"{wl}/{pf}/{metric}: golden {value!r} != current "
                        f"{actual[metric]!r}"
                    )
    assert not drifted, (
        "paper-facing metrics drifted from tests/golden/small_sweep.json "
        "(regenerate with scripts/regen_golden.py ONLY if the change is "
        "intentional):\n" + "\n".join(drifted)
    )


def test_context_still_beats_baseline(golden):
    # a sanity anchor on the paper's headline claim, independent of the
    # exact pinned values: the context prefetcher speeds up the
    # pointer-chasing workloads the baselines cannot
    for wl in ("list", "mcf"):
        none_ipc = golden["metrics"][wl]["none"]["ipc"]
        context_ipc = golden["metrics"][wl]["context"]["ipc"]
        assert context_ipc > none_ipc
