"""Regenerate the golden regression fixtures under tests/golden/.

Usage:  PYTHONPATH=src python scripts/regen_golden.py

The golden files pin the paper-facing metrics (IPC, L1/L2 MPKI,
accuracy, coverage) of a small, fast sweep.  tests/test_golden_regression.py
re-runs the same sweep and compares against the checked-in values, so a
PR that shifts the reproduction's numbers must regenerate the fixtures
— making the shift an explicit, reviewable diff instead of a silent
drift.  Only run this script when a change is *supposed* to move the
numbers, and say why in the commit message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.sim.runner import compare  # noqa: E402

#: the fixture's sweep definition — also recorded inside the JSON so the
#: comparison test always re-runs exactly what was pinned
SPEC = {
    "workloads": ["list", "array", "mcf"],
    "prefetchers": ["none", "stride", "context"],
    "limit": 2000,
}

GOLDEN_PATH = REPO / "tests" / "golden" / "small_sweep.json"


def collect_metrics() -> dict:
    sweep = compare(
        SPEC["workloads"], tuple(SPEC["prefetchers"]), limit=SPEC["limit"],
        jobs=1,
    )
    metrics: dict[str, dict[str, dict[str, float]]] = {}
    for wl in sweep.workloads():
        metrics[wl] = {}
        for pf in sweep.prefetchers():
            result = sweep.get(wl, pf)
            metrics[wl][pf] = {
                "ipc": result.ipc,
                "l1_mpki": result.l1_mpki,
                "l2_mpki": result.l2_mpki,
                "accuracy": result.prefetcher_accuracy,
                "coverage": result.classifier.useful_fraction(),
            }
    return metrics


def main() -> int:
    payload = {
        "description": (
            "Golden small-scale sweep metrics; regenerate with "
            "scripts/regen_golden.py only when numbers are meant to move."
        ),
        "spec": SPEC,
        "metrics": collect_metrics(),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
