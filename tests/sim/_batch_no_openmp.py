"""Subprocess body for the no-OpenMP batch parity test.

Runs with ``REPRO_NATIVE_NO_OPENMP=1``, so the kernel loads (or builds)
the serial artifact; executes the same fixed shard as the parent test
and prints the payload texts as JSON.  A real script file — the
worker path uses spawn, and spawned interpreters cannot re-import
stdin-fed ``__main__`` bodies.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WORKLOAD = "list"
THREADS = 4  # ignored by the serial build; proves the knob is harmless


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import test_native_batch as batch_suite

    from repro.sim.native.build import kernel_openmp, kernel_or_none

    if kernel_or_none() is None:
        print("compiled kernel unavailable", file=sys.stderr)
        return 2
    if kernel_openmp():
        print("REPRO_NATIVE_NO_OPENMP=1 did not force the serial build",
              file=sys.stderr)
        return 3
    encoded, reasons = batch_suite._batch_encoded(
        batch_suite._mixed_cells(),
        batch_suite._trace(WORKLOAD),
        threads=THREADS,
    )
    if any(reasons):
        print(f"unexpected fallbacks: {reasons}", file=sys.stderr)
        return 4
    json.dump(
        {
            "openmp": False,
            "workload": WORKLOAD,
            "threads": THREADS,
            "results": encoded,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
