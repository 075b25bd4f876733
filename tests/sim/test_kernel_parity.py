"""Kernel-parity suite: the optimized hot path is bit-exact.

``tests/golden/kernel_parity.json`` pins the complete
:class:`~repro.sim.metrics.SimulationResult` — every field, via the
lossless codec — for every registered prefetcher across three workloads,
including the warmup and multi-phase simulator paths.  The fixture was
generated from the tree *before* the PR-4 hot-path rewrite
(``scripts/regen_kernel_golden.py``), so these tests prove the rewritten
per-access kernel produces results identical to the unoptimized one.

Any mismatch here means an "optimization" changed simulation semantics.
Regenerate the golden only for a change that is *supposed* to move
results, and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim import native as native_pkg
from repro.sim.codec import decode_result, encode_result
from repro.sim.config import PREFETCHER_FACTORIES
from repro.sim.phases import run_phased
from repro.sim.simulator import Simulator
from repro.workloads.suites import get_workload

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "kernel_parity.json"

_PAYLOAD = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
SPEC = _PAYLOAD["spec"]
GOLDEN = _PAYLOAD["results"]

_TRACES: dict[str, list] = {}


def _trace(name: str) -> list:
    if name not in _TRACES:
        _TRACES[name] = get_workload(name).build().trace()[: SPEC["limit"]]
    return _TRACES[name]


def _assert_matches(key: str, result) -> None:
    assert key in GOLDEN, f"golden fixture has no entry for {key}"
    golden = decode_result(GOLDEN[key])
    # dataclass equality covers every field (stats, classifier, CDF, …);
    # on failure the encoded dicts give a readable diff
    assert result == golden, (
        f"{key}: optimized kernel drifted from the pre-optimization golden\n"
        f"got:    {encode_result(result)}\n"
        f"golden: {GOLDEN[key]}"
    )


def test_spec_matches_registry() -> None:
    """The fixture covers exactly the registered prefetchers."""
    assert SPEC["prefetchers"] == sorted(PREFETCHER_FACTORIES)


def test_golden_is_complete() -> None:
    expected = (
        len(SPEC["workloads"]) * len(SPEC["prefetchers"])
        + len(SPEC["warmup"]["workloads"]) * len(SPEC["prefetchers"])
        + len(SPEC["phased"]["prefetchers"]) * SPEC["phased"]["num_phases"]
    )
    assert len(GOLDEN) == expected


@pytest.mark.parametrize("workload", sorted(set(SPEC["workloads"])))
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_plain_run_parity(workload: str, prefetcher: str) -> None:
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher]())
    result = sim.run(_trace(workload), workload_name=workload)
    _assert_matches(f"plain/{workload}/{prefetcher}", result)


@pytest.mark.parametrize("workload", sorted(set(SPEC["warmup"]["workloads"])))
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_warmup_run_parity(workload: str, prefetcher: str) -> None:
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher]())
    result = sim.run(
        _trace(workload), workload_name=workload, warmup=SPEC["warmup"]["warmup"]
    )
    _assert_matches(f"warmup/{workload}/{prefetcher}", result)


@pytest.fixture(scope="module")
def store_traces(tmp_path_factory) -> dict[str, list]:
    """The golden workloads again, round-tripped through the mmap store.

    Decoded records must drive the kernel to the *same* goldens as the
    built traces — a lossy trace codec would surface here as drift
    against the pre-optimization fixture, not as a crash.
    """
    from repro.workloads.store import TraceStore, read_trace

    store = TraceStore(tmp_path_factory.mktemp("traces"))
    names = set(SPEC["workloads"]) | {SPEC["phased"]["workload"]}
    traces = {}
    for name in sorted(names):
        stored, _ = store.ensure(name)
        traces[name] = read_trace(
            stored.path,
            limit=SPEC["limit"],
            expect_fingerprint=stored.fingerprint,
        )
    return traces


@pytest.mark.parametrize("workload", sorted(set(SPEC["workloads"])))
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_plain_run_parity_from_store(
    workload: str, prefetcher: str, store_traces: dict[str, list]
) -> None:
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher]())
    result = sim.run(store_traces[workload], workload_name=workload)
    _assert_matches(f"plain/{workload}/{prefetcher}", result)


@pytest.mark.parametrize("prefetcher", sorted(set(SPEC["phased"]["prefetchers"])))
def test_phased_run_parity_from_store(
    prefetcher: str, store_traces: dict[str, list]
) -> None:
    phased = SPEC["phased"]
    workload = phased["workload"]
    run = run_phased(
        store_traces[workload],
        prefetcher,
        workload_name=workload,
        num_phases=phased["num_phases"],
        cold_start=phased["cold_start"],
    )
    for i, phase_result in enumerate(run.phases):
        _assert_matches(f"phased/{workload}/{prefetcher}/p{i}", phase_result)


@pytest.mark.parametrize("prefetcher", sorted(set(SPEC["phased"]["prefetchers"])))
def test_phased_run_parity(prefetcher: str) -> None:
    phased = SPEC["phased"]
    workload = phased["workload"]
    run = run_phased(
        _trace(workload),
        prefetcher,
        workload_name=workload,
        num_phases=phased["num_phases"],
        cold_start=phased["cold_start"],
    )
    assert len(run.phases) == phased["num_phases"]
    for i, phase_result in enumerate(run.phases):
        _assert_matches(f"phased/{workload}/{prefetcher}/p{i}", phase_result)


# -- native-kernel legs -------------------------------------------------
#
# The same goldens again, through the compiled batch kernel — including
# the RL context prefetcher, whose CST/bandit/reward loop runs in C with
# a bit-exact CPython MT19937.  Any run the kernel cannot represent
# silently takes the interpreted fallback inside ``run``; keeping those
# configs parametrized proves the fallback is bit-exact too, and the
# explicit assertion below proves the default context config does NOT
# fall back.  Skipped, not passed, when the toolchain cannot build the
# kernel, so a green run really means the native path was exercised.


def _require_native() -> None:
    if not native_pkg.is_available():
        pytest.skip("compiled kernel unavailable (cffi/toolchain)")


@pytest.mark.parametrize("workload", sorted(set(SPEC["workloads"])))
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_plain_run_parity_native(workload: str, prefetcher: str) -> None:
    _require_native()
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher](), native=True)
    result = sim.run(_trace(workload), workload_name=workload)
    # every registered family now has a native port; a silent fallback
    # here would make this leg a no-op re-run of the interpreted test
    assert sim.last_run_native, sim.last_native_fallback
    _assert_matches(f"plain/{workload}/{prefetcher}", result)


@pytest.mark.parametrize("workload", sorted(set(SPEC["warmup"]["workloads"])))
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_warmup_run_parity_native(workload: str, prefetcher: str) -> None:
    _require_native()
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher](), native=True)
    result = sim.run(
        _trace(workload), workload_name=workload, warmup=SPEC["warmup"]["warmup"]
    )
    assert sim.last_run_native, sim.last_native_fallback
    _assert_matches(f"warmup/{workload}/{prefetcher}", result)


@pytest.mark.parametrize("prefetcher", sorted(set(SPEC["phased"]["prefetchers"])))
def test_phased_run_parity_native(prefetcher: str) -> None:
    """Multi-phase native runs: warm prefetcher state crosses the kernel
    boundary via the per-object handle registry."""
    _require_native()
    phased = SPEC["phased"]
    workload = phased["workload"]
    run = run_phased(
        _trace(workload),
        prefetcher,
        workload_name=workload,
        num_phases=phased["num_phases"],
        cold_start=phased["cold_start"],
        native=True,
    )
    for i, phase_result in enumerate(run.phases):
        _assert_matches(f"phased/{workload}/{prefetcher}/p{i}", phase_result)


@pytest.fixture(scope="module")
def store_readers(tmp_path_factory):
    """mmap-backed readers over the golden workloads (not decoded lists)."""
    from repro.workloads.store import TraceReader, TraceStore

    store = TraceStore(tmp_path_factory.mktemp("reader-traces"))
    readers = {}
    for name in sorted(set(SPEC["workloads"])):
        stored, _ = store.ensure(name)
        readers[name] = TraceReader(stored.path)
    return readers


@pytest.mark.parametrize("workload", sorted(set(SPEC["workloads"])))
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_plain_run_parity_native_zero_copy(
    workload: str, prefetcher: str, store_readers: dict
) -> None:
    """The zero-copy decode phase: a TraceReader handed straight to the
    simulator must hit the same goldens as the decoded list."""
    _require_native()
    sim = Simulator(PREFETCHER_FACTORIES[prefetcher](), native=True)
    result = sim.run(
        store_readers[workload], workload_name=workload, limit=SPEC["limit"]
    )
    assert sim.last_run_native, sim.last_native_fallback
    _assert_matches(f"plain/{workload}/{prefetcher}", result)
