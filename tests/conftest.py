"""Shared test fixtures.

The CLI installs process-wide execution defaults (jobs / trace store /
native kernel / result DB / kernel threads) via
``set_default_execution``; without a reset, a CLI test that ran first
would leak its store and DB into every later ``compare()`` call
in the same pytest process.  Restore the whole defaults object around
every test so ordering can never matter.

Every sweep takes its registry traces from the compiled trace store,
which defaults to ``results/.cache/traces`` under the working
directory.  The session installs one store in a temporary directory as
the default instead, so the suite compiles each trace once and writes
nothing into the checkout.

``--runslow`` opts into tests marked ``@pytest.mark.slow`` — extended
sweeps (the wide differential-fuzz tiers) that are too expensive for the
tier-1 run but worth running before a release or a kernel change.
"""

import dataclasses

import pytest

from repro.sim.parallel import default_execution, set_default_execution
from repro.workloads.store import TraceStore


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked 'slow' (extended fuzz/sweep tiers)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: extended tier, runs only with --runslow"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session", autouse=True)
def session_store(tmp_path_factory):
    """The trace store every test's sweeps default to."""
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    previous = set_default_execution(store=store)
    yield store
    set_default_execution(store=previous.store)


@pytest.fixture(autouse=True)
def _restore_execution_defaults(session_store):
    previous = default_execution()
    yield
    set_default_execution(
        **{
            field.name: getattr(previous, field.name)
            for field in dataclasses.fields(previous)
        }
    )
