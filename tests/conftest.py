"""Shared test fixtures.

The CLI installs process-wide execution defaults (jobs / result cache /
trace store / native kernel / result DB / kernel threads) via
``set_default_execution``; without a reset, a CLI test that ran first
would leak its cache, store and DB into every later ``compare()`` call
in the same pytest process.  Restore the whole defaults object around
every test so ordering can never matter.

``--runslow`` opts into tests marked ``@pytest.mark.slow`` — extended
sweeps (the wide differential-fuzz tiers) that are too expensive for the
tier-1 run but worth running before a release or a kernel change.
"""

import dataclasses

import pytest

from repro.sim.parallel import default_execution, set_default_execution


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


@pytest.fixture(autouse=True)
def _restore_execution_defaults():
    previous = default_execution()
    yield
    set_default_execution(
        **{
            field.name: getattr(previous, field.name)
            for field in dataclasses.fields(previous)
        }
    )
