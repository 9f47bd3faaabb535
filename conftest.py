"""Repository-wide pytest options (apply to ``tests`` and ``benchmarks``).

``--numpy-tabulated-step`` runs the whole session with the compiled
tabulated step's loader patched to fail, so every tabulated engine
takes the numpy fallback — the suite a machine without a C compiler
runs.  CI runs tier-1 both ways.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--numpy-tabulated-step",
        action="store_true",
        help="patch the compiled tabulated step's loader to fail, so "
        "tabulated engines run the numpy step",
    )


@pytest.fixture(scope="session", autouse=True)
def _tabulated_step_mode(request):
    if not request.config.getoption("--numpy-tabulated-step"):
        yield
        return
    from repro.testing import numpy_tabulated_step

    with numpy_tabulated_step():
        yield
