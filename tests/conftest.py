import gc
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

from _acceptance_log import LINES

_STDERR = pytest.StashKey[int]()

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(scope="session")
def session_stderr(pytestconfig):
    """A descriptor of the session's stderr, copied before any test captured
    descriptor 2: what faulthandler writes to it reaches the terminal even
    when the process ends inside a test."""
    return pytestconfig.stash[_STDERR]


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that ends with the cyclic garbage collector disabled, and
    enable it again, so that one missing ``finally`` cannot leave it off
    for every later test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
