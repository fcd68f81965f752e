"""A time limit for every test: a fault that makes a search endless fails
the test that runs it after ``TEST_TIMEOUT`` seconds instead of stalling
the suite.  A test marked ``own_time_limit`` keeps only the bound it
states itself.  ``mutants.py`` runs its tests under the same limit."""

import signal

import pytest

TEST_TIMEOUT = 120


class TestTimeout(BaseException):
    """A test ran past ``TEST_TIMEOUT`` seconds.  Not an ``Exception``, so
    that neither hypothesis nor an ``except Exception`` in a test takes it
    for the failure under test."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if item.get_closest_marker("own_time_limit") or not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        raise TestTimeout(f"past {TEST_TIMEOUT} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIMEOUT)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
