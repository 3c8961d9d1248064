"""A time limit on every test.

A search that never ends would otherwise hang the whole run.  Where the
platform has interval timers, each test runs under a one-shot real-time timer,
and when it fires the test fails with ``TimeLimitExceeded``.  The limit is far
above the slowest test (the hitting-set ILP cross-check, a few seconds), so
only a test that does not end meets it.
"""

import signal

import pytest

TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT_S``.

    It is not an ``Exception``, so Hypothesis passes it on instead of
    shrinking, which would run the endless example again.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(
        f"test still running after its {TEST_TIME_LIMIT_S} s limit; "
        "the code under test may loop forever"
    )


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
