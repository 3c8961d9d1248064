"""The per-test time limit of ``conftest.py`` ends a test that never returns."""

import signal

import pytest

from .conftest import TEST_TIME_LIMIT_S, TimeLimitExceeded


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_looping_test_fails_when_the_timer_fires():
    # Bring the armed timer forward to 50 ms; the fixture disarms it after.
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(TimeLimitExceeded, match=f"{TEST_TIME_LIMIT_S} s limit"):
        while True:
            pass
