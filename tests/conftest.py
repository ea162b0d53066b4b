"""Shared test settings: Hypothesis runs a fixed, small set of examples so
that the suite is deterministic and its time is bounded."""

import signal

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=8)
settings.load_profile("deterministic")

HANG_SECONDS = 20


@pytest.fixture
def hang_guard():
    """Fail the test, instead of stalling the suite, once it runs HANG_SECONDS."""

    def expire(signum, frame):
        pytest.fail(f"still running after {HANG_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, HANG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
