"""Shared test settings: Hypothesis runs a fixed, small set of examples so
that the suite is deterministic and its time is bounded."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=8)
settings.load_profile("deterministic")
