"""Hypothesis draws the same examples on every run.

The profile seeds each test's draws from the test itself, so the time of
tier-1 repeats from run to run; each test keeps its own max_examples."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")
