"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE variable.

"fixed", the default, seeds each test's draws from the test itself, so
the time of tier-1 repeats from run to run.  "random" draws afresh on
every run, so new examples can find what the fixed draw misses.  Each
test keeps its own max_examples under both."""

import os

from hypothesis import settings

settings.register_profile("fixed", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))
