"""Shared test settings.

Hypothesis runs derandomized and without a per-example deadline: the same
examples on every run, and no failure from a slow or throttled CPU.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
