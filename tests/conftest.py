"""Shared test settings.

Hypothesis runs derandomized and without a per-example deadline: the same
examples on every run, and no failure from a slow or throttled CPU.

The process entry ends its process with os._exit once the exit handlers
have run.  In the test process both raise instead, so a test that reaches
them fails loudly rather than ending the session with no summary, and the
test runner's own exit handlers never run early.
"""

import atexit
import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _no_process_exit(monkeypatch):
    def refuse(*args):
        raise AssertionError("the test process must not end or run its "
                             "exit handlers")

    monkeypatch.setattr(os, "_exit", refuse)
    monkeypatch.setattr(atexit, "_run_exitfuncs", refuse)
