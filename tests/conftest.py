"""Shared test settings.

Hypothesis runs derandomized and without a per-example deadline: the same
examples on every run, and no failure from a slow or throttled CPU.

The process entry ends its process with os._exit once the exit handlers
have run.  In the test process both raise instead, so a test that reaches
them fails loudly rather than ending the session with no summary, and the
test runner's own exit handlers never run early.

A test checks a row of tests/replay_cli.py by name through the replay
fixture, which spawns each row once per session: a later test that names
the same row, through the same entry, repeats the first outcome.
"""

import atexit
import os

import pytest
from hypothesis import settings

import replay_cli

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


@pytest.fixture(scope="session")
def replay():
    outcomes = {}  # (row name, entry) -> the AssertionError raised, or None

    def check(*names, entry=replay_cli.MODULE):
        for name in names:
            if (name, entry) not in outcomes:
                try:
                    replay_cli.check(replay_cli.BY_NAME[name], entry)
                    outcomes[name, entry] = None
                except AssertionError as exc:
                    outcomes[name, entry] = exc
            if outcomes[name, entry] is not None:
                raise outcomes[name, entry]
    return check
