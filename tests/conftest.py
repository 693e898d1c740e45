"""Fixtures shared by every test module."""
from __future__ import annotations

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_answer_workers():
    """Fail a test that leaves an answer server's worker threads running.

    An autouse fixture is set up before the test's other fixtures and so
    torn down after them: the check runs once their servers are closed.
    """
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.name.startswith("mpir-answer")]
    if leaked:
        pytest.fail(f"answer worker threads still running: {', '.join(leaked)}")
