"""Fixtures shared by every test module."""
from __future__ import annotations

import threading

import pytest

from mpir import net


@pytest.fixture(autouse=True)
def no_leaked_answer_workers():
    """Fail a test that leaves an answer server's worker threads running.

    An autouse fixture is set up before the test's other fixtures and so
    torn down after them: the check runs once their servers are closed.
    """
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and t.name.endswith("(process_request_thread)")]
    if leaked:
        pytest.fail(f"answer worker threads still running: {', '.join(leaked)}")


@pytest.fixture(autouse=True)
def empty_connection_pool():
    """Close the retrieval client's idle connections after each test, so no
    test reuses a connection to an earlier test's server on a reused port."""
    yield
    with net._idle_lock:
        while net._idle:
            net._idle.popitem()[1].close()
