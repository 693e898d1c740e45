"""In-memory call spans recorded by pass-through wrappers.

A wrapper replaces a function on the object its caller looks it up on (a
module attribute), records one span per call, and calls the original.  The
wrappers live only in the benchmark process and only while a traced round is
running; the package itself is never modified.
"""
from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

SizeFn = Callable[[tuple, Any], int]


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None  # measured round index, None during set-up
    size: int | None  # bytes or elements counted at this boundary

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for every wrapped call made while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._patches: list[tuple[object, str, Any, Any]] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()

    def wrap(self, owner: object, attr: str, name: str, size: SizeFn | None = None) -> None:
        """Register a wrapper for owner.attr; it takes effect inside installed().

        A name the package no longer has is listed in missing and skipped, so
        its metrics read zero instead of the traced pass failing.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self._call(name, size, original, args, kwargs)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original, wrapper))

    def substitute(self, owner: object, attr: str, value: Any) -> None:
        """Register a plain replacement for owner.attr, e.g. a module proxy."""
        self._patches.append((owner, attr, getattr(owner, attr), value))

    @contextmanager
    def installed(self) -> Iterator[None]:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, old, _ in reversed(self._patches):
                setattr(owner, attr, old)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        sid, parent, stack = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, name, start, parent, stack, None)

    def _enter(self) -> tuple[int, int | None, list[int]]:
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
        # A call on a pool thread belongs to whatever the main thread is
        # blocked in, e.g. the round that submitted it.
        outer = stack or self._main_stack
        parent = outer[-1] if outer else None
        # next() on a count and list.append are each one atomic step under
        # the interpreter lock, so pool threads need no lock of their own.
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _exit(self, sid, name, start, parent, stack, size) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self.op, size))

    def _call(self, name, size_fn, fn, args, kwargs):
        sid, parent, stack = self._enter()
        start = time.perf_counter()
        size = None
        try:
            result = fn(*args, **kwargs)
            if size_fn is not None:
                size = size_fn(args, result)
            return result
        finally:
            self._exit(sid, name, start, parent, stack, size)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out
