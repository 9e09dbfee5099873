"""Spans timed from outside the program, around calls into its layers.

A :class:`Tracer` replaces a function or method, for the life of a
``with tracer.patched(targets):`` block, by a wrapper that records one
:class:`Span` per call: its name, start and end (``perf_counter_ns``), the
span that was open when the call began, and the command it ran under. The
wrapper returns what the wrapped function returns and re-raises what it
raises. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1          # index of the enclosing span, -1 at the root
    command: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "command": self.command,
            "meta": self.meta,
        }


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``name``.

    ``on_return(span, args, kwargs, result)`` runs after the span has
    closed, so what it reads about the call is not timed.
    """

    owner: Any
    attr: str
    name: str
    on_return: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = ""
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(
            Span(name, time.perf_counter_ns(), parent=parent, command=self.command)
        )
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx].end_ns = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self._begin(name)
        try:
            yield self.spans[idx]
        finally:
            self._end(idx)

    def wrap(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].meta["raised"] = type(exc).__name__
                raise
            finally:
                self._end(idx)
            if on_return is not None:
                on_return(self.spans[idx], args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets: list[Target]) -> Iterator["Tracer"]:
        """Install a wrapper for each target; restore the originals on exit."""
        saved = []
        try:
            for t in targets:
                # read from __dict__ so a class attribute is restored as the
                # plain function it was, not a bound method
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(original, t.name, t.on_return))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, reach)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration_ns - covered)
    return out
