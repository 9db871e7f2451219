"""Span tracer that instruments a package from outside it.

`install` replaces functions and methods with timing wrappers at runtime:
every loaded module of the package that holds a target function gets the
wrapper in place of it, so calls are seen whichever import path the caller
used.  The package's source is never edited, and `Installation.remove`
puts every original back.

Each wrapper records one span per call: calls, total and self time (total
minus the time covered by nested wrapped calls) per name, and call counts
per (parent span, child span) edge.  Spans are aggregated as they close
rather than stored one by one, because leaf functions such as
factorization run millions of times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Snapshot:
    """Everything recorded between two `Tracer.take` calls."""

    stats: dict[str, Stat] = field(default_factory=dict)
    edges: dict[tuple[str | None, str], int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    observer_errors: int = 0

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, seconds covered by child spans]
        self._stats: dict[str, Stat] = {}
        self._edges: dict[tuple[str | None, str], int] = {}
        self._counters: dict[str, float] = {}
        self._observer_errors = 0

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """`fn` recording a span called `name`.

        `observe(counters, args, result)` runs inside the span after a
        normal return and may add to the counters; an exception it raises
        is counted, not propagated, so a changed signature in the traced
        code cannot break the run.
        """
        clock = self.clock
        stack = self._stack
        stat = self._stats.setdefault(name, Stat())
        edges = self._edges
        counters = self._counters

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        observe(counters, args, result)
                    except Exception:  # noqa: BLE001 -- counted, see docstring
                        self._observer_errors += 1
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                key = (parent, name)
                edges[key] = edges.get(key, 0) + 1

        return functools.update_wrapper(traced, fn)

    def take(self) -> Snapshot:
        """Return what was recorded so far and start again from zero."""
        snap = Snapshot(
            stats={k: Stat(s.calls, s.total_s, s.self_s) for k, s in self._stats.items()},
            edges=dict(self._edges),
            counters=dict(self._counters),
            observer_errors=self._observer_errors,
        )
        for s in self._stats.values():
            s.calls, s.total_s, s.self_s = 0, 0.0, 0.0
        self._edges.clear()
        self._counters.clear()
        self._observer_errors = 0
        return snap


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `attr` is a module attribute ("factorize") or a method of a class in
    the module ("PrimeSieve.__init__").  `name` is the span name.
    """

    module: str
    attr: str
    name: str
    observe: Callable | None = None


@dataclass
class Installation:
    patches: list[tuple[object, str, object]]
    absent: list[str]

    def remove(self) -> None:
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches.clear()


def _resolve(target: Target):
    """(owner, key, function) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, key = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    fn = vars(owner).get(key)
    if not callable(fn):
        return None
    return owner, key, fn


def install(tracer: Tracer, targets, package: str) -> Installation:
    """Wrap every target that exists; the names of the others are `absent`."""
    inst = Installation(patches=[], absent=[])
    for target in targets:
        found = _resolve(target)
        if found is None:
            inst.absent.append(target.name)
            continue
        owner, key, fn = found
        wrapped = tracer.wrap(target.name, fn, target.observe)
        if "." in target.attr:
            inst.patches.append((owner, key, fn))
            setattr(owner, key, wrapped)
            continue
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    inst.patches.append((module, name, fn))
                    setattr(module, name, wrapped)
    return inst
