"""In-memory spans around module functions, installed from outside the package.

A traced function is replaced by a wrapper in its defining module and in
every module of the traced packages that bound the same object, because a
module that did ``from .x import y`` calls its own binding of ``y`` and would
escape a patch of ``x.y`` alone.  Spans keep name, start, end, parent and a
few attributes; nothing is written until the caller asks for the spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id, name, parent, start, end=None, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patch targets on ``__enter__``, restore them on ``__exit__``.

    ``add`` registers a function by module and attribute.  ``result_attrs``
    maps ``(args, result)`` to a dict stored on the span; ``factory`` builds
    a custom wrapper from ``(original, tracer)`` instead of the plain span.
    """

    def __init__(self, packages=("aclab",)):
        self.packages = tuple(packages)
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._targets = []
        self._patches = []

    def add(self, module, attr, name, result_attrs=None, factory=None):
        self._targets.append((module, attr, name, result_attrs, factory))

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # Pool threads call begin/end concurrently; next() on the counter and
    # list.append are single operations under the interpreter lock.

    def begin(self, name, parent=None) -> Span:
        """Open a span; the parent defaults to the innermost open span of this thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, parent, time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span, attrs=None):
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, original, name, result_attrs):
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end(span, {"error": True})
                raise
            end(span, result_attrs(args, result) if result_attrs else None)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and any(key == p or key.startswith(p + ".")
                                         for p in self.packages)]

    def __enter__(self):
        modules = self._modules()
        for module, attr, name, result_attrs, factory in self._targets:
            original = getattr(module, attr)
            wrapper = (factory(original, self) if factory
                       else self._wrap(original, name, result_attrs))
            for holder in {id(m): m for m in [module, *modules]}.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()
        return False


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that children cover.

    Children of one span may overlap (worker threads), so the covered part is
    the length of the union of their intervals, clipped to the parent.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
