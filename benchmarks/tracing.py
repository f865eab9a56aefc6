"""In-memory spans recorded from the benchmark's own files.

A span wraps one call into a layer and records its name, layer, start,
end, parent span and the operation (query) it belongs to.  Spans inside
the library come from replacing public module attributes with traced
wrappers for the length of a traced pass; no library file is edited.
A function that no longer exists is recorded as absent, so its metrics
read as missing rather than as zero.  Spans stay in memory until the
benchmark ends and writes them out.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "op", "start", "end", "info")

    def __init__(self, sid, parent, name, layer, op, start):
        self.sid, self.parent, self.name, self.layer = sid, parent, name, layer
        self.op, self.start, self.end, self.info = op, start, start, None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder.  ``op`` is set by the client before each operation.

    Each thread keeps its own stack of open spans.  A span opened on a
    thread with an empty stack (a worker of a concurrent caller) takes
    the client thread's innermost open span as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        top = stack or self._client
        span = Span(next(self._ids), top[-1].sid if top else 0, name, layer, self.op, time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.begin(name, layer)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn, name: str, layer: str, keep_args: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.begin(name, layer)
            if keep_args:
                s.info = (args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(s)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "op": s.op, "start": s.start, "end": s.end,
                }) + "\n")


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace ``(module, attr, span name, layer, keep_args)`` targets with
    traced wrappers, and restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, layer, keep_args in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.absent.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, layer, keep_args))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class SpanIndex:
    """Parent/child structure and self times over a list of spans.

    A span's self time is its duration minus the part of it covered by
    its children (overlapping children are counted once).
    """

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)
        self.self_s = {s.sid: s.dur - self._covered(s) for s in spans}

    def _covered(self, s: Span) -> float:
        total, lo, hi = 0.0, None, None
        for c in sorted(self.children[s.sid], key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                total += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        return total + (0.0 if hi is None else hi - lo)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def descendants(self, s: Span):
        stack = list(self.children[s.sid])
        while stack:
            c = stack.pop()
            yield c
            stack.extend(self.children[c.sid])

    def layer_self(self, s: Span) -> dict[str, float]:
        """Self time of ``s`` and its subtree, summed per layer."""
        out = defaultdict(float)
        out[s.layer] += self.self_s[s.sid]
        for d in self.descendants(s):
            out[d.layer] += self.self_s[d.sid]
        return out
