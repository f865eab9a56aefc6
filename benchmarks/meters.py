"""Benchmark-owned backends: a fixed delay per call plus thread-safe counters.

``DelayedChat`` and ``DelayedEmbedding`` implement the library's
``ChatBackend`` and ``EmbeddingBackend`` protocols around an inner
backend.  The delay stands in for the network round trip of a real LLM
or embedding endpoint; it is a ``time.sleep``, so it releases the
interpreter lock and a concurrent caller would overlap it.  Counters are
updated under a lock, so a caller that issues calls from several
threads is still counted exactly.
"""
from __future__ import annotations

import threading
import time


class CallMeter:
    """Calls, failures, busy time and peak concurrency of one layer."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0
        self.failures = 0
        self.busy_s = 0.0
        self.in_flight = 0
        self.max_in_flight = 0
        self.texts: set[str] = set()

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)

    def leave(self, elapsed: float, failed: bool, text: str | None = None) -> None:
        with self._lock:
            self.in_flight -= 1
            self.calls += 1
            self.busy_s += elapsed
            self.failures += failed
            if text is not None:
                self.texts.add(text)


class _Delayed:
    """Shared call path: sleep, call the inner backend, count, trace."""

    layer = ""
    span_name = ""

    def __init__(self, inner, delay_s: float, meter: CallMeter, tracer=None):
        self.inner = inner
        self.delay_s = delay_s
        self.meter = meter
        self.tracer = tracer

    def _call(self, fn, text, *args):
        span = self.tracer.begin(self.span_name, self.layer) if self.tracer else None
        self.meter.enter()
        start = time.perf_counter()
        failed = True
        try:
            if self.delay_s > 0:
                time.sleep(self.delay_s)
            out = fn(*args)
            failed = False
            return out
        finally:
            self.meter.leave(time.perf_counter() - start, failed, text)
            if span is not None:
                self.tracer.end(span)


class DelayedChat(_Delayed):
    """ChatBackend: ``delay_s`` of waiting, then the inner mock's answer."""

    layer = "backends"
    span_name = "backends.complete"

    def complete(self, system: str, user: str):
        return self._call(self.inner.complete, None, system, user)


class DelayedEmbedding(_Delayed):
    """EmbeddingBackend: ``delay_s`` of waiting, then the inner vector.

    The delay applies to every call, as it would for an uncached HTTP
    embedder, even when the inner backend answers from its own memo.
    """

    layer = "embed"
    span_name = "embed.embed"

    def __init__(self, inner, delay_s: float, meter: CallMeter, tracer=None):
        super().__init__(inner, delay_s, meter, tracer)
        self.dim = inner.dim

    def embed(self, text: str):
        return self._call(self.inner.embed, text, text)
