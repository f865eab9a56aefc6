"""Chat backends that only tests use."""
from __future__ import annotations

import threading
from typing import Sequence

from commtopo.backends import Completion
from commtopo.errors import BackendError


class StaticBackend:
    """Always returns the same text."""

    def __init__(self, text: str, prompt_tokens: int | None = None, completion_tokens: int | None = None):
        self.text = text
        self.prompt_tokens = prompt_tokens
        self.completion_tokens = completion_tokens

    def complete(self, system: str, user: str) -> Completion:
        return self.text, self.prompt_tokens, self.completion_tokens


class ScriptedBackend:
    """Returns pre-recorded outputs in call order.

    The call order is deterministic only where every wave of a run holds
    one call, as in a complete graph or a chain, and only within one run:
    concurrent calls, from one run's wave or from a collect's concurrent
    scorings, take outputs in the order they arrive.
    """

    def __init__(self, outputs: Sequence[str]):
        self.outputs = list(outputs)
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, system: str, user: str) -> Completion:
        with self._lock:
            if self.calls >= len(self.outputs):
                raise BackendError("script exhausted")
            out = self.outputs[self.calls]
            self.calls += 1
        return out, None, None
