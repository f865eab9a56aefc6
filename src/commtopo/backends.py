"""Chat backends: deterministic mocks for tests/benchmarks and an
OpenAI-compatible HTTP client with retries.

A backend maps (system prompt, user prompt) to (output text,
prompt_tokens, completion_tokens); token counts may be None, in which
case the orchestrator falls back to whitespace counting.  The
orchestrator calls a backend from up to `MAX_IN_FLIGHT` threads at once.
"""
from __future__ import annotations

import json
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Protocol, Sequence

from .errors import BackendError
from .pool import AgentPool

Completion = tuple[str, int | None, int | None]

MAX_IN_FLIGHT = 16
"""Most backend calls one orchestrator run keeps in flight at once."""


class ChatBackend(Protocol):
    def complete(self, system: str, user: str) -> Completion:
        """May be called from several threads at once."""
        ...


@dataclass
class BackendSet:
    """Backends for pool agents plus the distinguished decision agent."""

    default: ChatBackend
    decision: ChatBackend


class EchoBackend:
    """Pure function of its prompts; output carries a stable digest."""

    def complete(self, system: str, user: str) -> Completion:
        digest = zlib.crc32((system + "\x00" + user).encode()) % 10000
        text = (
            "In my opinion, I think the prompt points one way. "
            f"And my answer to the <Task> is {digest}."
        )
        return text, None, None


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
    one call, as in a complete graph or a chain; concurrent calls take
    outputs in the order they arrive.
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


def _transcript_entries(user: str) -> list[dict]:
    start = user.find("[")
    if start < 0:
        return []
    try:
        return json.loads(user[start:])
    except json.JSONDecodeError:
        return []


class MajorityVoteDecision:
    """Returns the most common entry output (first seen wins ties)."""

    def complete(self, system: str, user: str) -> Completion:
        entries = _transcript_entries(user)
        if not entries:
            return "", None, None
        counts = Counter(e["output"] for e in entries)
        best = max(counts, key=lambda o: (counts[o], -[e["output"] for e in entries].index(o)))
        return best, None, None


class PlantedDecisionBackend:
    """Decision mock for planted suites.

    Locates the task by its text inside the system prompt, then answers
    correctly iff every planted-team role appears in the transcript.
    """

    def __init__(self, tasks, pool: AgentPool):
        self.tasks = list(tasks)
        self.role_to_id = {a.role: a.id for a in pool.agents}

    def complete(self, system: str, user: str) -> Completion:
        task = next((t for t in self.tasks if t.task_text in system), None)
        if task is None or task.planted_team is None:
            return "unknown task", None, None
        present = {
            self.role_to_id[e["role"]]
            for e in _transcript_entries(user)
            if e.get("role") in self.role_to_id
        }
        if set(task.planted_team) <= present:
            return task.expected_answer, None, None
        return "no consensus", None, None


class HttpChatBackend:
    """OpenAI-compatible chat-completions client with retry and backoff."""

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        model: str,
        retries: int = 3,
        backoff: float = 1.0,
        session=None,
        sleep=time.sleep,
    ):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key
        self.model = model
        self.retries = retries
        self.backoff = backoff
        if session is None:
            # one pooled connection per call a run keeps in flight
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=MAX_IN_FLIGHT)
            session.mount("https://", adapter)
            session.mount("http://", adapter)
        self._session = session
        self._sleep = sleep

    def payload(self, system: str, user: str) -> dict:
        return {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": 1.0,
        }

    def complete(self, system: str, user: str) -> Completion:
        """Retry timeouts, connection errors, HTTP 429 and 5xx with
        exponential backoff; fail at once on any other error."""
        import requests

        error: Exception | str | None = None
        for attempt in range(self.retries):
            try:
                resp = self._session.post(
                    self.endpoint,
                    json=self.payload(system, user),
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=120,
                )
            except (requests.Timeout, requests.ConnectionError) as exc:
                error = exc
            except requests.RequestException as exc:
                raise BackendError(f"chat request failed: {exc}") from exc
            else:
                if resp.status_code == 429 or resp.status_code >= 500:
                    error = f"HTTP {resp.status_code}"
                elif resp.status_code >= 400:
                    raise BackendError(f"chat endpoint answered HTTP {resp.status_code}")
                else:
                    return _parse_completion(resp)
            if attempt < self.retries - 1:
                self._sleep(self.backoff * 2**attempt)
        raise BackendError(f"chat backend failed after {self.retries} attempts: {error}")


def _parse_completion(resp) -> Completion:
    try:
        obj = resp.json()
        text = obj["choices"][0]["message"]["content"]
        usage = obj.get("usage") or {}
        tokens = usage.get("prompt_tokens"), usage.get("completion_tokens")
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise BackendError(f"malformed chat response: {exc!r}") from exc
    if not isinstance(text, str):
        raise BackendError("malformed chat response: content is not a string")
    return (text, *tokens)
