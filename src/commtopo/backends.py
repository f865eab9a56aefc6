"""Chat backends: deterministic mocks for the CLI, tests and benchmarks,
and an OpenAI-compatible HTTP client with retries.

A backend maps (system prompt, user prompt) to (output text,
prompt_tokens, completion_tokens); token counts may be None, in which
case the orchestrator falls back to whitespace counting.  One
orchestrator run calls a backend from its calling thread and up to
`MAX_IN_FLIGHT - 1` threads of its pool at once: the calling thread
makes each wave's first call, so a wave of one agent is called from no
other thread.  A collect submits all its units, runs of keys, up front,
longest first, and runs up to `MAX_IN_FLIGHT` of them at once; each unit
scores its keys one at a time.  Scored by orchestrator runs on complete
graphs, whose waves have one agent each, a collect thus keeps at most
`MAX_IN_FLIGHT` backend calls in flight.
"""
from __future__ import annotations

import json
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Protocol

from .errors import BackendError, ConfigError
from .pool import DECISION_PROFILE, AgentPool, render_system_prompt

Completion = tuple[str, int | None, int | None]

MAX_IN_FLIGHT = 16
"""Most backend calls one orchestrator run, and most graph scorings one
collect, keeps in flight at once.  A run makes its calls on the calling
thread plus up to `MAX_IN_FLIGHT - 1` pool threads."""


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


def check_planted_teams(tasks, pool: AgentPool) -> None:
    """Raise ``ConfigError`` for the first task whose planted team names an agent the pool lacks."""
    for task in tasks:
        bad = [v for v in task.planted_team or () if not 0 <= v < pool.n_max]
        if bad:
            raise ConfigError(
                f"task {task.task_id!r}: planted_team id {bad[0]} is not in the pool (ids 0..{pool.n_max - 1})"
            )


class PlantedDecisionBackend:
    """Decision mock for planted suites.

    Locates the task whose decision prompt is the system prompt (the
    first such task, if texts repeat), then answers correctly iff every
    planted-team role appears in the transcript.
    """

    def __init__(self, tasks, pool: AgentPool):
        tasks = list(tasks)
        check_planted_teams(tasks, pool)
        # keyed on the whole prompt: one task's text can lie inside another's
        self.by_prompt = {}
        for t in tasks:
            self.by_prompt.setdefault(render_system_prompt(DECISION_PROFILE, t.task_text), t)
        self.role_to_id = {a.role: a.id for a in pool.agents}

    def complete(self, system: str, user: str) -> Completion:
        task = self.by_prompt.get(system)
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

    retries = 3  # attempts per call
    backoff = 1.0  # seconds before the second attempt, doubled before each later one

    def __init__(self, endpoint: str, api_key: str, model: str, session=None, sleep=time.sleep):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key
        self.model = model
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
    for name, count in zip(("prompt_tokens", "completion_tokens"), tokens):
        if count is not None and (type(count) is not int or count < 0):  # a bool is not of type int
            raise BackendError(f"malformed chat response: usage.{name} is {count!r}, not a count")
    return (text, *tokens)
